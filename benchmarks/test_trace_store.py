"""Out-of-core segment store benchmark: bounded RSS at 10M records.

Drives >= 10M synthetic trace records through :class:`SegmentedSink`,
consumes the spilled store with ``to_ddg()`` (serial segment
reassembly), and records throughput plus peak RSS per phase in
``BENCH_trace_store.json``.  The acceptance bar: the
spilled collection's peak RSS must stay under half the in-RAM slope
projected to the same record count — memory is bounded by the segment
budget, not the trace length.
"""

from benchmarks.conftest import write_bench_json
from benchmarks.trace_store_common import run_out_of_core

MIN_RECORDS = 10_000_000
MAX_RSS_RATIO = 0.5


def test_trace_store_out_of_core(benchmark):
    payload = benchmark.pedantic(run_out_of_core, rounds=1, iterations=1)
    write_bench_json("BENCH_trace_store.json", payload)
    assert payload["spill_emit"]["records"] >= MIN_RECORDS
    assert payload["spill_emit"]["segments"] > 10
    assert payload["spill_analyze"]["ddg_nodes"] > 0
    assert payload["rss_ceiling_ratio"] <= MAX_RSS_RATIO, (
        f"spilled peak RSS is {payload['rss_ceiling_ratio']:.0%} of the "
        f"projected in-RAM footprint (need <= {MAX_RSS_RATIO:.0%})"
    )
