"""Trace-replay compiler benchmark: batched kernels vs step interpreter.

Runs a ~1M-record FP kernel through the tracing
interpreter twice — step mode (``compile_loops=False``) and compiled
mode (hot loop bodies replayed as fused batch kernels) — asserts the
trace columns and DDG are bit-identical in both the in-RAM and spilled
stores, and records throughput in ``BENCH_interp.json`` at the repo
root.  The acceptance bar is a >= 5x traced-records-per-second speedup.
"""

from __future__ import annotations

import gc
import tempfile
import time

from repro.frontend import compile_source
from repro.interp.interpreter import Interpreter
from repro.trace.columnar import ColumnarSink
from repro.trace.store import SegmentedSink

from benchmarks.conftest import write_bench_json

#: ~1M dynamic records: 40 repetitions of a 512-iteration FP kernel with
#: loads from four arrays, a recurrence on C, and dense FP arithmetic —
#: the record mix (1- and 2-dep rows, loads, stores) of a real stencil.
KERNEL = """
double A[512]; double B[512]; double C[512]; double D[512];
int main() {
  int i; int r;
  for (i = 0; i < 512; i++) {
    A[i] = 0.5 * (double)i;
    B[i] = 1.0 + 0.25 * (double)i;
    C[i] = 0.0;
    D[i] = 2.0;
  }
  rep: for (r = 0; r < 40; r++) {
    body: for (i = 0; i < 512; i++) {
      C[i] = C[i] + A[i] * B[i] + D[i] * 0.5 - B[i] * C[i];
    }
  }
  return 0;
}
"""

REPS = 3
MIN_RECORDS = 1_000_000
MIN_SPEEDUP = 5.0
SPILL_SEGMENT_ROWS = 65_536


def _traced_run(module, sink, compile_loops):
    interp = Interpreter(module, sink=sink, compile_loops=compile_loops)
    gc.collect()
    t0 = time.perf_counter()
    interp.run("main", ())
    return time.perf_counter() - t0


def ddgs_identical(a, b) -> bool:
    return (
        a.sids.tolist() == b.sids.tolist()
        and a.opcodes.tolist() == b.opcodes.tolist()
        and list(a.pred_indices) == list(b.pred_indices)
        and list(a.pred_offsets) == list(b.pred_offsets)
        and [tuple(t) for t in a.addrs] == [tuple(t) for t in b.addrs]
        and list(a.store_addrs) == list(b.store_addrs)
        and list(a.mem_addrs) == list(b.mem_addrs)
    )


def _cols(sink):
    """The sink's columns, flattened to lists and dicts."""
    cols = sink.columns()
    return (cols.sids.tolist(), cols.opcodes.tolist(),
            cols.dep_counts.tolist(), cols.dep_flat.tolist(), sink.runs,
            sink.loop_breaks, sink.marker_rows, cols.addr_map(),
            cols.mem_map(), sink.store_map)


def run_comparison(source: str = KERNEL, reps: int = REPS) -> dict:
    module = compile_source(source)

    step_s = compiled_s = float("inf")
    sink_step = sink_comp = None
    for _ in range(reps):
        sink_step = ColumnarSink()
        step_s = min(step_s, _traced_run(module, sink_step, False))
        sink_comp = ColumnarSink()
        compiled_s = min(compiled_s, _traced_run(module, sink_comp, True))

    records = len(sink_comp)
    ddg_step, ddg_comp = sink_step.to_ddg(), sink_comp.to_ddg()
    identical_ram = (ddgs_identical(ddg_step, ddg_comp)
                     and _cols(sink_step) == _cols(sink_comp)
                     and sink_step.stats() == sink_comp.stats())

    with tempfile.TemporaryDirectory() as d_step, \
            tempfile.TemporaryDirectory() as d_comp:
        sp_step = SegmentedSink(d_step, segment_rows=SPILL_SEGMENT_ROWS)
        _traced_run(module, sp_step, False)
        sp_comp = SegmentedSink(d_comp, segment_rows=SPILL_SEGMENT_ROWS)
        _traced_run(module, sp_comp, True)
        st_step, st_comp = sp_step.finish(), sp_comp.finish()
        identical_spill = (
            ddgs_identical(st_step.to_ddg(), st_comp.to_ddg())
            and len(st_step) == len(st_comp) == records
            and (dict(st_step.manifest)["segments"]
                 == dict(st_comp.manifest)["segments"])
        )

    return {
        "records": records,
        "identical_ram": identical_ram,
        "identical_spill": identical_spill,
        "reps": reps,
        "step_run_s": round(step_s, 4),
        "compiled_run_s": round(compiled_s, 4),
        "step_records_per_s": round(records / step_s),
        "compiled_records_per_s": round(records / compiled_s),
        "speedup": round(step_s / compiled_s, 2),
    }


def test_interp_compile_speedup(benchmark):
    payload = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    write_bench_json("BENCH_interp.json", payload)
    assert payload["identical_ram"], "compiled trace diverged in RAM mode"
    assert payload["identical_spill"], "compiled trace diverged in spill mode"
    assert payload["records"] >= MIN_RECORDS
    assert payload["speedup"] >= MIN_SPEEDUP, (
        f"compiled interpreter only {payload['speedup']}x faster "
        f"(need >= {MIN_SPEEDUP}x)"
    )
