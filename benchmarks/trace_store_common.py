"""Harness for the out-of-core segment store benchmark.

Measures the trace-collection memory ceiling the segment store buys:
the same synthetic emit stream is driven into an in-RAM
:class:`ColumnarSink` at 1M/2M records (to establish the RSS-per-record
slope) and into a :class:`SegmentedSink` at >= 10M records, then the
spilled store is consumed by ``to_ddg()`` (serial segment reassembly).

Every scenario runs in its own child process so ``ru_maxrss`` is that
scenario's peak and nothing else's — a parent process's high-water mark
never resets, so in-process measurement would charge every scenario
with the largest one's footprint.

The headline gate: peak RSS of spilled collection at 10M records must
sit far below the in-RAM slope projected to 10M — the spill budget, not
the trace length, bounds resident memory.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import shutil
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Rows per synthetic loop iteration: 2 loads, 4 arithmetic rows, one
#: store, one NEXT marker — the record mix of a windowed stencil trace.
BODY_ROWS = 8


def drive(sink, n_records: int) -> int:
    """Emit ~``n_records`` rows of a synthetic windowed loop trace."""
    emit = sink.emit
    note = sink.note_store
    node = 0
    emit(node, 100, 70, 7)
    node += 1
    iterations = max(1, -(-(n_records - 2) // BODY_ROWS))
    for _ in range(iterations):
        base = node
        emit(node, 1, 51, 7, (), (node * 8,), node * 8)
        node += 1
        emit(node, 2, 51, 7, (), (node * 8 + 64,), node * 8 + 64)
        node += 1
        emit(node, 3, 3, 7, (node - 1, node - 2))
        node += 1
        emit(node, 4, 7, 7, (node - 1, node - 3))
        node += 1
        emit(node, 5, 3, 7, (node - 1, node - 2))
        node += 1
        emit(node, 6, 7, 7, (node - 1, node - 5))
        node += 1
        emit(node, 7, 41, 7, (node - 1,))
        note(node, base * 8)
        node += 1
        emit(node, 99, 71, 7)
        node += 1
    emit(node, 101, 72, -1)
    return node + 1


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _scenario_ram_emit(spec: dict) -> dict:
    from repro.trace.columnar import ColumnarSink

    sink = ColumnarSink()
    t0 = time.perf_counter()
    records = drive(sink, spec["records"])
    emit_s = time.perf_counter() - t0
    return {
        "records": records,
        "emit_s": round(emit_s, 4),
        "records_per_s": round(records / emit_s),
        "maxrss_kb": _maxrss_kb(),
    }


def _scenario_spill_emit(spec: dict) -> dict:
    from repro.trace.store import SegmentedSink

    sink = SegmentedSink(spec["spill_dir"], segment_rows=spec["segment_rows"])
    t0 = time.perf_counter()
    records = drive(sink, spec["records"])
    emit_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    store = sink.finish()
    finish_s = time.perf_counter() - t0
    return {
        "records": records,
        "emit_s": round(emit_s, 4),
        "finish_s": round(finish_s, 4),
        "records_per_s": round(records / (emit_s + finish_s)),
        "segments": len(store.segments),
        "segment_rows": spec["segment_rows"],
        "bytes_on_disk": store.manifest["segment_bytes"],
        "maxrss_kb": _maxrss_kb(),
    }


def _scenario_spill_analyze(spec: dict) -> dict:
    from repro.trace.store import open_store

    store = open_store(spec["spill_dir"])
    t0 = time.perf_counter()
    ddg = store.to_ddg()
    to_ddg_s = time.perf_counter() - t0
    return {
        "ddg_nodes": len(ddg),
        "to_ddg_s": round(to_ddg_s, 4),
        "maxrss_kb": _maxrss_kb(),
    }


_SCENARIOS = {
    "ram_emit": _scenario_ram_emit,
    "spill_emit": _scenario_spill_emit,
    "spill_analyze": _scenario_spill_analyze,
}


def child_main() -> None:
    spec = json.loads(sys.argv[1])
    result = _SCENARIOS[spec["kind"]](spec)
    print(json.dumps(result))


def _run_child(spec: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "from benchmarks.trace_store_common import child_main; child_main()",
         json.dumps(spec)],
        capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"bench child {spec['kind']} failed:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def run_out_of_core(
    spilled_records: int = 10_000_000,
    ram_points: tuple = (1_000_000, 2_000_000),
    segment_rows: int = 1 << 18,
) -> dict:
    spill_dir = tempfile.mkdtemp(prefix="vectra-bench-store-")
    try:
        ram = [
            _run_child({"kind": "ram_emit", "records": n})
            for n in ram_points
        ]
        spilled = _run_child({
            "kind": "spill_emit", "records": spilled_records,
            "spill_dir": spill_dir, "segment_rows": segment_rows,
        })
        analyze = _run_child({
            "kind": "spill_analyze", "spill_dir": spill_dir,
        })
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)

    # Project the in-RAM slope out to the spilled record count: the
    # resident set an in-RAM run of that length would need.
    slope_kb_per_record = (ram[1]["maxrss_kb"] - ram[0]["maxrss_kb"]) / (
        ram[1]["records"] - ram[0]["records"]
    )
    projected_kb = ram[0]["maxrss_kb"] + slope_kb_per_record * (
        spilled["records"] - ram[0]["records"]
    )
    return {
        "ram_emit": ram,
        "spill_emit": spilled,
        "spill_analyze": analyze,
        "ram_slope_kb_per_m_records": round(slope_kb_per_record * 1e6),
        "projected_ram_maxrss_kb_at_spilled_scale": round(projected_kb),
        "rss_ceiling_ratio": round(
            spilled["maxrss_kb"] / projected_kb, 3
        ),
    }
