"""Out-of-core segment store: bit-identity with the in-RAM pipeline.

The segment store is gated on one invariant: spilling is purely a
memory-ceiling decision.  DDG columns, Algorithm 1 partitions, loop
reports, and CLI output must be *bit-identical* between the in-RAM
columnar path and the spilled path, on arbitrary programs and with
segment budgets tiny enough that every analysis window crosses many
segment boundaries.  The randomized kernels from the columnar property
suite drive the comparison.
"""

import json
import os

import pytest

from repro.analysis.pipeline import analyze_loop
from repro.errors import TraceError
from repro.frontend import compile_source
from repro.interp.interpreter import Interpreter
from repro.trace.columnar import ColumnarLoopSink, ColumnarSink
from repro.trace.store import (
    MANIFEST_NAME,
    SegmentedLoopSink,
    SegmentedSink,
    SegmentStore,
)

from tests.test_columnar import random_kernel
from tests.trace_oracle import (
    assert_ddgs_identical,
    records_equal,
    sink_records,
)

SEEDS = list(range(8))


def _window_pair(seed, tmp_path, segment_rows=8):
    """The same windowed run through both sinks: (module, loop_name,
    in-RAM sink, finished SegmentStore)."""
    module = compile_source(random_kernel(seed))
    loop_name = "red" if seed % 2 == 1 else "outer"
    info = module.loop_by_name(loop_name)
    ram = ColumnarLoopSink(info.loop_id, instances={0})
    Interpreter(module, sink=ram).run("main", ())
    spill = SegmentedLoopSink(info.loop_id, instances={0},
                              spill_dir=str(tmp_path / f"spill{seed}"),
                              segment_rows=segment_rows)
    Interpreter(module, sink=spill).run("main", ())
    assert spill.spans_recorded == ram.spans_recorded == 1
    store = spill.finish()
    return module, loop_name, ram, store


@pytest.mark.parametrize("seed", SEEDS)
def test_spilled_ddg_bit_identical(seed, tmp_path):
    _, _, ram, store = _window_pair(seed, tmp_path)
    assert len(store.segments) > 1, "budget too large to exercise spills"
    assert_ddgs_identical(ram.to_ddg(), store.to_ddg())


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_to_sink_reconstructs_exact_columns(seed, tmp_path):
    """The reassembled in-RAM sink equals the never-spilled one column
    for column — the strongest form of the bit-identity gate."""
    _, _, ram, store = _window_pair(seed, tmp_path)
    back = store.to_sink()
    got, want = back.columns(), ram.columns()
    assert got.sids.tolist() == want.sids.tolist()
    assert got.opcodes.tolist() == want.opcodes.tolist()
    assert got.dep_flat.tolist() == want.dep_flat.tolist()
    assert got.dep_counts.tolist() == want.dep_counts.tolist()
    assert back.marker_rows == ram.marker_rows
    assert back.runs == ram.runs
    assert back.loop_breaks == ram.loop_breaks
    assert got.addr_map() == want.addr_map()
    assert got.mem_map() == want.mem_map()
    assert back.store_map == ram.store_map


@pytest.mark.parametrize("seed", [1, 2])
def test_loop_report_bit_identical_under_spill(seed, tmp_path):
    """End to end through analyze_loop: the report is the same object
    value whether the window spilled or not."""
    module = compile_source(random_kernel(seed))
    loop_name = "red" if seed % 2 == 1 else "outer"
    in_ram = analyze_loop(module, loop_name)
    spilled = analyze_loop(module, loop_name,
                           spill_dir=str(tmp_path / "spill"),
                           segment_rows=8)
    assert in_ram == spilled


def test_stats_match_in_ram_sink(tmp_path):
    _, _, ram, _ = _window_pair(2, tmp_path)
    module = compile_source(random_kernel(2))
    info = module.loop_by_name("outer")
    spill = SegmentedLoopSink(info.loop_id, instances={0},
                              spill_dir=str(tmp_path / "stats"),
                              segment_rows=8)
    Interpreter(module, sink=spill).run("main", ())
    assert spill.stats() == ram.stats()


def test_manifest_records_offsets_and_alignment(tmp_path):
    _, _, _, store = _window_pair(0, tmp_path)
    manifest = store.manifest
    assert manifest["schema"] == "vectra.trace-store/1"
    assert manifest["rows"] == sum(s["rows"] for s in manifest["segments"])
    row_cursor = 0
    marker_cursor = 0
    for seg in manifest["segments"]:
        assert seg["row0"] == row_cursor
        assert seg["markers_before"] == marker_cursor
        row_cursor += seg["rows"]
        marker_cursor += seg["markers"]
        for name, (offset, count) in seg["sections"].items():
            assert offset % 8 == 0 or count == 0 or name == "opcodes"
    # Cut policy: a segment is either iteration-aligned (cut on a
    # marker row) or a forced cut that first had to double the budget.
    for seg in manifest["segments"][:-1]:
        assert seg["aligned"] or seg["rows"] >= 2 * 8


def test_forced_cut_without_markers_is_unaligned(tmp_path):
    """A chunk that doubles the budget without passing a loop marker is
    cut anyway and flagged unaligned — correctness is unaffected."""
    sink = SegmentedSink(str(tmp_path / "forced"), segment_rows=2)
    ram = ColumnarSink()
    for node in range(10):
        for s in (sink, ram):
            s.emit(node, node % 3 + 1, 1, -1,
                   deps=(node - 1,) if node else ())
    store = sink.finish()
    assert len(store.segments) > 1
    assert not store.segments[0]["aligned"]
    assert_ddgs_identical(ram.to_ddg(), store.to_ddg())


def test_late_store_patch_lands_in_spilled_segment(tmp_path):
    """note_store can target a row whose segment already hit disk; the
    patch rides the manifest and first-wins semantics are preserved."""
    sink = SegmentedSink(str(tmp_path / "late"), segment_rows=2)
    ram = ColumnarSink()
    for node in range(6):
        for s in (sink, ram):
            s.emit(node, 1, 1, -1)
    # Node 1's segment spilled at node 4 (forced cut at 2*2 rows).
    assert len(sink.segments) == 1
    for s in (sink, ram):
        s.note_store(1, 0xF00D)
        s.note_store(1, 0xDEAD)  # second write: first wins
        s.note_store(5, 0xBEEF)  # in the open chunk
    store = sink.finish()
    assert store.manifest["late_patches"] == 1
    assert store.to_sink().store_map == ram.store_map == {1: 0xF00D,
                                                          5: 0xBEEF}
    assert_ddgs_identical(ram.to_ddg(), store.to_ddg())


def test_pre_spill_store_entry_beats_late_patch(tmp_path):
    """A store recorded before the spill is the first write; a late
    patch for the same row must not override it."""
    sink = SegmentedSink(str(tmp_path / "dup"), segment_rows=2)
    ram = ColumnarSink()
    for node in range(3):
        for s in (sink, ram):
            s.emit(node, 1, 1, -1)
    for s in (sink, ram):
        s.note_store(1, 0xAAAA)  # lands in the open chunk
    for node in range(3, 6):
        for s in (sink, ram):
            s.emit(node, 1, 1, -1)  # forces the spill past row 4
    for s in (sink, ram):
        s.note_store(1, 0xBBBB)  # now row 1 is on disk: late patch
    store = sink.finish()
    assert store.to_sink().store_map == ram.store_map
    assert ram.store_map[1] == 0xAAAA


def test_stored_trace_dispatches_and_materializes(tmp_path):
    """A store's reassembled sink builds the in-RAM DDG and holds the
    same records."""
    _, _, ram, store = _window_pair(0, tmp_path)
    back = store.to_sink()
    assert len(back) == store.total_rows
    assert_ddgs_identical(ram.to_ddg(), back.to_ddg())
    assert all(map(records_equal, sink_records(back), sink_records(ram)))
    assert len(sink_records(back)) == len(ram)


def test_segmented_sink_refuses_in_ram_conveniences(tmp_path):
    sink = SegmentedSink(str(tmp_path / "refuse"), segment_rows=4)
    sink.emit(0, 1, 1, -1)
    with pytest.raises(TraceError, match="finish"):
        sink.to_ddg()
    with pytest.raises(TraceError):
        SegmentedSink(str(tmp_path / "bad"), segment_rows=0)


def test_empty_run_yields_empty_store(tmp_path):
    sink = SegmentedSink(str(tmp_path / "empty"), segment_rows=4)
    store = sink.finish()
    assert len(store.segments) == 0
    assert len(store.to_ddg()) == 0
    assert store.to_sink().columns().sids.tolist() == []


def test_rerun_cleans_stale_segments(tmp_path):
    """A second run into the same directory must not leave the first
    run's extra segment files behind its new manifest."""
    spill = str(tmp_path / "reuse")
    sink = SegmentedSink(spill, segment_rows=2)
    for node in range(12):
        sink.emit(node, 1, 1, -1)
    first = sink.finish()
    assert len(first.segments) >= 2
    sink = SegmentedSink(spill, segment_rows=2)
    for node in range(4):
        sink.emit(node, 1, 1, -1)
    second = sink.finish()
    on_disk = sorted(f for f in os.listdir(spill) if f.endswith(".vseg"))
    assert on_disk == sorted(s["file"] for s in second.segments)


def test_open_rejects_non_store_directories(tmp_path):
    with pytest.raises(TraceError, match="MANIFEST"):
        SegmentStore(str(tmp_path))
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / MANIFEST_NAME).write_text(json.dumps({"schema": "nope"}))
    with pytest.raises(TraceError, match="schema"):
        SegmentStore(str(bad))


def test_truncated_segment_fails_cleanly(tmp_path):
    _, _, _, store = _window_pair(1, tmp_path)
    path = os.path.join(store.path, store.segments[-1]["file"])
    os.truncate(path, os.path.getsize(path) // 2)
    with pytest.raises(TraceError, match="truncated section"):
        store.to_ddg()


def test_cli_spill_output_identical(tmp_path, capsys):
    from repro.tools.cli import main

    assert main(["analyze", "utdsp_fir_array", "-p", "nout=8",
                 "-p", "ntap=3"]) == 0
    plain = capsys.readouterr().out
    assert main(["analyze", "utdsp_fir_array", "-p", "nout=8",
                 "-p", "ntap=3", "--spill-dir", str(tmp_path / "s"),
                 "--segment-rows", "16"]) == 0
    spilled = capsys.readouterr().out
    assert plain == spilled
    assert (tmp_path / "s").is_dir()


def test_cli_segment_rows_requires_spill_dir(capsys):
    from repro.tools.cli import main

    assert main(["analyze", "utdsp_fir_array", "--segment-rows", "4"]) == 1
    assert "--spill-dir" in capsys.readouterr().err


def test_cli_segment_rows_must_be_positive(tmp_path, capsys):
    """0 is not a request for the default budget: it fails like any
    other non-positive budget."""
    from repro.tools.cli import main

    for rows in ("0", "-5"):
        assert main(["analyze", "utdsp_fir_array", "-p", "nout=8",
                     "-p", "ntap=4", "--spill-dir", str(tmp_path / rows),
                     "--segment-rows", rows]) == 1
        assert (f"segment_rows must be positive, got {rows}"
                in capsys.readouterr().err)
