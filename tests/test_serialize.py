"""The one on-disk trace format: segment-store round trips and the
reader's checks on stores from outside.

``vectra trace`` writes a loop's window as a segment store
(:mod:`repro.trace.store`) and ``vectra analyze-trace`` reads it back
with :func:`~repro.trace.store.open_store`.  A store read that way is
outside input: its manifest and its rows are checked, and anything
malformed raises :class:`~repro.errors.TraceError`, never a raw Python
error.
"""

import json
import os
import struct

import numpy as np
import pytest

from repro.errors import TraceError
from repro.frontend import compile_source
from repro.interp.interpreter import Interpreter
from repro.ir.instructions import Opcode
from repro.trace.columnar import ColumnarLoopSink, ColumnarSink
from repro.trace.events import MARKER_ENTER
from repro.trace.store import (
    MANIFEST_NAME,
    SECTION_TYPECODES,
    SegmentedLoopSink,
    SegmentedSink,
    open_store,
)

from tests.trace_oracle import (
    DynInstr,
    Trace,
    assert_ddgs_identical,
    emit_records,
    records_equal,
    sink_records,
)


SRC = """
double A[4];
int main() {
  int i;
  L: for (i = 0; i < 4; i++) A[i] = (double)i * 2.0;
  return 0;
}
"""

FADD = int(Opcode.FADD)


@pytest.fixture
def module():
    return compile_source(SRC)


def _run(module, sink):
    Interpreter(module, sink=sink).run("main", ())
    return sink


def _store(module, path, segment_rows=8):
    """The full trace of ``module`` written to a store at ``path`` and
    opened by the outside-input reader, with the in-RAM sink of the
    same run."""
    ram = _run(module, ColumnarSink())
    _run(module, SegmentedSink(str(path), segment_rows=segment_rows)).finish()
    return ram, open_store(str(path))


def _write(records, path, segment_rows=4):
    """``records`` written to a segment store at ``path``."""
    return emit_records(SegmentedSink(str(path), segment_rows=segment_rows),
                        records).finish()


def _segment_path(store, index=-1):
    return os.path.join(store.path, store.segments[index]["file"])


def _manifest(path):
    return json.loads((path / MANIFEST_NAME).read_text())


def _set_manifest(path, manifest):
    (path / MANIFEST_NAME).write_text(json.dumps(manifest))


def test_round_trip_preserves_all_fields(module, tmp_path):
    ram, store = _store(module, tmp_path / "full")
    assert len(store.segments) > 1
    back = store.to_sink()
    records = sink_records(back)
    assert len(records) == len(ram) == len(store)
    assert all(map(records_equal, records, sink_records(ram)))
    assert_ddgs_identical(store.to_ddg(), ram.to_ddg())


def test_round_trip_via_files(module, tmp_path, capsys):
    """``trace -o DIR`` writes the window's store under DIR and names it;
    reopened, it holds the DDG of the same window recorded in RAM."""
    from repro.tools.cli import main
    from repro.workloads import get_workload

    assert main(["trace", "utdsp_fir_array", "--loop", "fir_n",
                 "-o", str(tmp_path / "fir.trace")]) == 0
    path = tmp_path / "fir.trace" / "fir_n-inst0"
    assert capsys.readouterr().out == (
        f"wrote {len(open_store(str(path)))} records to {path}\n")
    fir = get_workload("utdsp_fir_array").compile()
    ram = _run(fir, ColumnarLoopSink(fir.loop_by_name("fir_n").loop_id, {0}))
    assert_ddgs_identical(open_store(str(path)).to_ddg(), ram.to_ddg())


def test_spans_survive_round_trip(module, tmp_path):
    _, store = _store(module, tmp_path / "full")
    back = Trace(module, sink_records(store.to_sink()))
    loop = module.loop_by_name("L")
    assert len(back.loop_instances(loop.loop_id)) == 1


def test_bad_magic_rejected(module, tmp_path):
    _, store = _store(module, tmp_path / "full")
    with open(_segment_path(store, 0), "r+b") as fh:
        fh.write(b"NOPE")
    with pytest.raises(TraceError, match="not a segment file"):
        store.to_ddg()


def test_truncated_header_rejected(module, tmp_path):
    _, store = _store(module, tmp_path / "full")
    os.truncate(_segment_path(store, 0), 2)
    with pytest.raises(TraceError):
        store.to_ddg()


def test_truncated_record_rejected(module, tmp_path):
    _, store = _store(module, tmp_path / "full")
    path = _segment_path(store)
    os.truncate(path, os.path.getsize(path) - 7)
    with pytest.raises(TraceError, match="truncated"):
        store.to_ddg()


def _synthetic_records(dep_counts=(), addr_counts=()):
    """Records with chosen dependence/address list lengths, each
    dependence on an earlier record."""
    n = max(len(dep_counts), len(addr_counts), 1)
    records = []
    for i in range(n):
        nd = dep_counts[i] if i < len(dep_counts) else 0
        na = addr_counts[i] if i < len(addr_counts) else 0
        records.append(DynInstr(
            node=i, sid=i + 1, opcode=FADD, loop_id=-1,
            deps=tuple(k % max(i, 1) for k in range(nd)) if i else (),
            addrs=tuple(8 * k for k in range(na)), addr=i * 8,
            store_addr=i * 16,
        ))
    return records


@pytest.mark.parametrize("count", [0, 1, 254, 255, 256, 1000, 65535])
def test_v2_round_trip_at_count_boundaries(tmp_path, count):
    """A row's dependence and operand-address lists round-trip through
    the store at every length up to the old ``.vtrc`` version-2 limit,
    across its one- and two-byte count boundaries."""
    records = _synthetic_records(dep_counts=(0, count),
                                 addr_counts=(0, count))
    back = sink_records(open_store(
        _write(records, tmp_path / "s").path).to_sink())
    assert len(back) == len(records)
    assert all(map(records_equal, back, records))


def test_unknown_version_rejected(module, tmp_path):
    _, store = _store(module, tmp_path / "full")
    with open(_segment_path(store, 0), "r+b") as fh:
        fh.seek(4)
        fh.write(struct.pack("<I", 3))
    with pytest.raises(TraceError, match="version 3"):
        store.to_ddg()


def test_trailing_bytes_rejected_with_offset(module, tmp_path):
    """A segment file longer than the manifest says (junk appended, or
    two files concatenated) is refused, naming the extra bytes and where
    they start."""
    _, store = _store(module, tmp_path / "full")
    path = _segment_path(store)
    with open(path, "rb") as fh:
        clean = fh.read()
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 7)
    with pytest.raises(TraceError) as excinfo:
        store.to_ddg()
    message = str(excinfo.value)
    assert "7 trailing byte(s)" in message
    assert f"offset {len(clean)}" in message
    with open(path, "wb") as fh:
        fh.write(clean + clean)
    with pytest.raises(TraceError, match="trailing"):
        store.to_ddg()


def test_truncation_at_every_offset_rejected(tmp_path):
    """Every strict prefix of a segment file raises TraceError — never a
    partial load, never an uncaught struct or numpy error."""
    records = _synthetic_records(dep_counts=(0, 1, 1),
                                 addr_counts=(0, 2, 257))
    store = _write(records, tmp_path / "s", segment_rows=8)
    path = _segment_path(store, 0)
    with open(path, "rb") as fh:
        data = fh.read()
    for cut in range(len(data)):
        with open(path, "wb") as fh:
            fh.write(data[:cut])
        with pytest.raises(TraceError):
            open_store(store.path).to_ddg()
    with open(path, "wb") as fh:
        fh.write(data)
    back = sink_records(open_store(store.path).to_sink())
    assert all(map(records_equal, back, records))


def test_windowed_subtrace_round_trip(module, tmp_path):
    """A window — the collect-then-analyze artifact ``trace`` writes —
    survives the store field for field, markers included."""
    loop = module.loop_by_name("L")
    ram = _run(module, ColumnarLoopSink(loop.loop_id, {0}))
    spill = _run(module, SegmentedLoopSink(
        loop.loop_id, {0}, spill_dir=str(tmp_path / "L"), segment_rows=8))
    back = sink_records(open_store(spill.finish().path).to_sink())
    assert len(back) == len(ram)
    assert all(map(records_equal, back, sink_records(ram)))
    assert len(Trace(module, back).loop_instances(loop.loop_id)) == 1


# -- malformed manifests ------------------------------------------------


def _no_segments(m):
    del m["segments"]
    return m


def _segments_five(m):
    m["segments"] = 5
    return m


def _empty_segment(m):
    m["segments"][0] = {}
    return m


def _escaping_file(m):
    m["segments"][0]["file"] = "../" + m["segments"][0]["file"]
    return m


def _short_section_table(m):
    del m["segments"][0]["sections"]["sids"]
    return m


def _rows_disagree(m):
    m["rows"] += 1
    return m


def _bad_patches(m):
    m["segments"][0]["store_patches"] = [[1]]
    return m


@pytest.mark.parametrize("corrupt", [
    lambda m: [], _no_segments, _segments_five, _empty_segment,
    _escaping_file, _short_section_table, _rows_disagree, _bad_patches,
], ids=["list", "no-segments", "segments-5", "empty-segment",
        "escaping-file", "short-section-table", "rows-disagree",
        "bad-patches"])
def test_malformed_manifest_rejected(module, tmp_path, corrupt):
    path = tmp_path / "full"
    _store(module, path)
    _set_manifest(path, corrupt(_manifest(path)))
    with pytest.raises(TraceError):
        open_store(str(path))


# -- rows a run never writes --------------------------------------------


def _patch_section(store, name, index, value):
    """Overwrite entry ``index`` of section ``name`` of the first
    segment in place."""
    tc = SECTION_TYPECODES[name]
    off, count = store.segments[0]["sections"][name]
    assert index < count
    with open(_segment_path(store, 0), "r+b") as fh:
        fh.seek(off + index * struct.calcsize(tc))
        fh.write(struct.pack("<" + tc, value))


@pytest.mark.parametrize("records,match", [
    ([DynInstr(0, 1, FADD, -1, (1,)), DynInstr(1, 1, FADD, -1)],
     "earlier node"),
    ([DynInstr(0, 1, FADD, -1), DynInstr(1, 1, FADD, -1, (1,))],
     "earlier node"),
    ([DynInstr(0, 1, FADD, -1), DynInstr(1, 1, MARKER_ENTER, 2, (0,))],
     "marker row carries"),
], ids=["later-node", "own-node", "marker-deps"])
def test_outside_rows_rejected(tmp_path, records, match):
    with pytest.raises(TraceError, match=match):
        open_store(_write(records, tmp_path / "s").path)


@pytest.mark.parametrize("section,value,match", [
    ("opcodes", MARKER_ENTER, "marker rows"),
    ("mem_rows", 99, "outside"),
    ("dep_counts", 5, "dependence counts"),
], ids=["marker-opcode", "mem-row", "dep-counts"])
def test_corrupt_sections_rejected(tmp_path, section, value, match):
    records = [DynInstr(0, 1, int(Opcode.LOAD), -1, (), (), 8),
               DynInstr(1, 1, FADD, -1, (0,))]
    store = _write(records, tmp_path / "s")
    _patch_section(store, section, 0, value)
    with pytest.raises(TraceError, match=match):
        open_store(store.path)


def test_run_written_store_passes_the_row_checks(module, tmp_path):
    _, store = _store(module, tmp_path / "full", segment_rows=3)
    store.check_rows()
    ops = np.concatenate([seg.columns().opcodes
                          for seg in store.iter_segments()])
    assert (ops >= MARKER_ENTER).any()


# -- the CLI ------------------------------------------------------------


def _source_file(tmp_path):
    from repro.workloads import get_workload

    path = tmp_path / "fir.c"
    path.write_text(get_workload("utdsp_fir_array").source())
    return str(path)


def test_analyze_trace_on_non_store_fails_cleanly(tmp_path, capsys):
    from repro.tools.cli import main

    code = main(["analyze-trace", str(tmp_path), "--source",
                 _source_file(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines()[-1].startswith("error: ")
    assert "not a trace store" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("corrupt", ["manifest", "segment"])
def test_analyze_trace_on_corrupt_store_fails_cleanly(tmp_path, capsys,
                                                      corrupt):
    from repro.tools.cli import main

    assert main(["trace", "utdsp_fir_array", "--loop", "fir_n",
                 "-o", str(tmp_path / "t")]) == 0
    path = tmp_path / "t" / "fir_n-inst0"
    if corrupt == "manifest":
        _set_manifest(path, _segments_five(_manifest(path)))
    else:
        seg = path / _manifest(path)["segments"][0]["file"]
        os.truncate(seg, seg.stat().st_size // 2)
    capsys.readouterr()
    code = main(["analyze-trace", str(path), "--source",
                 _source_file(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines()[-1].startswith("error: ")
    assert captured.out == ""
