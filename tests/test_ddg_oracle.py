"""The one trace→DDG path against the record oracle.

Production builds every DDG with the numpy remap of
:meth:`repro.trace.columnar.ColumnarSink.to_ddg`, in RAM or streamed
through the segment store (:meth:`repro.trace.store.SegmentStore
.to_ddg`), whose reader (:func:`repro.trace.store.open_store`) also
takes stores written elsewhere.  ``tests/trace_oracle.py`` keeps the
original record-object sinks and :func:`walk_records` as the reference.
The oracle sinks run on the step interpreter only, so the comparison on
the registered workloads also checks the compiled kernels' records.
"""

import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.larus import node_iterations
from repro.analysis.pipeline import record_windows, windowed_loop_ddg
from repro.errors import TraceError
from repro.frontend import compile_source
from repro.interp.interpreter import DEFAULT_FUEL, Interpreter
from repro.ir.instructions import Opcode
from repro.trace.columnar import ColumnarLoopSink, ColumnarSink
from repro.trace.events import MARKER_ENTER, MARKER_EXIT
from repro.trace.store import (
    SegmentedLoopSink,
    SegmentedSink,
    SegmentStore,
    open_store,
    spill_subdir,
)
from repro.workloads import list_workloads

from tests.test_columnar import SEEDS, random_kernel
from tests.trace_oracle import (
    DynInstr,
    Trace,
    assert_ddgs_identical,
    emit_records,
    record_trace,
    walk_records,
)

#: A two-level FP nest: the record mix (1- and 2-dep rows, loads,
#: stores, a recurrence on C) of a real stencil at a tier-1 size.
SMALL_KERNEL = """
double A[32]; double B[32]; double C[32];
int main() {
  int i; int r;
  for (i = 0; i < 32; i++) {
    A[i] = 0.5 * (double)i;
    B[i] = 1.0 + 0.25 * (double)i;
    C[i] = 0.0;
  }
  rep: for (r = 0; r < 3; r++) {
    body: for (i = 0; i < 32; i++) {
      C[i] = C[i] + A[i] * B[i] - B[i] * C[i];
    }
  }
  return 0;
}
"""

WORKLOADS = list_workloads()


# -- every analyzed loop of the registry ----------------------------------


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_registry_windows_match_oracle(workload, tmp_path):
    """Each analyzed loop's window DDG, in RAM and spilled in at least
    two segments, equals the oracle's walk over the same instance, and
    the Larus iteration numbers read off the window's marker rows equal
    the oracle's.  A program that analyzes several loops records all of
    their windows in one run (nested ones, as in ``cactus_leapfrog``,
    and disjoint ones, as in ``tonto_integrals``): there too, in RAM and
    spilled, each window's DDG and stats equal those of a run of its
    loop alone."""
    module = workload.compile()
    loops = [(module.loop_by_name(name).loop_id, name)
             for name in workload.analyze_loops]
    alone = []
    segment_rows = []
    for loop_id, loop_name in loops:
        oracle = record_trace(module, workload.entry, loop=loop_id,
                              instances={0})
        expected = walk_records(oracle)
        assert len(expected) > 0

        [window], _ = record_windows(module, [(loop_id, loop_name)],
                                     workload.entry)
        assert node_iterations(window.trace, loop_id) == [
            itn for rec, itn in zip(oracle.records,
                                    oracle.iteration_numbers(loop_id))
            if not rec.is_marker]
        ddg, stats, _ = windowed_loop_ddg(module, loop_id, loop_name,
                                          workload.entry, (), 0,
                                          DEFAULT_FUEL)
        assert_ddgs_identical(ddg, expected)
        alone.append((ddg, stats))

        spill_dir = str(tmp_path / "spill")
        segment_rows.append(max(1, len(oracle) // 4))
        ddg, _, _ = windowed_loop_ddg(
            module, loop_id, loop_name, workload.entry, (), 0,
            DEFAULT_FUEL, spill_dir=spill_dir, segment_rows=segment_rows[-1])
        store = SegmentStore(spill_subdir(spill_dir, f"{loop_name}-inst0"))
        assert len(store.segments) >= 2
        assert_ddgs_identical(ddg, expected)
    if len(loops) < 2:
        return

    shared_dir = str(tmp_path / "shared")
    for spill in (None, shared_dir):
        windows, _ = record_windows(module, loops, workload.entry,
                                    spill_dir=spill,
                                    segment_rows=min(segment_rows))
        for (_, loop_name), window, (ddg, stats) in zip(loops, windows,
                                                          alone):
            assert window.stats == stats, (loop_name, spill)
            shared = window.ddg()
            assert_ddgs_identical(shared, ddg)
            assert shared.window_nodes == ddg.window_nodes
            assert shared.window_edges == ddg.window_edges
            if spill:
                store = SegmentStore(spill_subdir(spill,
                                                  f"{loop_name}-inst0"))
                assert len(store.segments) >= 2


# -- building DDGs on kernel traces and hand-made rows ----------------------


def _kernel_record_traces(seed, tmp_path):
    """``(oracle trace, production DDGs)`` pairs for one random kernel:
    the full trace, and every instance of every loop, each from the
    in-RAM sink and through a segment store of a few rows per segment
    (read back with :func:`open_store`, as ``analyze-trace`` reads it)."""
    module = compile_source(random_kernel(seed))
    full = record_trace(module)
    out = []

    def run(ram, spill, store_dir):
        for sink in (ram, spill):
            Interpreter(module, sink=sink).run("main", ())
        spill.finish()
        return [ram.to_ddg(), open_store(store_dir).to_ddg()]

    store_dir = str(tmp_path / "full")
    out.append((full, run(ColumnarSink(),
                          SegmentedSink(store_dir, segment_rows=16),
                          store_dir)))
    for loop_id in sorted(full.spans):
        for instance in range(len(full.loop_instances(loop_id))):
            store_dir = str(tmp_path / f"loop{loop_id}-{instance}")
            out.append((full.subtrace(loop_id, instance), run(
                ColumnarLoopSink(loop_id, {instance}),
                SegmentedLoopSink(loop_id, {instance}, spill_dir=store_dir,
                                  segment_rows=16),
                store_dir)))
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_build_ddg_on_kernel_record_traces(seed, tmp_path):
    """The production DDG of the full trace and of every loop instance
    equals the oracle's walk over the same records."""
    for trace, ddgs in _kernel_record_traces(seed, tmp_path):
        expected = walk_records(trace)
        for ddg in ddgs:
            assert_ddgs_identical(ddg, expected)


_OPCODES = [int(op) for op in Opcode]


@st.composite
def record_lists(draw):
    """Hand-made record lists as a run could write them: node ids from
    0 (as the interpreter numbers them) or elsewhere, with and without
    gaps; deps on earlier and absent node ids and the interpreter's -1
    "no producer" (never on the record's own or a later one); bare
    markers."""
    n = draw(st.integers(0, 24))
    node = draw(st.sampled_from([0, 0, 0, 3, 7]))
    records = []
    for i in range(n):
        if i:
            node += draw(st.sampled_from([1, 1, 1, 2, 3]))
        op = draw(st.sampled_from(_OPCODES))
        if op >= MARKER_ENTER:
            records.append(DynInstr(node, draw(st.integers(0, 5)), op,
                                    draw(st.integers(-1, 3))))
            continue
        deps = tuple(draw(st.lists(st.integers(-1, node - 1), max_size=4)))
        addrs = tuple(draw(st.lists(st.integers(0, 64), max_size=3)))
        records.append(DynInstr(
            node, draw(st.integers(0, 5)), op, draw(st.integers(-1, 3)),
            deps, addrs, draw(st.sampled_from([0, 0, 8, 16])),
            draw(st.sampled_from([0, 0, 24, 32]))))
    return records


def _store_of(records, path, segment_rows=4):
    """``records`` written to a segment store at ``path``, opened by the
    outside-input reader."""
    emit_records(SegmentedSink(str(path), segment_rows=segment_rows),
                 records).finish()
    return open_store(str(path))


@settings(max_examples=300, deadline=None)
@given(record_lists())
@example([DynInstr(0, 1, int(Opcode.FADD), -1),
          DynInstr(1, 1, int(Opcode.FADD), -1, (-3, -1, 0))])
def test_build_ddg_on_hand_made_records(records):
    expected = walk_records(Trace(None, records))
    assert_ddgs_identical(emit_records(ColumnarSink(), records).to_ddg(), expected)
    with tempfile.TemporaryDirectory() as store_dir:
        assert_ddgs_identical(_store_of(records, store_dir).to_ddg(),
                              expected)


def test_build_ddg_on_small_kernel():
    module = compile_source(SMALL_KERNEL)
    sink = ColumnarSink()
    Interpreter(module, sink=sink).run("main", ())
    expected = walk_records(record_trace(module))
    assert len(sink) > 0 and len(expected) > 0
    assert_ddgs_identical(sink.to_ddg(), expected)


@pytest.mark.parametrize("records", [
    [],
    [DynInstr(0, 1, MARKER_ENTER, 2), DynInstr(1, 1, MARKER_EXIT, 2)],
    [DynInstr(4, 1, MARKER_ENTER, 2, (), (8,), 16, 24)],
], ids=["empty", "markers-only", "marker-with-payload"])
def test_build_ddg_without_nodes(records, tmp_path):
    """Empty and markers-only columns go through the same remap, in RAM
    and read back from a store."""
    expected = walk_records(Trace(None, records))
    for ddg in (emit_records(ColumnarSink(), records).to_ddg(),
                _store_of(records, tmp_path / "store").to_ddg()):
        assert len(ddg) == 0
        assert list(ddg.pred_offsets) == [0]
        assert_ddgs_identical(ddg, expected)


@pytest.mark.parametrize("nodes", [(0, 0), (3, 2)])
def test_build_ddg_rejects_unordered_node_ids(nodes, tmp_path):
    records = [DynInstr(node, 1, int(Opcode.FADD), -1) for node in nodes]
    with pytest.raises(TraceError, match="node id"):
        _store_of(records, tmp_path / "store")


@pytest.mark.parametrize("opcode", [0, 73, 99])
def test_build_ddg_rejects_unknown_opcodes(opcode, tmp_path):
    with pytest.raises(TraceError, match="opcode"):
        _store_of([DynInstr(0, 1, opcode, -1)], tmp_path / "store")
