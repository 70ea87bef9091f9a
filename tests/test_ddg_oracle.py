"""The one trace→DDG path against the record oracle.

Production builds every DDG with the numpy remap of
:meth:`repro.trace.columnar.ColumnarSink.to_ddg`: in RAM, through the
segment store, and — via :func:`repro.trace.columnar.pack_records` — for
record traces.  ``tests/trace_oracle.py`` keeps the original
record-object sinks and :func:`walk_records` as the reference.  The
oracle sinks run on the step interpreter only, so the comparison on the
registered workloads also checks the compiled kernels' records.
"""

import io

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.pipeline import record_windows, windowed_loop_ddg
from repro.ddg.build import build_ddg
from repro.errors import TraceError
from repro.frontend import compile_source
from repro.interp import run_and_trace
from repro.interp.interpreter import DEFAULT_FUEL
from repro.ir.instructions import Opcode
from repro.trace.events import MARKER_ENTER, MARKER_EXIT, DynInstr
from repro.trace.serialize import read_trace, write_trace
from repro.trace.store import SegmentStore, spill_subdir
from repro.trace.trace import Trace
from repro.workloads import list_workloads

from tests.test_columnar import SEEDS, random_kernel
from tests.trace_oracle import (
    assert_ddgs_identical,
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
    two segments, equals the oracle's walk over the same instance.  A
    program that analyzes several loops records all of their windows
    in one run (nested ones, as in ``cactus_leapfrog``, and disjoint
    ones, as in ``tonto_integrals``): there too, in RAM and spilled,
    each window's DDG and stats equal those of a run of its loop
    alone."""
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


# -- build_ddg on record traces ----------------------------------------------


def _round_trip(trace):
    buf = io.BytesIO()
    write_trace(trace, buf)
    buf.seek(0)
    return read_trace(buf, trace.module)


def _kernel_record_traces(seed):
    """The full trace, a window, and every subtrace of one random
    kernel, each round-tripped through the trace file format."""
    module = compile_source(random_kernel(seed))
    full = record_trace(module)
    loop_ids = sorted(full.spans)
    traces = [full, record_trace(module, loop=loop_ids[0], instances={0})]
    for loop_id in loop_ids:
        for instance in range(len(full.loop_instances(loop_id))):
            traces.append(full.subtrace(loop_id, instance))
    return [_round_trip(t) for t in traces]


@pytest.mark.parametrize("seed", SEEDS)
def test_build_ddg_on_kernel_record_traces(seed):
    for trace in _kernel_record_traces(seed):
        assert_ddgs_identical(build_ddg(trace), walk_records(trace))


_OPCODES = [int(op) for op in Opcode]


@st.composite
def record_lists(draw):
    """Hand-made record lists: node ids from 0 (as the interpreter
    numbers them) or elsewhere, with and without gaps; deps on earlier,
    later, absent, negative and own node ids; markers that carry
    payloads."""
    n = draw(st.integers(0, 24))
    node = draw(st.sampled_from([0, 0, 0, 3, -1, -2]))
    records = []
    for i in range(n):
        if i:
            node += draw(st.sampled_from([1, 1, 1, 2, 3]))
        deps = tuple(draw(st.lists(st.integers(-4, node + 6), max_size=4)))
        addrs = tuple(draw(st.lists(st.integers(0, 64), max_size=3)))
        records.append(DynInstr(
            node, draw(st.integers(0, 5)), draw(st.sampled_from(_OPCODES)),
            draw(st.integers(-1, 3)), deps, addrs,
            draw(st.sampled_from([0, 0, 8, 16])),
            draw(st.sampled_from([0, 0, 24, 32]))))
    return records


@settings(max_examples=300, deadline=None)
@given(record_lists())
@example([DynInstr(0, 1, int(Opcode.FADD), -1),
          DynInstr(1, 1, int(Opcode.FADD), -1, (-3, -1, 0))])
def test_build_ddg_on_hand_made_records(records):
    trace = Trace(None, records)
    assert_ddgs_identical(build_ddg(trace), walk_records(trace))


def test_build_ddg_on_small_kernel():
    module = compile_source(SMALL_KERNEL)
    traced = run_and_trace(module)
    expected = walk_records(record_trace(module))
    assert len(traced) > 0 and len(expected) > 0
    assert_ddgs_identical(build_ddg(traced), expected)
    assert_ddgs_identical(build_ddg(Trace(module, traced.records)),
                          expected)


@pytest.mark.parametrize("records", [
    [],
    [DynInstr(0, 1, MARKER_ENTER, 2), DynInstr(1, 1, MARKER_EXIT, 2)],
    [DynInstr(4, 1, MARKER_ENTER, 2, (3, 4), (8,), 16, 24)],
], ids=["empty", "markers-only", "marker-with-payload"])
def test_build_ddg_without_nodes(records):
    """Empty and markers-only columns go through the same remap."""
    trace = Trace(None, records)
    ddg = build_ddg(trace)
    assert len(ddg) == 0
    assert list(ddg.pred_offsets) == [0]
    assert_ddgs_identical(ddg, walk_records(trace))


@pytest.mark.parametrize("nodes", [(0, 0), (3, 2)])
def test_build_ddg_rejects_unordered_node_ids(nodes):
    trace = Trace(None, [DynInstr(node, 1, int(Opcode.FADD), -1)
                         for node in nodes])
    with pytest.raises(TraceError, match="node id"):
        build_ddg(trace)


@pytest.mark.parametrize("opcode", [0, 73, 99])
def test_build_ddg_rejects_unknown_opcodes(opcode):
    trace = Trace(None, [DynInstr(0, 1, opcode, -1)])
    with pytest.raises(TraceError, match="opcode"):
        build_ddg(trace)
