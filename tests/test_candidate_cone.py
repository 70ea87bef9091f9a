"""The candidate cone: ``to_ddg(cone_ops)`` against the full window graph.

``analyze`` builds only the *candidate cone* of each loop window — the
nodes whose static instruction is reachable from a candidate's in the
window's sid graph (:class:`repro.trace.columnar.CandidateCone`).  The
oracle here recomputes that cone in plain Python from the full graph
and checks, on every analyzed window of the registry, that:

- the cone is exactly the subgraph the full graph induces on those
  nodes, kept in increasing full-graph order;
- every dropped node has a zero timestamp vector in the full graph's
  Algorithm 1 scan (the full scan is the oracle for exactness);
- ``loop_metrics`` over the cone equals ``loop_metrics`` over the full
  graph, with and without ``include_integer`` and ``relax_reductions``;
- the spilled remap, in at least two segments, cuts the same cone;
- each candidate sid's timestamps, in first-execution order, run 1, 2,
  ..., max, with and without reduction relaxation: the consequence of
  Property 3.2 that ``partitions_from_scan`` orders partitions by.
"""

import pytest

from repro.analysis.candidates import candidate_opcodes, candidate_sids
from repro.analysis.metrics import loop_metrics
from repro.analysis.pipeline import windowed_loop_ddg
from repro.analysis.reductions import removed_edges_by_sid
from repro.analysis.report import LoopReport
from repro.analysis.timestamps import (
    packed_timestamp_scan,
    partitions_from_scan,
)
from repro.interp.interpreter import DEFAULT_FUEL, Interpreter
from repro.ir.instructions import Opcode
from repro.trace.columnar import ColumnarLoopSink, ColumnarSink
from repro.trace.events import MARKER_ENTER, MARKER_EXIT
from repro.trace.store import SegmentStore, spill_subdir
from repro.workloads import list_workloads

from tests.trace_oracle import assert_ddgs_identical

FLAGS = (False, True)


def oracle_cone(ddg, ops):
    """Full-graph indices of the nodes whose sid is a candidate's (an
    instance has an opcode in ``ops``) or reachable from one along the
    graph's sid-level edges, ascending."""
    sids = ddg.sids.tolist()
    indices = ddg.pred_indices.tolist()
    offsets = ddg.pred_offsets.tolist()
    succs = {}
    for i, sid in enumerate(sids):
        for p in indices[offsets[i]:offsets[i + 1]]:
            succs.setdefault(sids[p], set()).add(sid)
    live = {sid for sid, op in zip(sids, ddg.opcodes.tolist()) if op in ops}
    stack = list(live)
    while stack:
        for sid in succs.get(stack.pop(), ()):
            if sid not in live:
                live.add(sid)
                stack.append(sid)
    return [i for i, sid in enumerate(sids) if sid in live]


def assert_induced_cone(full, cone, kept):
    """``cone`` is ``full`` restricted to the nodes ``kept`` (ascending):
    same columns, and each kept node keeps exactly its kept producers,
    renumbered."""
    assert kept == sorted(set(kept))
    at = {j: k for k, j in enumerate(kept)}
    assert cone.sids.tolist() == full.sids[kept].tolist()
    assert cone.opcodes.tolist() == full.opcodes[kept].tolist()
    assert cone.addrs == [full.addrs[j] for j in kept]
    assert cone.store_addrs.tolist() == full.store_addrs[kept].tolist()
    assert cone.mem_addrs.tolist() == full.mem_addrs[kept].tolist()
    assert cone.preds == [tuple(at[p] for p in full.pred_row(j) if p in at)
                          for j in kept]
    assert (cone.window_nodes, cone.window_edges) == (len(full),
                                                      full.num_edges)


def assert_drops_only_zero_nodes(full, kept, include_integer):
    scan = packed_timestamp_scan(full,
                                 candidate_sids(full, include_integer))
    at = set(kept)
    assert all(v == 0 for j, v in enumerate(scan.vectors) if j not in at)


def assert_first_seen_timestamps_ascend(ddg, include_integer):
    sids = candidate_sids(ddg, include_integer)
    for removed in (None, removed_edges_by_sid(ddg, sids)):
        scan = packed_timestamp_scan(ddg, sids, removed)
        partitions = partitions_from_scan(ddg, scan)
        for sid in sids:
            seen = dict.fromkeys(scan.timestamp(i, sid)
                                 for i in ddg.instances_of(sid))
            assert list(seen) == list(range(1, len(seen) + 1)), sid
            assert list(partitions[sid]) == list(seen), sid


def assert_same_metrics(full, cone, module, loop_name, include_integer):
    for relax in FLAGS:
        assert loop_metrics(cone, module, loop_name, include_integer,
                            relax) == loop_metrics(full, module, loop_name,
                                                   include_integer, relax)


# -- every analyzed loop of the registry ----------------------------------


@pytest.mark.parametrize("workload", list_workloads(), ids=lambda w: w.name)
def test_registry_windows_cone(workload, tmp_path):
    module = workload.compile()
    for loop_name in workload.analyze_loops:
        loop_id = module.loop_by_name(loop_name).loop_id
        sink = ColumnarLoopSink(loop_id, instances={0})
        Interpreter(module, sink=sink).run(workload.entry, ())
        full = sink.to_ddg()
        spill_dir = str(tmp_path / "spill")
        windowed_loop_ddg(module, loop_id, loop_name, workload.entry, (), 0,
                          DEFAULT_FUEL, spill_dir=spill_dir,
                          segment_rows=max(1, len(sink) // 4))
        store = SegmentStore(spill_subdir(spill_dir, f"{loop_name}-inst0"))
        assert len(store.segments) >= 2
        for include_integer in FLAGS:
            ops = candidate_opcodes(include_integer)
            cone = sink.to_ddg(ops)
            kept = oracle_cone(full, ops)
            assert_induced_cone(full, cone, kept)
            assert_drops_only_zero_nodes(full, kept, include_integer)
            assert_first_seen_timestamps_ascend(full, include_integer)
            assert_same_metrics(full, cone, module, loop_name,
                                include_integer)
            spilled = store.to_ddg(cone_ops=ops)
            assert_ddgs_identical(spilled, cone)
            assert (spilled.window_nodes, spilled.window_edges) == (
                cone.window_nodes, cone.window_edges)


# -- hand-built windows ----------------------------------------------------

LOAD, STORE = int(Opcode.LOAD), int(Opcode.STORE)
FADD, FMUL = int(Opcode.FADD), int(Opcode.FMUL)
ADD, MUL, PTRADD = int(Opcode.ADD), int(Opcode.MUL), int(Opcode.PTRADD)
ICMP, NEXT = int(Opcode.ICMP), int(Opcode.LOOP_NEXT)


def _sink(records):
    """A sink holding ``(sid, opcode, deps, mem addr)`` records, one node
    id per record (markers included, as the interpreter numbers them)."""
    sink = ColumnarSink()
    for node, (sid, opcode, deps, addr) in enumerate(records):
        sink.emit(node, sid, opcode, 0, deps, (), addr)
    return sink


def _cone_checks(sink, include_integer):
    full = sink.to_ddg()
    ops = candidate_opcodes(include_integer)
    cone = sink.to_ddg(ops)
    assert_induced_cone(full, cone, oracle_cone(full, ops))
    assert_drops_only_zero_nodes(full, oracle_cone(full, ops),
                                 include_integer)
    assert_same_metrics(full, cone, None, "L", include_integer)
    return cone


def test_window_without_candidates_gives_the_empty_ddg():
    sink = _sink([(1, LOAD, (), 8), (2, ADD, (0,), 0), (3, STORE, (1,), 16),
                  (4, ICMP, (1,), 0)])
    cone = _cone_checks(sink, False)
    assert len(cone) == 0
    assert list(cone.pred_offsets) == [0]
    assert (cone.window_nodes, cone.window_edges) == (4, 3)
    assert loop_metrics(cone, loop_name="L") == LoopReport(loop_name="L")


def test_dropped_producer_loses_its_edge_and_the_consumer_stays():
    # The load is no candidate's successor: it is dropped, and the
    # candidates it feeds keep only their edges from kept producers.
    sink = _sink([(10, LOAD, (), 8), (11, FMUL, (0,), 0),
                  (12, FADD, (1, 0), 0)])
    cone = _cone_checks(sink, False)
    assert cone.sids.tolist() == [11, 12]
    assert cone.preds == [(), (0,)]
    assert (cone.window_nodes, cone.window_edges) == (3, 3)


def test_candidate_chain_crosses_loop_markers():
    sink = _sink([(20, FADD, (), 0), (5, NEXT, (), 0), (21, STORE, (0,), 64),
                  (5, NEXT, (), 0), (22, LOAD, (2,), 64),
                  (23, FMUL, (4,), 0), (24, ICMP, (), 0)])
    cone = _cone_checks(sink, False)
    assert cone.sids.tolist() == [20, 21, 22, 23]
    assert cone.preds == [(), (0,), (1,), (2,)]
    assert cone.mem_addrs.tolist() == [0, 64, 64, 0]
    assert cone.window_nodes == 5


def test_marker_rows_are_never_nodes_of_the_cone():
    sink = ColumnarSink()
    sink.emit(0, 7, MARKER_ENTER, 0)
    sink.emit(1, 20, FADD, 0)
    sink.emit(2, 7, MARKER_EXIT, 0)
    assert sink.to_ddg(candidate_opcodes()).sids.tolist() == [20]


@pytest.mark.parametrize("include_integer", FLAGS)
def test_integer_candidates_keep_the_index_chain(include_integer):
    # i + 1 -> * 8 -> ptradd -> load -> fadd: only --integer makes the
    # index arithmetic candidates, and then the whole chain is live.
    sink = _sink([(30, ADD, (), 0), (31, MUL, (0,), 0),
                  (32, PTRADD, (1,), 0), (33, LOAD, (2,), 8),
                  (34, FADD, (3,), 0)])
    cone = _cone_checks(sink, include_integer)
    assert cone.sids.tolist() == ([30, 31, 32, 33, 34] if include_integer
                                  else [34])
