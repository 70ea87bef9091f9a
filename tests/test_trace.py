"""Trace collection tests: records, loop spans, subtraces, sinks.

The production sinks' columns are read back as records through the
oracle (:func:`tests.trace_oracle.columnar_trace`), whose
:class:`~tests.trace_oracle.Trace` indexes them by loop span.
"""

import pytest

from repro.errors import TraceError
from repro.frontend import compile_source
from repro.ir.instructions import Opcode
from repro.trace.events import MARKER_ENTER, MARKER_EXIT, MARKER_NEXT

from tests.trace_oracle import columnar_trace


SRC = """
double A[6];

int main() {
  int i;
  outer: for (i = 0; i < 3; i++) {
    int j;
    inner: for (j = 0; j < 2; j++) {
      A[i * 2 + j] = (double)(i + j) * 1.5;
    }
  }
  return 0;
}
"""


@pytest.fixture
def module():
    return compile_source(SRC)


@pytest.fixture
def trace(module):
    return columnar_trace(module)


class TestRecords:
    def test_node_ids_strictly_increase(self, trace):
        nodes = [r.node for r in trace.records]
        assert nodes == sorted(nodes)
        assert len(set(nodes)) == len(nodes)

    def test_deps_point_backwards(self, trace):
        by_node = {r.node for r in trace.records}
        for rec in trace.records:
            for dep in rec.deps:
                if dep >= 0 and dep in by_node:
                    assert dep < rec.node

    def test_load_store_carry_addresses(self, trace):
        loads = [r for r in trace.records if r.opcode == int(Opcode.LOAD)]
        stores = [r for r in trace.records if r.opcode == int(Opcode.STORE)]
        assert loads and stores
        assert all(r.addr > 0 for r in loads)
        assert all(r.addr > 0 for r in stores)

    def test_candidate_records_have_access_tuples(self, trace):
        cands = trace.candidate_records()
        assert cands
        for rec in cands:
            assert len(rec.addrs) == 2
            # Result of each A[...] = ... * 1.5 is stored to the array.
            assert rec.store_addr > 0
            assert len(rec.access_tuple) == 3

    def test_store_addr_strides_by_element(self, trace):
        cands = sorted(trace.candidate_records(), key=lambda r: r.node)
        addrs = [r.store_addr for r in cands]
        deltas = [b - a for a, b in zip(addrs, addrs[1:])]
        assert all(d == 8 for d in deltas)


class TestLoopStructure:
    def test_markers_balanced(self, trace):
        depth = 0
        for rec in trace.records:
            if rec.opcode == MARKER_ENTER:
                depth += 1
            elif rec.opcode == MARKER_EXIT:
                depth -= 1
            assert depth >= 0
        assert depth == 0

    def test_spans(self, module, trace):
        outer = module.loop_by_name("outer")
        inner = module.loop_by_name("inner")
        assert len(trace.loop_instances(outer.loop_id)) == 1
        assert len(trace.loop_instances(inner.loop_id)) == 3

    def test_subtrace_covers_one_instance(self, module, trace):
        inner = module.loop_by_name("inner")
        sub = trace.subtrace(inner.loop_id, 1)
        assert sub.records[0].opcode == MARKER_ENTER
        assert sub.records[-1].opcode == MARKER_EXIT
        cands = sub.candidate_records()
        assert len(cands) == 2  # two iterations, one fmul each

    def test_subtrace_missing_instance_raises(self, module, trace):
        inner = module.loop_by_name("inner")
        with pytest.raises(TraceError):
            trace.subtrace(inner.loop_id, 99)

    def test_iteration_numbers(self, module, trace):
        outer = module.loop_by_name("outer")
        sub = trace.subtrace(outer.loop_id, 0)
        iters = sub.iteration_numbers(outer.loop_id)
        assert min(iters) >= 0
        assert max(iters) == 3  # 3 body iterations + the failing check
        # Iteration labels are monotonically non-decreasing.
        assert all(a <= b for a, b in zip(iters, iters[1:]))


class TestWindowSink:
    def test_window_restricts_to_loop(self, module):
        inner = module.loop_by_name("inner")
        trace = columnar_trace(module, loop=inner.loop_id)
        # 3 instances recorded back to back.
        assert len(trace.loop_instances(inner.loop_id)) == 3
        assert all(
            r.loop_id in (inner.loop_id,) or r.is_marker
            for r in trace.records
        )

    def test_window_single_instance(self, module):
        inner = module.loop_by_name("inner")
        trace = columnar_trace(module, loop=inner.loop_id, instances={2})
        assert len(trace.loop_instances(inner.loop_id)) == 1
        sub = trace.subtrace(inner.loop_id, 0)
        assert len(sub.candidate_records()) == 2

    def test_window_smaller_than_full_trace(self, module):
        full = columnar_trace(module)
        window = columnar_trace(module,
                                loop=module.loop_by_name("inner").loop_id,
                                instances={0})
        assert len(window) < len(full)
