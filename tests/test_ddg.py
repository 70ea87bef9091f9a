"""DDG construction tests."""

import pytest

from repro.analysis.candidates import candidate_sids
from repro.analysis.pipeline import windowed_loop_ddg
from repro.ddg import DDG
from repro.errors import AnalysisError
from repro.frontend import compile_source
from repro.ir.instructions import Opcode

from tests.trace_oracle import program_ddg


def make_ddg(source, loop=None, module_out=None):
    module = compile_source(source)
    if module_out is not None:
        module_out.append(module)
    if loop is not None:
        info = module.loop_by_name(loop)
        return windowed_loop_ddg(module, info.loop_id, loop)[0]
    return program_ddg(module)


class TestConstruction:
    def test_markers_excluded(self):
        ddg = make_ddg(
            "double A[3]; int main() { int i; "
            "L: for (i=0;i<3;i++) A[i] = 1.0; return 0; }"
        )
        markers = {int(Opcode.LOOP_ENTER), int(Opcode.LOOP_NEXT),
                   int(Opcode.LOOP_EXIT)}
        assert all(op not in markers for op in ddg.opcodes)

    def test_edges_are_topological(self):
        ddg = make_ddg(
            "double A[4]; int main() { int i; "
            "L: for (i=1;i<4;i++) A[i] = A[i-1] * 2.0; return 0; }"
        )
        for i, preds in enumerate(ddg.preds):
            for p in preds:
                assert p < i

    def test_flow_dep_through_memory(self):
        """A store to X then a load of X must be connected."""
        ddg = make_ddg(
            "double g; int main() { g = 2.0; double x = g + 1.0; "
            "return (int)x; }"
        )
        loads = [i for i, op in enumerate(ddg.opcodes)
                 if op == int(Opcode.LOAD)]
        stores = [i for i, op in enumerate(ddg.opcodes)
                  if op == int(Opcode.STORE)]
        connected = any(
            s in ddg.preds[ld]
            for ld in loads
            for s in stores
            if ddg.mem_addrs[ld] == ddg.mem_addrs[s]
        )
        assert connected

    def test_chain_has_path(self):
        """A[i] = 2*A[i-1] forms a multiplication chain: consecutive fmul
        instances must be connected by a path."""
        ddg = make_ddg(
            "double A[5]; int main() { int i; "
            "L: for (i=1;i<5;i++) A[i] = 2.0 * A[i-1]; return 0; }",
            loop="L",
        )
        fmuls = [i for i, op in enumerate(ddg.opcodes)
                 if op == int(Opcode.FMUL)]
        assert len(fmuls) == 4
        for a, b in zip(fmuls, fmuls[1:]):
            assert ddg.has_path(a, b)

    def test_independent_statements_have_no_path(self):
        ddg = make_ddg(
            "double A[5]; double B[5]; int main() { int i; "
            "L: for (i=0;i<5;i++) A[i] = B[i] * 2.0; return 0; }",
            loop="L",
        )
        fmuls = [i for i, op in enumerate(ddg.opcodes)
                 if op == int(Opcode.FMUL)]
        for a in fmuls:
            for b in fmuls:
                if a != b:
                    assert not ddg.has_path(a, b)

    def test_window_drops_external_deps(self):
        """Dependences on values produced before the loop window have no
        edges (the paper's per-loop subtrace semantics)."""
        ddg = make_ddg(
            """
double A[4]; double B[4];
int main() {
  int i;
  for (i = 0; i < 4; i++) B[i] = (double)i;
  L: for (i = 0; i < 4; i++) A[i] = B[i] * 3.0;
  return 0;
}
""",
            loop="L",
        )
        # Loads of B have no store predecessor inside the window.
        loads = [i for i, op in enumerate(ddg.opcodes)
                 if op == int(Opcode.LOAD)]
        b_loads = [
            ld for ld in loads
            if not any(ddg.opcodes[p] == int(Opcode.STORE)
                       for p in ddg.preds[ld])
        ]
        assert b_loads

    def test_dependences_cross_function_calls(self):
        """Register wiring passes through calls: the value computed in the
        callee must reach the caller's consumer."""
        ddg = make_ddg(
            """
double scale(double x) { return x * 3.0; }
double g;
int main() {
  g = scale(2.0) + 1.0;
  return (int)g;
}
"""
        )
        fmul = next(i for i, op in enumerate(ddg.opcodes)
                    if op == int(Opcode.FMUL))
        fadd = next(i for i, op in enumerate(ddg.opcodes)
                    if op == int(Opcode.FADD))
        assert ddg.has_path(fmul, fadd)


class TestDDGClass:
    def test_bad_edge_order_rejected(self):
        with pytest.raises(AnalysisError):
            DDG([1, 2], [10, 10], [(1,), ()])

    def test_column_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            DDG([1], [10, 11], [(), ()])

    def test_successors_inverse_of_preds(self):
        ddg = DDG([1, 1, 1], [10, 10, 10], [(), (0,), (0, 1)])
        succs = ddg.successors()
        assert succs[0] == [1, 2]
        assert succs[1] == [2]
        assert succs[2] == []

    def test_instances_and_static_ids(self):
        ddg = DDG([5, 7, 5], [10, 11, 10], [(), (), ()])
        assert ddg.instances_of(5) == [0, 2]
        assert ddg.static_ids() == [5, 7]

    def test_num_edges(self):
        ddg = DDG([1, 1], [10, 10], [(), (0,)])
        assert ddg.num_edges == 1

    def test_candidate_sids_order(self):
        ddg = DDG(
            [3, 9, 3],
            [int(Opcode.FMUL), int(Opcode.FADD), int(Opcode.FMUL)],
            [(), (), ()],
        )
        assert candidate_sids(ddg) == [3, 9]


class TestCSRLayout:
    """The CSR repacking: flat index/offset arrays are the storage; the
    tuple view and the sid indexes are derived."""

    def test_tuple_input_packs_to_csr(self):
        preds = [(), (0,), (0, 1), (2,)]
        ddg = DDG([1, 1, 2, 2], [10, 10, 11, 11], preds)
        assert list(ddg.pred_offsets) == [0, 0, 1, 3, 4]
        assert list(ddg.pred_indices) == [0, 0, 1, 2]
        assert ddg.num_edges == 4

    def test_preds_view_round_trips(self):
        preds = [(), (0,), (0, 1), (2,)]
        ddg = DDG([1, 1, 2, 2], [10, 10, 11, 11], preds)
        assert ddg.preds == preds
        assert ddg.preds is ddg.preds  # built once, cached

    def test_csr_input_direct(self):
        ddg = DDG([1, 1, 1], [10, 10, 10],
                  pred_indices=[0, 0, 1], pred_offsets=[0, 0, 1, 3])
        assert ddg.preds == [(), (0,), (0, 1)]
        assert ddg.pred_row(2).tolist() == [0, 1]

    def test_csr_and_tuples_both_rejected(self):
        with pytest.raises(AnalysisError):
            DDG([1], [10], [()], pred_indices=[], pred_offsets=[0, 0])

    def test_partial_csr_rejected(self):
        with pytest.raises(AnalysisError):
            DDG([1], [10], pred_indices=[])

    def test_malformed_offsets_rejected(self):
        with pytest.raises(AnalysisError):
            DDG([1, 1], [10, 10], pred_indices=[0], pred_offsets=[0, 1])
        with pytest.raises(AnalysisError):
            DDG([1, 1], [10, 10], pred_indices=[0], pred_offsets=[0, 1, 0])

    def test_csr_topological_violation_rejected(self):
        with pytest.raises(AnalysisError):
            DDG([1, 1], [10, 10], pred_indices=[1], pred_offsets=[0, 1, 1])

    def test_sid_indexes(self):
        ddg = DDG([5, 7, 5], [10, 11, 10], [(), (), ()])
        assert ddg.sid_nodes == {5: [0, 2], 7: [1]}
        assert ddg.sid_opcodes == {5: 10, 7: 11}
        assert ddg.instances_of(42) == []
