"""Reduction-chain detection and relaxation tests (the paper's stated
future-work extension, exercised as ablation 1)."""

from repro.analysis.reductions import (
    detect_reduction_chains,
    reduction_edges,
    reduction_relaxed_partitions,
)
from repro.analysis.pipeline import windowed_loop_ddg
from repro.analysis.timestamps import parallel_partitions
from repro.frontend import compile_source
from repro.ir.instructions import Opcode


REDUCTION_SRC = """
double A[{n}];
double total;

int main() {{
  int i;
  for (i = 0; i < {n}; i++) A[i] = (double)i * 0.5;
  double s = 0.0;
  red: for (i = 0; i < {n}; i++) {{
    s += A[i];
  }}
  total = s;
  return 0;
}}
"""


def reduction_setup(n=12):
    module = compile_source(REDUCTION_SRC.format(n=n))
    loop = module.loop_by_name("red")
    ddg, _, _ = windowed_loop_ddg(module, loop.loop_id, loop.name)
    fadd_sid = next(
        sid for sid in set(ddg.sids)
        if module.instruction(sid).opcode is Opcode.FADD
    )
    return module, ddg, fadd_sid


class TestDetection:
    def test_accumulator_chain_detected(self):
        module, ddg, sid = reduction_setup()
        chains = detect_reduction_chains(ddg)
        assert sid in chains
        assert len(chains[sid]) == 1  # one accumulator location (s)

    def test_non_reduction_not_detected(self):
        src = """
double A[8]; double B[8];
int main() {
  int i;
  L: for (i = 0; i < 8; i++) A[i] = B[i] * 2.0;
  return 0;
}
"""
        module = compile_source(src)
        loop = module.loop_by_name("L")
        ddg, _, _ = windowed_loop_ddg(module, loop.loop_id, loop.name)
        assert detect_reduction_chains(ddg) == {}

    def test_reduction_edges_are_store_load_pairs(self):
        module, ddg, sid = reduction_setup()
        chains = detect_reduction_chains(ddg)
        edges = reduction_edges(ddg, chains[sid])
        assert edges
        load_op = int(Opcode.LOAD)
        store_op = int(Opcode.STORE)
        for u, v in edges:
            assert ddg.opcodes[u] == store_op
            assert ddg.opcodes[v] == load_op


class TestRelaxation:
    def test_chain_becomes_single_partition(self):
        """Unrelaxed: N singleton partitions (the dependence chain).
        Relaxed: one partition — the vectorizable-reduction view."""
        n = 12
        module, ddg, sid = reduction_setup(n)
        strict = parallel_partitions(ddg, sid)
        relaxed = reduction_relaxed_partitions(ddg, sid)
        assert len(strict) == n
        assert all(len(p) == 1 for p in strict.values())
        assert len(relaxed) == 1
        assert len(next(iter(relaxed.values()))) == n

    def test_relaxation_is_identity_without_reduction(self):
        src = """
double A[8]; double B[8];
int main() {
  int i;
  L: for (i = 0; i < 8; i++) A[i] = B[i] * 2.0;
  return 0;
}
"""
        module = compile_source(src)
        loop = module.loop_by_name("L")
        ddg, _, _ = windowed_loop_ddg(module, loop.loop_id, loop.name)
        sid = next(
            s for s in set(ddg.sids)
            if module.instruction(s).opcode is Opcode.FMUL
        )
        assert reduction_relaxed_partitions(ddg, sid) == (
            parallel_partitions(ddg, sid)
        )

    def test_relaxed_loop_metrics_raise_unit_share(self):
        """The end-to-end knob: relax_reductions lifts unit %VecOps on a
        reduction loop (closing the icc-vs-analysis gap of §4.1)."""
        from repro.analysis.pipeline import analyze_loop
        from repro.frontend import compile_source as cs

        module = cs(REDUCTION_SRC.format(n=16))
        strict = analyze_loop(module, "red")
        relaxed = analyze_loop(module, "red", relax_reductions=True)
        assert strict.percent_vec_unit == 0.0
        assert relaxed.percent_vec_unit == 100.0
        assert relaxed.avg_concurrency > strict.avg_concurrency

    def test_sphinx3_style_inner_reduction(self):
        """The paper's §4.1 callout: sphinx3's packed percentage exceeds
        the dynamic %VecOps because icc vectorizes reductions.  With the
        relaxation, the dist accumulation opens up."""
        from repro.workloads.spec.sphinx3 import subvq_source

        module = compile_source(subvq_source(codebook=8, dim=8))
        loop = module.loop_by_name("vq_c")
        ddg, _, _ = windowed_loop_ddg(module, loop.loop_id, loop.name)
        fadds = [
            s for s in set(ddg.sids)
            if module.instruction(s).opcode is Opcode.FADD
        ]
        improved = 0
        for sid in fadds:
            strict = parallel_partitions(ddg, sid)
            relaxed = reduction_relaxed_partitions(ddg, sid)
            if len(relaxed) < len(strict):
                improved += 1
        assert improved >= 1
