"""Kumar and Larus baseline tests (paper §2.1, Figures 1 and 2)."""

import pytest

from repro.analysis.kumar import (
    kumar_partitions,
    kumar_profile,
    kumar_timestamps,
)
from repro.analysis.larus import (
    larus_loop_parallelism,
    larus_partitions,
    node_iterations,
)
from repro.analysis.pipeline import record_windows
from repro.analysis.timestamps import parallel_partitions
from repro.ddg import DDG
from repro.errors import AnalysisError
from repro.frontend import compile_source
from repro.ir.instructions import Opcode

from tests.conftest import listing1_source, listing2_source
from tests.trace_oracle import program_ddg

FMUL = int(Opcode.FMUL)


class TestKumar:
    def test_chain_critical_path(self):
        ddg = DDG([1] * 5, [FMUL] * 5,
                   [() if i == 0 else (i - 1,) for i in range(5)])
        profile = kumar_profile(ddg)
        assert profile.critical_path == 5
        assert profile.average_parallelism == 1.0

    def test_independent_parallelism(self):
        ddg = DDG([1] * 8, [FMUL] * 8, [()] * 8)
        profile = kumar_profile(ddg)
        assert profile.critical_path == 1
        assert profile.average_parallelism == 8.0
        assert profile.histogram == {1: 8}

    def test_candidate_weighting_skips_bookkeeping(self):
        add = int(Opcode.ADD)
        ddg = DDG([1, 2, 1], [FMUL, add, FMUL], [(), (0,), (1,)])
        unit = kumar_timestamps(ddg, "unit")
        cand = kumar_timestamps(ddg, "candidates")
        assert unit == [1, 2, 3]
        assert cand == [1, 1, 2]

    def test_unknown_weighting_rejected(self):
        ddg = DDG([1], [FMUL], [()])
        with pytest.raises(AnalysisError):
            kumar_timestamps(ddg, "bogus")

    def test_fig1_kumar_under_exposes_s2(self):
        """Fig. 1(a): Kumar's global timestamps split S2's instances into
        2(N-1) partitions instead of N-1, and partition members do not
        access contiguous memory."""
        n = 8
        module = compile_source(listing1_source(n))
        ddg = program_ddg(module)
        s2 = max(
            (sid for sid in set(ddg.sids)
             if module.instruction(sid).opcode is Opcode.FMUL),
            key=lambda s: module.instruction(s).line,
        )
        kparts = kumar_partitions(ddg, s2, weights="candidates")
        ours = parallel_partitions(ddg, s2)
        # Kumar interleaves S1 and S2 timestamps: strictly more (hence
        # smaller) partitions than the per-statement analysis, which finds
        # exactly N-1 partitions of size N.
        assert len(kparts) > len(ours)
        assert max(len(p) for p in kparts.values()) < n
        assert len(ours) == n - 1

    def test_fig1_critical_path(self):
        n = 8
        module = compile_source(listing1_source(n))
        ddg = program_ddg(module)
        profile = kumar_profile(ddg, weights="candidates")
        assert profile.critical_path == 2 * (n - 1)


class TestLarus:
    def _loop_setup(self, source, label):
        """The loop's DDG and each node's iteration of it, from one
        recorded window."""
        module = compile_source(source)
        loop = module.loop_by_name(label)
        [window], _ = record_windows(module, [(loop.loop_id, label)])
        iterations = node_iterations(window.trace, loop.loop_id)
        return module, loop, iterations, window.ddg()

    def test_fully_parallel_loop(self):
        module, loop, iters, ddg = self._loop_setup(
            "double A[8]; double B[8]; int main() { int i; "
            "L: for (i = 0; i < 8; i++) A[i] = B[i] * 2.0; return 0; }",
            "L",
        )
        result = larus_loop_parallelism(ddg, iters, loop.loop_id)
        # 8 body iterations plus the trailing failing bounds check.
        assert result.num_iterations == 9
        # The induction-variable chain serializes iteration *starts*, but
        # the bodies overlap: parallelism must exceed 1.
        assert result.parallelism > 1.0

    def test_serial_loop_parallelism_near_one(self):
        module, loop, iters, ddg = self._loop_setup(
            "double A[8]; int main() { int i; "
            "L: for (i = 1; i < 8; i++) A[i] = A[i-1] * 2.0; return 0; }",
            "L",
        )
        result = larus_loop_parallelism(ddg, iters, loop.loop_id)
        assert result.parallelism < 1.6

    def test_fig2_larus_misses_reordering_parallelism(self):
        """Fig. 2(b) vs 2(c): the loop-carried S2->S1 dependence makes
        Larus-model partitions tiny, while Algorithm 1 puts each
        statement's instances into one full partition."""
        n = 8
        module, loop, iters, ddg = self._loop_setup(listing2_source(n), "L")
        fmuls = [
            sid for sid in set(ddg.sids)
            if module.instruction(sid).opcode is Opcode.FMUL
        ]
        for sid in fmuls:
            larus = larus_partitions(ddg, iters, loop.loop_id, sid)
            ours = parallel_partitions(ddg, sid)
            assert max(len(p) for p in larus.values()) == 1
            assert len(ours) == 1
            assert len(next(iter(ours.values()))) == n - 1

    def test_mismatched_ddg_rejected(self):
        module, loop, iters, ddg = self._loop_setup(
            "double A[4]; int main() { int i; "
            "L: for (i = 0; i < 4; i++) A[i] = 1.0; return 0; }",
            "L",
        )
        wrong = DDG([1], [FMUL], [()])
        with pytest.raises(AnalysisError):
            larus_loop_parallelism(wrong, iters, loop.loop_id)

    def test_total_ops_counts_non_markers(self):
        module, loop, iters, ddg = self._loop_setup(
            "double A[4]; int main() { int i; "
            "L: for (i = 0; i < 4; i++) A[i] = 1.0; return 0; }",
            "L",
        )
        result = larus_loop_parallelism(ddg, iters, loop.loop_id)
        assert result.total_ops == len(ddg)
        assert result.completion_time >= 1
