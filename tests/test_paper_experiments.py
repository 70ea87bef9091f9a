"""The headline reproduction checks: the shapes of the paper's figures
and tables, at reduced problem sizes.

Each test names the paper artifact it covers.  Benchmarks (in
``benchmarks/``) regenerate the full tables; these tests assert the
load-bearing qualitative claims so a regression in any analysis stage is
caught here.
"""

import pytest

from repro.analysis.metrics import loop_metrics
from repro.analysis.pipeline import windowed_loop_ddg
from repro.frontend import compile_source, parse_source
from repro.vectorizer import analyze_program_loops
from repro.vectorizer.autovec import decisions_by_name
from repro.workloads import get_workload

from tests.trace_oracle import program_ddg


def loop_report(source, label, **kw):
    module = compile_source(source)
    info = module.loop_by_name(label)
    ddg, _, _ = windowed_loop_ddg(module, info.loop_id, label)
    return loop_metrics(ddg, module, label, **kw)


def decisions(source):
    program, analyzer = parse_source(source)
    return decisions_by_name(analyze_program_loops(program, analyzer))


class TestFigure1:
    """Listing 1 / Fig. 1: covered in depth by test_timestamps and
    test_baselines; here the combined claim."""

    def test_per_statement_beats_kumar(self):
        from repro.analysis.kumar import kumar_partitions
        from repro.analysis.timestamps import parallel_partitions
        from tests.conftest import listing1_source

        n = 8
        module = compile_source(listing1_source(n))
        ddg = program_ddg(module)
        from repro.ir.instructions import Opcode

        s2 = max(
            (s for s in set(ddg.sids)
             if module.instruction(s).opcode is Opcode.FMUL),
            key=lambda s: module.instruction(s).line,
        )
        ours = parallel_partitions(ddg, s2)
        kumar = kumar_partitions(ddg, s2, weights="candidates")
        assert max(len(p) for p in ours.values()) == n
        assert max(len(p) for p in kumar.values()) < n


class TestTable2Kernels:
    def test_gauss_seidel_shape(self):
        """Table 2 row 1: 0% packed; ~22% unit (2 of 9 FP ops); the rest
        exposed at fixed non-unit stride (wavefront diagonals)."""
        report = get_workload("gauss_seidel").analyze()
        row = report.loops[0]
        assert row.percent_packed == 0.0
        assert row.percent_vec_unit == pytest.approx(22.2, abs=1.0)
        assert row.percent_vec_nonunit > 60.0

    def test_pde_solver_shape(self):
        """Table 2 row 2: 0% packed but ~100% unit-stride potential."""
        report = get_workload("pde_solver").analyze(block=8, grid=3)
        row = report.loops[0]
        assert row.percent_packed == 0.0
        assert row.percent_vec_unit > 95.0

    def test_gauss_seidel_classified_adds(self):
        """§4.4: exactly the two additions over row i-1 are unit-stride
        vectorizable; the others join partitions only at non-unit
        stride."""
        report = get_workload("gauss_seidel").analyze()
        row = report.loops[0]
        unit_heavy = [
            ir for ir in row.instructions
            if ir.num_instances and ir.unit_vec_ops / ir.num_instances > 0.9
        ]
        assert len(unit_heavy) == 2
        assert all(ir.mnemonic == "fadd" for ir in unit_heavy)


class TestTable3UTDSP:
    KERNELS = ["fft", "fir", "iir", "latnrm", "lmsfir", "mult"]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_analysis_invariant_to_code_style(self, kernel):
        """§4.3's headline: array and pointer versions yield the same
        dynamic metrics."""
        from repro.workloads.utdsp import TABLE3_ROWS

        arr = TABLE3_ROWS[f"{kernel.upper()}/array"]
        ptr = TABLE3_ROWS[f"{kernel.upper()}/pointer"]
        ra = get_workload(arr.workload).analyze().loops[0]
        rp = get_workload(ptr.workload).analyze().loops[0]
        assert ra.avg_concurrency == pytest.approx(rp.avg_concurrency,
                                                   rel=0.02)
        assert ra.percent_vec_unit == pytest.approx(rp.percent_vec_unit,
                                                    abs=2.0)
        assert ra.percent_vec_nonunit == pytest.approx(
            rp.percent_vec_nonunit, abs=2.0
        )

    @pytest.mark.parametrize("kernel", ["fft", "fir", "mult"])
    def test_icc_model_packs_array_not_pointer(self, kernel):
        from repro.workloads.utdsp import TABLE3_ROWS

        arr = TABLE3_ROWS[f"{kernel.upper()}/array"]
        ptr = TABLE3_ROWS[f"{kernel.upper()}/pointer"]
        ra = get_workload(arr.workload).analyze().loops[0]
        rp = get_workload(ptr.workload).analyze().loops[0]
        assert ra.percent_packed > 30.0
        assert rp.percent_packed == 0.0

    @pytest.mark.parametrize("kernel", ["iir", "lmsfir"])
    def test_recurrent_kernels_never_pack(self, kernel):
        from repro.workloads.utdsp import TABLE3_ROWS

        for style in ("array", "pointer"):
            row = TABLE3_ROWS[f"{kernel.upper()}/{style}"]
            r = get_workload(row.workload).analyze().loops[0]
            assert r.percent_packed == 0.0


class TestTable1Shapes:
    def test_all_modeled_rows_match_expectations(self):
        from repro.workloads.spec import TABLE1_ROWS
        from repro.workloads.spec.table1 import row_matches

        cache = {}
        failures = []
        for key, row in TABLE1_ROWS.items():
            if row.workload not in cache:
                cache[row.workload] = get_workload(row.workload).analyze()
            report = cache[row.workload]
            lr = next(
                (l for l in report.loops if l.loop_name == row.loop), None
            )
            assert lr is not None, f"{key}: loop {row.loop} missing"
            if not row_matches(row, lr.percent_packed, lr.percent_vec_unit,
                               lr.percent_vec_nonunit):
                failures.append(
                    f"{key}: packed={lr.percent_packed:.1f} "
                    f"unit={lr.percent_vec_unit:.1f} "
                    f"nonunit={lr.percent_vec_nonunit:.1f}"
                )
        assert not failures, "\n".join(failures)

    def test_gamess_exclusion_recorded(self):
        from repro.workloads.spec import EXCLUDED_BENCHMARKS

        assert "416.gamess" in EXCLUDED_BENCHMARKS


class TestCaseStudyDecisions:
    """§4.4: each case study's original must be refused for the specific
    reason the paper describes, and the transformed version accepted."""

    def test_gauss_seidel_split(self):
        from repro.workloads.kernels import (
            gauss_seidel_source,
            gauss_seidel_split_source,
        )

        orig = decisions(gauss_seidel_source())
        new = decisions(gauss_seidel_split_source())
        assert not orig["gs"].vectorized
        assert any("distance" in r for r in orig["gs"].reasons)
        assert new["gs_vec"].vectorized
        assert not new["gs_seq"].vectorized  # the true dependence remains

    def test_pde_hoisting(self):
        from repro.workloads.kernels import (
            pde_solver_hoisted_source,
            pde_solver_source,
        )

        orig = decisions(pde_solver_source())
        new = decisions(pde_solver_hoisted_source())
        assert not orig["blk_i"].vectorized
        assert any("control flow" in r for r in orig["blk_i"].reasons)
        assert new["int_i"].vectorized
        assert not new["bnd_i"].vectorized

    def test_bwaves_layout(self):
        from repro.workloads.casestudies import (
            bwaves_jacobian_source,
            bwaves_transformed_source,
        )

        orig = decisions(bwaves_jacobian_source())
        new = decisions(bwaves_transformed_source())
        assert not orig["jac_i"].vectorized
        assert new["jac_i"].vectorized

    def test_milc_soa(self):
        from repro.workloads.casestudies import (
            milc_source,
            milc_transformed_source,
        )

        orig = decisions(milc_source())
        new = decisions(milc_transformed_source())
        assert not orig["mv_j"].vectorized
        assert any("non-unit stride" in r for r in orig["mv_j"].reasons)
        assert new["sites_vec"].vectorized

    def test_gromacs_strip_mine(self):
        from repro.workloads.casestudies import (
            gromacs_source,
            gromacs_transformed_source,
        )

        orig = decisions(gromacs_source())
        new = decisions(gromacs_transformed_source())
        assert not orig["force_k"].vectorized
        assert any("irregular" in r for r in orig["force_k"].reasons)
        assert new["compute"].vectorized
        assert not new["gather"].vectorized
        assert not new["scatter"].vectorized

    def test_milc_nonunit_potential(self):
        """Table 1 milc: no packing, but large fixed-stride partitions —
        the signal for a layout transformation."""
        report = get_workload("milc_su3mv").analyze(sites=48)
        row = report.loops[0]
        assert row.percent_packed == 0.0
        assert row.percent_vec_nonunit > 30.0
        # Paper milc rows report non-unit group sizes from 2.3 up to 502;
        # the greedy sorted scan lands in the small-group regime here.
        assert row.avg_vec_size_nonunit >= 3.0


class TestProblemSizeInvariance:
    """§4.1: 'although metrics such as average vector size can vary with
    problem size, the qualitative insights about potential vectorizability
    do not change'."""

    def test_gauss_seidel_across_sizes(self):
        small = get_workload("gauss_seidel").analyze(n=12, t=2).loops[0]
        large = get_workload("gauss_seidel").analyze(n=28, t=3).loops[0]
        assert small.percent_vec_unit == pytest.approx(
            large.percent_vec_unit, abs=3.0
        )
        assert large.avg_vec_size_unit > small.avg_vec_size_unit

    def test_fir_across_sizes(self):
        small = get_workload("utdsp_fir_array").analyze(nout=24).loops[0]
        large = get_workload("utdsp_fir_array").analyze(nout=96).loops[0]
        assert small.percent_vec_unit == pytest.approx(
            large.percent_vec_unit, abs=2.0
        )
