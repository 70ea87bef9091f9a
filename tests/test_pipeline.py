"""End-to-end pipeline tests (the §4.1 methodology as a single call)."""

import logging

import pytest

import repro.analysis.pipeline as pipeline_mod
from repro.analysis.pipeline import (
    analyze_loop,
    analyze_program,
    run_loop_analyses,
)
from repro.errors import AnalysisError, FuelExhaustedError
from repro.frontend import compile_source
from repro.obs import Run, Telemetry, use_run


SRC = """
double A[24];
double B[24];

int main() {
  int i, r;
  init: for (i = 0; i < 24; i++) B[i] = (double)i * 0.25;
  hot: for (r = 0; r < 12; r++) {
    body: for (i = 0; i < 24; i++) {
      A[i] = A[i] * 0.999 + B[i];
    }
  }
  return 0;
}
"""


class TestAnalyzeLoop:
    def test_by_label(self):
        module = compile_source(SRC)
        report = analyze_loop(module, "body")
        assert report.loop_name == "body"
        assert report.total_candidate_ops == 48  # one instance: 24 * 2

    def test_by_function_line(self):
        module = compile_source(SRC)
        info = module.loop_by_name("init")
        report = analyze_loop(module, f"main:{info.header_line}")
        assert report.total_candidate_ops == 24

    def test_instance_selection(self):
        module = compile_source(SRC)
        r0 = analyze_loop(module, "body", instance=0)
        r5 = analyze_loop(module, "body", instance=5)
        assert r0.total_candidate_ops == r5.total_candidate_ops

    def test_unknown_loop_raises(self):
        module = compile_source(SRC)
        with pytest.raises(AnalysisError):
            analyze_loop(module, "nope")

    def test_missing_instance_raises(self):
        module = compile_source(SRC)
        with pytest.raises(AnalysisError):
            analyze_loop(module, "body", instance=999)

    def test_missing_instance_error_names_requested_instance(self):
        module = compile_source(SRC)
        with pytest.raises(AnalysisError, match=r"'body' instance 999"):
            analyze_loop(module, "body", instance=999)

    def test_instance_selection_picks_requested_iteration(self):
        """The subtrace must be the *requested* dynamic instance, not
        whatever span happens to come first: inner trip count varies with
        the outer index, so each instance has a distinct op count."""
        src = """
double A[32];
int main() {
  int i, r;
  outer: for (r = 1; r < 5; r++) {
    inner: for (i = 0; i < r * 4; i++) A[i] = A[i] * 2.0;
  }
  return 0;
}
"""
        module = compile_source(src)
        for instance, trip in enumerate([4, 8, 12, 16]):
            report = analyze_loop(module, "inner", instance=instance)
            assert report.total_candidate_ops == trip

    def test_integer_characterization_option(self):
        module = compile_source(SRC)
        fp_only = analyze_loop(module, "body")
        with_int = analyze_loop(module, "body", include_integer=True)
        assert with_int.total_candidate_ops > fp_only.total_candidate_ops


class TestAnalyzeProgram:
    def test_hot_loops_analyzed_with_packed_column(self):
        report = analyze_program(SRC, benchmark="demo")
        names = [loop.loop_name for loop in report.loops]
        assert "body" in names
        assert "init" not in names  # below the 10% threshold
        body = next(l for l in report.loops if l.loop_name == "body")
        assert body.percent_cycles > 50.0
        assert body.percent_packed == 100.0  # clean stride-1 axpy
        assert body.percent_vec_unit == 100.0

    def test_table_rendering(self):
        report = analyze_program(SRC, benchmark="demo")
        table = report.table()
        assert "Benchmark" in table
        assert "demo" in table

    def test_threshold_controls_row_count(self):
        all_rows = analyze_program(SRC, threshold=0.001)
        few_rows = analyze_program(SRC, threshold=0.5)
        assert len(all_rows.loops) >= len(few_rows.loops)

    def test_named_loops_match_discovered(self):
        """Handed the hot loops by name, the driver runs no profile pass
        and takes the profile from the windowed run: the same report."""
        discovered = analyze_program(SRC, benchmark="demo")
        names = [loop.loop_name for loop in discovered.loops]
        tel = Telemetry()
        with use_run(Run(tel=tel)):
            named = analyze_program(SRC, benchmark="demo", loops=names)
        assert named == discovered
        assert tel.spans["profile.run"][1] == 1
        # One windowed run for every loop, and no profile run.
        assert tel.counters["interp.runs"] == 1

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, 10])
    def test_threshold_outside_unit_range_fails_before_interpreting(
            self, threshold):
        """The threshold is a fraction of the cycles: a percentage typed
        as ``10`` would select nothing, a negative value everything."""
        tel = Telemetry()
        with use_run(Run(tel=tel)), \
                pytest.raises(AnalysisError, match=r"\[0, 1\]"):
            analyze_program(SRC, threshold=threshold)
        assert "frontend.parse_lower" not in tel.spans
        assert tel.counters.get("interp.runs", 0) == 0


class TestAnalyzeModule:
    """The one driver over a whole module: its hot loops, fuel,
    telemetry and cone counters."""

    def test_threshold_controls_row_count(self):
        all_rows = analyze_program(SRC, threshold=0.001)
        few_rows = analyze_program(SRC, threshold=0.5)
        assert len(all_rows.loops) > len(few_rows.loops)
        # The closed range's ends: every loop with cycles, or none.
        assert len(analyze_program(SRC, threshold=0.0).loops) >= len(
            all_rows.loops)
        assert analyze_program(SRC, threshold=1.0).loops == []

    def test_forwards_fuel(self):
        with pytest.raises(FuelExhaustedError):
            analyze_program(SRC, fuel=50)

    def test_records_telemetry(self):
        tel = Telemetry()
        with use_run(Run(tel=tel)):
            report = analyze_program(SRC)
        assert tel.spans["profile.run"][1] == 1
        assert "loop.rerun" in tel.spans
        assert "ddg.build" in tel.spans
        assert "algorithm1" in tel.spans
        assert "stride" in tel.spans
        # The profile run, then one windowed run for every hot loop.
        assert tel.counters["interp.runs"] == 2
        assert tel.counters["pipeline.hot_loops"] == len(report.loops)
        assert tel.counters["pipeline.loops_analyzed"] == len(report.loops)
        assert tel.counters["ddg.nodes"] > 0
        assert tel.counters["ddg.edges"] > 0

    def test_cone_counters(self, monkeypatch):
        """``analyze`` scans the candidate cone and counts it apart:
        ``ddg.nodes`` keeps counting the whole window, as ``explain``
        (which keeps the full graph) does; ``analyze`` records only its
        capture set, so its ``ddg.edges`` counts the captured rows'
        edges, at most the window's."""
        analyzed = []
        metrics = pipeline_mod.loop_metrics

        def capture(ddg, *args, **kwargs):
            analyzed.append(ddg)
            return metrics(ddg, *args, **kwargs)

        monkeypatch.setattr(pipeline_mod, "loop_metrics", capture)
        module = compile_source(SRC)
        tel = Telemetry()
        with use_run(Run(tel=tel)):
            analyze_loop(module, "body")
        (ddg,) = analyzed
        counters = tel.counters
        assert counters["ddg.cone_nodes"] == len(ddg) > 0
        assert counters["ddg.cone_edges"] == ddg.num_edges
        assert counters["ddg.cone_nodes"] < counters["ddg.nodes"]
        assert counters["ddg.cone_edges"] < counters["ddg.edges"]
        section = tel.sections["loop.body"]
        assert section["cone_nodes"] == len(ddg)
        assert section["ddg_nodes"] == counters["ddg.nodes"]

        from repro.explain.driver import explain_loop

        explained = Telemetry()
        with use_run(Run(tel=explained)):
            explain_loop(module, "body")
        assert not any(name.startswith("ddg.cone_")
                       for name in explained.counters)
        assert explained.counters["ddg.nodes"] == counters["ddg.nodes"]
        assert counters["ddg.edges"] <= explained.counters["ddg.edges"]


class TestSerialFallback:
    """A pool that cannot start must degrade to serial with identical
    reports — and, since PR 3, a visible ``vectra.pipeline`` warning."""

    SRC2 = """
double A[16]; double B[16];
int main() {
  int i;
  P: for (i = 0; i < 16; i++) A[i] = (double)i * 2.0;
  Q: for (i = 0; i < 16; i++) B[i] = A[i] + 1.0;
  return 0;
}
"""

    def _run(self, jobs):
        module = compile_source(self.SRC2)
        reports, _ = run_loop_analyses(module, ["P", "Q"], jobs=jobs)
        return reports

    def test_fallback_reports_identical_and_warns(self, monkeypatch,
                                                  caplog):
        class BrokenPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no semaphores in this sandbox")

        baseline = self._run(jobs=1)
        monkeypatch.setattr(pipeline_mod, "ProcessPoolExecutor",
                            BrokenPool)
        with caplog.at_level(logging.WARNING, logger="vectra.pipeline"):
            fallen_back = self._run(jobs=2)
        assert "process pool startup failed" in caplog.text
        assert "serially" in caplog.text
        assert [r.loop_name for r in fallen_back] == ["P", "Q"]
        assert ([r.total_candidate_ops for r in fallen_back]
                == [r.total_candidate_ops for r in baseline])
        assert ([r.avg_concurrency for r in fallen_back]
                == [r.avg_concurrency for r in baseline])

    def test_fallback_counts_event_and_keeps_totals(self, monkeypatch):
        class BrokenPool:
            def __init__(self, *args, **kwargs):
                raise RuntimeError("pool refused")

        module = compile_source(self.SRC2)
        tel_serial = Telemetry()
        with use_run(Run(tel=tel_serial)):
            run_loop_analyses(module, ["P", "Q"], jobs=1)
        monkeypatch.setattr(pipeline_mod, "ProcessPoolExecutor",
                            BrokenPool)
        tel_fallback = Telemetry()
        with use_run(Run(tel=tel_fallback)):
            run_loop_analyses(module, ["P", "Q"], jobs=2)
        assert tel_fallback.counters["pipeline.pool_fallbacks"] == 1
        for key, value in tel_serial.counters.items():
            assert tel_fallback.counters[key] == value


class TestParallelTelemetryMerge:
    """--jobs N must report the same counter totals as serial (worker
    snapshots merged into the parent)."""

    # Loops long enough (>= the 16-iteration hot threshold) that the
    # trace-replay compiler kicks in inside each worker.
    SRC3 = """
double A[64]; double B[64];
int main() {
  int i;
  P: for (i = 0; i < 64; i++) A[i] = (double)i * 2.0;
  Q: for (i = 0; i < 64; i++) B[i] = A[i] + 1.0;
  return 0;
}
"""

    def test_counters_identical_serial_vs_pool(self):
        src = self.SRC3
        module = compile_source(src)
        tel1 = Telemetry()
        with use_run(Run(tel=tel1)):
            r1, _ = run_loop_analyses(module, ["P", "Q"], jobs=1)
        tel2 = Telemetry()
        with use_run(Run(tel=tel2)):
            r2, _ = run_loop_analyses(module, ["P", "Q"], jobs=2)
        assert ([r.total_candidate_ops for r in r1]
                == [r.total_candidate_ops for r in r2])
        c1 = {k: v for k, v in tel1.counters.items()
              if not k.startswith("pipeline.pool")}
        c2 = {k: v for k, v in tel2.counters.items()
              if not k.startswith("pipeline.pool")}
        assert c1 == c2
        # The program runs once, in the parent, whatever ``jobs`` says:
        # the trace-replay compiler's counters count that one run, and
        # the per-loop sections ride home from the workers unchanged.
        compile_keys = [k for k in c1 if k.startswith("interp.compile.")]
        assert "interp.compile.kernels" in compile_keys
        assert "interp.compile.batches" in compile_keys
        for key in compile_keys:
            assert c2[key] == c1[key] > 0
        assert c1["interp.runs"] == 1
        assert tel2.sections == tel1.sections
        assert set(tel1.sections) == {"loop.P", "loop.Q"}

    def test_histograms_merge_serial_vs_pool(self):
        """Histograms ride home in worker snapshots like counters.
        Deterministic histograms (batch iteration counts are a pure
        function of the workload) must be bucket-identical; latency
        histograms can only promise identical observation counts."""
        src = self.SRC3
        module = compile_source(src)
        tel1 = Telemetry()
        with use_run(Run(tel=tel1)):
            run_loop_analyses(module, ["P", "Q"], jobs=1)
        tel2 = Telemetry()
        with use_run(Run(tel=tel2)):
            run_loop_analyses(module, ["P", "Q"], jobs=2)
        h1 = tel1.snapshot()["histograms"]
        h2 = tel2.snapshot()["histograms"]
        assert set(h1) == set(h2)
        det = h1["interp.compile.batch_iterations"]
        assert h2["interp.compile.batch_iterations"] == det
        assert det["count"] > 0
        for name in ("loop.analyze", "loop.rerun"):
            assert h2[name]["count"] == h1[name]["count"] > 0

    def test_pool_histograms_count_one_run(self):
        """Every analysis runs the program once, whatever its windows:
        the pooled analysis of both loops has the deterministic
        histograms of each single-loop analysis."""
        src = self.SRC3
        module = compile_source(src)
        tel2 = Telemetry()
        with use_run(Run(tel=tel2)):
            run_loop_analyses(module, ["P", "Q"], jobs=2)
        pooled = tel2.histograms["interp.compile.batch_iterations"]
        for name in ("P", "Q"):
            tel = Telemetry()
            with use_run(Run(tel=tel)):
                run_loop_analyses(module, [name], jobs=1)
            single = tel.histograms["interp.compile.batch_iterations"]
            assert pooled.buckets == single.buckets
            assert pooled.count == single.count > 0


REDUCTION_SRC = """
double A[48];
double total;

int main() {
  int i;
  init: for (i = 0; i < 48; i++) A[i] = (double)i * 0.5;
  double s = 0.0;
  red: for (i = 0; i < 48; i++) {
    s += A[i];
  }
  total = s;
  return 0;
}
"""


class TestRelaxReductionsPlumbing:
    """Regression: the full drivers must forward ``relax_reductions`` to
    ``analyze_loop`` — without it the §4.1 pipeline could never produce
    reduction-relaxed Table-1 rows despite the CLI flag existing."""

    def _red_loop(self, report):
        return next(l for l in report.loops if l.loop_name == "red")

    def test_analyze_program_forwards_relax_reductions(self):
        strict = analyze_program(REDUCTION_SRC, threshold=0.01)
        relaxed = analyze_program(REDUCTION_SRC, threshold=0.01,
                                  relax_reductions=True)
        strict_red = self._red_loop(strict)
        relaxed_red = self._red_loop(relaxed)
        # The accumulation chain collapses: fewer, larger partitions.
        strict_parts = [i.num_partitions for i in strict_red.instructions]
        relaxed_parts = [i.num_partitions for i in relaxed_red.instructions]
        assert relaxed_parts != strict_parts
        assert relaxed_red.percent_vec_unit > strict_red.percent_vec_unit
        assert relaxed_red.avg_concurrency > strict_red.avg_concurrency

    def test_named_loops_forward_relax_reductions(self):
        strict = analyze_program(REDUCTION_SRC, loops=["red"])
        relaxed = analyze_program(REDUCTION_SRC, loops=["red"],
                                  relax_reductions=True)
        strict_red = self._red_loop(strict)
        relaxed_red = self._red_loop(relaxed)
        assert relaxed_red.percent_vec_unit > strict_red.percent_vec_unit


class TestAnalyzeKernelByName:
    def test_registered_workload(self):
        import repro

        report = repro.analyze_kernel("utdsp_fir_array")
        assert report.loops[0].loop_name == "fir_n"

    def test_unknown_workload(self):
        import repro
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            repro.analyze_kernel("not_a_kernel")

    def test_param_override(self):
        import repro

        small = repro.analyze_kernel("utdsp_fir_array", ntap=4, nout=8)
        assert small.loops[0].total_candidate_ops < 200


class TestSharedKernelTable:
    """The runs of one analysis share one kernel table: each loop is
    recorded and compiled at most once per analysis, and the report
    stays equal to the compiler-off and the pooled one.  Separate
    analyses keep tables of their own."""

    TWO_LOOPS = TestParallelTelemetryMerge.SRC3

    @staticmethod
    def _analyze(driver, **kwargs):
        from repro.obs import EventLog
        from repro.workloads import get_workload

        log = EventLog(capacity=65536)
        tel = Telemetry(events=log)
        with use_run(Run(tel=tel)):
            if driver == "workload":
                report = get_workload("sphinx3_subvq").analyze(**kwargs)
            else:
                report = analyze_program(TestSharedKernelTable.TWO_LOOPS,
                                         benchmark="demo", **kwargs)
        recorded = [e["args"]["loop"] for e in log.snapshot()
                    if e["name"] == "compile.kernel.recorded"]
        return report, tel.counters, recorded

    @pytest.mark.parametrize("driver", ["workload", "program"])
    def test_each_kernel_built_once_per_analysis(self, driver):
        report, counters, recorded = self._analyze(driver)
        assert len(report.loops) == 2
        assert recorded
        assert len(recorded) == len(set(recorded))
        assert counters["interp.compile.kernels"] == len(set(recorded))
        assert report == self._analyze(driver, compile_loops=False)[0]
        assert report == self._analyze(driver, jobs=2)[0]

    def test_separate_analyses_share_no_table(self):
        _, first, rec_first = self._analyze("workload")
        _, second, rec_second = self._analyze("workload")
        assert rec_second == rec_first
        assert (second["interp.compile.kernels"]
                == first["interp.compile.kernels"] > 0)

    #: ``once`` runs one iteration per instance, so every recording of
    #: its path straddles its exit and aborts: twelve strikes per run.
    STRADDLE = """
double A[8]; double B[8]; double C[8];
int main() {
  int i, r, k;
  a: for (i = 0; i < 8; i++) A[i] = (double)i * 0.5;
  b: for (i = 0; i < 8; i++) B[i] = A[i] + 1.0;
  c: for (i = 0; i < 8; i++) C[i] = B[i] * 2.0;
  outer: for (r = 0; r < 12; r++) {
    once: for (k = 0; k < 1; k++) A[k] = A[k] + 1.0;
  }
  return 0;
}
"""

    def test_recording_strikes_add_up_within_one_run(self, monkeypatch):
        """One run records the windows of ``a``, ``b`` and ``c``, and the
        strikes of its recordings add up in the analysis's table:
        ``once`` is rejected at the ``MAX_RECORD_FAILURES``-th abort, and
        never recorded again."""
        from repro.interp.compile import MAX_RECORD_FAILURES, TraceCompiler
        from repro.obs import EventLog

        aborts = []
        abort = TraceCompiler.abort

        def counted_abort(comp, loop_id):
            aborts.append(loop_id)
            abort(comp, loop_id)

        monkeypatch.setattr(TraceCompiler, "abort", counted_abort)
        module = compile_source(self.STRADDLE)
        once = module.loop_by_name("once").loop_id
        log = EventLog(capacity=65536)
        with use_run(Run(tel=Telemetry(events=log))):
            analyze_program(self.STRADDLE, "demo", ["a", "b", "c"],
                            compile_threshold=1)
        rejected = [e["args"] for e in log.snapshot()
                    if e["name"] == "compile.kernel.rejected"
                    and e["args"]["loop"] == once]
        assert len(aborts) == MAX_RECORD_FAILURES < 12
        assert set(aborts) == {once}
        assert len(rejected) == 1
        assert "aborted" in rejected[0]["reason"]
