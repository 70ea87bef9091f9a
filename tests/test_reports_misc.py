"""Report formatting, workload-driver error paths, and other edges not
covered by the focused suites."""

import pytest

from repro.analysis.pipeline import analyze_program
from repro.analysis.report import (
    BenchmarkReport,
    InstructionReport,
    LoopReport,
)
from repro.errors import FuelExhaustedError, WorkloadError
from repro.obs import Run, Telemetry, use_run


class TestReportFormatting:
    def make_loop(self):
        return LoopReport(
            loop_name="hot",
            benchmark="demo",
            percent_cycles=42.5,
            percent_packed=12.5,
            avg_concurrency=100.25,
            percent_vec_unit=80.0,
            avg_vec_size_unit=16.0,
            percent_vec_nonunit=10.0,
            avg_vec_size_nonunit=4.0,
        )

    def test_row_contains_all_metrics(self):
        row = self.make_loop().row()
        for token in ("demo", "hot", "42.5", "12.5", "100.2", "80.0",
                      "16.0", "10.0", "4.0"):
            assert token in row

    def test_header_aligns_with_row(self):
        header = LoopReport.header()
        row = self.make_loop().row()
        # Not a strict alignment check, but both must be single lines of
        # comparable width.
        assert "\n" not in header and "\n" not in row

    def test_benchmark_table(self):
        report = BenchmarkReport("demo", [self.make_loop()])
        table = report.table()
        assert table.splitlines()[0] == LoopReport.header()
        assert len(table.splitlines()) == 2

    def test_instruction_report_averages(self):
        ir = InstructionReport(
            sid=1, mnemonic="fadd", line=10, num_instances=10,
            num_partitions=2, avg_partition_size=5.0,
            unit_vec_ops=8, unit_subpartition_sizes=[4, 4, 1, 1],
            nonunit_vec_ops=0, nonunit_subpartition_sizes=[1],
        )
        assert ir.avg_unit_size == 4.0
        assert ir.avg_nonunit_size == 0.0


class TestAnalyzeWorkloadErrors:
    SRC = """
double A[4];
int main() {
  int i;
  L: for (i = 0; i < 4; i++) A[i] = 1.0;
  return 0;
}
"""

    def test_unknown_loop_is_reported_with_candidates(self):
        with pytest.raises(WorkloadError) as exc:
            analyze_program(self.SRC, "demo", ["nope"])
        assert "known" in str(exc.value)
        assert "L" in str(exc.value)

    def test_multiple_loops_ordered_as_requested(self):
        src = """
double A[4]; double B[4];
int main() {
  int i;
  one: for (i = 0; i < 4; i++) A[i] = 1.0;
  two: for (i = 0; i < 4; i++) B[i] = 2.0;
  return 0;
}
"""
        report = analyze_program(src, "demo", ["two", "one"])
        assert [l.loop_name for l in report.loops] == ["two", "one"]

    def test_unknown_loop_fails_before_interpreting(self):
        tel = Telemetry()
        with use_run(Run(tel=tel)), pytest.raises(WorkloadError):
            analyze_program(self.SRC, "demo", ["L", "nope"])
        assert tel.counters.get("interp.runs", 0) == 0

    def test_empty_loop_list_interprets_nothing(self):
        tel = Telemetry()
        with use_run(Run(tel=tel)):
            report = analyze_program(self.SRC, "demo", [])
        assert report.loops == []
        assert tel.counters.get("interp.runs", 0) == 0

    def test_small_fuel_fails_alike_serial_and_pooled(self):
        """The windowed re-run is the only run, so with ``jobs=2`` the
        fuel error comes from a pool worker: same error as serial, and
        no pool-to-serial fallback."""
        src = """
double A[16]; double B[16];
int main() {
  int i;
  one: for (i = 0; i < 16; i++) A[i] = 1.0;
  two: for (i = 0; i < 16; i++) B[i] = A[i] + 2.0;
  return 0;
}
"""
        messages = []
        for jobs in (1, 2):
            tel = Telemetry()
            with use_run(Run(tel=tel)), \
                    pytest.raises(FuelExhaustedError) as exc:
                analyze_program(src, "demo", ["one", "two"], fuel=40,
                                jobs=jobs)
            messages.append(str(exc.value))
            assert tel.counters.get("pipeline.pool_fallbacks", 0) == 0
        # concurrent.futures chains a worker's traceback as the cause.
        assert type(exc.value.__cause__).__name__ == "_RemoteTraceback"
        assert messages[0] == messages[1]
        assert "fuel=40" in messages[0]


class TestSimulateBreakdown:
    def test_kernel_timing_reports_vectorized_loops(self):
        from repro.simd import MACHINES, simulate_cycles

        src = """
double A[32]; double B[32];
int main() {
  int i;
  vec: for (i = 0; i < 32; i++) A[i] = B[i] * 2.0;
  ser: for (i = 1; i < 32; i++) A[i] = A[i-1] + 1.0;
  return 0;
}
"""
        timing = simulate_cycles(src, MACHINES["xeon_e5630"])
        assert "vec" in timing.vectorized_loops
        assert "ser" not in timing.vectorized_loops
        assert set(timing.loop_cycles) >= {"vec", "ser"}
        assert timing.total_cycles >= sum(timing.loop_cycles.values()) - 1e9


class TestInterpreterEdges:
    def test_deep_recursion_hits_stack_guard(self):
        from repro.errors import InterpError, MemoryError_
        from repro.frontend import compile_source
        from repro.interp import Interpreter

        src = """
double sink[70000];
int deep(int n) {
  double pad[64];
  pad[0] = (double)n;
  if (n <= 0) return 0;
  return deep(n - 1);
}
int main() { return deep(60000); }
"""
        module = compile_source(src)
        with pytest.raises((InterpError, MemoryError_, RecursionError)):
            Interpreter(module, fuel=100_000_000).run()

    def test_fuel_counts_across_functions(self):
        from repro.errors import InterpError
        from repro.frontend import compile_source
        from repro.interp import Interpreter

        src = """
int spin(int n) {
  int i;
  int s = 0;
  for (i = 0; i < n; i++) s += i;
  return s;
}
int main() {
  int r = 0;
  int k;
  for (k = 0; k < 1000; k++) r += spin(1000);
  return r;
}
"""
        module = compile_source(src)
        with pytest.raises(InterpError):
            Interpreter(module, fuel=50_000).run()
