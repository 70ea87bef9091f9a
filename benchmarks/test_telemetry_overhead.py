"""Telemetry overhead measurements (PR 3 acceptance support).

The observability layer must be free when disabled: all instrumentation
sits at stage boundaries and counter computation is guarded by
``tel.enabled``, so a ``NullTelemetry`` run executes the exact pre-PR
hot path.  These benches measure the full windowed-loop analysis under
the null object and under a live :class:`Telemetry`, so a regression in
either shows up as a benchmark delta rather than a silent slowdown.
"""

from repro.analysis.pipeline import analyze_loop
from repro.frontend import compile_source
from repro.obs import Run, Telemetry, use_run

SRC = """
double A[64];
double B[64];

int main() {
  int i, r;
  hot: for (r = 0; r < 40; r++) {
    body: for (i = 0; i < 64; i++) {
      A[i] = A[i] * 0.999 + B[i] * 0.5;
    }
  }
  return 0;
}
"""


def _analyze(module, run):
    with use_run(run):
        return analyze_loop(module, "body")


def test_analysis_null_telemetry(benchmark):
    module = compile_source(SRC)
    benchmark(lambda: _analyze(module, Run()))


def test_analysis_live_telemetry(benchmark):
    module = compile_source(SRC)
    benchmark(lambda: _analyze(module, Run(tel=Telemetry())))
