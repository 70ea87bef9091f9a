"""Tool-cost measurements (paper §4.1, "Overhead" discussion).

The paper reports instrumentation overhead of 2-3 orders of magnitude
and DDG analysis cost of "tens to hundreds of microseconds per DDG
node".  This bench measures the analogous quantities for this
implementation: interpreter slowdown of tracing vs. plain execution, and
per-node cost of the DDG construction (the columnar remap of a recorded
loop window) + Algorithm 1 + stride pipeline.
These are real microbenchmarks (multiple rounds).
"""

from repro.analysis.metrics import loop_metrics
from repro.analysis.pipeline import record_windows
from repro.frontend import compile_source
from repro.interp import Interpreter
from repro.trace.columnar import ColumnarSink

from benchmarks.conftest import write_result

SRC = """
double A[64];
double B[64];

int main() {
  int i, r;
  hot: for (r = 0; r < 40; r++) {
    for (i = 0; i < 64; i++) {
      A[i] = A[i] * 0.999 + B[i] * 0.5;
    }
  }
  return 0;
}
"""


def test_plain_execution(benchmark):
    module = compile_source(SRC)

    def run():
        Interpreter(module).run()

    benchmark(run)


def test_traced_execution(benchmark):
    module = compile_source(SRC)

    def run():
        Interpreter(module, sink=ColumnarSink()).run()

    benchmark(run)


def test_analysis_cost_per_node(benchmark, results_dir):
    module = compile_source(SRC)
    loop = module.loop_by_name("hot")
    [window], _ = record_windows(module, [(loop.loop_id, "hot")])
    # The window's columns, remapped into its DDG once per round.
    sink = window.trace

    def analyze():
        ddg = sink.to_ddg()
        return loop_metrics(ddg, module, "hot"), len(ddg)

    (report, nodes) = benchmark(analyze)
    per_node_us = (
        benchmark.stats.stats.mean * 1e6 / nodes
        if nodes
        else float("nan")
    )
    write_result(
        results_dir,
        "tool_overhead.txt",
        (
            f"DDG nodes analyzed: {nodes}\n"
            f"analysis cost: {per_node_us:.2f} us/node "
            f"(paper: tens to hundreds of us per node on 2012 hardware)\n"
        ),
    )
    assert report.total_candidate_ops > 0
