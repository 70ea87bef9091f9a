"""``analyze_workload``'s profile against the two-pass oracle.

``analyze_workload`` takes Percent Cycles and Percent Packed from the
profile counters of its first windowed re-run instead of a separate
sink-less run.  ``tests/profile_oracle.py`` keeps the two-pass driver;
both must return the same ``BenchmarkReport`` on every registered
workload and on a two-loop program under every execution path (process
pool, segment store, compiler off, a later loop instance).  The
invariant underneath: a windowed re-run ends with the same profile
counters and executed-instruction count as a sink-less run.
"""

import dataclasses
import pickle

import pytest

from repro.frontend import compile_source
from repro.interp.interpreter import Interpreter
from repro.trace.columnar import ColumnarLoopSink
from repro.trace.store import SegmentedLoopSink
from repro.workloads import list_workloads
from repro.workloads.base import analyze_workload
from tests import profile_oracle as oracle

# Two loops that run in three calls of different trip counts (so the
# iteration histograms have several entries and Percent Packed a
# remainder), plus a third loop that neither analysis selects, so
# Percent Cycles is a real share.
TWO_LOOPS = """
double A[64]; double B[64]; double C[64];
void step(int n) {
  int i;
  P: for (i = 0; i < n; i++) A[i] = A[i] * 0.5 + (double)i;
  Q: for (i = 1; i < n; i++) B[i] = B[i-1] + A[i];
}
int main() {
  int t, k;
  for (t = 0; t < 3; t++) {
    step(37 + 5 * t);
    R: for (k = 0; k < 64; k++) C[k] = C[k] + 1.0;
  }
  return 0;
}
"""


def assert_matches_oracle(source, benchmark, loops, **kwargs):
    got = analyze_workload(source, benchmark, loops, **kwargs)
    want = oracle.analyze_workload(source, benchmark, loops, **kwargs)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    return got


@pytest.mark.parametrize("workload", list_workloads(),
                         ids=lambda w: w.name)
def test_registered_workload_matches_oracle(workload):
    assert_matches_oracle(workload.source(), workload.name,
                          workload.analyze_loops, entry=workload.entry)


@pytest.mark.parametrize("kwargs", [
    {},
    {"jobs": 2},
    {"spill_dir": "spill", "segment_rows": 64},
    {"spill_dir": "spill", "segment_rows": 64, "jobs": 2},
    {"compile_loops": False},
    {"instance": 1},
    {"instance": 1, "jobs": 2},
], ids=repr)
def test_two_loops_match_oracle_on_every_path(kwargs, tmp_path):
    if "spill_dir" in kwargs:
        kwargs = dict(kwargs, spill_dir=str(tmp_path / kwargs["spill_dir"]))
    report = assert_matches_oracle(TWO_LOOPS, "demo", ["P", "Q"], **kwargs)
    assert [loop.loop_name for loop in report.loops] == ["P", "Q"]
    # Not degenerate: a share of the cycles, and a vectorized remainder.
    for loop in report.loops:
        assert 0.0 < loop.percent_cycles < 100.0
    assert 0.0 < report.loops[0].percent_packed < 100.0


def _sinks(loop_id, instance, tmp_path):
    yield ColumnarLoopSink(loop_id, instances={instance})
    yield SegmentedLoopSink(loop_id, instances={instance},
                            spill_dir=str(tmp_path / f"seg-{instance}"),
                            segment_rows=64)


@pytest.mark.parametrize("compile_loops", [True, False])
@pytest.mark.parametrize("loop_name", ["P", "Q"])
@pytest.mark.parametrize("instance", [0, 1])
def test_windowed_rerun_counters_equal_sinkless_run(compile_loops,
                                                    loop_name, instance,
                                                    tmp_path):
    module = compile_source(TWO_LOOPS)
    plain = Interpreter(module, compile_loops=compile_loops)
    plain.run()
    loop_id = module.loop_by_name(loop_name).loop_id
    for sink in _sinks(loop_id, instance, tmp_path):
        rerun = Interpreter(module, sink=sink, compile_loops=compile_loops)
        rerun.run()
        assert sink.spans_recorded == 1
        assert rerun.op_counts == plain.op_counts
        assert rerun.dyn_parent == plain.dyn_parent
        assert rerun.loop_iter_hist == plain.loop_iter_hist
        assert rerun.executed_instructions == plain.executed_instructions
        counters = rerun.profile_counters()
        assert counters == plain.profile_counters()
        assert pickle.loads(pickle.dumps(counters)) == counters
