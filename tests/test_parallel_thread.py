"""Per-thread analysis of parallel programs (paper §4, opening remark).

"The tool can also be used with parallel programs using Pthreads,
OpenMP, MPI, etc. — the instrumentation and trace generation would be
applied to one or more sequential processes or threads of the parallel
program to assess the potential for SIMD vector parallelism within a
process/thread."

Here a data-parallel worker is modeled as a function taking (rank,
nthreads); each rank's slice is traced and analyzed independently by
running the worker as the entry point — exactly the paper's
one-thread-at-a-time methodology.
"""

import pytest

from repro.analysis.metrics import loop_metrics
from repro.analysis.pipeline import windowed_loop_ddg
from repro.frontend import compile_source

from tests.trace_oracle import columnar_trace

WORKER_SRC = """
double A[64];
double B[64];

void worker(int rank, int nthreads) {
  int chunk = 64 / nthreads;
  int lo = rank * chunk;
  int hi = lo + chunk;
  int i;
  body: for (i = lo; i < hi; i++) {
    A[i] = B[i] * 2.0 + 1.0;
  }
}

int main() {
  int t;
  // The "parallel region": sequentially simulated fork/join.
  for (t = 0; t < 4; t++) worker(t, 4);
  return 0;
}
"""


@pytest.fixture
def module():
    return compile_source(WORKER_SRC)


def analyze_rank(module, rank, nthreads=4):
    info = module.loop_by_name("body")
    ddg, _, _ = windowed_loop_ddg(module, info.loop_id, "body", "worker",
                                  (rank, nthreads))
    return loop_metrics(ddg, module, "body")


class TestPerThreadAnalysis:
    def test_single_thread_slice_analyzed(self, module):
        report = analyze_rank(module, rank=0)
        assert report.total_candidate_ops == 32  # 16 elements x 2 ops
        assert report.percent_vec_unit == 100.0

    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    def test_every_rank_shows_the_same_potential(self, module, rank):
        report = analyze_rank(module, rank)
        assert report.percent_vec_unit == 100.0
        assert report.avg_concurrency == 16.0

    def test_thread_slices_touch_disjoint_addresses(self, module):
        info = module.loop_by_name("body")
        seen = set()
        for rank in range(4):
            trace = columnar_trace(module, entry="worker", args=(rank, 4),
                                   loop=info.loop_id, instances={0})
            addrs = {
                r.addr for r in trace.records if r.addr and r.store_addr
            }
            stores = {
                r.store_addr
                for r in trace.candidate_records()
                if r.store_addr
            }
            assert not (stores & seen)
            seen |= stores

    def test_whole_program_view_still_works(self, module):
        """Analyzing the sequentialized parallel region from main sees
        all four slices as one loop per instance."""
        info = module.loop_by_name("body")
        trace = columnar_trace(module, entry="main", loop=info.loop_id)
        assert len(trace.loop_instances(info.loop_id)) == 4
