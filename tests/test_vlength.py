"""Vector-length / GPU-suitability profiling tests."""

import pytest

from repro.analysis.vlength import (
    DEFAULT_WIDTHS,
    VectorLengthProfile,
    vector_length_profile,
)
from repro.analysis.pipeline import windowed_loop_ddg
from repro.frontend import compile_source


def profile_of(source, label, **kw):
    module = compile_source(source)
    info = module.loop_by_name(label)
    ddg, _, _ = windowed_loop_ddg(module, info.loop_id, label)
    return vector_length_profile(ddg, module, label, **kw)


class TestProfiles:
    def test_wide_parallel_loop_is_gpu_scale(self):
        src = """
double A[128]; double B[128];
int main() {
  int i;
  L: for (i = 0; i < 128; i++) A[i] = B[i] * 2.0;
  return 0;
}
"""
        profile = profile_of(src, "L")
        assert profile.total_ops == 128
        assert profile.coverage_at(32) == 1.0
        assert profile.coverage_at(128) == 1.0
        assert profile.verdict() == "gpu-scale parallelism"

    def test_chain_has_no_parallelism(self):
        src = """
double A[64];
int main() {
  int i;
  L: for (i = 1; i < 64; i++) A[i] = A[i-1] * 2.0;
  return 0;
}
"""
        profile = profile_of(src, "L")
        assert profile.coverage_at(2) == 0.0
        assert profile.verdict() == "no meaningful vector parallelism"

    def test_short_groups_are_simd_not_gpu(self):
        """Groups of exactly 8: SIMD-suitable, below warp width."""
        src = """
double A[8][8];
double B[8][8];
int main() {
  int i, j;
  L: for (i = 0; i < 8; i++)
    for (j = 1; j < 8; j++)
      A[i][j] = B[i][j] * 2.0 + A[i-1][j > 4 ? j : j];
  return 0;
}
"""
        # Simpler deterministic variant: rows of 8 independent ops with a
        # carried dependence across rows.
        src = """
double A[9][8];
double B[8];
int main() {
  int i, j;
  L: for (i = 1; i < 9; i++)
    for (j = 0; j < 8; j++)
      A[i][j] = A[i-1][j] * 0.5 + B[j];
  return 0;
}
"""
        profile = profile_of(src, "L")
        assert profile.coverage_at(8) > 0.9
        assert profile.coverage_at(32) == 0.0
        assert profile.verdict() == "short-vector SIMD parallelism"

    def test_nonunit_counts_toward_gpu_with_layout_change(self):
        src = """
struct pt { double x; double y; double z; double w; };
struct pt P[64];
double B[64];
int main() {
  int i;
  for (i = 0; i < 64; i++) B[i] = (double)i;
  L: for (i = 0; i < 64; i++) P[i].x = B[i] * 2.0;
  return 0;
}
"""
        profile = profile_of(src, "L")
        # Stride-32 stores: zero unit-stride coverage at warp width, but
        # full coverage counting fixed-stride groups.
        assert profile.coverage_at(32) == 0.0
        assert profile.coverage_at(32, include_nonunit=True) == 1.0
        assert profile.gpu_coverage == 1.0

    def test_table_rendering(self):
        profile = VectorLengthProfile(loop_name="demo", total_ops=10,
                                      unit_histogram={5: 2})
        text = profile.table()
        assert "demo" in text
        for width in DEFAULT_WIDTHS:
            assert f">= {width:4}" in text

    def test_empty_profile(self):
        profile = VectorLengthProfile()
        assert profile.coverage_at(2) == 0.0
        assert profile.verdict() == "no meaningful vector parallelism"


class TestPaperUseCase:
    def test_milc_gpu_assessment(self):
        """§1: milc-style code has GPU-scale parallelism once the layout
        is fixed — visible as fixed-stride coverage at warp width."""
        from repro.workloads import get_workload

        w = get_workload("milc_su3mv")
        module = w.compile(sites=64)
        info = module.loop_by_name("sites_loop")
        ddg, _, _ = windowed_loop_ddg(module, info.loop_id, info.name)
        profile = vector_length_profile(ddg, module, "sites_loop")
        assert profile.gpu_coverage >= 0.5
        assert profile.verdict() == "gpu-scale parallelism"

    def test_povray_fails_gpu_test(self):
        """§4.4 limitations: povray's irregular computation yields only
        short groups — not GPU material."""
        from repro.workloads import get_workload

        w = get_workload("povray_bbox")
        module = w.compile()
        info = module.loop_by_name("walk")
        ddg, _, _ = windowed_loop_ddg(module, info.loop_id, info.name)
        profile = vector_length_profile(ddg, module, "walk")
        assert profile.coverage_at(32) < 0.5
