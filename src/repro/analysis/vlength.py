"""Vector-length characterization — the paper's GPU-assessment use case.

§1 (use case 1): "The quantitative information on average vector lengths
can be useful in assessing the potential benefit of converting the code
to use GPUs (where much higher degree of SIMD parallelism is needed than
with short-vector SIMD ISAs)."

This module turns the partition/subpartition structure into that
assessment: a histogram of vectorizable-group sizes and the fraction of
candidate operations that could occupy vectors of at least each target
width — from 2-lane SSE up to GPU-warp (32) and GPU-block (256) scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.analysis.metrics import loop_metrics
from repro.ddg.graph import DDG
from repro.ir.module import Module

#: Target widths: SSE(2x f64) .. AVX .. GPU warp .. GPU block.
DEFAULT_WIDTHS = (2, 4, 8, 16, 32, 64, 128, 256)


@dataclass
class VectorLengthProfile:
    """Distribution of vectorizable group sizes for one loop."""

    loop_name: str = ""
    total_ops: int = 0
    #: group-size histogram over unit-stride subpartitions.
    unit_histogram: Dict[int, int] = field(default_factory=dict)
    #: same, for fixed non-unit-stride subpartitions (gather/scatter or
    #: post-layout-transformation vectors).
    nonunit_histogram: Dict[int, int] = field(default_factory=dict)
    widths: Sequence[int] = DEFAULT_WIDTHS

    def coverage_at(self, width: int, include_nonunit: bool = False) -> float:
        """Fraction of candidate ops inside groups of size >= ``width``."""
        if self.total_ops == 0:
            return 0.0
        ops = sum(
            size * count
            for size, count in self.unit_histogram.items()
            if size >= width
        )
        if include_nonunit:
            ops += sum(
                size * count
                for size, count in self.nonunit_histogram.items()
                if size >= width
            )
        return ops / self.total_ops

    @property
    def simd_coverage(self) -> float:
        """Short-vector (4-lane) coverage."""
        return self.coverage_at(4)

    @property
    def gpu_coverage(self) -> float:
        """Warp-width (32) coverage, counting layout-transformable groups
        — a GPU rewrite would also change the layout."""
        return self.coverage_at(32, include_nonunit=True)

    def verdict(self) -> str:
        """The paper's triage, extended to width classes."""
        if self.gpu_coverage >= 0.5:
            return "gpu-scale parallelism"
        if self.simd_coverage >= 0.5:
            return "short-vector SIMD parallelism"
        if self.coverage_at(2, include_nonunit=True) >= 0.3:
            return "marginal vector parallelism"
        return "no meaningful vector parallelism"

    def table(self) -> str:
        lines = [f"vector-length profile: {self.loop_name or '(loop)'}"]
        lines.append(f"  candidate ops: {self.total_ops}")
        for width in self.widths:
            unit_cov = self.coverage_at(width)
            all_cov = self.coverage_at(width, include_nonunit=True)
            lines.append(
                f"  >= {width:4} lanes: {100 * unit_cov:5.1f}% unit-stride, "
                f"{100 * all_cov:5.1f}% incl. fixed-stride"
            )
        lines.append(f"  verdict: {self.verdict()}")
        return "\n".join(lines)


def vector_length_profile(
    ddg: DDG,
    module: Optional[Module] = None,
    loop_name: str = "",
    include_integer: bool = False,
    widths: Sequence[int] = DEFAULT_WIDTHS,
) -> VectorLengthProfile:
    """Build the group-size distribution for one loop's DDG from its
    per-instruction metrics (:func:`~repro.analysis.metrics.loop_metrics`):
    every subpartition of two or more operations is one group."""
    profile = VectorLengthProfile(loop_name=loop_name, widths=widths)
    report = loop_metrics(ddg, module, loop_name, include_integer)
    for ir in report.instructions:
        profile.total_ops += ir.num_instances
        for sizes, histogram in (
                (ir.unit_subpartition_sizes, profile.unit_histogram),
                (ir.nonunit_subpartition_sizes, profile.nonunit_histogram)):
            for size in sizes:
                if size >= 2:
                    histogram[size] = histogram.get(size, 0) + 1
    return profile
