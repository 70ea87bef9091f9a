"""Baseline: Kumar-style global critical-path analysis (paper §2.1).

Every DDG node gets timestamp ``max(pred timestamps) + weight``; the
histogram of timestamps is the fine-grained parallelism profile, the
maximum timestamp is the critical path, and N / critical-path is the
average parallelism.  This implicitly models the best parallel execution
over all dependence-preserving reorderings — but, as the paper's Fig. 1
discussion shows, its same-timestamp groups interleave instances of
different statements and cannot expose per-statement vectorizable
partitions.

``weights="unit"`` charges every node one time step (Kumar's model);
``weights="candidates"`` charges only candidate FP operations, giving a
floating-point critical path that is directly comparable with Algorithm 1
timestamps on traces that include loop-bookkeeping instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.candidates import candidate_opcodes
from repro.ddg.graph import DDG
from repro.errors import AnalysisError


@dataclass
class ParallelismProfile:
    """Kumar's output: operations available at each time step."""

    histogram: Dict[int, int] = field(default_factory=dict)
    critical_path: int = 0
    total_ops: int = 0

    @property
    def average_parallelism(self) -> float:
        if self.critical_path == 0:
            return 0.0
        return self.total_ops / self.critical_path


def kumar_timestamps(ddg: DDG, weights: str = "unit") -> List[int]:
    """Global earliest-start timestamps; see module docstring for weights."""
    if weights == "unit":
        node_weight = [1] * len(ddg)
    elif weights == "candidates":
        ops = candidate_opcodes()
        node_weight = [1 if opc in ops else 0
                       for opc in ddg.opcodes.tolist()]
    else:
        raise AnalysisError(f"unknown weight scheme {weights!r}")
    ts = [0] * len(ddg)
    indices = ddg.pred_indices
    offsets = ddg.pred_offsets
    for i in range(len(ddg)):
        t = 0
        for j in range(offsets[i], offsets[i + 1]):
            tp = ts[indices[j]]
            if tp > t:
                t = tp
        ts[i] = t + node_weight[i]
    return ts


def kumar_profile(ddg: DDG, weights: str = "unit") -> ParallelismProfile:
    """Parallelism profile: histogram over timestamps of weighted nodes."""
    ts = kumar_timestamps(ddg, weights)
    if weights == "candidates":
        ops = candidate_opcodes()
        counted = [i for i, opc in enumerate(ddg.opcodes.tolist())
                   if opc in ops]
    else:
        counted = list(range(len(ddg)))
    histogram: Dict[int, int] = {}
    for i in counted:
        histogram[ts[i]] = histogram.get(ts[i], 0) + 1
    critical = max(ts) if ts else 0
    return ParallelismProfile(
        histogram=histogram, critical_path=critical, total_ops=len(counted)
    )


def kumar_partitions(ddg: DDG, target_sid: int,
                     weights: str = "unit") -> Dict[int, List[int]]:
    """Group the instances of one static instruction by *global* timestamp
    — the partitioning Fig. 1(a) shows, which under-exposes parallelism
    compared with Algorithm 1's per-instruction timestamps."""
    ts = kumar_timestamps(ddg, weights)
    out: Dict[int, List[int]] = {}
    for i, sid in enumerate(ddg.sids.tolist()):
        if sid == target_sid:
            out.setdefault(ts[i], []).append(i)
    return out
