"""Baseline: Larus-style loop-level parallelism (paper §2.1).

Larus's model runs each loop iteration as a sequential instruction stream;
iterations execute concurrently, but an instruction that depends on
another iteration's instruction stalls until its producer has executed.
The measured loop-level parallelism is total work divided by the parallel
completion time.

As the paper's Fig. 2 shows, the unit of analysis being the *original*
loop body means dependence-preserving reorderings (e.g. distributing the
loop) are never explored, so vectorization potential is under-reported —
the motivation for Algorithm 1.

Input here is one loop's subtrace (markers included, so iteration
boundaries are known) plus the DDG built from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.ddg.graph import DDG
from repro.errors import AnalysisError
from repro.trace.trace import Trace


@dataclass
class LoopParallelismResult:
    """Larus-model measurements for one loop."""

    loop_id: int
    num_iterations: int
    total_ops: int
    completion_time: int
    finish_times: List[int] = field(default_factory=list)

    @property
    def parallelism(self) -> float:
        if self.completion_time == 0:
            return 0.0
        return self.total_ops / self.completion_time


def larus_loop_parallelism(
    subtrace: Trace, ddg: DDG, loop_id: int
) -> LoopParallelismResult:
    """Simulate Larus's concurrent-iterations model over one loop instance.

    Every non-marker record is one unit of work.  ``finish[i]`` is the
    time step node i completes: one after both the previous instruction of
    the same iteration and all of its DDG producers have completed.
    """
    iters = subtrace.iteration_numbers(loop_id)
    # Map trace records to DDG node indices (markers are not DDG nodes).
    node_iter: List[int] = []
    for rec, itn in zip(subtrace.records, iters):
        if not rec.is_marker:
            node_iter.append(itn)
    if len(node_iter) != len(ddg):
        raise AnalysisError(
            "subtrace and DDG disagree; build the DDG from this subtrace"
        )
    finish = [0] * len(ddg)
    last_in_iter: Dict[int, int] = {}
    indices = ddg.pred_indices
    offsets = ddg.pred_offsets
    total = 0
    for i in range(len(ddg)):
        itn = node_iter[i]
        t = last_in_iter.get(itn, 0)
        for j in range(offsets[i], offsets[i + 1]):
            fp = finish[indices[j]]
            if fp > t:
                t = fp
        finish[i] = t + 1
        last_in_iter[itn] = t + 1
        total += 1
    completion = max(finish) if finish else 0
    num_iterations = max((x for x in node_iter if x >= 0), default=-1) + 1
    return LoopParallelismResult(
        loop_id=loop_id,
        num_iterations=num_iterations,
        total_ops=total,
        completion_time=completion,
        finish_times=finish,
    )


def larus_partitions(
    subtrace: Trace, ddg: DDG, loop_id: int, target_sid: int
) -> Dict[int, List[int]]:
    """Group one instruction's instances by Larus finish time — the
    partitioning Fig. 2(b) illustrates."""
    result = larus_loop_parallelism(subtrace, ddg, loop_id)
    out: Dict[int, List[int]] = {}
    for i, sid in enumerate(ddg.sids.tolist()):
        if sid == target_sid:
            out.setdefault(result.finish_times[i], []).append(i)
    return out
