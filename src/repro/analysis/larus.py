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

Input here is one loop's DDG plus each node's iteration of the loop,
which :func:`node_iterations` reads off the recorded window's loop
markers (they are no DDG nodes, so the DDG alone cannot tell).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.ddg.graph import DDG
from repro.errors import AnalysisError
from repro.trace.events import MARKER_ENTER, MARKER_EXIT, MARKER_NEXT


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


def node_iterations(window, loop_id: int) -> List[int]:
    """Each DDG node's iteration of ``loop_id`` (-1 outside the loop) in
    a recorded ``window``, a :class:`~repro.trace.columnar.ColumnarSink`
    whose DDG is not built yet.

    The iteration changes only at ``loop_id``'s markers, so one walk over
    the window's marker rows (their opcodes, and their loop ids from the
    ``loop_breaks`` change points) gives the iteration after each marker;
    every node takes the one after the last marker before it.
    """
    opcodes = window.columns().opcodes
    marker_rows = np.asarray(window.marker_rows, dtype=np.int64)
    break_rows = np.asarray([r for r, _ in window.loop_breaks],
                            dtype=np.int64)
    break_loops = np.asarray([lid for _, lid in window.loop_breaks],
                             dtype=np.int64)
    marker_loops = break_loops[np.searchsorted(break_rows, marker_rows,
                                               side="right") - 1]
    after = [-1]
    depth = 0
    iteration = -1
    for kind, lid in zip(opcodes[marker_rows].tolist(),
                         marker_loops.tolist()):
        if lid == loop_id:
            if kind == MARKER_ENTER:
                depth += 1
                if depth == 1:
                    iteration = 0
            elif kind == MARKER_NEXT:
                if depth == 1:
                    iteration += 1
            elif kind == MARKER_EXIT:
                depth -= 1
                if depth == 0:
                    iteration = -1
        after.append(iteration)
    # The nodes between consecutive markers (and before the first and
    # after the last).
    bounds = np.concatenate(([-1], marker_rows, [len(opcodes)]))
    return np.repeat(after, np.diff(bounds) - 1).tolist()


def larus_loop_parallelism(
    ddg: DDG, iterations: Sequence[int], loop_id: int
) -> LoopParallelismResult:
    """Simulate Larus's concurrent-iterations model over one loop instance.

    ``iterations`` holds each DDG node's iteration of the loop
    (:func:`node_iterations`).  Every node is one unit of work.
    ``finish[i]`` is the time step node i completes: one after both the
    previous instruction of the same iteration and all of its DDG
    producers have completed.
    """
    node_iter = list(iterations)
    if len(node_iter) != len(ddg):
        raise AnalysisError(
            f"{len(node_iter)} iteration numbers for {len(ddg)} DDG nodes; "
            f"take both from the same window"
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
    ddg: DDG, iterations: Sequence[int], loop_id: int, target_sid: int
) -> Dict[int, List[int]]:
    """Group one instruction's instances by Larus finish time — the
    partitioning Fig. 2(b) illustrates."""
    result = larus_loop_parallelism(ddg, iterations, loop_id)
    out: Dict[int, List[int]] = {}
    for i, sid in enumerate(ddg.sids.tolist()):
        if sid == target_sid:
            out.setdefault(result.finish_times[i], []).append(i)
    return out
