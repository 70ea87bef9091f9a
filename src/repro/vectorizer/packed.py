"""Percent Packed accounting.

The paper's *Percent Packed* column is "the percentage of floating-point
run-time operations that were executed using packed (i.e., vector) SSE
instructions, as reported by HPCToolkit" (§4.1).  Here it is recomputed
exactly: a loop's dynamic FP operations count as packed when the modeled
vectorizer vectorizes that loop, scaled by the vectorized-iteration
fraction (full vector groups only — the remainder iterations run scalar,
which is why the paper's well-vectorized rows read 96-99% rather than
100%).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.interp.interpreter import Interpreter, ProfileCounters
from repro.ir.module import Module
from repro.profiler.hotloops import LoopProfile, profile_loops
from repro.vectorizer.autovec import (
    LoopDecision,
    VectorizerConfig,
    decisions_by_name,
)


def vectorized_fraction(
    interp: Union[Interpreter, ProfileCounters], loop_id: int, lanes: int
) -> float:
    """Fraction of a loop's iterations executed in full vector groups,
    from the interpreter's per-instance trip-count histogram."""
    hist = interp.loop_iter_hist.get(loop_id)
    if not hist or lanes <= 1:
        return 1.0 if lanes >= 1 else 0.0
    total = 0
    packed = 0
    for trip, instances in hist.items():
        total += trip * instances
        packed += (trip - trip % lanes) * instances
    if total == 0:
        return 0.0
    return packed / total


def _decision_for(
    module: Module, loop_id: int,
    by_name: Dict[str, LoopDecision],
) -> Optional[LoopDecision]:
    info = module.loops.get(loop_id)
    if info is None:
        return None
    return by_name.get(f"{info.function}:{info.header_line}") or (
        by_name.get(info.label) if info.label else None
    )


def percent_packed(
    module: Module,
    interp: Union[Interpreter, ProfileCounters],
    decisions: List[LoopDecision],
    loop_id: int,
    config: Optional[VectorizerConfig] = None,
    profiles: Optional[Dict[int, LoopProfile]] = None,
) -> float:
    """Percent Packed for the subtree rooted at ``loop_id``: packed FP ops
    as a percentage of all FP ops executed inside the loop (inclusive).
    ``interp`` is a finished run's interpreter or its counter snapshot."""
    if config is None:
        config = VectorizerConfig()
    if profiles is None:
        profiles = profile_loops(module, interp)
    by_name = decisions_by_name(decisions)

    def subtree(lid: int):
        yield lid
        prof = profiles.get(lid)
        if prof is not None:
            for kid in prof.children:
                yield from subtree(kid)

    total_fp = 0
    packed_fp = 0.0
    for lid in subtree(loop_id):
        prof = profiles.get(lid)
        if prof is None:
            continue
        fp = prof.direct_fp_ops
        total_fp += fp
        decision = _decision_for(module, lid, by_name)
        if decision is not None and decision.vectorized:
            lanes = decision.vector_lanes(config.vector_bits)
            packed_fp += fp * vectorized_fraction(interp, lid, lanes)
    if total_fp == 0:
        return 0.0
    return 100.0 * packed_fp / total_fp
