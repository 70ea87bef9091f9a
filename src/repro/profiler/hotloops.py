"""Per-loop cycle attribution and hot-loop selection.

Implements the paper's §4.1 selection rule: report loops that account for
at least ``threshold`` (10%) of total execution cycles, starting from all
innermost loops and including a parent loop only when its inclusive share
exceeds the sum of its children's shares by at least the threshold.

Loop nesting is the *dynamic* nesting observed by the interpreter (a loop
inside a function called from another loop is a child of that loop), which
matches HPCToolkit's calling-context attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.interp.interpreter import (
    LOOP_KEY_STRIDE,
    Interpreter,
    ProfileCounters,
)
from repro.ir.instructions import FP_ARITH_OPCODES
from repro.ir.module import Module
from repro.profiler.costmodel import CostModel, DEFAULT_COST_MODEL

_FP_OPS = frozenset(int(op) for op in FP_ARITH_OPCODES)

#: Iteration count after which a loop counts as *hot* for trace-replay
#: compilation (:mod:`repro.interp.compile`).  The signal is the same
#: per-loop ``LOOP_NEXT`` tally :func:`_direct_tallies` decodes from
#: ``op_counts`` — the profiler and the compiler share one hotness
#: source, accumulated across all dynamic instances of the loop.
HOT_LOOP_THRESHOLD = 16


@dataclass
class LoopProfile:
    """Cycle and operation accounting for one loop."""

    loop_id: int
    name: str
    direct_cycles: float = 0.0
    inclusive_cycles: float = 0.0
    percent_cycles: float = 0.0  # inclusive, of program total
    direct_fp_ops: int = 0
    inclusive_fp_ops: int = 0
    children: List[int] = field(default_factory=list)
    parent: int = -1
    depth: int = 1


def _direct_tallies(interp: Union[Interpreter, ProfileCounters],
                    cost_model: CostModel):
    cycles: Dict[int, float] = {}
    fp_ops: Dict[int, int] = {}
    for key, count in interp.op_counts.items():
        loop_id = key // LOOP_KEY_STRIDE - 2
        opcode = key % LOOP_KEY_STRIDE
        cycles[loop_id] = cycles.get(loop_id, 0.0) + (
            count * cost_model.cost(opcode)
        )
        if opcode in _FP_OPS:
            fp_ops[loop_id] = fp_ops.get(loop_id, 0) + count
    return cycles, fp_ops


def profile_loops(
    module: Module,
    interp: Union[Interpreter, ProfileCounters],
    cost_model: Optional[CostModel] = None,
) -> Dict[int, LoopProfile]:
    """Build per-loop profiles (direct + inclusive over dynamic nesting)
    from a finished run's counters: its interpreter or their snapshot."""
    if cost_model is None:
        cost_model = DEFAULT_COST_MODEL
    cycles, fp_ops = _direct_tallies(interp, cost_model)
    total = sum(cycles.values()) or 1.0

    profiles: Dict[int, LoopProfile] = {}
    for loop_id, info in module.loops.items():
        profiles[loop_id] = LoopProfile(
            loop_id=loop_id,
            name=info.name,
            direct_cycles=cycles.get(loop_id, 0.0),
            direct_fp_ops=fp_ops.get(loop_id, 0),
            parent=interp.dyn_parent.get(loop_id, -1),
            depth=info.depth,
        )
    children: Dict[int, List[int]] = {}
    for loop_id, prof in profiles.items():
        children.setdefault(prof.parent, []).append(loop_id)
        prof.children = []
    for parent, kids in children.items():
        if parent in profiles:
            profiles[parent].children = sorted(kids)

    def fill_inclusive(loop_id: int) -> None:
        prof = profiles[loop_id]
        incl_cycles = prof.direct_cycles
        incl_fp = prof.direct_fp_ops
        for kid in prof.children:
            fill_inclusive(kid)
            incl_cycles += profiles[kid].inclusive_cycles
            incl_fp += profiles[kid].inclusive_fp_ops
        prof.inclusive_cycles = incl_cycles
        prof.inclusive_fp_ops = incl_fp
        prof.percent_cycles = 100.0 * incl_cycles / total

    for root in children.get(-1, []):
        if root in profiles:
            fill_inclusive(root)
    # Loops never entered (or with an untracked parent) still need values.
    for prof in profiles.values():
        if prof.inclusive_cycles == 0.0 and prof.direct_cycles > 0.0:
            fill_inclusive(prof.loop_id)
    return profiles


def hot_loops(
    module: Module,
    interp: Interpreter,
    threshold: float = 0.10,
    cost_model: Optional[CostModel] = None,
) -> List[LoopProfile]:
    """Loops worth analyzing, per the paper's selection rule."""
    profiles = profile_loops(module, interp, cost_model)
    pct = threshold * 100.0
    selected: List[LoopProfile] = []
    for prof in profiles.values():
        if prof.percent_cycles < pct:
            continue
        if not prof.children:
            selected.append(prof)
            continue
        kids_pct = sum(
            profiles[kid].percent_cycles for kid in prof.children
        )
        if prof.percent_cycles - kids_pct >= pct:
            selected.append(prof)
    selected.sort(key=lambda p: -p.percent_cycles)
    return selected
