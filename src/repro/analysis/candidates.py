"""Candidate-instruction selection.

The paper restricts SIMD characterization to floating-point add, subtract,
multiply, and divide — "the set of floating-point instructions that have
vector counterparts in SIMD architectures" (§3).  All other instructions
still participate in dependences; they are just not characterized.

The machinery is opcode-agnostic: pass ``include_integer=True`` to also
characterize integer arithmetic, as the paper notes is possible (§4).
"""

from __future__ import annotations

from typing import FrozenSet, List

from repro.ddg.graph import DDG
from repro.ir.instructions import FP_ARITH_OPCODES, INT_ARITH_OPCODES

FP_OPS: FrozenSet[int] = frozenset(int(op) for op in FP_ARITH_OPCODES)
INT_OPS: FrozenSet[int] = frozenset(int(op) for op in INT_ARITH_OPCODES)


def candidate_opcodes(include_integer: bool = False) -> FrozenSet[int]:
    return FP_OPS | INT_OPS if include_integer else FP_OPS


def candidate_sids(ddg: DDG, include_integer: bool = False) -> List[int]:
    """Static instruction ids with at least one candidate instance in the
    graph, in first-execution order.  Reads the DDG's precomputed
    sid -> opcode index instead of rescanning the node columns."""
    ops = candidate_opcodes(include_integer)
    return [sid for sid, opcode in ddg.sid_opcodes.items() if opcode in ops]
