"""Graphviz export of DDGs — for figures like the paper's Fig. 1/2.

Intended for *small* graphs (the listings, unit-test cases); rendering a
million-node trace is not useful.  Nodes are labeled with their static
instruction mnemonic and optionally colored by per-statement timestamp
so the parallel partitions are visible at a glance.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.ddg.graph import DDG
from repro.errors import AnalysisError
from repro.ir.instructions import OPCODE_INFO, Opcode
from repro.ir.module import Module

_PALETTE = (
    "#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6",
    "#ffff99", "#1f78b4", "#33a02c", "#e31a1c", "#ff7f00",
)

#: Refuse to render graphs beyond this size — use the metrics instead.
MAX_NODES = 2000


def ddg_to_dot(
    ddg: DDG,
    module: Optional[Module] = None,
    highlight_sid: Optional[int] = None,
    timestamps: Optional[Sequence[int]] = None,
    name: str = "ddg",
) -> str:
    """Render ``ddg`` as a DOT digraph string.

    With ``highlight_sid`` + ``timestamps`` (from Algorithm 1), instances
    of that instruction are filled by partition color — reproducing the
    visual story of Fig. 1(b).  A graph of more than :data:`MAX_NODES`
    nodes raises :class:`~repro.errors.AnalysisError`.
    """
    if len(ddg) > MAX_NODES:
        raise AnalysisError(
            f"graph too large to render ({len(ddg)} nodes > {MAX_NODES})"
        )
    lines = [f"digraph {name} {{", "  rankdir=TB;",
             "  node [shape=box, fontsize=10];"]
    sids = ddg.sids.tolist()
    for i, op in enumerate(ddg.opcodes.tolist()):
        opcode = Opcode(op)
        label = OPCODE_INFO[opcode].mnemonic
        if module is not None:
            instr = module.instruction(sids[i])
            if instr.line:
                label = f"{label}@{instr.line}"
        label = f"{label}\\n#{i}"
        attrs = [f'label="{label}"']
        if (
            highlight_sid is not None
            and sids[i] == highlight_sid
            and timestamps is not None
        ):
            color = _PALETTE[timestamps[i] % len(_PALETTE)]
            attrs.append(f'style=filled, fillcolor="{color}"')
        lines.append(f"  n{i} [{', '.join(attrs)}];")
    for i, preds in enumerate(ddg.preds):
        for p in preds:
            lines.append(f"  n{p} -> n{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def partition_legend(
    partitions: Dict[int, list],
) -> str:
    """A text legend mapping timestamps to palette colors."""
    out = []
    for ts in sorted(partitions):
        color = _PALETTE[ts % len(_PALETTE)]
        out.append(f"t={ts}: {len(partitions[ts])} ops, {color}")
    return "\n".join(out)
