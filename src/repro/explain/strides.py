"""Stride-break provenance: *which* access pair broke a run, and *why*.

The §3.2 unit-stride scan and the §3.3 waitlist scan report only sizes;
for a diagnosis the interesting artifact is the split point itself — the
two dynamic instances whose concrete byte addresses refused to be
contiguous — and the declared data layout feature those addresses imply
(:func:`repro.runtime.layout.infer_stride_culprit`): an AoS field
access stepping whole structs, a transposed index stepping whole rows.

Extraction reads the provenance the metrics pass collects on request
(:func:`repro.analysis.metrics.loop_metrics`' ``breaks`` / ``groups``),
so the two scans run once per explained loop; the witnesses are bounded
by :data:`MAX_STRIDE_WITNESSES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.nonunit import NonunitGroup
from repro.analysis.stride import StrideBreak
from repro.ddg.graph import DDG

#: Per-loop cap on reported stride witnesses (first unit-stride break
#: plus the largest fixed-stride groups per instruction, then truncated).
MAX_STRIDE_WITNESSES = 6


@dataclass
class StrideWitness:
    """One split point with its concrete addresses and layout culprit.

    ``kind`` is ``unit-break`` (a §3.2 subpartition closed here) or
    ``nonunit-group`` (a §3.3 waitlist subpartition locked onto this
    stride).  ``addr_a``/``addr_b`` are the byte addresses of the tuple
    component that moved fastest; ``culprit`` is the JSON dict from
    :func:`repro.runtime.layout.infer_stride_culprit` for that pair."""

    witness_id: str
    sid: int
    mnemonic: str
    line: int
    kind: str
    node_a: int
    node_b: int
    tuple_a: Tuple[int, ...]
    tuple_b: Tuple[int, ...]
    stride: Tuple[int, ...]
    addr_a: int
    addr_b: int
    byte_stride: int
    group_size: int = 0
    culprit: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "witness_id": self.witness_id,
            "sid": self.sid,
            "mnemonic": self.mnemonic,
            "line": self.line,
            "kind": self.kind,
            "node_a": self.node_a,
            "node_b": self.node_b,
            "tuple_a": list(self.tuple_a),
            "tuple_b": list(self.tuple_b),
            "stride": list(self.stride),
            "addr_a": self.addr_a,
            "addr_b": self.addr_b,
            "byte_stride": self.byte_stride,
            "group_size": self.group_size,
            "culprit": self.culprit,
        }


def _dominant_component(
    stride: Tuple[int, ...], tup_a: Tuple[int, ...], tup_b: Tuple[int, ...]
) -> Optional[Tuple[int, int, int]]:
    """The fastest-moving tuple component: ``(byte_stride, addr_a,
    addr_b)``, skipping artificial address 0 — or ``None`` if every
    component is constant or artificial."""
    best = None
    for s, a, b in zip(stride, tup_a, tup_b):
        if s == 0 or a == 0 or b == 0:
            continue
        if best is None or abs(s) > abs(best[0]):
            best = (s, a, b)
    return best


def _describe(module, sid: int):
    if module is None:
        return "?", 0
    instr = module.instruction(sid)
    return instr.mnemonic, instr.line


def extract_stride_witnesses(
    ddg: DDG,
    sids: Sequence[int],
    breaks: Dict[int, List[StrideBreak]],
    groups: Dict[int, List[NonunitGroup]],
    module=None,
    limit: int = MAX_STRIDE_WITNESSES,
) -> List[StrideWitness]:
    """Stride-break and fixed-stride-group witnesses for the candidate
    static instructions ``sids``, in that order, capped at ``limit``.

    ``breaks`` and ``groups`` are the per-sid provenance of the §3.2 and
    §3.3 scans, as :func:`repro.analysis.metrics.loop_metrics` collects
    it.  Per sid, at most the first unit-stride break and the two largest
    non-unit groups (with a partner) are kept; the culprit inference runs
    once per kept witness.
    """
    from repro.runtime.layout import infer_stride_culprit

    witnesses: List[StrideWitness] = []
    for sid in sids:
        if len(witnesses) >= limit:
            break
        mnemonic, line = _describe(module, sid) if module else ("?", 0)
        if module is None:
            from repro.ir.instructions import OPCODE_INFO, Opcode

            opcode = ddg.sid_opcodes.get(sid)
            if opcode is not None:
                mnemonic = OPCODE_INFO[Opcode(opcode)].mnemonic
        for brk in breaks.get(sid, [])[:1]:
            dom = _dominant_component(brk.stride, brk.prev_tuple, brk.tuple)
            if dom is None:
                continue
            s, a, b = dom
            witnesses.append(StrideWitness(
                witness_id=f"stride:{mnemonic}@L{line}:sid{sid}:unit",
                sid=sid, mnemonic=mnemonic, line=line,
                kind="unit-break",
                node_a=brk.prev_node, node_b=brk.node,
                tuple_a=brk.prev_tuple, tuple_b=brk.tuple,
                stride=brk.stride, addr_a=a, addr_b=b, byte_stride=abs(s),
                culprit=(infer_stride_culprit(module, a, b)
                         if module is not None else None),
            ))
        partnered = sorted(
            (g for g in groups.get(sid, ())
             if g.second_node is not None and g.size >= 2),
            key=lambda g: -g.size,
        )
        for gi, grp in enumerate(partnered[:2]):
            dom = _dominant_component(grp.stride, grp.first_tuple,
                                      grp.second_tuple)
            if dom is None:
                continue
            s, a, b = dom
            witnesses.append(StrideWitness(
                witness_id=(
                    f"stride:{mnemonic}@L{line}:sid{sid}:nonunit{gi}"
                ),
                sid=sid, mnemonic=mnemonic, line=line,
                kind="nonunit-group",
                node_a=grp.first_node, node_b=grp.second_node,
                tuple_a=grp.first_tuple, tuple_b=grp.second_tuple,
                stride=grp.stride, addr_a=a, addr_b=b, byte_stride=abs(s),
                group_size=grp.size,
                culprit=(infer_stride_culprit(module, a, b)
                         if module is not None else None),
            ))
    return witnesses[:limit]
