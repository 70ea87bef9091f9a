"""Dependence witnesses: the chain that caps a parallel partition.

Algorithm 1 (§3.1) assigns instances of a static instruction *s* to
partitions by timestamp; the partition count equals the length of the
longest dependence chain through instances of *s*.  A *witness* makes
that chain concrete: the shortest DDG path from an instance of *s* at
timestamp ``T-1`` to one at timestamp ``T``, rendered as source-level
steps.  Showing one such path proves the partitioning could not have
been coarser — the dependence is real, not an artifact.

Extraction reuses the one batched scan the metrics already ran
(:class:`repro.analysis.timestamps.PackedScan`): walk CSR predecessors
backward from the frontier instance, visiting only nodes whose timestamp
on *s*'s lane is exactly ``T-1``.  Timestamps only become positive at
instances of *s*, so the walk must terminate at one; BFS order makes the
chain shortest.  Work is O(nodes at timestamp ``T-1``), typically a tiny
slice of the graph — no second scan.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.timestamps import PackedScan
from repro.ddg.graph import DDG
from repro.ir.instructions import OPCODE_INFO, Opcode

#: At most this many dependence witnesses per loop (one per static
#: instruction, longest chains first) — explain output stays readable.
MAX_DEPENDENCE_WITNESSES = 4


@dataclass(frozen=True)
class WitnessStep:
    """One node on a witness chain.  ``via_memory`` marks the edge *into*
    this step (from the previous, earlier step) as a store→load flow —
    the dependence travelled through memory, not a virtual register."""

    node: int
    sid: int
    mnemonic: str
    line: int
    via_memory: bool = False

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "sid": self.sid,
            "mnemonic": self.mnemonic,
            "line": self.line,
            "via_memory": self.via_memory,
        }


@dataclass
class DependenceWitness:
    """The shortest chain between two adjacent-timestamp instances of one
    static instruction — the proof its partitions cannot merge."""

    witness_id: str
    sid: int
    mnemonic: str
    line: int
    timestamp_from: int
    timestamp_to: int
    num_partitions: int
    steps: List[WitnessStep] = field(default_factory=list)

    @property
    def via_memory(self) -> bool:
        """True when any link of the chain flows through memory."""
        return any(s.via_memory for s in self.steps)

    def to_dict(self) -> dict:
        return {
            "witness_id": self.witness_id,
            "sid": self.sid,
            "mnemonic": self.mnemonic,
            "line": self.line,
            "timestamp_from": self.timestamp_from,
            "timestamp_to": self.timestamp_to,
            "num_partitions": self.num_partitions,
            "via_memory": self.via_memory,
            "steps": [s.to_dict() for s in self.steps],
        }


def _describe(module, ddg: DDG, sid: int):
    if module is not None:
        instr = module.instruction(sid)
        return instr.mnemonic, instr.line
    opcode = ddg.sid_opcodes.get(sid)
    if opcode is not None:
        return OPCODE_INFO[Opcode(opcode)].mnemonic, 0
    return "?", 0


def _shortest_chain(
    ddg: DDG, scan: PackedScan, sid: int, frontier_node: int, t: int
) -> Optional[List[int]]:
    """BFS backward from ``frontier_node`` (an instance of ``sid`` at
    timestamp ``t``) through predecessors at timestamp ``t - 1`` on
    ``sid``'s lane, stopping at the first instance of ``sid`` reached.
    Returns the chain in execution order (earlier instance first), or
    ``None`` if no predecessor sits at ``t - 1`` (cannot happen on a
    well-formed scan — defensive)."""
    indices = ddg.pred_indices
    offsets = ddg.pred_offsets
    sids = ddg.sids
    timestamp = scan.timestamp
    want = t - 1
    parent: Dict[int, int] = {}
    queue = deque()
    for j in range(offsets[frontier_node], offsets[frontier_node + 1]):
        p = indices[j]
        if p not in parent and timestamp(p, sid) == want:
            parent[p] = frontier_node
            queue.append(p)
    while queue:
        u = queue.popleft()
        if sids[u] == sid:
            chain = [u]
            while u != frontier_node:
                u = parent[u]
                chain.append(u)
            return chain
        for j in range(offsets[u], offsets[u + 1]):
            p = indices[j]
            if p not in parent and timestamp(p, sid) == want:
                parent[p] = u
                queue.append(p)
    return None


def extract_dependence_witnesses(
    ddg: DDG,
    scan: PackedScan,
    partitions_by_sid: Dict[int, Dict[int, List[int]]],
    module=None,
    limit: int = MAX_DEPENDENCE_WITNESSES,
) -> List[DependenceWitness]:
    """One witness per multi-partition static instruction, longest
    dependence chains first, capped at ``limit``.

    For each chosen sid the frontier is the first instance in the
    maximum-timestamp partition; the extracted chain connects it to some
    instance one timestamp earlier.
    """
    load = int(Opcode.LOAD)
    store = int(Opcode.STORE)
    chained = sorted(
        (
            (sid, parts)
            for sid, parts in partitions_by_sid.items()
            if len(parts) >= 2
        ),
        key=lambda item: (-len(item[1]), item[0]),
    )
    witnesses: List[DependenceWitness] = []
    for sid, parts in chained[: max(0, limit)]:
        t = max(parts)
        frontier = parts[t][0]
        chain = _shortest_chain(ddg, scan, sid, frontier, t)
        if chain is None:
            continue
        mnemonic, line = _describe(module, ddg, sid)
        steps: List[WitnessStep] = []
        opcodes = ddg.opcodes[chain].tolist()
        for idx, (node, step_sid) in enumerate(
                zip(chain, ddg.sids[chain].tolist())):
            via_memory = (
                idx > 0
                and opcodes[idx] == load
                and opcodes[idx - 1] == store
            )
            m, ln = _describe(module, ddg, step_sid)
            steps.append(WitnessStep(node=node, sid=step_sid,
                                     mnemonic=m, line=ln,
                                     via_memory=via_memory))
        witnesses.append(DependenceWitness(
            witness_id=f"dep:{mnemonic}@L{line}:sid{sid}",
            sid=sid,
            mnemonic=mnemonic,
            line=line,
            timestamp_from=t - 1,
            timestamp_to=t,
            num_partitions=len(parts),
            steps=steps,
        ))
    return witnesses
