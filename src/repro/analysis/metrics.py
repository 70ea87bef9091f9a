"""Table-1 metric computation over one loop's DDG (paper §4.1).

- *Average Concurrency*: mean parallel-partition size over the partitions
  of **all** candidate instructions (singletons included).
- *Percent Vec. Ops (unit)*: operations in non-singleton unit-stride
  subpartitions, as a percentage of all candidate operations in the graph.
- *Average Vec. Size (unit)*: mean size of those subpartitions.
- *Percent / Average (non-unit)*: same pair, for fixed non-unit-stride
  subpartitions formed from the leftovers (§3.3).

Only non-singleton parallel partitions are subdivided by stride — members
of singleton partitions are on dependence chains and not vectorizable.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.candidates import candidate_sids
from repro.analysis.nonunit import (
    NonunitGroup,
    nonunit_stride_subpartitions,
)
from repro.analysis.stride import StrideBreak, unit_stride_subpartitions
from repro.analysis.timestamps import batched_parallel_partitions
from repro.analysis.report import InstructionReport, LoopReport
from repro.ddg.graph import DDG
from repro.ir.module import Module
from repro.obs import current_run


def _elem_size(module: Optional[Module], sid: int, default: int = 8) -> int:
    if module is None:
        return default
    instr = module.instruction(sid)
    if instr.result is not None:
        return instr.result.type.sizeof()
    return default


def _line_of(module: Optional[Module], sid: int) -> int:
    if module is None:
        return 0
    return module.instruction(sid).line


def _mnemonic_of(module: Optional[Module], sid: int, ddg: DDG) -> str:
    if module is not None:
        return module.instruction(sid).mnemonic
    from repro.ir.instructions import OPCODE_INFO, Opcode

    opcode = ddg.sid_opcodes.get(sid)
    if opcode is not None:
        return OPCODE_INFO[Opcode(opcode)].mnemonic
    return "?"


def instruction_metrics(
    ddg: DDG,
    sid: int,
    module: Optional[Module] = None,
    *,
    partitions: Dict[int, List[int]],
    subpartitions: Dict[int, List[List[int]]],
    groups: Optional[List[NonunitGroup]] = None,
) -> InstructionReport:
    """The per-instruction analysis over ``sid``'s Algorithm 1
    ``partitions`` (timestamp -> node list) and the §3.2 unit-stride
    ``subpartitions`` of its non-singleton ones (timestamp -> lists of
    nodes), both of which :func:`loop_metrics` computes once for every
    candidate: then the non-unit-stride waitlist scan over each
    partition's leftovers.  ``groups``, when given, collects the scan's
    :class:`~repro.analysis.nonunit.NonunitGroup` provenance.
    """
    num_instances = sum(len(p) for p in partitions.values())
    unit_sizes: List[int] = []
    nonunit_sizes: List[int] = []
    unit_ops = 0
    nonunit_ops = 0
    for subs in subpartitions.values():
        leftovers: List[int] = []
        for sub in subs:
            unit_sizes.append(len(sub))
            if len(sub) >= 2:
                unit_ops += len(sub)
            else:
                leftovers.extend(sub)
        if leftovers:
            nsubs = nonunit_stride_subpartitions(ddg, leftovers, groups)
            for sub in nsubs:
                nonunit_sizes.append(len(sub))
                if len(sub) >= 2:
                    nonunit_ops += len(sub)
    return InstructionReport(
        sid=sid,
        mnemonic=_mnemonic_of(module, sid, ddg),
        line=_line_of(module, sid),
        num_instances=num_instances,
        num_partitions=len(partitions),
        avg_partition_size=(
            num_instances / len(partitions) if partitions else 0.0
        ),
        unit_vec_ops=unit_ops,
        unit_subpartition_sizes=unit_sizes,
        nonunit_vec_ops=nonunit_ops,
        nonunit_subpartition_sizes=nonunit_sizes,
    )


def loop_metrics(
    ddg: DDG,
    module: Optional[Module] = None,
    loop_name: str = "",
    include_integer: bool = False,
    relax_reductions: bool = False,
    partitions_by_sid: Optional[Dict[int, Dict[int, List[int]]]] = None,
    breaks: Optional[Dict[int, List[StrideBreak]]] = None,
    groups: Optional[Dict[int, List[NonunitGroup]]] = None,
) -> LoopReport:
    """Aggregate the paper's loop-level metrics over all candidate
    instructions in the graph.

    Algorithm 1 runs through the batched engine: one K-wide topological
    scan for all K candidate instructions instead of K scalar passes.
    ``partitions_by_sid`` lets a caller that already holds the scan's
    partitions (the explain driver keeps the packed scan for witness
    extraction) pass them in, skipping the second pass; it must cover
    every candidate sid of the graph.  The §3.2 scan then runs once over
    every partition of the window.

    ``breaks`` and ``groups``, when given, collect the provenance of the
    §3.2 and §3.3 scans per candidate sid (see
    :func:`~repro.analysis.stride.unit_stride_subpartitions` and
    :func:`~repro.analysis.nonunit.nonunit_stride_subpartitions`); the
    metrics are unchanged.
    """
    tel = current_run().tel
    report = LoopReport(loop_name=loop_name)
    total_ops = 0
    total_partitions = 0
    unit_ops = 0
    nonunit_ops = 0
    unit_sizes: List[int] = []
    nonunit_sizes: List[int] = []
    sids = candidate_sids(ddg, include_integer)
    removed_by_sid = None
    if relax_reductions and sids:
        from repro.analysis.reductions import removed_edges_by_sid

        removed_by_sid = removed_edges_by_sid(ddg, sids)
    if partitions_by_sid is None:
        with tel.span("algorithm1"):
            partitions_by_sid = batched_parallel_partitions(
                ddg, sids, removed_by_sid
            )
        if tel.enabled:
            tel.count("algorithm1.scans", 1 if sids else 0)
            tel.count("algorithm1.candidate_sids", len(sids))
            tel.count("algorithm1.lanes_packed", len(sids))
    with tel.span("stride"):
        subpartitions_by_sid = unit_stride_subpartitions(
            ddg, {sid: partitions_by_sid[sid] for sid in sids},
            {sid: _elem_size(module, sid) for sid in sids}, breaks)
        for sid in sids:
            ir = instruction_metrics(
                ddg, sid, module, partitions=partitions_by_sid[sid],
                subpartitions=subpartitions_by_sid.get(sid, {}),
                groups=None if groups is None else groups.setdefault(sid, []))
            report.instructions.append(ir)
            total_ops += ir.num_instances
            total_partitions += ir.num_partitions
            unit_ops += ir.unit_vec_ops
            nonunit_ops += ir.nonunit_vec_ops
            unit_sizes.extend(
                s for s in ir.unit_subpartition_sizes if s >= 2
            )
            nonunit_sizes.extend(
                s for s in ir.nonunit_subpartition_sizes if s >= 2
            )
    if tel.enabled:
        tel.count("algorithm1.partitions", total_partitions)
        tel.count("algorithm1.candidate_ops", total_ops)
        tel.count("stride.unit_subpartitions", len(unit_sizes))
        tel.count("stride.nonunit_subpartitions", len(nonunit_sizes))
    report.total_candidate_ops = total_ops
    if total_partitions:
        report.avg_concurrency = total_ops / total_partitions
    if total_ops:
        report.percent_vec_unit = 100.0 * unit_ops / total_ops
        report.percent_vec_nonunit = 100.0 * nonunit_ops / total_ops
    if unit_sizes:
        report.avg_vec_size_unit = sum(unit_sizes) / len(unit_sizes)
    if nonunit_sizes:
        report.avg_vec_size_nonunit = sum(nonunit_sizes) / len(nonunit_sizes)
    return report
