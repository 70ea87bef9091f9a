"""``explain_loop``: one windowed run, every witness, one report.

The driver re-traces one instance of the loop through the fused
columnar path (the same :func:`repro.analysis.pipeline.windowed_loop_ddg`
the metrics pipeline uses), runs the batched Algorithm 1 scan ONCE, and
derives everything from that single artifact:

- the parallel partitions feed :func:`repro.analysis.metrics.loop_metrics`
  (via its ``partitions_by_sid`` fast path — no second scan);
- the kept :class:`~repro.analysis.timestamps.PackedScan` powers the
  backward witness walk (O(chain), not O(graph));
- the §3.2/§3.3 provenance out-params and the layout inverse mapping
  produce stride witnesses;
- the static vectorizer's refusal reasons are cross-examined against
  all of the above.

Every stage is span-instrumented (``explain.*``); the finished report
lands in the run report's optional ``explain`` mapping (schema /3) via
``tel.explain_section`` plus a flat numeric ``explain.<loop>`` section
for ``vectra compare`` gating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.candidates import candidate_sids
from repro.analysis.metrics import loop_metrics
from repro.analysis.pipeline import windowed_loop_ddg
from repro.analysis.report import LoopReport
from repro.analysis.timestamps import (
    packed_timestamp_scan,
    partitions_from_scan,
)
from repro.errors import AnalysisError
from repro.explain.refusals import RefusalFinding, cross_examine
from repro.explain.strides import StrideWitness, extract_stride_witnesses
from repro.explain.witnesses import (
    DependenceWitness,
    extract_dependence_witnesses,
)
from repro.interp.interpreter import DEFAULT_FUEL
from repro.ir.module import Module
from repro.obs import current_run


@dataclass
class ExplainReport:
    """Everything ``vectra explain`` knows about one loop."""

    loop_name: str
    num_nodes: int
    num_edges: int
    num_candidate_sids: int
    num_memory_flow_edges: int
    dependence_witnesses: List[DependenceWitness] = field(
        default_factory=list
    )
    stride_witnesses: List[StrideWitness] = field(default_factory=list)
    refusals: List[RefusalFinding] = field(default_factory=list)
    metrics: Optional[LoopReport] = None

    def to_dict(self) -> dict:
        """JSON-safe payload for the run report's ``explain`` mapping."""
        out = {
            "loop": self.loop_name,
            "ddg_nodes": self.num_nodes,
            "ddg_edges": self.num_edges,
            "candidate_sids": self.num_candidate_sids,
            "memory_flow_edges": self.num_memory_flow_edges,
            "dependence_witnesses": [
                w.to_dict() for w in self.dependence_witnesses
            ],
            "stride_witnesses": [
                w.to_dict() for w in self.stride_witnesses
            ],
            "refusals": [f.to_dict() for f in self.refusals],
        }
        if self.metrics is not None:
            out["metrics"] = {
                "avg_concurrency": self.metrics.avg_concurrency,
                "percent_vec_unit": self.metrics.percent_vec_unit,
                "avg_vec_size_unit": self.metrics.avg_vec_size_unit,
                "percent_vec_nonunit": self.metrics.percent_vec_nonunit,
                "avg_vec_size_nonunit": self.metrics.avg_vec_size_nonunit,
            }
        return out

    def witness_ids(self) -> List[str]:
        return [w.witness_id for w in self.dependence_witnesses] + [
            w.witness_id for w in self.stride_witnesses
        ]


def explain_loop(
    module: Module,
    loop_name: str,
    reasons: Sequence[str] = (),
    entry: str = "main",
    args: Sequence = (),
    instance: int = 0,
    include_integer: bool = False,
    fuel: int = DEFAULT_FUEL,
) -> ExplainReport:
    """Trace one instance of ``loop_name`` and extract all witnesses.

    ``reasons`` are the static vectorizer's refusal strings for this
    loop (typically :func:`repro.analysis.opportunities.subtree_reasons`)
    — empty means the cross-examination section is empty, the dynamic
    witnesses are still produced.
    """
    tel = current_run().tel
    info = module.loop_by_name(loop_name)
    if info is None:
        known = ", ".join(li.name for li in module.loops.values())
        raise AnalysisError(
            f"no loop named {loop_name!r}; known loops: {known}"
        )
    tel.instant("explain.start", {"loop": loop_name})
    # The full window graph, not analyze's candidate cone: the report
    # prints its node and edge totals, the refusal verdicts count every
    # store->load edge, and the witnesses name its node indices.
    ddg, stats, _ = windowed_loop_ddg(module, info.loop_id, loop_name,
                                      entry, args, instance, fuel)
    sids = candidate_sids(ddg, include_integer)
    with tel.span("algorithm1"):
        scan = packed_timestamp_scan(ddg, sids)
        partitions_by_sid = (
            partitions_from_scan(ddg, scan) if sids else {}
        )
    if tel.enabled:
        tel.count("algorithm1.scans", 1 if sids else 0)
        tel.count("algorithm1.candidate_sids", len(sids))
        tel.count("algorithm1.lanes_packed", len(sids))
    metrics = loop_metrics(ddg, module, loop_name, include_integer,
                           partitions_by_sid=partitions_by_sid)
    with tel.span("explain.witness.dependence"):
        dep_witnesses = extract_dependence_witnesses(
            ddg, scan, partitions_by_sid, module
        )
    tel.instant("explain.witness.dependence.done",
                {"loop": loop_name, "witnesses": len(dep_witnesses)})
    with tel.span("explain.witness.stride"):
        stride_witnesses = extract_stride_witnesses(
            ddg, partitions_by_sid, module
        )
    tel.instant("explain.witness.stride.done",
                {"loop": loop_name, "witnesses": len(stride_witnesses)})
    with tel.span("explain.refusals"):
        mem_edges = ddg.memory_flow_edges()
        findings = cross_examine(ddg, list(reasons), dep_witnesses,
                                 stride_witnesses, partitions_by_sid)
    report = ExplainReport(
        loop_name=loop_name,
        num_nodes=len(ddg.sids),
        num_edges=ddg.num_edges,
        num_candidate_sids=len(sids),
        num_memory_flow_edges=len(mem_edges),
        dependence_witnesses=dep_witnesses,
        stride_witnesses=stride_witnesses,
        refusals=findings,
        metrics=metrics,
    )
    if tel.enabled:
        tel.count("explain.loops")
        tel.count("explain.dependence_witnesses", len(dep_witnesses))
        tel.count("explain.stride_witnesses", len(stride_witnesses))
        tel.count("explain.refusals_examined", len(findings))
        tel.section(f"explain.{loop_name}", {
            "loop": loop_name,
            "records_traced": stats["rows"],
            "dependence_witnesses": len(dep_witnesses),
            "stride_witnesses": len(stride_witnesses),
            "memory_flow_edges": len(mem_edges),
            "refusals_examined": len(findings),
            "refusals_contradicted": sum(
                1 for f in findings if f.verdict == "contradicted"
            ),
        })
        tel.explain_section(f"loop.{loop_name}", report.to_dict())
    tel.instant("explain.finish", {"loop": loop_name})
    return report
