"""Refusal cross-examination: static excuses vs. dynamic evidence.

The static vectorizer's refusal reasons are conservative claims
("possible pointer aliasing", "loop-carried dependence"); the trace is
one concrete execution.  Each refusal is joined against the dynamic
artifacts the explain driver extracted and receives a verdict:

- ``confirmed`` — the trace exhibits the claimed blocker (a dependence
  witness chain, observed store→load flow, a non-unit stride break);
- ``contradicted`` — the trace shows its absence ("compiler refused:
  may-alias; trace shows zero store→load flow dependences"), i.e. the
  conservatism cost real vectorization *on this input*;
- ``structural`` — a shape property (control flow, inner loop, calls)
  one execution can neither prove nor refute;
- ``unsupported`` — the trace is silent either way.

A ``contradicted`` verdict is not a compiler bug: it marks exactly the
paper's use case 1, the spots where a programmer assertion (restrict,
ivdep) or runtime check would unlock the potential the dynamic metrics
measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.ddg.graph import DDG
from repro.vectorizer.autovec import reason_code


@dataclass
class RefusalFinding:
    """One refusal reason with its dynamic verdict and the witnesses
    backing it."""

    reason: str
    code: str
    verdict: str
    evidence: str
    witness_ids: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "reason": self.reason,
            "code": self.code,
            "verdict": self.verdict,
            "evidence": self.evidence,
            "witness_ids": list(self.witness_ids),
        }


#: Refusal codes about loop *shape*, untestable from one dynamic run.
_STRUCTURAL_CODES = frozenset({
    "control-flow", "inner-loop", "call", "non-canonical",
})

#: Refusal codes claiming a (possible) memory dependence.
_ALIAS_CODES = frozenset({"alias", "pointer-mutation"})

#: Refusal codes claiming a cross-iteration value dependence.
_DEPENDENCE_CODES = frozenset({"carried-dependence", "recurrence"})


def cross_examine(
    ddg: DDG,
    reasons: Sequence[str],
    dependence_witnesses: Sequence,
    stride_witnesses: Sequence,
    partitions_by_sid: Dict[int, Dict[int, List[int]]],
    mem_edges: int,
) -> List[RefusalFinding]:
    """Join every refusal reason against the extracted dynamic evidence;
    ``mem_edges`` is the graph's count of store→load flow edges
    (:meth:`~repro.ddg.graph.DDG.memory_flow_edges`)."""
    num_nodes = len(ddg.sids)
    dep_ids = [w.witness_id for w in dependence_witnesses]
    any_chain = any(
        len(parts) >= 2 for parts in partitions_by_sid.values()
    )
    unit_breaks = [w for w in stride_witnesses if w.kind == "unit-break"]
    nonunit = [w for w in stride_witnesses if w.kind == "nonunit-group"]

    findings: List[RefusalFinding] = []
    for reason in reasons:
        code = reason_code(reason)
        verdict = "unsupported"
        evidence = "trace is silent on this claim"
        witness_ids: List[str] = []
        if code in _STRUCTURAL_CODES:
            verdict = "structural"
            evidence = (
                "loop-shape property; a single execution can neither "
                "prove nor refute it"
            )
        elif code in _ALIAS_CODES:
            if mem_edges:
                verdict = "confirmed"
                evidence = (
                    f"{mem_edges} store→load flow dependence(s) "
                    f"observed among {num_nodes} traced instances"
                )
            else:
                verdict = "contradicted"
                evidence = (
                    f"trace shows zero store→load flow dependences "
                    f"over {num_nodes} traced instances — the "
                    f"possible aliasing never materialized on this input"
                )
        elif code in _DEPENDENCE_CODES:
            if dep_ids:
                verdict = "confirmed"
                evidence = (
                    "dependence witness chain(s) connect adjacent "
                    "partitions of the instruction"
                )
                witness_ids = list(dep_ids)
            elif not any_chain:
                verdict = "contradicted"
                evidence = (
                    "every candidate instruction forms a single parallel "
                    "partition — no cross-iteration dependence chain "
                    "materialized"
                )
            else:
                verdict = "confirmed"
                evidence = (
                    "multiple parallel partitions observed (chain "
                    "witness not extracted)"
                )
        elif code == "nonunit-stride":
            if unit_breaks or nonunit:
                verdict = "confirmed"
                evidence = (
                    "stride-break witness(es) show the concrete non-unit "
                    "access pattern"
                )
                witness_ids = [w.witness_id for w in (unit_breaks + nonunit)]
            else:
                verdict = "contradicted"
                evidence = (
                    "all observed access strides were unit or zero — "
                    "the static stride bound was pessimistic for this run"
                )
        elif code in ("data-dependent-subscript", "irregular-subscript"):
            if not mem_edges and not dep_ids:
                verdict = "contradicted"
                evidence = (
                    f"irregular subscripts were dynamically independent: "
                    f"zero store→load flow dependences and no "
                    f"dependence chains over {num_nodes} instances"
                )
            elif mem_edges:
                verdict = "confirmed"
                evidence = (
                    f"{mem_edges} store→load flow dependence(s) "
                    f"flowed through the irregular accesses"
                )
        findings.append(RefusalFinding(
            reason=reason, code=code, verdict=verdict,
            evidence=evidence, witness_ids=witness_ids,
        ))
    return findings
