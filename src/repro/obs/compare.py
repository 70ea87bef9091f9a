"""Run-report comparison: per-stage/per-counter deltas and a perf gate.

``vectra compare BASE.json HEAD.json`` loads two ``--metrics-json`` run
reports (or the baseline/latest pair of a ``--metrics-append`` ledger),
prints a human diff table, and — with one or more ``--fail-on`` specs —
returns a thresholded verdict with a nonzero exit code, which is what CI
uses as a regression gate over a checked-in baseline report.

A ``--fail-on`` spec is ``kind:name:limit``:

- ``kind`` — ``span`` (compares ``total_s``), ``counter``, ``gauge``,
  ``hist`` (``name`` is ``histogram-name.stat`` where stat is one of
  ``count``/``mean``/``max``/``p50``/``p90``/``p95``/``p99``, derived
  from the report's log-bucketed histograms), or ``section`` (``name``
  is then ``section-name.field``);
- ``name`` — the metric key as it appears in the report;
- ``limit`` — a signed change bound, relative (``+10%`` fails when HEAD
  exceeds BASE by more than 10%) or absolute (``+250000`` fails when
  HEAD exceeds BASE by more than 250000); a leading ``-`` guards the
  downward direction instead (e.g. a counter that must not shrink).

Metrics missing from a report are treated as 0, so a relative bound also
catches a stage/counter that newly appeared (0 → anything positive
exceeds any ``+N%``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import VectraError
from repro.obs.telemetry import Histogram, validate_report_schema

__all__ = [
    "COMPARE_SCHEMA",
    "Delta",
    "Threshold",
    "load_report",
    "diff_reports",
    "metric_items",
    "parse_fail_on",
    "evaluate_thresholds",
    "format_diff_table",
    "compare_json_doc",
]

#: Schema tag of the ``vectra compare --json`` delta document.
COMPARE_SCHEMA = "vectra.compare/1"

#: Metric namespaces a spec/diff can address.
KINDS = ("span", "counter", "gauge", "hist", "section")

#: Histogram stats the ``hist`` namespace exposes per histogram.
HIST_STATS = (("count", None), ("mean", None), ("max", None),
              ("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99))


def load_report(path: str) -> dict:
    """Load and schema-check one ``--metrics-json`` run report."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except OSError as exc:
        raise VectraError(f"cannot read report {path!r}: {exc}") from exc
    except ValueError as exc:
        raise VectraError(f"{path}: malformed report JSON: {exc}") from exc
    if not isinstance(report, dict):
        raise VectraError(f"{path}: report is not a JSON object")
    validate_report_schema(report, source=path)
    return report


def _metric_values(report: dict, kind: str) -> Dict[str, float]:
    """Flatten one namespace of a report to ``{name: numeric value}``."""
    if kind == "span":
        return {name: rec.get("total_s", 0.0)
                for name, rec in report.get("spans", {}).items()}
    if kind == "counter":
        return dict(report.get("counters", {}))
    if kind == "gauge":
        return dict(report.get("gauges", {}))
    if kind == "hist":
        # Synthetic baselines (obs.history.median_report) carry the
        # already-flattened stats; real reports carry bucket snapshots.
        if "hist_flat" in report:
            return dict(report["hist_flat"])
        values: Dict[str, float] = {}
        for name, rec in report.get("histograms", {}).items():
            hist = Histogram.from_snapshot(rec)
            values[f"{name}.count"] = hist.count
            if hist.count:
                values[f"{name}.mean"] = hist.mean
                values[f"{name}.max"] = hist.vmax
                for stat, q in HIST_STATS:
                    if q is not None:
                        values[f"{name}.{stat}"] = hist.percentile(q)
        return values
    if "section_flat" in report:
        return dict(report["section_flat"])
    values = {}
    for sec_name, data in report.get("sections", {}).items():
        for field, value in data.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                values[f"{sec_name}.{field}"] = value
    return values


def metric_items(report: dict):
    """Every numeric metric of a report as ``(kind, name, value)``
    triples, sorted within each kind — the flat view the run-stats
    database ingests and the median baseline aggregates."""
    for kind in KINDS:
        for name, value in sorted(_metric_values(report, kind).items()):
            yield kind, name, value


@dataclass
class Delta:
    """One metric's base→head movement."""

    kind: str
    name: str
    base: float
    head: float

    @property
    def change(self) -> float:
        return self.head - self.base

    @property
    def pct(self) -> Optional[float]:
        """Relative change in percent; ``None`` when base is 0 (a newly
        appeared or vanished metric has no meaningful ratio)."""
        if self.base == 0:
            return None
        return 100.0 * self.change / self.base


def diff_reports(base: dict, head: dict) -> List[Delta]:
    """Per-metric deltas over the union of both reports' keys, grouped
    by kind and sorted by name for stable output."""
    deltas: List[Delta] = []
    for kind in KINDS:
        b = _metric_values(base, kind)
        h = _metric_values(head, kind)
        for name in sorted(set(b) | set(h)):
            deltas.append(Delta(kind, name, b.get(name, 0), h.get(name, 0)))
    return deltas


@dataclass
class Threshold:
    """A parsed ``--fail-on`` spec."""

    kind: str
    name: str
    amount: float
    relative: bool  # True: amount is a percentage of base
    direction: int  # +1 guards increases, -1 guards decreases
    spec: str

    def violation(self, delta: Delta) -> Optional[str]:
        """A human-readable violation line, or ``None`` if within bound."""
        change = delta.change * self.direction
        if self.relative:
            if delta.base == 0:
                exceeded = change > 0
            else:
                exceeded = change > abs(delta.base) * self.amount / 100.0
            observed = (f"{delta.pct:+.1f}%" if delta.pct is not None
                        else f"{delta.change:+g} (new)")
        else:
            exceeded = change > self.amount
            observed = f"{delta.change:+g}"
        if not exceeded:
            return None
        return (f"{self.spec}: {self.kind} {delta.name!r} moved {observed} "
                f"(base {delta.base:g}, head {delta.head:g})")


def parse_fail_on(spec: str) -> Threshold:
    """Parse ``kind:name:limit`` (see module docstring for the grammar).

    Raises :class:`VectraError` naming the offending spec on any
    malformed piece, so CI misconfiguration fails loudly.
    """
    kind, sep, rest = spec.partition(":")
    name, sep2, limit = rest.rpartition(":")
    if not sep or not sep2 or not name or not limit:
        raise VectraError(
            f"bad --fail-on spec {spec!r}: expected KIND:NAME:LIMIT, "
            f"e.g. span:analysis.total:+10%"
        )
    if kind not in KINDS:
        raise VectraError(
            f"bad --fail-on spec {spec!r}: unknown kind {kind!r} "
            f"(choose from {', '.join(KINDS)})"
        )
    if limit[0] not in "+-":
        raise VectraError(
            f"bad --fail-on spec {spec!r}: limit must be signed, "
            f"e.g. +10% or -1000"
        )
    direction = 1 if limit[0] == "+" else -1
    body = limit[1:]
    relative = body.endswith("%")
    if relative:
        body = body[:-1]
    try:
        amount = float(body)
    except ValueError:
        raise VectraError(
            f"bad --fail-on spec {spec!r}: limit {limit!r} is not a number"
        ) from None
    if amount < 0:
        raise VectraError(
            f"bad --fail-on spec {spec!r}: limit magnitude must be >= 0"
        )
    return Threshold(kind, name, amount, relative, direction, spec)


def evaluate_thresholds(
    deltas: Sequence[Delta], thresholds: Sequence[Threshold]
) -> List[str]:
    """All violation lines across ``thresholds`` (empty = verdict OK).

    A threshold naming a metric absent from both reports compares 0
    against 0 and passes — gating on a metric the workload never emits
    is a configuration smell but not a regression.
    """
    by_key = {(d.kind, d.name): d for d in deltas}
    violations: List[str] = []
    for threshold in thresholds:
        delta = by_key.get((threshold.kind, threshold.name))
        if delta is None:
            delta = Delta(threshold.kind, threshold.name, 0, 0)
        line = threshold.violation(delta)
        if line is not None:
            violations.append(line)
    return violations


def format_diff_table(deltas: Sequence[Delta],
                      changed_only: bool = False) -> str:
    """The human diff table: kind, name, base, head, change, percent."""
    lines = [f"{'kind':<8} {'name':<40} {'base':>14} {'head':>14} "
             f"{'change':>12} {'%':>9}"]
    shown = 0
    for delta in deltas:
        if changed_only and delta.change == 0:
            continue
        shown += 1
        pct = delta.pct
        if pct is None:
            pct_s = "new" if delta.head else "-"
        else:
            pct_s = f"{pct:+.1f}%"
        lines.append(
            f"{delta.kind:<8} {delta.name:<40} {delta.base:>14g} "
            f"{delta.head:>14g} {delta.change:>+12g} {pct_s:>9}"
        )
    if shown == 0:
        lines.append("(no differences)")
    return "\n".join(lines)


def compare_json_doc(
    deltas: Sequence[Delta], thresholds: Sequence[Threshold] = ()
) -> dict:
    """The machine-readable ``--json`` delta document: every delta with
    its old/new values and whether a ``--fail-on`` threshold flagged it,
    plus the overall verdict — what a CI step parses instead of scraping
    the human table."""
    violated_specs: Dict[Tuple[str, str], List[str]] = {}
    violations: List[str] = []
    by_key = {(d.kind, d.name): d for d in deltas}
    for threshold in thresholds:
        key = (threshold.kind, threshold.name)
        delta = by_key.get(key)
        if delta is None:
            delta = Delta(threshold.kind, threshold.name, 0, 0)
        line = threshold.violation(delta)
        if line is not None:
            violations.append(line)
            violated_specs.setdefault(key, []).append(threshold.spec)
    return {
        "schema": COMPARE_SCHEMA,
        "deltas": [
            {
                "kind": d.kind,
                "name": d.name,
                "base": d.base,
                "head": d.head,
                "change": d.change,
                "pct": d.pct,
                "violated": (d.kind, d.name) in violated_specs,
                "violated_by": violated_specs.get((d.kind, d.name), []),
            }
            for d in deltas
        ],
        "thresholds": [t.spec for t in thresholds],
        "violations": violations,
        "verdict": "FAIL" if violations else "OK",
    }

