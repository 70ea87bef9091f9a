"""Run-report comparison: per-metric deltas and the one regression gate.

``vectra compare BASE.json HEAD.json`` loads two ``--metrics-json`` run
reports (or, with ``--ledger``, every entry of a ``--metrics-append``
ledger), prints a human diff table, and — with one or more
``--fail-on`` specs — returns a thresholded verdict with a nonzero exit
code, which is what CI uses as a regression gate.

The head run is scored against its **base runs**: the one BASE report,
or every ledger entry but the last.  Each metric's base is the median
of its value over the base runs (a metric absent from a run counts as
0 there), and with two or more base runs it also has a **spread**,
``max(1.4826·MAD, 1%·|median|, 1e-9)`` — the median absolute deviation
scaled to a standard deviation, floored at 1% of the median so a
metric that never moved cannot trip on a sub-percent wiggle.

A ``--fail-on`` spec is ``kind:name:limit``:

- ``kind`` — ``span`` (compares ``total_s``), ``counter``, ``gauge``,
  ``hist`` (``name`` is ``histogram-name.stat`` where stat is one of
  ``count``/``mean``/``max``/``p50``/``p90``/``p95``/``p99``, derived
  from the report's log-bucketed histograms), or ``section`` (``name``
  is then ``section-name.field``);
- ``name`` — the metric key as it appears in the report, or an
  ``fnmatch`` pattern (``counter:*``) whose limit applies to every
  metric of that kind it matches;
- ``limit`` — a signed change bound: relative (``+10%`` fails when
  HEAD exceeds BASE by more than 10%), absolute (``+250000``), or in
  spreads (``+3.5mad`` fails when HEAD exceeds BASE by more than 3.5
  spreads; never on a metric without a spread).  A leading ``-``
  guards the downward direction instead (e.g. a counter that must not
  shrink).

A metric missing from the head counts as 0, so a relative bound also
catches a stage/counter that newly appeared (0 → anything positive
exceeds any ``+N%``); a name or pattern that matches no metric passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fnmatch import fnmatchcase
from statistics import median
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.errors import VectraError
from repro.obs.telemetry import Histogram, validate_report_schema

__all__ = [
    "COMPARE_SCHEMA",
    "Delta",
    "Threshold",
    "Violation",
    "load_report",
    "diff_reports",
    "parse_fail_on",
    "evaluate_thresholds",
    "format_diff_table",
    "compare_json_doc",
]

#: Schema tag of the ``vectra compare --json`` delta document.
COMPARE_SCHEMA = "vectra.compare/2"

#: Metric namespaces a spec/diff can address.
KINDS = ("span", "counter", "gauge", "hist", "section")

#: Histogram stats the ``hist`` namespace exposes per histogram.
HIST_STATS = (("count", None), ("mean", None), ("max", None),
              ("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99))

#: Limit units: percent of base, spreads, absolute (the empty suffix
#: matches every limit, so it comes last).
UNITS = ("%", "mad", "")


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
    values: Dict[str, float] = {}
    if kind == "hist":
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
    for sec_name, data in report.get("sections", {}).items():
        for field, value in data.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                values[f"{sec_name}.{field}"] = value
    return values


@dataclass
class Delta:
    """One metric's base→head movement.  ``base`` is the median over the
    base runs; ``spread`` is ``None`` with fewer than two of them."""

    kind: str
    name: str
    base: float
    head: float
    spread: Optional[float] = None

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


def _spread(values: Sequence[float], med: float) -> Optional[float]:
    """The robust scale of ``values`` around their median ``med``."""
    if len(values) < 2:
        return None
    mad = median(abs(v - med) for v in values)
    return max(1.4826 * mad, 0.01 * abs(med), 1e-9)


def diff_reports(base_runs: Sequence[dict], head: dict) -> List[Delta]:
    """Per-metric deltas of ``head`` against the median of ``base_runs``
    over the union of all reports' keys, grouped by kind and sorted by
    name for stable output."""
    deltas: List[Delta] = []
    for kind in KINDS:
        runs = [_metric_values(report, kind) for report in base_runs]
        h = _metric_values(head, kind)
        for name in sorted(set(h).union(*runs)):
            values = [run.get(name, 0) for run in runs]
            med = median(values)
            deltas.append(Delta(kind, name, med, h.get(name, 0),
                                _spread(values, med)))
    return deltas


@dataclass
class Threshold:
    """A parsed ``--fail-on`` spec."""

    kind: str
    name: str  # a metric name or an fnmatch pattern over names
    amount: float
    unit: str  # one of UNITS
    direction: int  # +1 guards increases, -1 guards decreases
    spec: str

    def violation(self, delta: Delta) -> Optional[str]:
        """A human-readable violation line, or ``None`` if within bound."""
        change = delta.change * self.direction
        if self.unit == "mad":
            if delta.spread is None:
                return None
            exceeded = change > self.amount * delta.spread
            observed = f"{delta.change / delta.spread:+.1f} MAD"
        elif self.unit == "%":
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
    unit = next(u for u in UNITS if body.endswith(u))
    try:
        amount = float(body[:len(body) - len(unit)])
    except ValueError:
        amount = math.nan
    # nan and inf parse as floats but make a gate that can never trip.
    if not math.isfinite(amount):
        raise VectraError(
            f"bad --fail-on spec {spec!r}: limit {limit!r} is not a number"
        )
    if amount < 0:
        raise VectraError(
            f"bad --fail-on spec {spec!r}: limit magnitude must be >= 0"
        )
    return Threshold(kind, name, amount, unit, direction, spec)


class Violation(NamedTuple):
    """One metric one ``--fail-on`` spec flagged."""

    kind: str
    name: str
    spec: str
    line: str


def evaluate_thresholds(
    deltas: Sequence[Delta], thresholds: Sequence[Threshold]
) -> List[Violation]:
    """Every (threshold, metric) violation, in threshold order (empty =
    verdict OK).  A threshold whose name matches no metric passes —
    gating on a metric the workload never emits is a configuration
    smell but not a regression."""
    violations: List[Violation] = []
    for threshold in thresholds:
        for delta in deltas:
            if (delta.kind != threshold.kind
                    or not fnmatchcase(delta.name, threshold.name)):
                continue
            line = threshold.violation(delta)
            if line is not None:
                violations.append(Violation(delta.kind, delta.name,
                                            threshold.spec, line))
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
    deltas: Sequence[Delta],
    thresholds: Sequence[Threshold],
    violations: Sequence[Violation],
    base_runs: int,
) -> dict:
    """The machine-readable ``--json`` delta document: every delta with
    its base/head values, spread and the specs that flagged it, plus
    the overall verdict — what a CI step parses instead of scraping the
    human table."""
    violated_by: Dict[tuple, List[str]] = {}
    for v in violations:
        violated_by.setdefault((v.kind, v.name), []).append(v.spec)
    return {
        "schema": COMPARE_SCHEMA,
        "base_runs": base_runs,
        "deltas": [
            {
                "kind": d.kind,
                "name": d.name,
                "base": d.base,
                "head": d.head,
                "change": d.change,
                "pct": d.pct,
                "spread": d.spread,
                "violated": (d.kind, d.name) in violated_by,
                "violated_by": violated_by.get((d.kind, d.name), []),
            }
            for d in deltas
        ],
        "thresholds": [t.spec for t in thresholds],
        "violations": [v.line for v in violations],
        "verdict": "FAIL" if violations else "OK",
    }
