"""Run-report history: an append-only JSONL ledger of run reports.

``--metrics-append LEDGER.jsonl`` accumulates one compact JSON line per
invocation, so a workload's cost trajectory across commits/params/flag
changes lives in one greppable file instead of N scattered reports.
``vectra compare --ledger`` reads it back and gates the latest run
against the baseline — the first entry by default, or a synthetic
per-metric **median of the last N runs** with ``--baseline median:N``,
which resists the one-noisy-baseline-run problem a single checked-in
report has.

Every line is a full ``vectra.run-report/*`` dict; reads validate the
schema tag per line and name the file/line on any malformed entry —
a truncated write or a hand-edited ledger fails loudly, never as a
silently partial comparison.
"""

from __future__ import annotations

import json
from statistics import median
from typing import Dict, List, Tuple

from repro.errors import VectraError
from repro.obs.telemetry import REPORT_SCHEMA, validate_report_schema

__all__ = ["append_report", "read_ledger", "median_report",
           "select_baseline"]


def append_report(path: str, report: dict) -> None:
    """Append one run report as a single JSON line to the ledger at
    ``path`` (created if missing).  Timeline events are stripped — the
    ledger tracks aggregate trajectories, not per-run timelines."""
    slim = {key: value for key, value in report.items() if key != "events"}
    with open(path, "a") as fh:
        fh.write(json.dumps(slim, sort_keys=True))
        fh.write("\n")


def read_ledger(path: str) -> List[dict]:
    """All reports in the ledger, oldest first.

    Raises :class:`VectraError` (naming the file and line) on unreadable
    files, malformed JSON lines, or entries with an unsupported schema
    tag.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise VectraError(f"cannot read ledger {path!r}: {exc}") from exc
    reports: List[dict] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            report = json.loads(line)
        except ValueError as exc:
            raise VectraError(
                f"{path}:{lineno}: malformed ledger entry: {exc}"
            ) from exc
        if not isinstance(report, dict):
            raise VectraError(
                f"{path}:{lineno}: ledger entry is not a report object"
            )
        validate_report_schema(report, source=f"{path}:{lineno}")
        reports.append(report)
    if not reports:
        raise VectraError(f"ledger {path!r} contains no reports")
    return reports


def median_report(reports: List[dict]) -> dict:
    """A synthetic report whose every metric is the per-metric median
    across ``reports`` — the robust baseline ``--baseline median:N``
    gates against.

    The result flattens histograms and sections into the ``hist_flat``
    / ``section_flat`` keys :func:`repro.obs.compare._metric_values`
    reads (a median of log-bucket dicts is not a meaningful histogram,
    but a median of each derived stat is), and marks itself with a
    ``synthetic`` key so it is never mistaken for a recorded run.
    """
    from repro.obs.compare import metric_items

    if not reports:
        raise VectraError("median baseline needs at least 1 report")
    acc: Dict[Tuple[str, str], List[float]] = {}
    for report in reports:
        for kind, name, value in metric_items(report):
            acc.setdefault((kind, name), []).append(value)
    out = {
        "schema": REPORT_SCHEMA,
        "synthetic": f"median-of-{len(reports)}",
        "spans": {},
        "counters": {},
        "gauges": {},
        "histograms": {},
        "hist_flat": {},
        "sections": {},
        "section_flat": {},
        "events": [],
    }
    for (kind, name), values in acc.items():
        # Absent-in-some-runs metrics count as 0 there, mirroring how
        # compare treats a missing metric.
        if len(values) < len(reports):
            values = values + [0.0] * (len(reports) - len(values))
        med = median(values)
        if kind == "span":
            out["spans"][name] = {"total_s": med, "calls": 0, "max_s": med}
        elif kind == "counter":
            out["counters"][name] = med
        elif kind == "gauge":
            out["gauges"][name] = med
        elif kind == "hist":
            out["hist_flat"][name] = med
        else:
            out["section_flat"][name] = med
    return out


def select_baseline(reports: List[dict], spec: str = "first") -> dict:
    """The baseline report a ``--ledger`` comparison gates against.

    ``spec`` is ``first`` (the ledger's first entry — the historical
    default) or ``median:N`` (per-metric median of the last ``N`` runs
    *before* the latest, so the run under test never contributes to its
    own baseline).  Raises :class:`VectraError` on malformed specs or a
    ledger too short to compare.
    """
    if len(reports) < 2:
        raise VectraError(
            f"ledger needs at least 2 reports to compare, has {len(reports)}"
        )
    if spec == "first":
        return reports[0]
    if spec.startswith("median:"):
        body = spec.split(":", 1)[1]
        try:
            n = int(body)
        except ValueError:
            raise VectraError(
                f"bad --baseline spec {spec!r}: window {body!r} is not "
                f"an integer"
            ) from None
        if n < 1:
            raise VectraError(
                f"bad --baseline spec {spec!r}: window must be >= 1"
            )
        return median_report(reports[:-1][-n:])
    raise VectraError(
        f"bad --baseline spec {spec!r} (expected 'first' or 'median:N')"
    )
