"""Run-report history: an append-only JSONL ledger of run reports.

``--metrics-append LEDGER.jsonl`` accumulates one compact JSON line per
invocation, so a workload's cost trajectory across commits/params/flag
changes lives in one greppable file instead of N scattered reports.
``vectra compare --ledger`` reads it back and gates the latest run
against the median and spread of every earlier entry
(:mod:`repro.obs.compare`), so one noisy run cannot poison the gate.

Every line is a ``vectra.run-report/*`` dict holding what the gate
reads; reads validate the schema tag per line and name the file/line
on any malformed entry — a truncated write or a hand-edited ledger
fails loudly, never as a silently partial comparison.
"""

from __future__ import annotations

import json
from typing import List

from repro.errors import VectraError
from repro.obs.telemetry import validate_report_schema

__all__ = ["append_report", "read_ledger"]

#: Report keys no ledger reader uses: the timeline, the folded profiler
#: stacks and the explain witness payloads.  Samples alone can make one
#: line several times larger than the metrics it carries.
_UNGATED_KEYS = ("events", "samples", "explain")


def append_report(path: str, report: dict) -> None:
    """Append one run report as a single JSON line to the ledger at
    ``path`` (created if missing), without the keys the gate never
    reads."""
    slim = {key: value for key, value in report.items()
            if key not in _UNGATED_KEYS}
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
