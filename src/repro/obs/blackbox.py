"""Crash-forensics flight recorder: the ``vectra.blackbox/1`` bundle.

A run that dies — an unhandled exception, a ``kill -TERM``, a Ctrl-C —
used to leave nothing behind: the ``--metrics-json``-on-failure path
saves counters, but the event ring, the live frames, and the exception
context all evaporate with the process.  ``--blackbox PATH`` installs a
:class:`FlightRecorder` that, at the moment of death, atomically writes
one versioned JSON bundle capturing everything an operator needs for a
post-mortem:

- the **reason**: exception type/message/traceback, or the fatal signal;
- the **position**: current pipeline phase, the active loop derived from
  it, and merged progress counters (records, loops, segments, ...);
- the **event ring tail**: the newest timeline events (loop start/finish
  markers, pool fallbacks, compile-kernel lifecycle instants);
- the **last live frames**: the status ticker's recent-frame ring, so
  rates/ETA/resource gauges just before death are preserved;
- **worker forensics**: per-worker heartbeat ages and liveness states,
  plus the stall counter;
- a final **telemetry snapshot** (the full ``vectra.run-report/4``
  aggregate at death);
- free-form **notes** recorded by subsystems on the way down (the
  analysis pipeline notes pool failures with the worker table attached,
  so a worker death names its pid even after the pool is gone).

The write is atomic (temp file + ``os.replace``) and first-reason-wins:
a SIGTERM handler that re-raises and then trips the exception hook does
not overwrite the signal bundle with a secondary traceback.

``vectra autopsy PATH`` (:func:`render_autopsy`) renders the bundle as
a human-readable post-mortem: what stage, which loop, which workers,
and the last events before death.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
import traceback
from typing import Dict, List, Optional

from repro.errors import VectraError
from repro.obs.logs import get_logger
from repro.obs.telemetry import live_snapshot

__all__ = [
    "BLACKBOX_SCHEMA",
    "EVENT_TAIL",
    "FlightRecorder",
    "load_blackbox",
    "render_autopsy",
]

#: Version tag of the crash bundle (bump on shape changes).
BLACKBOX_SCHEMA = "vectra.blackbox/1"

#: Timeline events bundled from the ring tail.
EVENT_TAIL = 64

#: Fatal signals the recorder traps (installed on the main thread only;
#: SIGKILL is untrappable by definition).
FATAL_SIGNALS = (signal.SIGTERM, signal.SIGINT)

_log = get_logger("blackbox")


class FlightRecorder:
    """Captures a run's state into a ``vectra.blackbox/1`` bundle on
    death.

    The recorder holds a *reference* to the run and reads its
    telemetry, status bus and status ticker only at write time, so
    installing it costs nothing on the hot path.  ``install()`` traps
    SIGTERM/SIGINT (main thread only; elsewhere the signal hooks are
    skipped and only explicit :meth:`record_exception` calls fire).
    """

    def __init__(self, path: str, run, argv: Optional[List[str]] = None):
        self.path = path
        self.run = run
        self.argv = list(argv) if argv is not None else None
        self.notes: Dict[str, dict] = {}
        self.written = False
        self._lock = threading.Lock()
        self._prev_handlers: Dict[int, object] = {}
        self._installed_signals = False

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> "FlightRecorder":
        """Trap fatal signals."""
        if threading.current_thread() is threading.main_thread():
            for signum in FATAL_SIGNALS:
                self._prev_handlers[signum] = signal.getsignal(signum)
                signal.signal(signum, self._on_signal)
            self._installed_signals = True
        return self

    def uninstall(self) -> None:
        """Restore the previous signal handlers."""
        if self._installed_signals:
            for signum, prev in self._prev_handlers.items():
                try:
                    signal.signal(signum, prev)
                except (ValueError, TypeError):  # pragma: no cover
                    pass
            self._prev_handlers.clear()
            self._installed_signals = False

    # -- capture -----------------------------------------------------------

    def note(self, name: str, payload: dict) -> None:
        """Attach a named forensic note to a future bundle (e.g. the
        pipeline's pool-failure report).  Re-noting a name replaces."""
        self.notes[name] = dict(payload)

    def record_exception(self, exc: BaseException) -> bool:
        """Write the bundle for an unhandled exception; returns whether
        this call performed the write (first reason wins)."""
        return self._write({
            "kind": "exception",
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exception(
                type(exc), exc, exc.__traceback__),
        })

    def record_signal(self, signum: int) -> bool:
        """Write the bundle for a fatal signal delivery."""
        try:
            name = signal.Signals(signum).name
        except ValueError:  # pragma: no cover - unknown signum
            name = f"signal {signum}"
        return self._write({"kind": "signal", "signal": name,
                            "signum": int(signum)})

    def _on_signal(self, signum, frame) -> None:
        self.record_signal(signum)
        if signum == signal.SIGINT:
            # Preserve Python's Ctrl-C contract: unwind as
            # KeyboardInterrupt so cleanup (ticker close, report dumps)
            # still runs.
            raise KeyboardInterrupt
        # SIGTERM: die with the correct wait status.  Restore the
        # default disposition and re-deliver — a supervisor sees the
        # process killed by SIGTERM, exactly as without the recorder.
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    # -- bundle assembly ---------------------------------------------------

    def build_bundle(self, reason: dict) -> dict:
        run = self.run
        bus = run.bus
        ticker = run.ticker
        tel = run.tel
        phase = None
        progress: Dict[str, int] = {}
        workers: List[dict] = []
        stalls = 0
        if bus.enabled:
            phase = bus.phase_name
            progress = bus.sample()
            worker_records = bus.worker_records()
            if worker_records:
                progress["records"] = (progress.get("records", 0)
                                       + worker_records)
            workers = bus.worker_rows()
            stalls = bus.stalls
        events: List[dict] = []
        telemetry = None
        if tel.enabled:
            if tel.events is not None:
                events = tel.events.tail(EVENT_TAIL)
            try:
                telemetry = live_snapshot(tel)
            except RuntimeError:  # pragma: no cover - racing mutator
                telemetry = None
        frames = list(ticker.recent_frames) if ticker is not None else []
        active_loop = None
        if phase and phase.startswith("loop."):
            active_loop = phase[len("loop."):]
        bundle = {
            "schema": BLACKBOX_SCHEMA,
            "written_at": round(time.time(), 3),
            "pid": os.getpid(),
            "command": run.command,
            "reason": reason,
            "phase": phase,
            "active_loop": active_loop,
            "progress": progress,
            "workers": workers,
            "stalls": stalls,
            "events": events,
            "frames": frames,
            "telemetry": telemetry,
            "notes": dict(self.notes),
        }
        if self.argv is not None:
            bundle["argv"] = self.argv
        return bundle

    def _write(self, reason: dict) -> bool:
        with self._lock:
            if self.written:
                return False
            self.written = True
        try:
            bundle = self.build_bundle(reason)
            tmp = f"{self.path}.tmp.{os.getpid()}"
            with open(tmp, "w") as fh:
                json.dump(bundle, fh, indent=2, sort_keys=True)
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except OSError as exc:
            # A recorder that cannot write must not mask the original
            # failure — report on stderr and let the death proceed.
            print(f"error: cannot write blackbox bundle to "
                  f"{self.path!r}: {exc}", file=sys.stderr)
            return False
        _log.warning("blackbox bundle written to %s (%s)", self.path,
                     reason.get("signal") or reason.get("type"))
        return True


# ---------------------------------------------------------------------------
# the `vectra autopsy` side


def load_blackbox(path: str) -> dict:
    """Parse and schema-check a bundle file."""
    try:
        with open(path) as fh:
            bundle = json.load(fh)
    except OSError as exc:
        raise VectraError(
            f"cannot read blackbox bundle {path!r}: {exc}"
        ) from None
    except ValueError as exc:
        raise VectraError(
            f"{path}: not a JSON blackbox bundle ({exc})"
        ) from None
    tag = bundle.get("schema") if isinstance(bundle, dict) else None
    if tag != BLACKBOX_SCHEMA:
        raise VectraError(
            f"{path}: unknown blackbox schema tag {tag!r} "
            f"(expected {BLACKBOX_SCHEMA!r})"
        )
    return bundle


def _fmt_reason(reason: dict) -> str:
    if reason.get("kind") == "signal":
        return f"fatal signal {reason.get('signal', '?')}"
    return (f"unhandled {reason.get('type', 'exception')}: "
            f"{reason.get('message', '')}".rstrip(": "))


def _fmt_progress(progress: dict) -> str:
    parts = []
    for key in ("records", "loops", "segments", "spill_bytes", "kernels",
                "batches"):
        value = progress.get(key)
        if value:
            parts.append(f"{key} {value}")
    return ", ".join(parts) if parts else "(none recorded)"


def render_autopsy(bundle: dict) -> str:
    """The human-readable post-mortem of one bundle: reason, stage,
    active loop, worker states, the last ring-buffer events, and the
    traceback when the death was an exception."""
    reason = bundle.get("reason", {})
    lines = [
        f"vectra autopsy — {BLACKBOX_SCHEMA} bundle",
        f"  command     : {bundle.get('command') or '?'} "
        f"(pid {bundle.get('pid', '?')})",
        f"  died of     : {_fmt_reason(reason)}",
        f"  stage       : {bundle.get('phase') or '(unknown)'}",
        f"  active loop : {bundle.get('active_loop') or '(none)'}",
        f"  progress    : {_fmt_progress(bundle.get('progress') or {})}",
        f"  stalls      : {bundle.get('stalls', 0)}",
    ]
    workers = bundle.get("workers") or []
    if workers:
        lines.append("  workers     :")
        for worker in workers:
            lines.append(
                f"    pid {worker.get('pid', '?'):>7}  "
                f"{worker.get('state', '?'):<8}"
                f"hb {worker.get('age_s', float('nan')):.1f}s ago  "
                f"rec {worker.get('records', 0)}"
            )
    else:
        lines.append("  workers     : (none — serial run)")
    events = bundle.get("events") or []
    if events:
        lines.append(f"  last events ({len(events)} of ring tail):")
        for event in events[-12:]:
            args = event.get("args")
            detail = f"  {args}" if args else ""
            dur = event.get("dur")
            shape = (f"span {event.get('dur', 0) * 1e3:.2f}ms"
                     if dur is not None else "instant")
            lines.append(
                f"    t={event.get('ts', 0):.3f}s  "
                f"{event.get('name', '?'):<32} [{shape}]{detail}"
            )
    else:
        lines.append("  last events : (no timeline attached)")
    frames = bundle.get("frames") or []
    if frames:
        last = frames[-1]
        lines.append(
            f"  last frame  : seq {last.get('seq')} at "
            f"+{last.get('elapsed_s', 0):.1f}s, phase "
            f"{last.get('phase', '?')} "
            f"({len(frames)} frame(s) preserved)"
        )
    notes = bundle.get("notes") or {}
    for name in sorted(notes):
        lines.append(f"  note[{name}] : {json.dumps(notes[name], sort_keys=True)}")
    if reason.get("kind") == "exception" and reason.get("traceback"):
        lines.append("  traceback   :")
        for chunk in reason["traceback"]:
            for tb_line in chunk.rstrip("\n").split("\n"):
                lines.append(f"    {tb_line}")
    telemetry = bundle.get("telemetry")
    if telemetry:
        counters = telemetry.get("counters", {})
        if counters:
            lines.append("  counters at death (top 8):")
            top = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
            for name, value in top[:8]:
                lines.append(f"    {name:<40} {value:>14}")
    return "\n".join(lines)
