"""Live run observability: a status bus, a ticker thread, and streamed
status frames.

Where :mod:`repro.obs.telemetry` answers "what happened" *after* a run,
this module answers "what is happening" *during* one.  Three pieces:

- :class:`StatusBus` — a lightweight in-process board that pipeline
  stages feed.  Stages ``count()`` discrete progress (loops completed,
  segments spilled, kernels compiled) at stage boundaries, ``track()``
  a sampler for work that advances inside a hot loop (the interpreter
  registers ``lambda: executed`` once per run, so the per-instruction
  path is untouched), ``set_total()`` known denominators (loop count,
  fuel budget), and ``phase()`` the current stage label.  The default
  is the no-op :class:`NullStatusBus` singleton — mirroring
  ``NullTelemetry``, the off state costs a few attribute lookups at
  stage boundaries and nothing per record.
- :class:`StatusTicker` — a daemon thread that drains the bus every
  ``interval`` seconds into **status frames**: versioned
  (:data:`LIVE_SCHEMA` = ``vectra.live/1``) JSON documents, one per
  line, written to the CLI's ``--status-json PATH|-|fd:N`` target.
  Frames carry per-stage progress with totals, EWMA rates with an ETA,
  sampled resource gauges (current RSS, spill-dir disk usage, on-disk
  segment count), per-worker heartbeat ages, and the stall counter.
  The final frame (``event: "done"``) records the exit code.  The same
  frame renders the ``--progress`` single-line stderr display.
- the **heartbeat watchdog** — pool workers run a sidecar daemon
  thread (:meth:`StatusBus.heartbeat_to`, started by the pool
  initializer :func:`repro.obs.run.init_worker`) that ships ``(pid,
  wall time, records)`` tuples through a multiprocessing queue every
  ``heartbeat_interval``.  The parent's ticker drains the queue; a
  worker silent past ``stall_timeout`` raises a
  :class:`WorkerStallWarning`, logs a ``vectra.live`` warning, bumps
  the ``live.stalls`` counter (mirrored into telemetry), and drops a
  ``live.worker_stall`` timeline instant so the stall is visible in
  Perfetto.  A dead pid (``kill -0`` fails) is reported as *died*, not
  merely stalled; :func:`suspend_worker_heartbeat` exists so tests and
  CI can inject a stall without freezing a real process.

Frames are consumed by ``vectra watch PATH`` (:func:`read_frames`
tolerates a partial trailing line — the writer may be mid-``write`` —
and rejects unknown schema tags with a named error) and by the CI
``live-smoke`` job (:func:`validate_frames` checks schema, monotonic
progress, and the final ``done`` frame).
"""

from __future__ import annotations

import json
import os
import queue as _queue
import sys
import threading
import time
import warnings
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import VectraError
from repro.obs.logs import get_logger
from repro.obs.telemetry import NULL_TELEMETRY

__all__ = [
    "LIVE_SCHEMA",
    "DEFAULT_STATUS_INTERVAL",
    "DEFAULT_STALL_TIMEOUT",
    "PROGRESS_KEYS",
    "WorkerStallWarning",
    "NullStatusBus",
    "NULL_STATUS_BUS",
    "StatusBus",
    "StatusTicker",
    "suspend_worker_heartbeat",
    "read_frames",
    "validate_frames",
    "render_progress_line",
    "render_dashboard",
]

#: Version tag of the status-frame stream (bump on shape changes).
LIVE_SCHEMA = "vectra.live/1"

#: Default seconds between status frames (the CLI's ``--status-interval``).
DEFAULT_STATUS_INTERVAL = 1.0

#: Default seconds of heartbeat silence before a worker counts as
#: stalled (the CLI's ``--stall-timeout``).
DEFAULT_STALL_TIMEOUT = 30.0

#: Progress keys every frame carries (``{"done": n, "total": n|null}``
#: each), in display order.
PROGRESS_KEYS = (
    "records",      # dynamic instructions executed (total: the fuel budget)
    "loops",        # hot loops analyzed (total: hot loops selected)
    "segments",     # trace-store segments spilled
    "spill_bytes",  # bytes written to segment files
    "kernels",      # trace-replay kernels recorded
    "batches",      # compiled batches dispatched
)

#: EWMA smoothing factor for per-tick rates.
EWMA_ALPHA = 0.3

#: Status frames the ticker retains for post-mortems (the blackbox
#: bundles this ring; ~16 frames at the default 1 s interval is the
#: last quarter minute of a run's life).
RECENT_FRAMES = 16

_log = get_logger("live")


class WorkerStallWarning(UserWarning):
    """A pool worker went silent past the stall timeout (or died)."""


class NullStatusBus:
    """Status bus that records nothing — the default, so instrumented
    stage boundaries stay free when no ``--status-json``/``--progress``
    consumer exists."""

    __slots__ = ()
    enabled = False

    def count(self, name: str, n: int = 1) -> None:
        pass

    def set_total(self, name: str, value: int) -> None:
        pass

    def track(self, name: str, fn: Callable[[], int]) -> None:
        pass

    def untrack(self, name: str, final: Optional[int] = None) -> None:
        pass

    def phase(self, name: str) -> None:
        pass

    def note_spill_dir(self, path: str) -> None:
        pass

    def retire_workers(self) -> None:
        pass


#: The bus of a run without live status (see :mod:`repro.obs.run`).
NULL_STATUS_BUS = NullStatusBus()


class StatusBus:
    """Collects live progress for one run.

    Progress is the sum of two feeds per key: monotonic **counters**
    bumped at stage boundaries, and registered **samplers** read at
    frame time for work advancing inside a stage (the interpreter's
    executed-instruction count).  :meth:`untrack` folds a sampler's
    final value into the counter so the merged reading never moves
    backward when a stage ends.

    Mutators run on the pipeline thread; the ticker thread only reads
    (plus the worker table, which both sides touch under ``_lock``).
    Counter updates race benignly — the ticker may read a value one
    increment stale, never a torn one.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.monotonic,
                 heartbeat_interval: float = 0.25):
        self._clock = clock
        self.t0 = clock()
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {}
        self.totals: Dict[str, int] = {}
        self._samplers: Dict[str, Callable[[], int]] = {}
        self.phase_name = "startup"
        self.spill_dirs: List[str] = []
        #: worker heartbeats the ticker pushes into frames:
        #: pid -> {"ts": wall clock, "records": n, "state": ok|stalled|
        #: dead|done}.
        self.workers: Dict[int, dict] = {}
        #: workers flagged by the watchdog so far (rides in every frame).
        self.stalls = 0
        self.heartbeat_interval = heartbeat_interval
        self._hb_queue = None
        #: bound port of the HTTP monitor plane, when one is serving
        #: (recorded into every frame's resources section so a watcher
        #: can discover the scrape endpoint from the frame stream).
        self.monitor_port: Optional[int] = None

    # -- feeding (pipeline side) -------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the monotonic progress counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def set_total(self, name: str, value: int) -> None:
        """Record the known denominator for ``name`` (fuel budget, hot
        loop count); frames show ``done/total``."""
        self.totals[name] = value

    def track(self, name: str, fn: Callable[[], int]) -> None:
        """Register a sampler whose value is *added* to the counter at
        frame time — for progress advancing inside a stage.  One
        sampler per name; re-tracking replaces."""
        self._samplers[name] = fn

    def untrack(self, name: str, final: Optional[int] = None) -> None:
        """Drop the sampler for ``name``; ``final`` (its last reading)
        is folded into the counter so merged progress stays monotonic
        across stage boundaries."""
        self._samplers.pop(name, None)
        if final:
            self.count(name, final)

    def phase(self, name: str) -> None:
        """Label the stage currently running (shown verbatim in frames
        and the progress line)."""
        self.phase_name = name

    def note_spill_dir(self, path: str) -> None:
        """Register a spill directory for the ticker's disk-usage and
        segment-count gauges."""
        if path not in self.spill_dirs:
            self.spill_dirs.append(path)

    # -- reading (ticker side) ---------------------------------------------

    def sample(self) -> Dict[str, int]:
        """Merged progress: counters plus current sampler readings
        (worker-shipped records are added by the frame builder, not
        here — workers sample their own bus)."""
        out = dict(self.counters)
        for name, fn in list(self._samplers.items()):
            try:
                out[name] = out.get(name, 0) + int(fn())
            except Exception:  # a sampler outliving its stage is benign
                pass
        return out

    def elapsed(self) -> float:
        return self._clock() - self.t0

    # -- worker heartbeats -------------------------------------------------

    def worker_channel(self):
        """The heartbeat queue workers ship through (created lazily, on
        a fork-preferring multiprocessing context)."""
        if self._hb_queue is None:
            import multiprocessing

            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX
                ctx = multiprocessing.get_context()
            self._hb_queue = ctx.Queue()
        return self._hb_queue

    def heartbeat_to(self, channel) -> None:
        """Worker side: start the sidecar daemon thread that ships this
        bus's record count into the parent's ``channel`` every
        ``heartbeat_interval``."""
        threading.Thread(target=_heartbeat_loop, args=(channel, self),
                         name="vectra-heartbeat", daemon=True).start()

    def drain_heartbeats(self) -> None:
        """Fold queued worker heartbeats into the worker table.  A
        heartbeat from a worker previously flagged stalled marks it
        recovered (``ok``) — the stall stays counted.  Workers retired
        by a clean pool shutdown stay ``done``: their last beats may
        still sit in the queue, and resurrecting them would make the
        watchdog report exited workers as deaths later."""
        q = self._hb_queue
        if q is None:
            return
        while True:
            try:
                pid, ts, records = q.get_nowait()
            except (_queue.Empty, OSError):
                break
            with self._lock:
                worker = self.workers.get(pid)
                if worker is None:
                    self.workers[pid] = {"ts": ts, "records": records,
                                         "state": "ok"}
                else:
                    worker["ts"] = ts
                    worker["records"] = max(worker["records"], records)
                    if worker["state"] in ("stalled", "dead"):
                        _log.info("worker %d recovered", pid)
                        worker["state"] = "ok"

    def retire_workers(self) -> None:
        """Mark every live worker as cleanly finished — called when a
        pool shuts down, so exited workers are not reported stalled.
        Drains the queue first so each worker's final shipped record
        count lands before its entry freezes."""
        self.drain_heartbeats()
        with self._lock:
            for worker in self.workers.values():
                if worker["state"] in ("ok", "stalled"):
                    worker["state"] = "done"

    def check_stalls(self, stall_timeout: float, tel=NULL_TELEMETRY,
                     now: Optional[float] = None) -> List[dict]:
        """The watchdog: flag workers whose last heartbeat is older
        than ``stall_timeout``.

        Each newly flagged worker raises a :class:`WorkerStallWarning`
        naming the pid and age, logs a ``vectra.live`` warning, bumps
        the bus's ``live.stalls`` counter, and mirrors the counter into
        ``tel`` with a ``live.worker_stall`` timeline instant.  A dead
        pid is reported as *died* — worker death and worker slowness
        are distinct failure reports.  Returns the newly flagged worker
        dicts.
        """
        if now is None:
            now = time.time()
        flagged = []
        with self._lock:
            stale = [
                (pid, worker, now - worker["ts"])
                for pid, worker in self.workers.items()
                if worker["state"] == "ok"
                and now - worker["ts"] > stall_timeout
            ]
        for pid, worker, age in stale:
            alive = _pid_alive(pid)
            state = "stalled" if alive else "dead"
            with self._lock:
                if worker["state"] != "ok":  # recovered in between
                    continue
                worker["state"] = state
                self.stalls += 1
            if alive:
                message = (
                    f"worker {pid} stalled: no heartbeat for {age:.1f}s "
                    f"(stall-timeout {stall_timeout:.1f}s)"
                )
            else:
                message = (
                    f"worker {pid} died: process gone, last heartbeat "
                    f"{age:.1f}s ago"
                )
            warnings.warn(message, WorkerStallWarning, stacklevel=2)
            _log.warning("%s", message)
            tel.count("live.stalls")
            tel.instant("live.worker_stall",
                        {"pid": pid, "age_s": round(age, 3),
                         "alive": alive})
            flagged.append({"pid": pid, "age_s": age, "alive": alive,
                            "state": state})
        return flagged

    def worker_rows(self, now: Optional[float] = None) -> List[dict]:
        """The frame's ``workers`` section (heartbeat ages, shipped
        record counts, liveness state), ordered by pid."""
        if now is None:
            now = time.time()
        with self._lock:
            return [
                {"pid": pid, "age_s": round(now - worker["ts"], 3),
                 "records": worker["records"], "state": worker["state"]}
                for pid, worker in sorted(self.workers.items())
            ]

    def worker_records(self) -> int:
        """Records shipped by workers, summed — added to the parent's
        own sample so frame progress covers the whole pool."""
        with self._lock:
            return sum(w["records"] for w in self.workers.values())


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True


# ---------------------------------------------------------------------------
# worker-side heartbeats

#: Worker-process heartbeat switch — :func:`suspend_worker_heartbeat`
#: flips it so tests/CI can inject a stall without freezing a process.
_HB_STATE = {"suspended": False}


def _heartbeat_loop(q, bus: StatusBus) -> None:
    pid = os.getpid()
    interval = bus.heartbeat_interval
    while True:
        if not _HB_STATE["suspended"]:
            records = bus.sample().get("records", 0)
            try:
                q.put((pid, time.time(), records))
            except (OSError, ValueError):  # parent gone / queue closed
                return
        time.sleep(interval)


def suspend_worker_heartbeat(suspend: bool = True) -> None:
    """Stall-injection hook: silence (or resume) this process's
    heartbeat thread while leaving the process running — exactly what a
    wedged worker looks like from the parent."""
    _HB_STATE["suspended"] = suspend


# ---------------------------------------------------------------------------
# resource gauges


def _rss_kb() -> Optional[int]:
    """Current resident set size in KiB (Linux ``/proc``; peak-RSS
    fallback elsewhere)."""
    try:
        with open("/proc/self/statm") as fh:
            rss_pages = int(fh.read().split()[1])
        return rss_pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):
        try:
            import resource

            return int(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            )
        except (ImportError, OSError):  # pragma: no cover - non-POSIX
            return None


def _spill_usage(spill_dirs: List[str]) -> Tuple[Optional[int],
                                                 Optional[int]]:
    """(bytes on disk, segment-file count) across the registered spill
    directories, or ``(None, None)`` when none are registered."""
    if not spill_dirs:
        return None, None
    total = 0
    segments = 0
    for root in spill_dirs:
        for dirpath, _dirnames, filenames in os.walk(root,
                                                     onerror=lambda e: None):
            for name in filenames:
                try:
                    total += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    continue
                if name.endswith(".vseg"):
                    segments += 1
    return total, segments


# ---------------------------------------------------------------------------
# the ticker


class StatusTicker(threading.Thread):
    """Daemon thread draining a run's :class:`StatusBus` into status
    frames.

    Every ``interval`` seconds (plus once at start and once at
    :meth:`close`) it drains worker heartbeats, runs the stall
    watchdog (mirrored into the run's telemetry), builds one
    ``vectra.live/1`` frame, appends it as a JSON line to the status
    sink, and repaints the ``--progress`` line.  ``clock`` is
    injectable for deterministic tests.
    """

    def __init__(self, run, interval: float = DEFAULT_STATUS_INTERVAL,
                 stall_timeout: float = DEFAULT_STALL_TIMEOUT,
                 path: Optional[str] = None, stream=None,
                 progress_stream=None,
                 clock: Callable[[], float] = time.monotonic):
        super().__init__(name="vectra-status-ticker", daemon=True)
        if interval <= 0:
            raise VectraError(
                f"--status-interval must be positive, got {interval}"
            )
        if stall_timeout <= 0:
            raise VectraError(
                f"--stall-timeout must be positive, got {stall_timeout}"
            )
        #: the run this ticker reports on (``run`` is the thread body).
        self.ctx = run
        self.interval = interval
        self.stall_timeout = stall_timeout
        self._clock = clock
        self._progress = progress_stream
        self._owns_fh = False
        if stream is not None:
            self._fh = stream
        elif path is not None:
            self._fh, self._owns_fh = _open_status_sink(path)
        else:
            self._fh = None
        self._stop_evt = threading.Event()
        self._write_lock = threading.Lock()
        self._seq = 0
        self._rates: Dict[str, float] = {}
        self._last_sample: Optional[Tuple[float, Dict[str, int]]] = None
        self._closed = False
        #: the newest emitted frame (the monitor's ``/status`` body).
        self.last_frame: Optional[dict] = None
        #: when (on ``clock``) the newest frame was cut.
        self.last_tick_at: Optional[float] = None
        #: ring of the newest frames (the blackbox bundles these).
        self.recent_frames = deque(maxlen=RECENT_FRAMES)

    # -- thread body -------------------------------------------------------

    def run(self) -> None:
        self.tick()
        while not self._stop_evt.wait(self.interval):
            self.tick()

    def tick(self, event: str = "tick",
             exit_code: Optional[int] = None) -> dict:
        """Emit one frame now; returns it (tests poke this directly)."""
        frame = self.build_frame(event=event, exit_code=exit_code)
        self.last_frame = frame
        self.last_tick_at = self._clock()
        self.recent_frames.append(frame)
        line = json.dumps(frame, sort_keys=True, separators=(",", ":"))
        with self._write_lock:
            if self._fh is not None:
                try:
                    self._fh.write(line + "\n")
                    self._fh.flush()
                except (OSError, ValueError):  # sink closed under us
                    self._fh = None
            if self._progress is not None:
                try:
                    self._progress.write(
                        "\r" + render_progress_line(frame) + "\x1b[K")
                    self._progress.flush()
                except (OSError, ValueError):
                    self._progress = None
        return frame

    def close(self, exit_code: int = 0) -> None:
        """Stop ticking, emit the final ``done`` frame (carrying the
        exit code), and release the sink.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._stop_evt.set()
        if self.is_alive():
            self.join(timeout=max(2.0, self.interval * 2))
        self.tick(event="done", exit_code=exit_code)
        if self._progress is not None:
            try:
                self._progress.write("\n")
                self._progress.flush()
            except (OSError, ValueError):
                pass
        if self._owns_fh and self._fh is not None:
            self._fh.close()
            self._fh = None

    def last_tick_age(self) -> Optional[float]:
        """Seconds since the newest frame was cut (``None`` before the
        first tick) — the monitor's ``/healthz`` staleness signal."""
        if self.last_tick_at is None:
            return None
        return self._clock() - self.last_tick_at

    # -- frame assembly ----------------------------------------------------

    def build_frame(self, event: str = "tick",
                    exit_code: Optional[int] = None) -> dict:
        run = self.ctx
        bus = run.bus
        bus.drain_heartbeats()
        bus.check_stalls(self.stall_timeout, tel=run.tel)
        now = self._clock()
        sample = bus.sample()
        worker_records = bus.worker_records()
        if worker_records:
            sample["records"] = sample.get("records", 0) + worker_records
        self._update_rates(now, sample)
        progress = {
            key: {"done": sample.get(key, 0),
                  "total": bus.totals.get(key)}
            for key in PROGRESS_KEYS
        }
        spill_bytes, open_segments = _spill_usage(bus.spill_dirs)
        frame = {
            "schema": LIVE_SCHEMA,
            "seq": self._seq,
            "event": event,
            "ts": round(time.time(), 3),
            "elapsed_s": round(bus.elapsed(), 3),
            "command": run.command,
            "phase": bus.phase_name,
            "progress": progress,
            "rates": {
                "records_per_s": round(self._rates.get("records", 0.0), 1),
                "loops_per_s": round(self._rates.get("loops", 0.0), 4),
                "eta_s": self._eta(progress),
            },
            "resources": {
                "rss_kb": _rss_kb(),
                "spill_dir_bytes": spill_bytes,
                "open_segments": open_segments,
                # Additive within vectra.live/1: readers require the
                # section, not its exact key set (validate_frames).
                # Samples taken so far (None when sampling is off):
                # lets ``vectra watch`` see the sampler is alive.
                "profiler_samples": (run.sampler.total_samples
                                     if run.sampler.enabled else None),
                "monitor_port": bus.monitor_port,
            },
            "workers": bus.worker_rows(),
            "stalls": bus.stalls,
        }
        if event == "done":
            frame["exit_code"] = exit_code if exit_code is not None else 0
        self._seq += 1
        return frame

    def _update_rates(self, now: float, sample: Dict[str, int]) -> None:
        last = self._last_sample
        if last is not None:
            last_t, last_sample = last
            dt = now - last_t
            if dt > 0:
                for key in ("records", "loops"):
                    inst = (sample.get(key, 0)
                            - last_sample.get(key, 0)) / dt
                    prev = self._rates.get(key)
                    self._rates[key] = (
                        inst if prev is None
                        else EWMA_ALPHA * inst + (1.0 - EWMA_ALPHA) * prev
                    )
        self._last_sample = (now, dict(sample))

    def _eta(self, progress: dict) -> Optional[float]:
        """Seconds to completion from the smoothed loop rate (the
        denominator the pipeline actually finishes), falling back to
        records-vs-fuel; ``None`` until a total and a rate exist."""
        for key in ("loops", "records"):
            entry = progress[key]
            total = entry["total"]
            rate = self._rates.get(key, 0.0)
            if total and rate > 0:
                remaining = total - entry["done"]
                if remaining <= 0:
                    return 0.0
                return round(remaining / rate, 1)
        return None


def _open_status_sink(path: str):
    """Open a ``--status-json`` target: ``-`` for stdout, ``fd:N`` for
    an inherited descriptor, anything else a file path.  Returns
    ``(file object, owns it)``."""
    if path == "-":
        return sys.stdout, False
    if path.startswith("fd:"):
        try:
            fd = int(path[3:])
        except ValueError:
            raise VectraError(
                f"bad --status-json target {path!r}: expected fd:N with "
                f"an integer descriptor"
            ) from None
        try:
            return os.fdopen(fd, "w"), True
        except OSError as exc:
            raise VectraError(
                f"cannot open status descriptor {fd}: {exc}"
            ) from None
    try:
        return open(path, "w"), True
    except OSError as exc:
        raise VectraError(
            f"cannot write status frames to {path!r}: {exc}"
        ) from None


# ---------------------------------------------------------------------------
# frame reading / validation (the `vectra watch` side)


def read_frames(path: str) -> List[dict]:
    """Parse a status-frame JSONL file.

    A *trailing* line that fails to parse is tolerated — the writer may
    be mid-line — but a malformed line with frames after it, or any
    frame whose schema tag is not :data:`LIVE_SCHEMA`, raises
    :class:`VectraError` naming the line.
    """
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise VectraError(f"cannot read status file {path!r}: {exc}") from None
    lines = raw.split("\n")
    frames: List[dict] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            frame = json.loads(line)
        except ValueError:
            if lineno == len(lines) or all(
                not rest.strip() for rest in lines[lineno:]
            ):
                break  # partial trailing line: writer still mid-frame
            raise VectraError(
                f"{path}:{lineno}: malformed status frame (not valid "
                f"JSON, and not the trailing line)"
            ) from None
        tag = frame.get("schema") if isinstance(frame, dict) else None
        if tag != LIVE_SCHEMA:
            raise VectraError(
                f"{path}:{lineno}: unknown status-frame schema tag "
                f"{tag!r} (expected {LIVE_SCHEMA!r})"
            )
        frames.append(frame)
    return frames


def validate_frames(frames: List[dict], source: str = "status file") -> None:
    """Structural validation of a frame stream (the CI ``live-smoke``
    gate): at least one frame, strictly increasing ``seq``, required
    sections, nondecreasing progress per key, and a final ``done``
    frame carrying an exit code.  Raises :class:`VectraError` naming
    the first violation."""
    if not frames:
        raise VectraError(f"{source}: no status frames")
    prev_seq = None
    prev_done: Dict[str, int] = {}
    for i, frame in enumerate(frames):
        for section in ("progress", "rates", "resources", "workers"):
            if section not in frame:
                raise VectraError(
                    f"{source}: frame {i} is missing its "
                    f"{section!r} section"
                )
        for field in ("records_per_s", "eta_s"):
            if field not in frame["rates"]:
                raise VectraError(
                    f"{source}: frame {i} rates lack {field!r}"
                )
        seq = frame.get("seq")
        if prev_seq is not None and (seq is None or seq <= prev_seq):
            raise VectraError(
                f"{source}: frame {i} seq {seq!r} does not increase "
                f"past {prev_seq}"
            )
        prev_seq = seq
        for key in PROGRESS_KEYS:
            entry = frame["progress"].get(key)
            if entry is None or "done" not in entry:
                raise VectraError(
                    f"{source}: frame {i} progress lacks {key!r}"
                )
            done = entry["done"]
            if done < prev_done.get(key, 0):
                raise VectraError(
                    f"{source}: frame {i} progress {key!r} moved "
                    f"backward ({prev_done[key]} -> {done})"
                )
            prev_done[key] = done
    final = frames[-1]
    if final.get("event") != "done":
        raise VectraError(
            f"{source}: final frame is {final.get('event')!r}, not "
            f"'done' — the run never finished (or the file is truncated)"
        )
    if "exit_code" not in final:
        raise VectraError(f"{source}: final 'done' frame lacks exit_code")


# ---------------------------------------------------------------------------
# human rendering


def _fmt_count(n: Optional[int]) -> str:
    if n is None:
        return "?"
    if n >= 10_000_000:
        return f"{n / 1e6:.1f}M"
    if n >= 10_000:
        return f"{n / 1e3:.1f}k"
    return str(n)


def _fmt_bytes(n: Optional[int]) -> str:
    if n is None:
        return "-"
    size = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if size < 1024 or unit == "TiB":
            return (f"{size:.1f} {unit}" if unit != "B"
                    else f"{int(size)} B")
        size /= 1024


def _fmt_eta(eta: Optional[float]) -> str:
    if eta is None:
        return "-"
    if eta >= 3600:
        return f"{eta / 3600:.1f}h"
    if eta >= 60:
        return f"{eta / 60:.1f}m"
    return f"{eta:.0f}s"


def render_progress_line(frame: dict) -> str:
    """The ``--progress`` single-line stderr rendering of one frame."""
    progress = frame["progress"]
    loops = progress["loops"]
    loops_part = (f"loops {loops['done']}/{loops['total']}"
                  if loops["total"] is not None
                  else f"loops {loops['done']}")
    rates = frame["rates"]
    parts = [
        f"[{frame.get('command') or 'vectra'}]",
        frame.get("phase", ""),
        f"rec {_fmt_count(progress['records']['done'])}",
        loops_part,
        f"{_fmt_count(int(rates['records_per_s']))}/s",
        f"eta {_fmt_eta(rates['eta_s'])}",
    ]
    segments = progress["segments"]["done"]
    if segments:
        parts.append(
            f"seg {segments} "
            f"({_fmt_bytes(progress['spill_bytes']['done'])})"
        )
    workers = frame.get("workers") or ()
    if workers:
        healthy = sum(1 for w in workers if w["state"] in ("ok", "done"))
        parts.append(f"workers {healthy}/{len(workers)}")
    if frame.get("stalls"):
        parts.append(f"STALLS {frame['stalls']}")
    if frame.get("event") == "done":
        parts.append(f"done (exit {frame.get('exit_code', 0)})")
    return " ".join(p for p in parts if p)


def render_dashboard(frame: dict) -> str:
    """The ``vectra watch`` multi-line dashboard for one frame."""
    progress = frame["progress"]
    rates = frame["rates"]
    res = frame["resources"]
    lines = [
        f"vectra {frame.get('command') or '?'} — phase "
        f"{frame.get('phase', '?')} — elapsed "
        f"{frame.get('elapsed_s', 0):.1f}s  "
        f"[frame {frame.get('seq')}"
        + (", DONE" if frame.get("event") == "done" else "")
        + "]"
    ]

    def bar(done: int, total: Optional[int], width: int = 24) -> str:
        if not total:
            return ""
        filled = min(width, int(width * done / total)) if total else 0
        return " [" + "#" * filled + "." * (width - filled) + "]"

    records = progress["records"]
    lines.append(
        f"  records  {_fmt_count(records['done']):>10}"
        + (f" / {_fmt_count(records['total'])} (fuel)"
           if records["total"] else "")
        + f"   {_fmt_count(int(rates['records_per_s']))}/s"
        + f"   eta {_fmt_eta(rates['eta_s'])}"
    )
    loops = progress["loops"]
    lines.append(
        f"  loops    {loops['done']:>10}"
        + (f" / {loops['total']}" if loops["total"] is not None else "")
        + bar(loops["done"], loops["total"])
    )
    lines.append(
        f"  spilled  {progress['segments']['done']:>10} segment(s)"
        f"   {_fmt_bytes(progress['spill_bytes']['done'])} written"
        + (f"   {res['open_segments']} on disk "
           f"({_fmt_bytes(res['spill_dir_bytes'])})"
           if res.get("open_segments") is not None else "")
    )
    lines.append(
        f"  compiled {progress['kernels']['done']:>10} kernel(s)"
        f"   {_fmt_count(progress['batches']['done'])} batch(es)"
    )
    rss = res.get("rss_kb")
    lines.append(
        f"  rss      {_fmt_bytes(rss * 1024) if rss else '-':>10}"
        f"   stalls {frame.get('stalls', 0)}"
    )
    for worker in frame.get("workers") or ():
        lines.append(
            f"  worker {worker['pid']:>7}  {worker['state']:<8}"
            f"  hb {worker['age_s']:.1f}s ago"
            f"  rec {_fmt_count(worker['records'])}"
        )
    if frame.get("event") == "done":
        lines.append(f"  run finished, exit {frame.get('exit_code', 0)}")
    return "\n".join(lines)
