"""One run context: the observability objects of the run in progress.

Every instrumented layer reads the process's current :class:`Run` —
``current_run().tel`` for spans and counters, ``.bus`` for live
progress, ``.sampler`` for the profiler — instead of taking them as
parameters.  The default run has observability off: its telemetry,
status bus and sampler are the no-op :data:`NULL_TELEMETRY`,
:data:`NULL_STATUS_BUS` and :data:`NULL_SAMPLER`, so an instrumented
stage boundary costs a few attribute lookups.

The CLI builds one run from its flags, installs it with :func:`use_run`
for the command and ends it with :meth:`Run.close`.  A library caller
that wants a report does the same::

    tel = Telemetry()
    with use_run(Run(tel=tel)):
        analyze_loop(module, "body")
    tel.counters["ddg.nodes"]

Pool workers run the parent's observability too: the parent hands the
pool its :meth:`Run.worker_spec`, the pool initializer
:func:`init_worker` installs the worker's run from it, and each task
records into a fresh run (:meth:`Run.task`) whose telemetry snapshot
rides home with the task's result.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import NamedTuple, Optional

from repro.obs.live import NULL_STATUS_BUS, StatusBus
from repro.obs.sampling import NULL_SAMPLER, SamplingProfiler
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.timeline import EventLog

__all__ = ["Run", "WorkerSpec", "current_run", "use_run", "init_worker"]


class WorkerSpec(NamedTuple):
    """What a pool worker's run records, as the parent's run asks
    (picklable, so it travels as the pool initializer's argument)."""

    #: record telemetry and ship a snapshot home per task.
    profiled: bool
    #: keep a timeline (an :class:`EventLog`) in that telemetry.
    timeline: bool
    #: sampling rate of the per-task profiler (0: no sampling).
    sample_hz: float
    #: the parent bus's heartbeat queue (``None``: no heartbeats).
    channel: object
    heartbeat_interval: float


class Run:
    """The observability objects of one run.

    ``tel``, ``bus`` and ``sampler`` are always set, to the null objects
    when off.  ``ticker`` (the live-status thread), ``monitor`` (the
    HTTP plane) and ``recorder`` (the crash flight recorder) are
    ``None`` unless the run serves them; each takes the run and reads
    what it needs from it.  ``command`` names the CLI command in
    frames, scrapes and bundles.  ``spec`` is set in pool workers only
    (:func:`init_worker`).
    """

    __slots__ = ("tel", "bus", "sampler", "ticker", "monitor", "recorder",
                 "command", "spec")

    def __init__(self, tel=NULL_TELEMETRY, bus=NULL_STATUS_BUS,
                 sampler=NULL_SAMPLER, command: str = "",
                 spec: Optional[WorkerSpec] = None):
        self.tel = tel
        self.bus = bus
        self.sampler = sampler
        self.ticker = None
        self.monitor = None
        self.recorder = None
        self.command = command
        self.spec = spec

    # -- process pools -----------------------------------------------------

    def worker_spec(self) -> WorkerSpec:
        """The spec this run hands a process pool (see
        :func:`init_worker`)."""
        bus = self.bus
        return WorkerSpec(
            profiled=self.tel.enabled,
            timeline=self.tel.events is not None,
            sample_hz=self.sampler.hz,
            channel=bus.worker_channel() if bus.enabled else None,
            heartbeat_interval=bus.heartbeat_interval if bus.enabled else 0,
        )

    @contextmanager
    def task(self):
        """One pool task's run, current inside the ``with`` block: a
        fresh telemetry and sampler as this worker's spec asks, on this
        worker's bus.  The sampler runs for the block and its samples
        fold into the telemetry on exit, so they ride home with the
        telemetry snapshot."""
        spec = self.spec
        run = Run(bus=self.bus)
        if spec is not None and spec.profiled:
            run.tel = Telemetry(events=EventLog() if spec.timeline else None)
            if spec.sample_hz:
                run.sampler = SamplingProfiler(hz=spec.sample_hz)
        with use_run(run):
            run.sampler.start()
            try:
                yield run
            finally:
                run.fold_samples()

    # -- recording ---------------------------------------------------------

    def fold_samples(self) -> None:
        """Stop the sampler and fold its sample table and the
        ``sampling.samples``/``sampling.ir_samples`` counts into the
        telemetry (once: the sampler is detached afterwards)."""
        sampler = self.sampler
        if not sampler.enabled:
            return
        self.sampler = NULL_SAMPLER
        sampler.stop()
        tel = self.tel
        tel.add_samples(sampler.folded_counts())
        tel.count("sampling.samples", sampler.total_samples)
        tel.count("sampling.ir_samples", sampler.ir_samples)

    def note(self, name: str, payload: dict) -> None:
        """Attach a forensic note to the recorder's future crash bundle
        — a no-op without a recorder, so callers note unconditionally."""
        if self.recorder is not None:
            self.recorder.note(name, payload)

    def close(self, exit_code: int = 0) -> None:
        """End the run: the ticker's final ``done`` frame (carrying
        ``exit_code``), the monitor, the recorder's signal hooks, then
        the sampler's fold and the peak-memory gauge.  The monitor and
        the recorder are detached once closed, so closing twice is
        harmless."""
        if self.ticker is not None:
            self.ticker.close(exit_code=exit_code)
        if self.monitor is not None:
            self.monitor.close()
            self.monitor = None
        if self.recorder is not None:
            self.recorder.uninstall()
            self.recorder = None
        self.fold_samples()
        self.tel.record_memory()


#: the process's current run (observability off unless one is installed).
_current = Run()


def current_run() -> Run:
    """The process's current run."""
    return _current


@contextmanager
def use_run(run: Run):
    """Make ``run`` the current run inside the ``with`` block; the
    previous one is current again on exit."""
    global _current
    prev = _current
    _current = run
    try:
        yield run
    finally:
        _current = prev


def init_worker(spec: WorkerSpec) -> None:
    """Process-pool initializer: install the worker's run before any task
    runs.  Under fork the child inherits the parent's run, whose
    telemetry and bus die with the fork; the worker's run heartbeats
    into the parent's channel instead and hands ``spec`` to each
    :meth:`Run.task`."""
    global _current
    bus = NULL_STATUS_BUS
    if spec.channel is not None:
        bus = StatusBus(heartbeat_interval=spec.heartbeat_interval)
        bus.heartbeat_to(spec.channel)
    _current = Run(bus=bus, spec=spec)
