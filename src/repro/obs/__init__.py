"""Observability: telemetry, run timelines, live status, profiling, the
HTTP monitor, the crash flight recorder, report history and the
``vectra.*`` loggers.

Every instrumented layer records into the process's current run
(:func:`current_run`, :mod:`repro.obs.run`): its :class:`Telemetry`
(spans, counters, gauges, histograms; with an :class:`EventLog` also a
Chrome-trace timeline), its live status bus (:mod:`repro.obs.live`) and
its sampling profiler (:mod:`repro.obs.sampling`).  The default run
records nothing, so instrumentation costs a few attribute lookups
unless a caller opts in: the CLI builds one :class:`Run` from its
observability flags, and a library caller wraps its calls in
``use_run(Run(tel=Telemetry()))``.

The rest lives in its own module, imported where it is used:
:mod:`repro.obs.monitor` serves a live run over loopback HTTP
(``--monitor-port``), :mod:`repro.obs.blackbox` writes the
``vectra.blackbox/1`` crash bundle (``--blackbox``, ``vectra
autopsy``), :mod:`repro.obs.flamegraph` renders samples (``--flame``),
:mod:`repro.obs.history`, :mod:`repro.obs.compare` and
:mod:`repro.obs.statsdb` keep and gate run reports.  The package
re-exports only what the rest of ``repro`` imports from it, so a
command that asks for none of those loads none of them.
"""

from repro.obs.logs import configure_logging, get_logger
from repro.obs.run import Run, current_run, use_run
from repro.obs.telemetry import Telemetry
from repro.obs.timeline import EventLog

__all__ = [
    "EventLog",
    "Run",
    "Telemetry",
    "configure_logging",
    "current_run",
    "get_logger",
    "use_run",
]
