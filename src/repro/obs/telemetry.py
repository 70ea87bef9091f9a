"""Pipeline telemetry: timed stage spans, monotonic counters, gauges.

One :class:`Telemetry` object rides along a pipeline run and collects

- **spans** — wall-clock totals per named stage
  (``with tel.span("ddg.build"): ...``).  Hierarchy is expressed by
  dotted names ("loop.rerun" is a sub-stage of the per-loop work), which
  keeps keys stable whether a stage runs in the parent process or inside
  a pool worker — the property the serial/parallel merge relies on.
- **counters** — monotonic totals (records traced, DDG nodes/edges,
  partitions, fuel consumed, ...).  Counters are pure sums of per-item
  work, so a parallel run merged from worker snapshots reports totals
  identical to a serial run.
- **gauges** — level/peak samples (peak RSS, configured job count).
  Merged by max, not sum.
- **histograms** — log-bucketed value distributions (per-loop analysis
  latency, per-batch compiled-kernel iteration counts, per-segment
  spill/read times, DDG chunk sizes).  Buckets are a pure function of
  the observed value, so histograms merge across pool-worker snapshots
  exactly like counters do: bucket counts sum, and any merge order
  yields the same distribution.  ``--profile`` derives p50/p90/p99
  from the buckets.

Instrumented code records into the current run's telemetry
(:func:`repro.obs.run.current_run`).  By default that is the no-op
:class:`NullTelemetry` singleton: every method
is a ``pass`` and :meth:`NullTelemetry.span` hands back one shared,
stateless context manager, so instrumented code paths cost a few
attribute lookups when telemetry is off.  Instrumentation sits at stage
boundaries only — never inside the per-record interpreter/sink loops —
which is what keeps the disabled path within noise of uninstrumented
code.  Guard any non-trivial counter *computation* (not the ``count``
call itself) with ``tel.enabled``.

Worker processes build a fresh ``Telemetry``, run, and ship
:meth:`Telemetry.snapshot` (a plain picklable dict) back with their
results; the parent folds it in with :meth:`Telemetry.merge`.  The same
snapshot dict, plus a schema tag, is the ``--metrics-json`` run report.
"""

from __future__ import annotations

import json
import math
import sys
import time
from typing import Dict, List, Optional, Union

from repro.errors import VectraError

#: Version tag of the machine-readable run report (bump on shape changes).
REPORT_SCHEMA = "vectra.run-report/4"

#: Schema tags :meth:`Telemetry.merge` and the report loaders accept.
#: ``/1`` reports are a strict subset of ``/2`` (no ``sections`` or
#: ``events``), ``/2`` of ``/3`` (no optional ``explain`` mapping or
#: ``timeline_dropped`` counter), and ``/3`` of ``/4`` (no
#: ``histograms`` or profiler ``samples``), so ingesting older tags is
#: safe; anything else is refused.
KNOWN_SCHEMAS = (
    "vectra.run-report/1",
    "vectra.run-report/2",
    "vectra.run-report/3",
    REPORT_SCHEMA,
)


def validate_report_schema(report: dict, source: str = "snapshot") -> None:
    """Refuse report/snapshot dicts this code does not understand.

    Raises :class:`VectraError` naming the offending tag — silently
    merging a partial or future shape would corrupt aggregates.
    """
    tag = report.get("schema")
    if tag not in KNOWN_SCHEMAS:
        raise VectraError(
            f"{source} has unsupported schema tag {tag!r} "
            f"(supported: {', '.join(KNOWN_SCHEMAS)})"
        )


#: Log-bucket growth factor.  2**0.25 gives four buckets per doubling
#: (~19% bucket width), so any percentile estimate taken from a bucket
#: midpoint is within ~9.5% of the true observed value — tight enough
#: for latency gating, small enough that a long run's histogram stays a
#: few dozen keys.
HIST_GROWTH = 2.0 ** 0.25

_LOG_GROWTH = math.log(HIST_GROWTH)


class Histogram:
    """A log-bucketed distribution of observed values.

    Positive values land in bucket ``ceil(log(v) / log(HIST_GROWTH))``
    — a pure function of the value, independent of observation order or
    of which process observed it.  That makes histograms *mergeable
    like counters*: folding worker snapshots sums bucket counts, and
    every merge order yields the identical distribution.  Zero and
    negative values (a spill that took "0.0 s" under a coarse clock, an
    empty chunk) are tallied separately in ``zeros`` so the log buckets
    stay well-defined.

    Exact ``count``/``sum``/``min``/``max`` ride alongside the buckets;
    percentiles are estimated from bucket midpoints and clamped to the
    observed ``[min, max]`` range, so a single-sample histogram reports
    its one value exactly at every quantile.
    """

    __slots__ = ("count", "total", "vmin", "vmax", "zeros", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None
        self.zeros = 0
        #: bucket index -> observation count
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float, n: int = 1) -> None:
        """Record ``value`` as if observed ``n`` times."""
        value = float(value)
        self.count += n
        self.total += value * n
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value
        if value <= 0.0:
            self.zeros += n
        else:
            idx = math.ceil(math.log(value) / _LOG_GROWTH)
            self.buckets[idx] = self.buckets.get(idx, 0) + n

    def merge(self, other: Union["Histogram", dict]) -> None:
        """Fold another histogram (or its snapshot dict) into this one.
        Commutative and associative up to float summation of ``sum``."""
        if isinstance(other, dict):
            other = Histogram.from_snapshot(other)
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        if self.vmin is None or other.vmin < self.vmin:
            self.vmin = other.vmin
        if self.vmax is None or other.vmax > self.vmax:
            self.vmax = other.vmax
        self.zeros += other.zeros
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n

    def percentile(self, q: float) -> Optional[float]:
        """The estimated ``q``-quantile (``q`` in [0, 1]), or ``None``
        for an empty histogram."""
        if self.count == 0:
            return None
        rank = max(1, math.ceil(q * self.count))
        seen = self.zeros
        if rank <= seen:
            est = 0.0
        else:
            est = self.vmax
            for idx in sorted(self.buckets):
                seen += self.buckets[idx]
                if rank <= seen:
                    est = HIST_GROWTH ** (idx - 0.5)
                    break
        return min(max(est, self.vmin), self.vmax)

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def cumulative_buckets(self) -> List[tuple]:
        """``[(upper_bound, cumulative_count), ...]`` in increasing
        bound order — the OpenMetrics ``_bucket`` series (without the
        final ``+Inf``, which is just :attr:`count`).  The zero/negative
        tally becomes an ``le=0`` bucket; each log bucket's bound is its
        exact upper edge ``HIST_GROWTH ** idx``, so a quantile read off
        the exposition agrees with :meth:`percentile` to the documented
        ~10% bucket error."""
        out = []
        cum = 0
        if self.zeros:
            cum = self.zeros
            out.append((0.0, cum))
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            out.append((HIST_GROWTH ** idx, cum))
        return out

    def snapshot(self) -> dict:
        """JSON- and pickle-safe dict form (bucket keys stringified)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "zeros": self.zeros,
            "buckets": {str(idx): n
                        for idx, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_snapshot(cls, rec: dict) -> "Histogram":
        hist = cls()
        hist.count = rec["count"]
        hist.total = rec["sum"]
        hist.vmin = rec["min"]
        hist.vmax = rec["max"]
        hist.zeros = rec.get("zeros", 0)
        hist.buckets = {int(idx): n
                        for idx, n in rec.get("buckets", {}).items()}
        return hist


class _Span:
    """A running timed span; records itself into the owner on exit."""

    __slots__ = ("_tel", "name", "_t0", "_hist")

    def __init__(self, tel: "Telemetry", name: str, hist: bool = False):
        self._tel = tel
        self.name = name
        self._t0 = 0.0
        self._hist = hist

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tel._record_span(self.name, self._t0,
                               time.perf_counter() - self._t0,
                               hist=self._hist)
        return False


class _NullSpan:
    """Shared no-op span: no state, safe to reuse and to nest."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """Telemetry that records nothing — the default run's, so the
    instrumented hot paths stay hot."""

    __slots__ = ()
    enabled = False
    events = None

    def span(self, name: str, hist: bool = False) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float, n: int = 1) -> None:
        pass

    def add_samples(self, table: Optional[Dict[str, int]]) -> None:
        pass

    def instant(self, name: str, args: Optional[dict] = None) -> None:
        pass

    def section(self, name: str, data: dict) -> None:
        pass

    def explain_section(self, name: str, data: dict) -> None:
        pass

    def record_memory(self) -> None:
        pass

    def merge(self, other) -> None:
        pass

    def snapshot(self) -> dict:
        return {"schema": REPORT_SCHEMA, "spans": {}, "counters": {},
                "gauges": {}, "histograms": {}, "sections": {},
                "events": []}


#: The telemetry of a run that records nothing (see :mod:`repro.obs.run`).
NULL_TELEMETRY = NullTelemetry()


class Telemetry:
    """Collects spans, counters, gauges and per-loop result sections for
    one pipeline run; with an :class:`~repro.obs.timeline.EventLog`
    attached (``events=``), every span occurrence and instant event also
    lands on the run timeline."""

    __slots__ = ("spans", "counters", "gauges", "histograms", "samples",
                 "sections", "explain", "events")
    enabled = True

    def __init__(self, events=None):
        #: name -> [total_s, calls, max_s]
        self.spans: Dict[str, List[float]] = {}
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        #: name -> Histogram of observed values
        self.histograms: Dict[str, Histogram] = {}
        #: folded profiler stack -> sample count (see obs.sampling);
        #: merged by sum, exactly like counters.
        self.samples: Dict[str, int] = {}
        #: name -> dict of result fields (e.g. one section per analyzed
        #: loop), making the run report self-contained.
        self.sections: Dict[str, dict] = {}
        #: name -> witness/evidence payload from the explain layer; lands
        #: in the report as the optional ``explain`` key (schema /3).
        self.explain: Dict[str, dict] = {}
        #: optional attached EventLog (the ``--trace-json`` timeline).
        self.events = events

    # -- recording ---------------------------------------------------------

    def span(self, name: str, hist: bool = False) -> _Span:
        """A context manager timing one stage; re-entering the same name
        accumulates (total, calls, max).  With ``hist=True`` every
        occurrence is additionally observed into the like-named
        histogram, so ``--profile`` can report p50/p95 latency for the
        stage, not just its mean."""
        return _Span(self, name, hist)

    def _record_span(self, name: str, t0: float, dt: float,
                     hist: bool = False) -> None:
        rec = self.spans.get(name)
        if rec is None:
            self.spans[name] = [dt, 1, dt]
        else:
            rec[0] += dt
            rec[1] += 1
            if dt > rec[2]:
                rec[2] = dt
        if hist:
            self.observe(name, dt)
        if self.events is not None:
            self.events.complete(name, t0, dt)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the monotonic counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Record a level sample; the maximum observed value is kept."""
        cur = self.gauges.get(name)
        if cur is None or value > cur:
            self.gauges[name] = value

    def observe(self, name: str, value: float, n: int = 1) -> None:
        """Record ``value`` (``n`` times) into the histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value, n)

    def add_samples(self, table: Optional[Dict[str, int]]) -> None:
        """Fold a profiler sample table (folded stack -> count) into
        this telemetry; repeated folds and worker tables sum."""
        if not table:
            return
        samples = self.samples
        for stack, n in table.items():
            samples[stack] = samples.get(stack, 0) + n

    def instant(self, name: str, args: Optional[dict] = None) -> None:
        """Record a point-in-time event on the attached timeline (no-op
        without one — aggregates are unaffected either way)."""
        if self.events is not None:
            self.events.instant(name, args)

    def section(self, name: str, data: dict) -> None:
        """Attach a named result section (plain JSON-safe dict) to the
        run report — e.g. one per analyzed loop.  Re-recording a name
        replaces it."""
        self.sections[name] = dict(data)

    def explain_section(self, name: str, data: dict) -> None:
        """Attach one explain-layer payload (a per-loop witness dict) to
        the run report's optional ``explain`` mapping.  Unlike
        ``sections`` (flat numeric fields, compare-gateable), explain
        payloads are nested evidence documents; they are carried
        verbatim and merged by union."""
        self.explain[name] = dict(data)

    def record_memory(self) -> None:
        """Sample peak RSS (and the tracemalloc high-water mark when
        tracing is on) into gauges."""
        try:
            import resource

            self.gauge(
                "mem.peak_rss_kb",
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            )
        except (ImportError, OSError):  # pragma: no cover - non-POSIX
            pass
        import tracemalloc

        if tracemalloc.is_tracing():
            self.gauge("mem.tracemalloc_peak_kb",
                       tracemalloc.get_traced_memory()[1] / 1024.0)

    # -- aggregation -------------------------------------------------------

    def merge(self, other: Union["Telemetry", dict, None]) -> None:
        """Fold another telemetry (or a :meth:`snapshot` dict, e.g. one
        shipped back from a pool worker) into this one: span times and
        counters sum, gauges keep the max, sections union, and shipped
        timeline events extend the attached :class:`EventLog` (if any).

        Snapshot dicts are schema-checked first — an unknown or newer
        tag raises :class:`VectraError` instead of silently merging a
        partial shape.
        """
        if other is None:
            return
        if isinstance(other, dict):
            validate_report_schema(other, source="merged snapshot")
            spans = other.get("spans", {})
            span_items = (
                (name, (rec["total_s"], rec["calls"], rec["max_s"]))
                for name, rec in spans.items()
            )
            counters = other.get("counters", {})
            gauges = other.get("gauges", {})
            histograms = other.get("histograms", {})
            samples = other.get("samples", {})
            sections = other.get("sections", {})
            explain = other.get("explain", {})
            events = other.get("events", ())
        else:
            span_items = ((n, tuple(r)) for n, r in other.spans.items())
            counters = other.counters
            gauges = other.gauges
            histograms = other.histograms
            samples = other.samples
            sections = other.sections
            explain = other.explain
            events = other.events.snapshot() if other.events else ()
        for name, (total, calls, mx) in span_items:
            rec = self.spans.get(name)
            if rec is None:
                self.spans[name] = [total, calls, mx]
            else:
                rec[0] += total
                rec[1] += calls
                if mx > rec[2]:
                    rec[2] = mx
        for name, n in counters.items():
            self.counters[name] = self.counters.get(name, 0) + n
        for name, value in gauges.items():
            self.gauge(name, value)
        for name, other_hist in histograms.items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.merge(other_hist)
        self.add_samples(samples)
        for name, data in sections.items():
            self.sections[name] = dict(data)
        for name, data in explain.items():
            self.explain[name] = dict(data)
        if self.events is not None and events:
            self.events.extend(events)

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> dict:
        """The versioned, JSON- and pickle-safe run report."""
        counters = dict(self.counters)
        if self.events is not None:
            # Read-only at snapshot time: workers ship their own count in
            # ``counters`` (summed by :meth:`merge`), the parent adds the
            # drops of its attached ring buffer here, and ``self.counters``
            # is never mutated — repeated snapshots don't accumulate.
            dropped = counters.get("timeline_dropped", 0) + self.events.dropped
            if dropped:
                counters["timeline_dropped"] = dropped
        out = {
            "schema": REPORT_SCHEMA,
            "spans": {
                name: {"total_s": rec[0], "calls": rec[1], "max_s": rec[2]}
                for name, rec in self.spans.items()
            },
            "counters": counters,
            "gauges": dict(self.gauges),
            "histograms": {name: hist.snapshot()
                           for name, hist in self.histograms.items()},
            "sections": {name: dict(data)
                         for name, data in self.sections.items()},
            "events": self.events.snapshot() if self.events else [],
        }
        if self.samples:
            out["samples"] = dict(self.samples)
        if self.explain:
            out["explain"] = {name: dict(data)
                              for name, data in self.explain.items()}
        return out

    def report(self, **meta) -> dict:
        """A snapshot with extra top-level ``meta`` keys (the CLI command,
        exit code, ...); ``None`` values are omitted."""
        report = self.snapshot()
        for key, value in meta.items():
            if value is not None:
                report[key] = value
        return report

    def format_table(self) -> str:
        """The human-readable ``--profile`` stage/counter table.

        Stages are sorted by total time descending, ties broken by name
        so the order is deterministic, with a percent-of-wall column
        (wall = the largest stage total, i.e. the enclosing
        ``command.*`` span on CLI runs), so the hot stage is always the
        first line.  Spans backed by a histogram (``span(..., hist=True)``
        sites) additionally print p50/p95 per-occurrence latency; all
        histograms get their own p50/p90/p99 section below.
        """
        span_hists = {name for name in self.spans if name in self.histograms}
        lines = ["-- stages --"]
        header = (f"{'stage':<32} {'total_s':>10} {'%wall':>7} "
                  f"{'calls':>8} {'max_s':>10}")
        if span_hists:
            header += f" {'p50_s':>10} {'p95_s':>10}"
        lines.append(header)
        wall = max((rec[0] for rec in self.spans.values()), default=0.0)
        ordered = sorted(self.spans.items(),
                         key=lambda item: (-item[1][0], item[0]))
        for name, (total, calls, mx) in ordered:
            pct = 100.0 * total / wall if wall > 0 else 0.0
            line = (f"{name:<32} {total:>10.4f} {pct:>6.1f}% "
                    f"{calls:>8} {mx:>10.4f}")
            if span_hists:
                if name in span_hists:
                    hist = self.histograms[name]
                    line += (f" {hist.percentile(0.50):>10.4f}"
                             f" {hist.percentile(0.95):>10.4f}")
                else:
                    line += f" {'-':>10} {'-':>10}"
            lines.append(line)
        if self.histograms:
            lines.append("-- histograms --")
            lines.append(f"{'histogram':<32} {'count':>8} {'mean':>10} "
                         f"{'p50':>10} {'p90':>10} {'p99':>10} {'max':>10}")
            for name in sorted(self.histograms):
                hist = self.histograms[name]
                if hist.count == 0:
                    lines.append(f"{name:<32} {0:>8}")
                    continue
                lines.append(
                    f"{name:<32} {hist.count:>8} {hist.mean:>10.4f} "
                    f"{hist.percentile(0.50):>10.4f} "
                    f"{hist.percentile(0.90):>10.4f} "
                    f"{hist.percentile(0.99):>10.4f} {hist.vmax:>10.4f}")
        if self.counters:
            lines.append("-- counters --")
            for name in sorted(self.counters):
                lines.append(f"{name:<40} {self.counters[name]:>14}")
        if self.gauges:
            lines.append("-- gauges --")
            for name in sorted(self.gauges):
                lines.append(f"{name:<40} {self.gauges[name]:>14.1f}")
        return "\n".join(lines)


def dump_report(report: dict, path: str) -> None:
    """Serialize a run-report dict as indented JSON to ``path``, or to
    stdout when ``path`` is ``"-"``."""
    if path == "-":
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def live_snapshot(tel: Telemetry, attempts: int = 8) -> dict:
    """Snapshot a telemetry object that another thread is mutating.

    Aggregate writes are GIL-atomic per key, but snapshotting iterates
    the dicts, and the pipeline thread may insert a new key mid-read —
    a benign race that surfaces as ``RuntimeError: dictionary changed
    size``.  Retry a few times (the last failure propagates); a
    snapshot landing one counter earlier or later is exactly as
    truthful.
    """
    for _ in range(attempts - 1):
        try:
            return tel.snapshot()
        except RuntimeError:
            pass
    return tel.snapshot()
