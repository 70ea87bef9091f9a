"""Network observability plane: an opt-in HTTP endpoint for live runs.

``--monitor-port N`` (``0`` for an ephemeral port, printed to stderr and
recorded in live frames) starts a :class:`MonitorServer`: a stdlib
``http.server`` running in a daemon thread, so an external system — a
Prometheus scraper, a load balancer health check, ``curl`` in a CI job —
can observe a run *from the outside* while it is alive.  Four routes:

- ``GET /metrics`` — the OpenMetrics/Prometheus text exposition rendered
  from a live ``Telemetry.snapshot()``: counters as ``counter``
  families, gauges as ``gauge`` families, spans as paired
  ``_seconds``/``_calls`` counters, and histograms as native
  ``_bucket``/``_sum``/``_count`` series whose ``le`` bounds are the
  telemetry log-bucket upper bounds
  (:meth:`~repro.obs.telemetry.Histogram.cumulative_buckets`), so a
  scraped quantile agrees with ``Histogram.percentile`` to the
  documented ~10% bucket error.
- ``GET /status`` — the latest ``vectra.live/2`` status frame as JSON.
  The monitor reuses the run's single :class:`StatusBus`/
  :class:`StatusTicker` pair — no second sampler registration, no
  second heartbeat queue — so serving the frame costs one dict read.
- ``GET /healthz`` — ``200 ok`` while the ticker is ticking and no pool
  worker is flagged by the stall watchdog; ``503`` when the last frame
  is older than the stall timeout (the run itself is wedged) or a
  worker is currently ``stalled``/``dead``.
- ``GET /flame`` — the current folded-stack sample table (the
  ``--flame`` collapsed text format) when ``--sample-hz`` is active;
  ``404`` otherwise.

The exposition is rendered on demand from the live telemetry object —
nothing is pushed, nothing is buffered, and with the monitor off not a
single line of this module runs, so the no-monitor hot path is exactly
the pre-monitor hot path.  This server is the substrate the future
``vectra serve`` daemon mounts its own routes on.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.errors import VectraError
from repro.obs.live import DEFAULT_STALL_TIMEOUT
from repro.obs.logs import get_logger
from repro.obs.telemetry import Histogram, live_snapshot

__all__ = [
    "OPENMETRICS_CONTENT_TYPE",
    "MonitorServer",
    "render_openmetrics",
    "render_folded_samples",
]

#: Content type of the ``/metrics`` exposition (OpenMetrics 1.0 text).
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: Default bind address.  Loopback only: the monitor exposes run
#: internals and has no auth story; operators who want remote scrapes
#: front it with their own proxy.
DEFAULT_HOST = "127.0.0.1"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")

_log = get_logger("monitor")


def _metric_name(name: str) -> str:
    """A telemetry name as a Prometheus metric name component (dots and
    any other punctuation collapse to underscores)."""
    out = _NAME_RE.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _fmt_value(value) -> str:
    """Sample-value formatting: integers stay integers, floats use
    shortest-repr so the exposition is byte-stable across renders."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def render_openmetrics(snapshot: dict, extra_counters: Optional[
        Dict[str, int]] = None) -> str:
    """The OpenMetrics text exposition of one telemetry snapshot.

    Families are emitted in a fixed order — run info, counters, gauges,
    spans, histograms, each sorted by name — so rendering the same
    snapshot twice yields byte-identical text (the golden-test
    property).  ``extra_counters`` lets the server append its own
    scrape counters without mutating the run's telemetry.

    Counter families are ``vectra_<name>`` with a ``_total`` sample;
    gauges ``vectra_<name>``; spans two counter families
    ``vectra_span_<name>_seconds`` / ``vectra_span_<name>_calls``;
    histograms ``vectra_hist_<name>`` with cumulative ``_bucket`` lines
    whose ``le`` bounds are the log-bucket upper bounds (zeros land in
    ``le="0"``), then ``le="+Inf"``, ``_sum`` and ``_count``.  The kind
    prefixes keep families collision-free even though telemetry allows
    one name to exist as both a span and a histogram.
    """
    lines = []
    command = snapshot.get("command")
    schema = snapshot.get("schema", "")
    lines.append("# TYPE vectra_run info")
    lines.append(
        f'vectra_run_info{{command="{_escape_label(command or "")}",'
        f'schema="{_escape_label(schema)}"}} 1'
    )
    counters = dict(snapshot.get("counters", {}))
    if extra_counters:
        counters.update(extra_counters)
    for name in sorted(counters):
        metric = f"vectra_{_metric_name(name)}"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {_fmt_value(counters[name])}")
    gauges = snapshot.get("gauges", {})
    for name in sorted(gauges):
        metric = f"vectra_{_metric_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt_value(gauges[name])}")
    spans = snapshot.get("spans", {})
    for name in sorted(spans):
        rec = spans[name]
        base = f"vectra_span_{_metric_name(name)}"
        lines.append(f"# TYPE {base}_seconds counter")
        lines.append(f"{base}_seconds_total {_fmt_value(rec['total_s'])}")
        lines.append(f"# TYPE {base}_calls counter")
        lines.append(f"{base}_calls_total {_fmt_value(rec['calls'])}")
    histograms = snapshot.get("histograms", {})
    for name in sorted(histograms):
        hist = histograms[name]
        if isinstance(hist, dict):
            hist = Histogram.from_snapshot(hist)
        metric = f"vectra_hist_{_metric_name(name)}"
        lines.append(f"# TYPE {metric} histogram")
        for bound, cum in hist.cumulative_buckets():
            lines.append(
                f'{metric}_bucket{{le="{_fmt_value(bound)}"}} {cum}'
            )
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{metric}_sum {_fmt_value(hist.total)}")
        lines.append(f"{metric}_count {hist.count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def render_folded_samples(table: Dict[str, int]) -> str:
    """A sample table as collapsed-stack folded text (the ``/flame``
    body; feed straight into any flamegraph tool)."""
    return "".join(f"{stack} {n}\n" for stack, n in sorted(table.items()))


class _MonitorHandler(BaseHTTPRequestHandler):
    """Routes one request against the owning :class:`MonitorServer`
    (attached as ``server.monitor`` by :meth:`MonitorServer.start`)."""

    server_version = "vectra-monitor"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
        monitor = self.server.monitor
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        handler = {
            "/": monitor.handle_index,
            "/metrics": monitor.handle_metrics,
            "/status": monitor.handle_status,
            "/healthz": monitor.handle_healthz,
            "/flame": monitor.handle_flame,
        }.get(path)
        if handler is None:
            self._respond(404, "text/plain; charset=utf-8",
                          f"no route {path!r}; try /metrics /status "
                          f"/healthz /flame\n")
            return
        monitor.count_request(path)
        try:
            status, ctype, body = handler()
        except Exception as exc:  # scrape must never kill the run
            _log.warning("monitor request %s failed: %s", path, exc)
            status, ctype, body = (500, "text/plain; charset=utf-8",
                                   f"internal error: {exc}\n")
        self._respond(status, ctype, body)

    def _respond(self, status: int, ctype: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args):  # noqa: A002 - stdlib API
        _log.debug("%s %s", self.address_string(), format % args)


class MonitorServer:
    """A run's HTTP observability plane (one per process).

    Construction binds the socket (so an ephemeral ``port=0`` resolves
    immediately and the caller can print the real port);
    :meth:`start` begins serving from a daemon thread, :meth:`close`
    shuts the server down.  All routes read the run's state — its
    telemetry, its status ticker's last frame, its sampling profiler —
    and never write any of it, so a scrape cannot perturb the report.
    """

    def __init__(self, run, port: int = 0, host: str = DEFAULT_HOST,
                 stall_timeout: float = DEFAULT_STALL_TIMEOUT):
        if port is None or port < 0 or port > 65535:
            raise VectraError(
                f"--monitor-port must be 0 (ephemeral) or 1-65535, "
                f"got {port}"
            )
        self.run = run
        self.stall_timeout = stall_timeout
        self._lock = threading.Lock()
        self.requests: Dict[str, int] = {}
        self._thread: Optional[threading.Thread] = None
        try:
            self._server = ThreadingHTTPServer((host, port),
                                               _MonitorHandler)
        except OSError as exc:
            raise VectraError(
                f"cannot bind monitor endpoint on {host}:{port}: {exc}"
            ) from None
        self._server.daemon_threads = True
        self._server.monitor = self
        self.host, self.port = self._server.server_address[:2]

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Serve from a daemon thread."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="vectra-monitor", daemon=True,
        )
        self._thread.start()
        _log.info("monitor serving on http://%s:%d", self.host, self.port)

    def close(self) -> None:
        """Stop serving and release the socket.  Idempotent."""
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def url(self, route: str = "") -> str:
        return f"http://{self.host}:{self.port}{route}"

    def count_request(self, path: str) -> None:
        with self._lock:
            self.requests[path] = self.requests.get(path, 0) + 1

    # -- routes ------------------------------------------------------------

    def handle_index(self) -> Tuple[int, str, str]:
        lines = [f"vectra monitor — command {self.run.command or '?'}",
                 "routes: /metrics /status /healthz /flame", ""]
        return 200, "text/plain; charset=utf-8", "\n".join(lines)

    def handle_metrics(self) -> Tuple[int, str, str]:
        tel = self.run.tel
        if not tel.enabled:
            return (503, "text/plain; charset=utf-8",
                    "telemetry is not active\n")
        snapshot = live_snapshot(tel)
        snapshot["command"] = self.run.command
        with self._lock:
            extra = {
                f"monitor.requests.{path.strip('/') or 'index'}": n
                for path, n in self.requests.items()
            }
        return (200, OPENMETRICS_CONTENT_TYPE,
                render_openmetrics(snapshot, extra_counters=extra))

    def handle_status(self) -> Tuple[int, str, str]:
        ticker = self.run.ticker
        frame = ticker.last_frame if ticker is not None else None
        if frame is None:
            return (503, "application/json",
                    json.dumps({"error": "no status frame yet"}) + "\n")
        return (200, "application/json",
                json.dumps(frame, sort_keys=True) + "\n")

    def handle_healthz(self) -> Tuple[int, str, str]:
        ctype = "text/plain; charset=utf-8"
        ticker = self.run.ticker
        if ticker is None or ticker.last_frame is None:
            return 503, ctype, "unhealthy: no status ticker\n"
        age = ticker.last_tick_age()
        if age is not None and age > self.stall_timeout:
            return (503, ctype,
                    f"unhealthy: last status frame is {age:.1f}s old "
                    f"(stall timeout {self.stall_timeout:.1f}s)\n")
        unhealthy = [
            w for w in ticker.last_frame.get("workers", ())
            if w.get("state") in ("stalled", "dead")
        ]
        if unhealthy:
            detail = ", ".join(
                f"pid {w['pid']} {w['state']}" for w in unhealthy
            )
            return 503, ctype, f"unhealthy: {detail}\n"
        return 200, ctype, "ok\n"

    def handle_flame(self) -> Tuple[int, str, str]:
        ctype = "text/plain; charset=utf-8"
        sampler = self.run.sampler
        if not sampler.enabled:
            return (404, ctype,
                    "sampling is off; re-run with --sample-hz N (or "
                    "--flame) to serve folded samples here\n")
        return 200, ctype, render_folded_samples(sampler.folded_counts())

