"""The HTTP observability plane: OpenMetrics rendering, the monitor
server's routes, and the no-perturbation guarantee (stdout byte-identity
with the monitor on)."""

import io
import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import VectraError
from repro.obs import EventLog, Run, Telemetry, current_run
from repro.obs.live import StatusBus, StatusTicker
from repro.obs.monitor import (
    OPENMETRICS_CONTENT_TYPE,
    MonitorServer,
    _metric_name,
    render_openmetrics,
)
from repro.obs.telemetry import Histogram
from repro.tools.cli import main


def _get(url, timeout=5.0):
    """(status, content-type, body) for one GET, 4xx/5xx included."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.headers["Content-Type"], \
                resp.read().decode("utf-8")
    except urllib.error.HTTPError as err:
        return err.code, err.headers["Content-Type"], \
            err.read().decode("utf-8")


def _sample_snapshot():
    tel = Telemetry()
    tel.count("interp.instructions", 1234)
    tel.count("trace.records.kept", 99)
    tel.gauge("mem.rss_kb", 4096)
    for v in (0.0, 1.0, 2.0, 4.0):
        tel.observe("loop.analyze_s", v)
    snapshot = tel.snapshot()
    snapshot["command"] = "analyze"
    return snapshot


class TestRenderOpenMetrics:
    def test_exposition_is_byte_stable(self):
        snapshot = _sample_snapshot()
        assert render_openmetrics(snapshot) == render_openmetrics(snapshot)

    def test_golden_exposition(self):
        """The exact text for a fixed snapshot — family order (info,
        counters, gauges, spans, histograms) and value formatting are
        part of the scrape contract."""
        tel = Telemetry()
        tel.count("interp.instructions", 42)
        tel.gauge("mem.rss_kb", 100)
        snapshot = tel.snapshot()
        snapshot["command"] = "analyze"
        text = render_openmetrics(snapshot)
        assert text == (
            "# TYPE vectra_run info\n"
            'vectra_run_info{command="analyze",'
            'schema="vectra.run-report/4"} 1\n'
            "# TYPE vectra_interp_instructions counter\n"
            "vectra_interp_instructions_total 42\n"
            "# TYPE vectra_mem_rss_kb gauge\n"
            "vectra_mem_rss_kb 100\n"
            "# EOF\n"
        )

    def test_all_family_kinds_render(self):
        tel = Telemetry()
        tel.count("c.x")
        tel.gauge("g.x", 7)
        with tel.span("s.x"):
            pass
        tel.observe("h.x", 3.0)
        snapshot = tel.snapshot()
        text = render_openmetrics(snapshot)
        assert "# TYPE vectra_c_x counter\n" in text
        assert "vectra_c_x_total 1" in text
        assert "# TYPE vectra_g_x gauge\nvectra_g_x 7" in text
        assert "# TYPE vectra_span_s_x_seconds counter" in text
        assert "vectra_span_s_x_calls_total 1" in text
        assert "# TYPE vectra_hist_h_x histogram" in text
        assert 'vectra_hist_h_x_bucket{le="+Inf"} 1' in text
        assert "vectra_hist_h_x_sum 3" in text
        assert "vectra_hist_h_x_count 1" in text
        assert text.endswith("# EOF\n")

    def test_histogram_buckets_are_cumulative_and_cover_zeros(self):
        tel = Telemetry()
        for v in (0.0, 0.0, 1.0, 2.0):
            tel.observe("h", v)
        text = render_openmetrics(tel.snapshot())
        assert 'vectra_hist_h_bucket{le="0"} 2' in text
        assert 'vectra_hist_h_bucket{le="+Inf"} 4' in text
        # cumulative counts never decrease along the bucket series
        counts = [int(line.rsplit(" ", 1)[1]) for line in text.splitlines()
                  if line.startswith("vectra_hist_h_bucket")]
        assert counts == sorted(counts)

    def test_bucket_bounds_agree_with_percentile(self):
        """A quantile recovered from the scraped ``le`` bounds must
        agree with ``Histogram.percentile`` to the documented ~10%
        log-bucket error — same buckets, same answer."""
        hist = Histogram()
        values = [0.001 * (i + 1) for i in range(200)]
        for v in values:
            hist.observe(v)
        tel = Telemetry()
        for v in values:
            tel.observe("lat", v)
        text = render_openmetrics(tel.snapshot())
        buckets = []
        for line in text.splitlines():
            if line.startswith('vectra_hist_lat_bucket{le="') \
                    and "+Inf" not in line:
                bound = float(line.split('le="')[1].split('"')[0])
                count = int(line.rsplit(" ", 1)[1])
                buckets.append((bound, count))
        for q in (0.5, 0.9, 0.99):
            rank = max(1, int(q * hist.count + 0.9999))
            scraped = next(b for b, c in buckets if c >= rank)
            native = hist.percentile(q)
            # The scraped upper bound brackets the native midpoint
            # estimate within one bucket's width (growth factor ~1.19).
            assert native <= scraped * 1.01
            assert scraped <= native * 1.25

    def test_extra_counters_do_not_mutate_snapshot(self):
        snapshot = _sample_snapshot()
        before = dict(snapshot["counters"])
        text = render_openmetrics(
            snapshot, extra_counters={"monitor.requests.metrics": 3})
        assert "vectra_monitor_requests_metrics_total 3" in text
        assert snapshot["counters"] == before

    def test_metric_name_sanitization(self):
        assert _metric_name("loop.analyze_s") == "loop_analyze_s"
        assert _metric_name("a-b c") == "a_b_c"
        assert _metric_name("9lives") == "_9lives"


class _Clock:
    def __init__(self, t=100.0):
        self.t = t

    def __call__(self):
        return self.t


@pytest.fixture
def plane():
    """A telemetry + ticker + monitor stack on an ephemeral port, torn
    down after the test."""
    tel = Telemetry(events=EventLog())
    tel.count("interp.instructions", 10)
    bus = StatusBus(heartbeat_interval=0.2)
    clock = _Clock()
    run = Run(tel=tel, bus=bus, command="analyze")
    ticker = run.ticker = StatusTicker(run, interval=0.5, stall_timeout=10.0,
                                       clock=clock)
    monitor = run.monitor = MonitorServer(run, port=0, stall_timeout=10.0)
    monitor.start()
    bus.monitor_port = monitor.port
    try:
        yield monitor, tel, bus, ticker, clock
    finally:
        monitor.close()


class TestMonitorServer:
    def test_rejects_bad_port(self):
        with pytest.raises(VectraError, match="monitor-port"):
            MonitorServer(Run(), port=70000)
        with pytest.raises(VectraError, match="monitor-port"):
            MonitorServer(Run(), port=-1)

    def test_bind_conflict_is_a_clean_error(self, plane):
        monitor = plane[0]
        with pytest.raises(VectraError, match="cannot bind"):
            MonitorServer(Run(), port=monitor.port)

    def test_metrics_route(self, plane):
        monitor = plane[0]
        status, ctype, body = _get(monitor.url("/metrics"))
        assert status == 200
        assert ctype == OPENMETRICS_CONTENT_TYPE
        assert "vectra_interp_instructions_total 10" in body
        assert 'vectra_run_info{command="analyze"' in body
        assert body.endswith("# EOF\n")

    def test_metrics_counts_scrapes_without_touching_telemetry(self,
                                                               plane):
        monitor, tel = plane[0], plane[1]
        _get(monitor.url("/metrics"))
        _, _, body = _get(monitor.url("/metrics"))
        assert "vectra_monitor_requests_metrics_total 2" in body
        assert not any(k.startswith("monitor.") for k in tel.counters)

    def test_status_route_serves_last_frame(self, plane):
        monitor, _tel, bus, ticker, _clock = plane
        status, _, body = _get(monitor.url("/status"))
        assert status == 503  # no frame cut yet
        bus.phase("loop.fir_n")
        ticker.tick()
        status, ctype, body = _get(monitor.url("/status"))
        assert status == 200
        assert ctype == "application/json"
        frame = json.loads(body)
        assert frame["schema"] == "vectra.live/2"
        assert frame["phase"] == "loop.fir_n"
        assert frame["resources"]["monitor_port"] == monitor.port

    def test_healthz_transitions(self, plane):
        monitor, _tel, _bus, ticker, clock = plane
        status, _, body = _get(monitor.url("/healthz"))
        assert status == 503
        assert "no status ticker" in body
        ticker.tick()
        status, _, body = _get(monitor.url("/healthz"))
        assert status == 200
        assert body == "ok\n"
        clock.t += 60.0  # last frame is now far older than the timeout
        status, _, body = _get(monitor.url("/healthz"))
        assert status == 503
        assert "stall timeout" in body

    def test_healthz_flags_stalled_workers(self, plane):
        monitor, _tel, _bus, ticker, _clock = plane
        ticker.tick()
        ticker.last_frame = dict(ticker.last_frame)
        ticker.last_frame["workers"] = [
            {"pid": 4242, "age_s": 99.0, "state": "dead"},
        ]
        status, _, body = _get(monitor.url("/healthz"))
        assert status == 503
        assert "pid 4242 dead" in body

    def test_flame_404_without_sampler(self, plane):
        monitor = plane[0]
        status, _, body = _get(monitor.url("/flame"))
        assert status == 404
        assert "--sample-hz" in body

    def test_unknown_route_404(self, plane):
        monitor = plane[0]
        status, _, body = _get(monitor.url("/nope"))
        assert status == 404
        assert "/metrics" in body

    def test_index_lists_routes(self, plane):
        monitor = plane[0]
        status, _, body = _get(monitor.url("/"))
        assert status == 200
        assert "/healthz" in body

    def test_close_is_idempotent_and_clears_active(self, plane):
        monitor = plane[0]
        run = monitor.run
        assert run.monitor is monitor
        run.close()
        monitor.close()
        assert run.monitor is None


class TestMonitorCLI:
    def test_monitor_port_smoke(self, capsys):
        code = main(["analyze", "utdsp_fir_array",
                     "-p", "nout=16", "-p", "ntap=4",
                     "--monitor-port", "0"])
        captured = capsys.readouterr()
        assert code == 0
        assert "monitor: serving /metrics /status /healthz /flame" \
            in captured.err
        # Torn down with the run: its socket no longer accepts.
        match = re.search(r"on http://([^:\s]+):(\d+)", captured.err)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(
                (match.group(1), int(match.group(2))), timeout=5.0).close()

    def test_monitor_bind_failure_is_clean(self, capsys):
        code = main(["analyze", "utdsp_fir_array",
                     "-p", "nout=8", "-p", "ntap=4",
                     "--monitor-port", "70000"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: --monitor-port" in captured.err

    def test_scrape_mid_run_and_stdout_byte_identity(self, capsys,
                                                     tmp_path):
        """The concurrency + no-perturbation test: scrape a pooled
        out-of-core run mid-flight from a polling thread, and require
        the run's stdout to be byte-identical with the monitor off."""
        argv = ["analyze", "utdsp_fir_array",
                "-p", "nout=64", "-p", "ntap=32",
                "--spill-dir", str(tmp_path / "spill"),
                "--segment-rows", "256", "-j", "2"]
        scrapes = []
        stop = threading.Event()

        def scraper():
            while not stop.is_set():
                monitor = current_run().monitor
                if monitor is not None:
                    try:
                        scrapes.append(_get(monitor.url("/metrics"),
                                            timeout=2.0))
                        scrapes.append(_get(monitor.url("/healthz"),
                                            timeout=2.0))
                    except OSError:
                        pass
                time.sleep(0.01)

        thread = threading.Thread(target=scraper, daemon=True)
        thread.start()
        try:
            code = main(argv + ["--monitor-port", "0",
                                "--status-interval", "0.05"])
        finally:
            stop.set()
            thread.join(timeout=5.0)
        monitored_out = capsys.readouterr().out
        assert code == 0
        ok_metrics = [b for s, c, b in scrapes[::2] if s == 200]
        assert ok_metrics, "no successful mid-run /metrics scrape"
        assert any("vectra_interp_instructions_total" in b
                   for b in ok_metrics)
        assert any(b.endswith("# EOF\n") for b in ok_metrics)

        code = main(argv)
        plain_out = capsys.readouterr().out
        assert code == 0
        assert monitored_out == plain_out


class TestWatchExitCode:
    """Satellite: ``vectra watch`` exits with the watched run's own
    exit code, read from the final done frame."""

    def _frames_file(self, tmp_path, exit_code):
        bus = StatusBus(heartbeat_interval=0.2)
        stream = io.StringIO()
        ticker = StatusTicker(Run(bus=bus, command="analyze"),
                              interval=60.0, stream=stream)
        ticker.tick()
        ticker.close(exit_code=exit_code)
        path = tmp_path / "frames.jsonl"
        path.write_text(stream.getvalue())
        return str(path)

    def test_watch_propagates_failure_exit_code(self, capsys, tmp_path):
        path = self._frames_file(tmp_path, exit_code=3)
        code = main(["watch", path, "--interval", "0.01"])
        capsys.readouterr()
        assert code == 3

    def test_watch_once_propagates_exit_code(self, capsys, tmp_path):
        path = self._frames_file(tmp_path, exit_code=1)
        code = main(["watch", path, "--once"])
        capsys.readouterr()
        assert code == 1

    def test_watch_zero_exit_code_still_zero(self, capsys, tmp_path):
        path = self._frames_file(tmp_path, exit_code=0)
        code = main(["watch", path, "--once"])
        capsys.readouterr()
        assert code == 0
