"""Monitor-plane overhead measurements (PR 10 acceptance support).

Two claims are gated here:

- **Off is free.** With no ``--monitor-port`` not a single line of
  :mod:`repro.obs.monitor` runs — the hot path is exactly the pre-PR
  hot path, and the analysis report is byte-identical with the monitor
  on or off (routes only *read* shared state).
- **On is cheap.** With the monitor serving and an external thread
  scraping ``/metrics`` at 1 Hz, the end-to-end analysis must stay
  within the 2% bar: the exposition renders from a telemetry snapshot
  on the scraper's thread, so the analysis thread pays nothing beyond
  the GIL slices of the render.

``BENCH_monitor.json`` records the measured off/on comparison.
"""

import threading
import time
import urllib.request

from repro.analysis.pipeline import analyze_loop
from repro.frontend import compile_source
from repro.obs import Run, Telemetry, use_run
from repro.obs.live import StatusBus, StatusTicker
from repro.obs.monitor import MonitorServer

from benchmarks.conftest import write_bench_json

SRC = """
double A[64];
double B[64];

int main() {
  int i, r;
  hot: for (r = 0; r < 40; r++) {
    body: for (i = 0; i < 64; i++) {
      A[i] = A[i] * 0.999 + B[i] * 0.5;
    }
  }
  return 0;
}
"""

SCRAPE_HZ = 1.0


def _analyze(module):
    return analyze_loop(module, "body")


def _serving(tel):
    """A ticker and a serving monitor over ``tel`` and an idle status
    bus.  The analysis records into ``tel`` alone (``Run(tel=tel)``), so
    only the monitor plane differs from the off runs."""
    run = Run(tel=tel, bus=StatusBus())
    run.ticker = StatusTicker(run, interval=1.0)
    run.monitor = MonitorServer(run, port=0)
    run.monitor.start()
    run.ticker.start()
    return run


def test_analysis_monitor_off(benchmark):
    module = compile_source(SRC)
    tel = Telemetry()
    with use_run(Run(tel=tel)):
        benchmark(lambda: _analyze(module))


def test_analysis_monitor_on_scraped(benchmark):
    module = compile_source(SRC)
    tel = Telemetry()
    plane = _serving(tel)
    stop = threading.Event()

    def scraper():
        url = plane.monitor.url("/metrics")
        while True:
            try:
                urllib.request.urlopen(url, timeout=2.0).read()
            except OSError:
                pass
            if stop.wait(1.0 / SCRAPE_HZ):
                return

    thread = threading.Thread(target=scraper, daemon=True)
    thread.start()
    try:
        with use_run(Run(tel=tel)):
            benchmark(lambda: _analyze(module))
    finally:
        stop.set()
        thread.join(timeout=5.0)
        plane.close(exit_code=0)


def test_monitor_overhead_artifact():
    """Measure off vs. on (serving + 1 Hz scraper) back-to-back and
    record ``BENCH_monitor.json``; the analysis report itself must be
    identical either way (scrapes read, never write)."""
    module = compile_source(SRC)
    reps = 15

    def _one_rep(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    def timed(fn):
        result = fn()  # warm caches outside the measurement
        best = min(_one_rep(fn) for _ in range(reps))
        return best, result

    # Off is measured twice, sandwiching the on block, and the better
    # block wins — on a busy single-CPU runner the machine drifts
    # between blocks, and the sandwich keeps that drift out of the
    # reported overhead.
    tel_off = Telemetry()
    with use_run(Run(tel=tel_off)):
        off1_s, off_report = timed(lambda: _analyze(module))

    tel_on = Telemetry()
    plane = _serving(tel_on)
    stop = threading.Event()
    scrapes = []

    def scraper():
        url = plane.monitor.url("/metrics")
        while True:
            try:
                body = urllib.request.urlopen(url, timeout=2.0).read()
                scrapes.append(len(body))
            except OSError:
                pass
            if stop.wait(1.0 / SCRAPE_HZ):
                return

    thread = threading.Thread(target=scraper, daemon=True)
    thread.start()
    try:
        with use_run(Run(tel=tel_on)):
            on_s, on_report = timed(lambda: _analyze(module))
    finally:
        stop.set()
        thread.join(timeout=5.0)
        plane.close(exit_code=0)

    tel_off2 = Telemetry()
    with use_run(Run(tel=tel_off2)):
        off2_s, off_report2 = timed(lambda: _analyze(module))
    off_s = min(off1_s, off2_s)

    identical = (off_report.row() == on_report.row()
                 == off_report2.row())
    overhead_pct = round((on_s - off_s) / off_s * 100.0, 1)
    write_bench_json("BENCH_monitor.json", {
        "benchmark": "benchmarks/test_monitor_overhead.py windowed "
                     "analysis of one 2560-iteration loop",
        "metric": "end-to-end analyze_loop min-of-reps seconds, no "
                  "monitor vs MonitorServer + /metrics scraped at "
                  f"{SCRAPE_HZ:g} Hz",
        "acceptance": "monitor on (with a live scraper) within 2% of "
                      "off; analysis report byte-identical either way; "
                      "off path is the pre-PR hot path (the monitor "
                      "module is never imported)",
        "off": {"analyze_loop_min_s": round(off_s, 4), "reps": reps},
        "on": {"analyze_loop_min_s": round(on_s, 4), "reps": reps,
               "scrape_hz": SCRAPE_HZ,
               "mid_run_scrapes": len(scrapes)},
        "overhead_pct": overhead_pct,
        "identical_report": identical,
        "note": "The exposition renders from Telemetry.snapshot() on "
                "the scraper's connection thread; the analysis thread "
                "only shares GIL slices with it. Timing deltas at this "
                "runtime are dominated by machine noise; the structural "
                "guarantee is the identical_report bit plus the CLI "
                "stdout byte-identity test in tests/test_monitor.py.",
    })
    assert identical
