"""EventLog ring buffer, Chrome trace-event export, telemetry timeline
integration."""

import itertools
import json
import pathlib
import pickle

import pytest

from repro.obs import EventLog, Telemetry
from repro.obs.telemetry import NullTelemetry
from repro.obs.timeline import write_chrome_trace

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_trace.json"


def make_clock(times):
    """A deterministic clock handing out the given instants in order."""
    it = iter(times)
    return lambda: next(it)


def build_golden_log() -> EventLog:
    """The fixed event sequence behind ``golden_trace.json`` — also used
    by ``tests/regenerate_golden.py``."""
    log = EventLog(capacity=16, clock=make_clock([0.000150]), pid=1000,
                   tid=7)
    log.complete("analysis.total", 0.0001, 0.5)
    log.complete("loop.rerun", 0.0002, 0.25, args={"loop": "body"})
    log.instant("pipeline.pool_fallback", {"loops": 2, "error": "OSError"})
    # A worker's events shipped home: a different pid becomes its own
    # named track in the export.
    log.extend([
        {"ph": "X", "name": "loop.rerun", "ts": 0.0003, "dur": 0.125,
         "pid": 2000, "tid": 9},
        {"ph": "i", "name": "loop.analyze.finish", "ts": 0.00045,
         "pid": 2000, "tid": 9, "args": {"loop": "body"}},
    ])
    return log


class TestEventLog:
    def test_complete_and_instant_shapes(self):
        log = EventLog(clock=make_clock([1.5]), pid=42, tid=3)
        log.complete("stage", 1.0, 0.5)
        log.instant("boom", {"k": 1})
        spans = log.snapshot()
        assert spans[0] == {"ph": "X", "name": "stage", "ts": 1.0,
                            "dur": 0.5, "pid": 42, "tid": 3}
        assert spans[1] == {"ph": "i", "name": "boom", "ts": 1.5,
                            "pid": 42, "tid": 3, "args": {"k": 1}}

    def test_defaults_stamp_real_pid(self):
        import os

        log = EventLog()
        log.instant("x")
        assert log.snapshot()[0]["pid"] == os.getpid()

    def test_ring_buffer_bounds_and_counts_drops(self):
        log = EventLog(capacity=3, clock=make_clock(range(10)), pid=1,
                       tid=1)
        for i in range(5):
            log.instant(f"e{i}")
        assert len(log) == 3
        assert log.dropped == 2
        assert [e["name"] for e in log.snapshot()] == ["e2", "e3", "e4"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_extend_folds_worker_events(self):
        log = EventLog(pid=1, tid=1)
        log.extend([{"ph": "i", "name": "w", "ts": 0.0, "pid": 2,
                     "tid": 2}])
        log.extend(None)
        log.extend([])
        assert len(log) == 1
        assert log.snapshot()[0]["pid"] == 2

    def test_snapshot_is_plain_and_picklable(self):
        log = EventLog(clock=make_clock([0.5]), pid=1, tid=1)
        log.complete("s", 0.0, 0.1)
        log.instant("i")
        snap = log.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap
        json.dumps(snap)


class TestChromeTraceExport:
    def test_microsecond_conversion_and_phases(self):
        log = EventLog(clock=make_clock([0.002]), pid=10, tid=1)
        log.complete("stage", 0.001, 0.0005)
        log.instant("evt")
        trace = log.chrome_trace()
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "vectra"
        span = next(e for e in events if e["ph"] == "X")
        assert span["ts"] == 1000.0 and span["dur"] == 500.0
        inst = next(e for e in events if e["ph"] == "i")
        assert inst["ts"] == 2000.0 and inst["s"] == "t"

    def test_one_named_track_per_worker_pid(self):
        log = build_golden_log()
        meta = [e for e in log.chrome_trace()["traceEvents"]
                if e["ph"] == "M"]
        names = {e["pid"]: e["args"]["name"] for e in meta}
        assert names == {1000: "vectra", 2000: "vectra worker 2000"}

    def test_export_reports_dropped_events(self):
        log = EventLog(capacity=1, clock=make_clock(range(10)), pid=1,
                       tid=1)
        log.instant("a")
        log.instant("b")
        assert log.chrome_trace()["otherData"]["dropped_events"] == 1

    def test_golden_file(self, tmp_path):
        """The export byte-format is a contract (Perfetto reads it):
        regenerate via ``python tests/regenerate_golden.py`` only on an
        intentional format change."""
        out = tmp_path / "trace.json"
        build_golden_log().write_chrome_trace(str(out))
        assert json.loads(out.read_text()) == json.loads(
            GOLDEN_PATH.read_text()
        )
        assert out.read_text() == GOLDEN_PATH.read_text()

    def test_write_to_stdout(self, capsys):
        write_chrome_trace(build_golden_log(), "-")
        trace = json.loads(capsys.readouterr().out)
        assert {e["name"] for e in trace["traceEvents"]} >= {
            "analysis.total", "loop.rerun", "pipeline.pool_fallback"}


class TestTelemetryTimeline:
    def test_span_lands_on_attached_timeline(self):
        tel = Telemetry(events=EventLog(pid=5, tid=5))
        with tel.span("stage"):
            pass
        events = tel.events.snapshot()
        assert len(events) == 1
        assert events[0]["name"] == "stage" and events[0]["ph"] == "X"
        assert events[0]["dur"] >= 0.0

    def test_instant_requires_attached_timeline(self):
        tel = Telemetry()
        tel.instant("evt")  # no timeline: aggregates unaffected, no crash
        tel2 = Telemetry(events=EventLog(pid=5, tid=5))
        tel2.instant("evt", {"a": 1})
        assert tel2.events.snapshot()[0]["args"] == {"a": 1}

    def test_null_telemetry_instant_is_noop(self):
        tel = NullTelemetry()
        tel.instant("evt", {"a": 1})
        assert tel.events is None

    def test_snapshot_carries_events_and_merge_extends(self):
        worker = Telemetry(events=EventLog(pid=77, tid=1))
        with worker.span("loop.rerun"):
            pass
        parent = Telemetry(events=EventLog(pid=1, tid=1))
        parent.merge(worker.snapshot())
        pids = [e["pid"] for e in parent.events.snapshot()]
        assert pids == [77]

    def test_merge_without_timeline_drops_events_keeps_aggregates(self):
        worker = Telemetry(events=EventLog(pid=77, tid=1))
        with worker.span("s"):
            worker.count("c")
        parent = Telemetry()
        parent.merge(worker.snapshot())
        assert parent.counters == {"c": 1}
        assert parent.spans["s"][1] == 1

    def test_merge_order_of_event_streams(self):
        """Events from workers land in merge order — the export is
        track-separated by pid, so inter-worker order is cosmetic, but
        it must at least be deterministic."""
        snaps = []
        for pid in (11, 12, 13):
            w = Telemetry(events=EventLog(pid=pid, tid=1))
            with w.span("s"):
                pass
            snaps.append(w.snapshot())
        for perm in itertools.permutations(range(3)):
            parent = Telemetry(events=EventLog(pid=1, tid=1))
            for i in perm:
                parent.merge(snaps[i])
            pids = [e["pid"] for e in parent.events.snapshot()]
            assert pids == [snaps[i]["events"][0]["pid"] for i in perm]
