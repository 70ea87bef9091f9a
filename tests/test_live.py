"""Live observability (:mod:`repro.obs.live`).

Covers the status bus (counter/sampler merge, monotonicity across
stage boundaries), the ticker's frame stream (shape, seq, rates, the
final ``done`` frame), the stall watchdog (stalled vs. died, recovery,
clean retirement), the ``vectra watch`` reader's tolerance for
truncated files, and a real-pool stall injection through
:func:`suspend_worker_heartbeat`.
"""

import io
import json
import multiprocessing
import os
import queue
import time

import pytest

from repro.errors import VectraError
from repro.obs import EventLog, Run, Telemetry, current_run, use_run
from repro.obs.live import (
    LIVE_SCHEMA,
    NULL_STATUS_BUS,
    PROGRESS_KEYS,
    StatusBus,
    StatusTicker,
    WorkerStallWarning,
    read_frames,
    render_dashboard,
    render_progress_line,
    suspend_worker_heartbeat,
    validate_frames,
)
from repro.obs.run import init_worker


def make_clock(start=0.0):
    """A fake monotonic clock: ``clock()`` reads, ``clock.advance(s)``
    moves time forward."""
    state = {"t": start}

    def clock():
        return state["t"]

    clock.advance = lambda s: state.__setitem__("t", state["t"] + s)
    return clock


class TestStatusBus:
    def test_count_accumulates(self):
        bus = StatusBus(clock=make_clock())
        bus.count("loops")
        bus.count("loops", 2)
        assert bus.sample()["loops"] == 3

    def test_sampler_merges_into_counter(self):
        bus = StatusBus(clock=make_clock())
        bus.count("records", 10)
        executed = {"n": 5}
        bus.track("records", lambda: executed["n"])
        assert bus.sample()["records"] == 15
        executed["n"] = 7
        assert bus.sample()["records"] == 17

    def test_untrack_folds_final_reading(self):
        """Progress must not move backward when a stage's sampler goes
        away — untrack folds the last reading into the counter."""
        bus = StatusBus(clock=make_clock())
        bus.track("records", lambda: 42)
        assert bus.sample()["records"] == 42
        bus.untrack("records", final=42)
        assert bus.sample()["records"] == 42

    def test_retrack_replaces_sampler(self):
        bus = StatusBus(clock=make_clock())
        bus.track("records", lambda: 1)
        bus.track("records", lambda: 9)
        assert bus.sample()["records"] == 9

    def test_broken_sampler_is_benign(self):
        bus = StatusBus(clock=make_clock())

        def boom():
            raise RuntimeError("stage ended")

        bus.track("records", boom)
        bus.count("loops")
        assert bus.sample() == {"loops": 1}

    def test_totals_phase_and_spill_dirs(self):
        bus = StatusBus(clock=make_clock())
        bus.set_total("loops", 4)
        bus.phase("profile")
        bus.note_spill_dir("/tmp/a")
        bus.note_spill_dir("/tmp/a")  # deduped
        bus.note_spill_dir("/tmp/b")
        assert bus.totals["loops"] == 4
        assert bus.phase_name == "profile"
        assert bus.spill_dirs == ["/tmp/a", "/tmp/b"]

    def test_elapsed_uses_injected_clock(self):
        clock = make_clock(100.0)
        bus = StatusBus(clock=clock)
        clock.advance(2.5)
        assert bus.elapsed() == pytest.approx(2.5)


class TestActiveBus:
    def test_default_is_null(self):
        assert current_run().bus is NULL_STATUS_BUS
        assert not current_run().bus.enabled

    def test_use_restores_previous(self):
        bus = StatusBus(clock=make_clock())
        with use_run(Run(bus=bus)):
            assert current_run().bus is bus
        assert current_run().bus is NULL_STATUS_BUS

    def test_null_bus_api_is_noop(self):
        bus = NULL_STATUS_BUS
        bus.count("records", 5)
        bus.set_total("loops", 3)
        bus.track("records", lambda: 1)
        bus.untrack("records", 1)
        bus.phase("profile")
        bus.note_spill_dir("/tmp/x")
        bus.retire_workers()
        assert not hasattr(bus, "counters")


def _seed_worker(bus, pid, ts, state="ok"):
    bus.workers[pid] = {"ts": ts, "state": state}


class TestWatchdog:
    def test_stalled_worker_warns_and_counts(self, monkeypatch):
        monkeypatch.setattr("repro.obs.live._pid_alive", lambda pid: True)
        bus = StatusBus(clock=make_clock())
        _seed_worker(bus, 4242, ts=100.0)
        with pytest.warns(WorkerStallWarning,
                          match=r"worker 4242 stalled: no heartbeat for "
                                r"5\.0s \(stall-timeout 1\.0s\)"):
            flagged = bus.check_stalls(1.0, now=105.0)
        assert bus.stalls == 1
        assert bus.workers[4242]["state"] == "stalled"
        assert flagged == [{"pid": 4242, "age_s": 5.0, "alive": True,
                            "state": "stalled"}]

    def test_dead_worker_reported_as_died(self, monkeypatch):
        monkeypatch.setattr("repro.obs.live._pid_alive", lambda pid: False)
        bus = StatusBus(clock=make_clock())
        _seed_worker(bus, 777, ts=50.0)
        with pytest.warns(WorkerStallWarning,
                          match=r"worker 777 died: process gone, last "
                                r"heartbeat 10\.0s ago"):
            bus.check_stalls(2.0, now=60.0)
        assert bus.workers[777]["state"] == "dead"
        assert bus.stalls == 1

    def test_flagged_worker_not_reflagged(self, monkeypatch):
        monkeypatch.setattr("repro.obs.live._pid_alive", lambda pid: True)
        bus = StatusBus(clock=make_clock())
        _seed_worker(bus, 1, ts=0.0)
        with pytest.warns(WorkerStallWarning):
            bus.check_stalls(1.0, now=10.0)
        assert bus.check_stalls(1.0, now=20.0) == []
        assert bus.stalls == 1

    def test_fresh_heartbeat_not_flagged(self):
        bus = StatusBus(clock=make_clock())
        _seed_worker(bus, 1, ts=99.5)
        assert bus.check_stalls(1.0, now=100.0) == []
        assert bus.stalls == 0

    def test_stall_mirrored_into_telemetry(self, monkeypatch):
        monkeypatch.setattr("repro.obs.live._pid_alive", lambda pid: True)
        log = EventLog()
        tel = Telemetry(events=log)
        bus = StatusBus(clock=make_clock())
        _seed_worker(bus, 9, ts=0.0)
        with pytest.warns(WorkerStallWarning):
            bus.check_stalls(1.0, tel=tel, now=5.0)
        assert tel.counters["live.stalls"] == 1
        inst = [e for e in log.snapshot()
                if e.get("name") == "live.worker_stall"]
        assert len(inst) == 1
        assert inst[0]["args"]["pid"] == 9
        assert inst[0]["args"]["alive"] is True

    def test_heartbeat_recovers_stalled_worker(self):
        bus = StatusBus(clock=make_clock())
        _seed_worker(bus, 5, ts=0.0, state="stalled")
        bus._hb_queue = queue.Queue()
        bus._hb_queue.put((5, 200.0))
        bus.drain_heartbeats()
        worker = bus.workers[5]
        assert worker["state"] == "ok"
        assert worker["ts"] == 200.0

    def test_late_heartbeat_never_resurrects_done_worker(self):
        """Beats queued before a clean pool shutdown must not flip a
        retired worker back to ok — the watchdog would later report the
        exited pid as a death."""
        bus = StatusBus(clock=make_clock())
        _seed_worker(bus, 5, ts=0.0, state="done")
        bus._hb_queue = queue.Queue()
        bus._hb_queue.put((5, 200.0))
        bus.drain_heartbeats()
        assert bus.workers[5]["state"] == "done"
        assert bus.workers[5]["ts"] == 200.0  # the final beat still lands

    def test_retire_marks_ok_and_stalled_done(self):
        bus = StatusBus(clock=make_clock())
        _seed_worker(bus, 1, ts=0.0, state="ok")
        _seed_worker(bus, 2, ts=0.0, state="stalled")
        _seed_worker(bus, 3, ts=0.0, state="dead")
        bus.retire_workers()
        assert bus.workers[1]["state"] == "done"
        assert bus.workers[2]["state"] == "done"
        assert bus.workers[3]["state"] == "dead"

    def test_retired_worker_not_flagged(self):
        bus = StatusBus(clock=make_clock())
        _seed_worker(bus, 1, ts=0.0, state="done")
        assert bus.check_stalls(1.0, now=1000.0) == []
        assert bus.stalls == 0

    def test_worker_rows_sorted_with_ages(self):
        bus = StatusBus(clock=make_clock())
        _seed_worker(bus, 20, ts=99.0)
        _seed_worker(bus, 10, ts=98.0)
        rows = bus.worker_rows(now=100.0)
        assert [r["pid"] for r in rows] == [10, 20]
        assert rows[0]["age_s"] == pytest.approx(2.0)
        assert rows[1] == {"pid": 20, "age_s": 1.0, "state": "ok"}


class TestStatusTicker:
    def _ticker(self, bus=None, **kw):
        clock = kw.pop("clock", make_clock())
        bus = bus or StatusBus(clock=clock)
        stream = kw.pop("stream", io.StringIO())
        ticker = StatusTicker(Run(bus=bus, command="analyze"),
                              interval=0.5, stall_timeout=30.0,
                              stream=stream, clock=clock, **kw)
        return ticker, bus, stream, clock

    def test_frame_shape(self):
        ticker, bus, _, _ = self._ticker()
        bus.count("records", 100)
        bus.set_total("loops", 2)
        bus.phase("profile")
        frame = ticker.tick()
        assert frame["schema"] == LIVE_SCHEMA
        assert frame["seq"] == 0
        assert frame["event"] == "tick"
        assert frame["command"] == "analyze"
        assert frame["phase"] == "profile"
        assert set(frame["progress"]) == set(PROGRESS_KEYS)
        assert frame["progress"]["records"] == {"done": 100, "total": None}
        assert frame["progress"]["loops"] == {"done": 0, "total": 2}
        assert set(frame["rates"]) >= {"records_per_s", "loops_per_s",
                                       "eta_s"}
        assert set(frame["resources"]) == {"rss_kb", "spill_dir_bytes",
                                           "open_segments",
                                           "profiler_samples",
                                           "monitor_port"}
        assert frame["resources"]["rss_kb"] is None or \
            frame["resources"]["rss_kb"] > 0
        assert frame["workers"] == []
        assert frame["stalls"] == 0
        assert "exit_code" not in frame

    def test_seq_increases_and_stream_is_jsonl(self):
        ticker, bus, stream, _ = self._ticker()
        ticker.tick()
        bus.count("loops")
        ticker.tick()
        lines = stream.getvalue().strip().split("\n")
        assert len(lines) == 2
        frames = [json.loads(line) for line in lines]
        assert [f["seq"] for f in frames] == [0, 1]
        assert frames[1]["progress"]["loops"]["done"] == 1

    def test_rates_and_eta(self):
        ticker, bus, _, clock = self._ticker()
        bus.set_total("loops", 10)
        ticker.tick()
        clock.advance(1.0)
        bus.count("loops", 2)
        frame = ticker.tick()
        # first rate observation: 2 loops / 1 s, 8 remaining -> 4 s
        assert frame["rates"]["loops_per_s"] == pytest.approx(2.0)
        assert frame["rates"]["eta_s"] == pytest.approx(4.0)

    def test_eta_falls_back_to_records_vs_fuel(self):
        ticker, bus, _, clock = self._ticker()
        bus.set_total("records", 1000)
        ticker.tick()
        clock.advance(1.0)
        bus.count("records", 100)
        frame = ticker.tick()
        assert frame["rates"]["eta_s"] == pytest.approx(9.0)

    def test_eta_none_without_total(self):
        ticker, bus, _, clock = self._ticker()
        ticker.tick()
        clock.advance(1.0)
        bus.count("records", 50)
        assert ticker.tick()["rates"]["eta_s"] is None

    def test_eta_zero_when_complete(self):
        ticker, bus, _, clock = self._ticker()
        bus.set_total("loops", 2)
        ticker.tick()
        clock.advance(1.0)
        bus.count("loops", 2)
        assert ticker.tick()["rates"]["eta_s"] == 0.0

    def test_close_emits_done_frame_and_is_idempotent(self):
        ticker, _, stream, _ = self._ticker()
        ticker.tick()
        ticker.close(exit_code=3)
        ticker.close(exit_code=0)  # idempotent: no second done frame
        frames = [json.loads(line)
                  for line in stream.getvalue().strip().split("\n")]
        assert frames[-1]["event"] == "done"
        assert frames[-1]["exit_code"] == 3
        assert sum(1 for f in frames if f["event"] == "done") == 1

    def test_progress_stream_repaints_one_line(self):
        err = io.StringIO()
        ticker, bus, _, _ = self._ticker(progress_stream=err)
        bus.count("records", 12345)
        ticker.tick()
        painted = err.getvalue()
        assert painted.startswith("\r")
        assert "[analyze]" in painted
        assert "\n" not in painted  # repaint, not scroll

    def test_bad_interval_rejected(self):
        bus = StatusBus(clock=make_clock())
        with pytest.raises(VectraError, match="--status-interval"):
            StatusTicker(Run(bus=bus), interval=0.0, stream=io.StringIO())
        with pytest.raises(VectraError, match="--stall-timeout"):
            StatusTicker(Run(bus=bus), interval=1.0, stall_timeout=-1.0,
                         stream=io.StringIO())

    def test_bad_fd_target_rejected(self):
        bus = StatusBus(clock=make_clock())
        with pytest.raises(VectraError, match="fd:N"):
            StatusTicker(Run(bus=bus), path="fd:notanint")

    def test_unwritable_path_rejected(self, tmp_path):
        bus = StatusBus(clock=make_clock())
        with pytest.raises(VectraError, match="cannot write status frames"):
            StatusTicker(Run(bus=bus),
                         path=str(tmp_path / "missing" / "st.jsonl"))

    def test_real_thread_ticks_and_closes(self, tmp_path):
        path = tmp_path / "st.jsonl"
        bus = StatusBus()
        ticker = StatusTicker(Run(bus=bus, command="analyze"),
                              interval=0.02, path=str(path))
        ticker.start()
        bus.count("loops")
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if path.exists() and path.read_text().count("\n") >= 2:
                break
            time.sleep(0.01)
        ticker.close(exit_code=0)
        frames = read_frames(str(path))
        validate_frames(frames, source="thread test")
        assert not ticker.is_alive()


class TestFrameReader:
    def _write_stream(self, tmp_path, tail=""):
        bus = StatusBus(clock=make_clock())
        ticker = StatusTicker(Run(bus=bus, command="analyze"),
                              stream=io.StringIO(), clock=make_clock())
        lines = []
        for i in range(3):
            bus.count("loops")
            event = "done" if i == 2 else "tick"
            frame = ticker.tick(event=event,
                                exit_code=0 if event == "done" else None)
            lines.append(json.dumps(frame, sort_keys=True,
                                    separators=(",", ":")))
        path = tmp_path / "st.jsonl"
        path.write_text("\n".join(lines) + "\n" + tail)
        return path

    def test_round_trip_validates(self, tmp_path):
        path = self._write_stream(tmp_path)
        frames = read_frames(str(path))
        assert len(frames) == 3
        validate_frames(frames)

    def test_partial_trailing_line_tolerated(self, tmp_path):
        path = self._write_stream(
            tmp_path, tail='{"schema":"vectra.live/2","seq":3,"pro')
        frames = read_frames(str(path))
        assert len(frames) == 3

    def test_malformed_mid_file_line_named(self, tmp_path):
        path = self._write_stream(tmp_path)
        lines = path.read_text().strip().split("\n")
        lines.insert(1, "{definitely not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(VectraError, match=r"st\.jsonl:2: malformed"):
            read_frames(str(path))

    def test_unknown_schema_tag_rejected(self, tmp_path):
        path = tmp_path / "st.jsonl"
        path.write_text('{"schema":"vectra.live/99","seq":0}\n')
        with pytest.raises(VectraError,
                           match=r"unknown status-frame schema tag "
                                 r"'vectra\.live/99'"):
            read_frames(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(VectraError, match="cannot read status file"):
            read_frames(str(tmp_path / "nope.jsonl"))

    def test_empty_file_fails_validation(self, tmp_path):
        path = tmp_path / "st.jsonl"
        path.write_text("")
        with pytest.raises(VectraError, match="no status frames"):
            validate_frames(read_frames(str(path)), source="status file")

    def test_validation_rejects_missing_done(self, tmp_path):
        path = self._write_stream(tmp_path)
        frames = read_frames(str(path))[:-1]
        with pytest.raises(VectraError, match="never finished"):
            validate_frames(frames)

    def test_validation_rejects_backward_progress(self, tmp_path):
        path = self._write_stream(tmp_path)
        frames = read_frames(str(path))
        frames[-1]["progress"]["loops"]["done"] = 0
        with pytest.raises(VectraError, match="moved backward"):
            validate_frames(frames)

    def test_validation_rejects_nonincreasing_seq(self, tmp_path):
        path = self._write_stream(tmp_path)
        frames = read_frames(str(path))
        frames[1]["seq"] = frames[0]["seq"]
        with pytest.raises(VectraError, match="does not increase"):
            validate_frames(frames)

    def test_validation_rejects_missing_section(self, tmp_path):
        path = self._write_stream(tmp_path)
        frames = read_frames(str(path))
        del frames[0]["resources"]
        with pytest.raises(VectraError, match="'resources' section"):
            validate_frames(frames)


class TestRendering:
    def _frame(self, **over):
        bus = StatusBus(clock=make_clock())
        bus.count("records", 12_500)
        bus.set_total("loops", 4)
        bus.count("loops", 1)
        bus.phase("loop.fir_n")
        ticker = StatusTicker(Run(bus=bus, command="analyze"),
                              stream=io.StringIO(), clock=make_clock())
        frame = ticker.tick()
        frame.update(over)
        return frame

    def test_progress_line(self):
        line = self._frame()
        text = render_progress_line(line)
        assert "[analyze]" in text
        assert "loop.fir_n" in text
        assert "rec 12.5k" in text
        assert "loops 1/4" in text
        assert "\n" not in text

    def test_progress_line_flags_stalls_and_done(self):
        frame = self._frame(event="done", exit_code=2, stalls=3)
        text = render_progress_line(frame)
        assert "STALLS 3" in text
        assert "done (exit 2)" in text

    def test_dashboard_lists_workers(self):
        frame = self._frame()
        frame["workers"] = [{"pid": 123, "age_s": 0.4, "state": "ok"}]
        text = render_dashboard(frame)
        assert "phase loop.fir_n" in text
        assert "loops" in text and "/ 4" in text
        assert "worker     123" in text
        assert "hb 0.4s ago" in text


# -- real-pool stall injection ----------------------------------------------


def _fork_available():
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


def _stall_then_return(seconds):
    """Worker body: go silent (heartbeat suspended, process alive) for
    ``seconds`` — a wedged worker as the parent sees one — then finish
    normally."""
    suspend_worker_heartbeat(True)
    time.sleep(seconds)
    return os.getpid()


@pytest.mark.skipif(not _fork_available(),
                    reason="needs a fork-capable platform")
class TestPoolStallInjection:
    def test_stall_reported_without_aborting_run(self):
        from concurrent.futures import ProcessPoolExecutor

        bus = StatusBus(heartbeat_interval=0.05)
        spec = Run(bus=bus).worker_spec()
        with ProcessPoolExecutor(max_workers=1, initializer=init_worker,
                                 initargs=(spec,)) as pool:
            future = pool.submit(_stall_then_return, 1.2)
            # wait for the worker's first heartbeat
            deadline = time.time() + 10.0
            while time.time() < deadline and not bus.workers:
                bus.drain_heartbeats()
                time.sleep(0.02)
            assert bus.workers, "worker never heartbeat"
            pid = next(iter(bus.workers))
            # let the heartbeat go stale past the (short) stall timeout
            time.sleep(0.6)
            bus.drain_heartbeats()
            with pytest.warns(WorkerStallWarning,
                              match=rf"worker {pid} stalled"):
                flagged = bus.check_stalls(0.3)
            assert [f["pid"] for f in flagged] == [pid]
            assert bus.workers[pid]["state"] == "stalled"
            assert bus.stalls == 1
            # the run is NOT aborted: the wedged worker still finishes
            assert future.result(timeout=30) == pid
            bus.retire_workers()
        assert bus.workers[pid]["state"] == "done"

    def test_null_bus_means_no_heartbeat_channel(self):
        spec = Run().worker_spec()
        assert spec.channel is None
        # use_run restores this process's run after the worker setup.
        with use_run(current_run()):
            init_worker(spec)  # what a pool worker runs first
            assert current_run().bus is NULL_STATUS_BUS
            assert current_run().spec is spec
