"""The crash-forensics flight recorder: bundle capture, signal
handling, the autopsy renderer, and the CLI integration."""

import json
import logging
import os
import signal
import subprocess
import sys

import pytest

from repro.errors import VectraError
from repro.obs import EventLog, Run, Telemetry, current_run, use_run
from repro.obs.blackbox import (
    BLACKBOX_SCHEMA,
    FlightRecorder,
    load_blackbox,
    render_autopsy,
)
from repro.obs.live import StatusBus, StatusTicker
from repro.tools.cli import main


@pytest.fixture
def stack():
    """A run whose telemetry has an event ring, whose bus is mid-loop,
    and whose ticker retains one frame — the state a real crash would
    capture."""
    tel = Telemetry(events=EventLog())
    tel.count("interp.instructions", 500)
    tel.instant("loop.start", {"loop": "fir_n"})
    tel.instant("trace_store.spill", {"rows": 256})
    bus = StatusBus(heartbeat_interval=0.2)
    bus.phase("loop.fir_n")
    bus.count("records", 500)
    run = Run(tel=tel, bus=bus, command="analyze")
    run.ticker = StatusTicker(run, interval=60.0)
    run.ticker.tick()
    return run


class TestFlightRecorder:
    def _recorder(self, tmp_path, stack):
        path = str(tmp_path / "crash.json")
        return FlightRecorder(path, stack,
                              argv=["analyze", "utdsp_fir_array"]), path

    def test_exception_bundle_contents(self, tmp_path, stack):
        recorder, path = self._recorder(tmp_path, stack)
        try:
            raise ValueError("boom mid-loop")
        except ValueError as exc:
            assert recorder.record_exception(exc)
        bundle = load_blackbox(path)
        assert bundle["schema"] == BLACKBOX_SCHEMA
        assert bundle["pid"] == os.getpid()
        assert bundle["command"] == "analyze"
        assert bundle["argv"] == ["analyze", "utdsp_fir_array"]
        assert bundle["reason"]["kind"] == "exception"
        assert bundle["reason"]["type"] == "ValueError"
        assert bundle["reason"]["message"] == "boom mid-loop"
        assert any("boom mid-loop" in line
                   for line in bundle["reason"]["traceback"])
        assert bundle["phase"] == "loop.fir_n"
        assert bundle["active_loop"] == "fir_n"
        assert bundle["progress"]["records"] == 500
        assert [e["name"] for e in bundle["events"]] == \
            ["loop.start", "trace_store.spill"]
        assert len(bundle["frames"]) == 1
        assert bundle["frames"][0]["phase"] == "loop.fir_n"
        assert bundle["telemetry"]["counters"]["interp.instructions"] \
            == 500

    def test_first_reason_wins_and_write_is_atomic(self, tmp_path,
                                                   stack, caplog):
        recorder, path = self._recorder(tmp_path, stack)
        with caplog.at_level(logging.WARNING, logger="vectra.blackbox"):
            assert recorder.record_signal(signal.SIGTERM.value)
        try:
            raise RuntimeError("secondary failure during unwind")
        except RuntimeError as exc:
            assert not recorder.record_exception(exc)
        bundle = load_blackbox(path)
        assert bundle["reason"] == {"kind": "signal", "signal": "SIGTERM",
                                    "signum": int(signal.SIGTERM)}
        assert "blackbox bundle written" in caplog.text
        leftovers = [n for n in os.listdir(tmp_path) if ".tmp" in n]
        assert leftovers == []

    def test_notes_land_in_bundle(self, tmp_path, stack):
        recorder, path = self._recorder(tmp_path, stack)
        recorder.note("pool_failure", {"error": "OSError",
                                       "workers": [{"pid": 7}]})
        recorder.record_signal(signal.SIGINT.value)
        bundle = load_blackbox(path)
        assert bundle["notes"]["pool_failure"]["error"] == "OSError"

    def test_unwritable_path_does_not_mask_the_crash(self, stack,
                                                     capsys):
        recorder = FlightRecorder("/nonexistent-dir/crash.json", stack)
        try:
            raise ValueError("boom")
        except ValueError as exc:
            assert not recorder.record_exception(exc)
        assert "cannot write blackbox bundle" in capsys.readouterr().err

    def test_install_registers_and_uninstall_restores(self, tmp_path):
        prev_term = signal.getsignal(signal.SIGTERM)
        prev_int = signal.getsignal(signal.SIGINT)
        run = Run()
        run.recorder = FlightRecorder(str(tmp_path / "c.json"), run)
        run.recorder.install()
        try:
            assert signal.getsignal(signal.SIGTERM) != prev_term
        finally:
            run.close()
        assert run.recorder is None
        assert signal.getsignal(signal.SIGTERM) == prev_term
        assert signal.getsignal(signal.SIGINT) == prev_int

    def test_note_is_noop_without_recorder(self):
        assert current_run().recorder is None
        current_run().note("anything", {"x": 1})  # must not raise

    def test_minimal_recorder_without_observability(self, tmp_path):
        """A recorder of a run with no telemetry/bus/ticker still writes
        a valid (if sparse) bundle."""
        path = str(tmp_path / "bare.json")
        recorder = FlightRecorder(path, Run())
        recorder.record_signal(signal.SIGTERM.value)
        bundle = load_blackbox(path)
        assert bundle["phase"] is None
        assert bundle["events"] == []
        assert bundle["frames"] == []
        assert bundle["telemetry"] is None
        assert "argv" not in bundle


class TestLoadAndAutopsy:
    def test_load_missing_file(self, tmp_path):
        with pytest.raises(VectraError, match="cannot read"):
            load_blackbox(str(tmp_path / "nope.json"))

    def test_load_non_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json{")
        with pytest.raises(VectraError, match="not a JSON"):
            load_blackbox(str(path))

    def test_load_wrong_schema(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "vectra.live/1"}))
        with pytest.raises(VectraError, match="unknown blackbox schema"):
            load_blackbox(str(path))

    def test_autopsy_names_the_essentials(self, tmp_path, stack):
        path = str(tmp_path / "crash.json")
        recorder = FlightRecorder(path, stack)
        recorder.note("pool_failure", {"error": "OSError"})
        try:
            raise ValueError("boom mid-loop")
        except ValueError as exc:
            recorder.record_exception(exc)
        text = render_autopsy(load_blackbox(path))
        assert "died of     : unhandled ValueError: boom mid-loop" in text
        assert "stage       : loop.fir_n" in text
        assert "active loop : fir_n" in text
        assert "trace_store.spill" in text  # the event-ring tail
        assert "note[pool_failure]" in text
        assert "interp.instructions" in text
        assert "ValueError: boom mid-loop" in text  # the traceback

    def test_autopsy_renders_worker_rows(self):
        bundle = {
            "schema": BLACKBOX_SCHEMA, "command": "analyze", "pid": 1,
            "reason": {"kind": "signal", "signal": "SIGTERM",
                       "signum": 15},
            "phase": "loop.Q", "active_loop": "Q",
            "progress": {"records": 10}, "stalls": 1,
            "workers": [{"pid": 77, "state": "dead", "age_s": 12.5}],
            "events": [], "frames": [], "telemetry": None, "notes": {},
        }
        text = render_autopsy(bundle)
        assert "fatal signal SIGTERM" in text
        assert "pid      77" in text
        assert "dead" in text
        assert "hb 12.5s ago" in text


class TestPipelinePoolFailureNote:
    def test_pool_failure_is_noted_for_the_bundle(self, tmp_path,
                                                  monkeypatch):
        import repro.analysis.pipeline as pipeline_mod
        from repro.frontend import compile_source

        src = """
double A[16];
int main() {
  int i;
  P: for (i = 0; i < 16; i++) A[i] = (double)i * 2.0;
  Q: for (i = 0; i < 16; i++) A[i] = A[i] + 1.0;
  return 0;
}
"""

        class BrokenPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(pipeline_mod, "ProcessPoolExecutor",
                            BrokenPool)
        run = Run()
        recorder = run.recorder = FlightRecorder(str(tmp_path / "c.json"),
                                                 run).install()
        try:
            module = compile_source(src)
            with use_run(run):
                pipeline_mod.run_loop_analyses(module, ["P", "Q"], jobs=2)
        finally:
            run.close()
        note = recorder.notes["pool_failure"]
        assert note["error"] == "OSError"
        assert "semaphores" in note["detail"]
        assert note["loops"] == ["P", "Q"]


def _fatal_handlers():
    """The process's SIGTERM and SIGINT handlers, which an installed
    recorder replaces with its own."""
    return [signal.getsignal(signum)
            for signum in (signal.SIGTERM, signal.SIGINT)]


class TestBlackboxCLI:
    def test_unhandled_exception_writes_bundle(self, tmp_path, capsys,
                                               monkeypatch):
        import repro.tools.cli as cli_mod

        handlers = _fatal_handlers()
        seen = []

        def exploding(args):
            seen.append(_fatal_handlers())
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(cli_mod, "_cmd_list", exploding)
        path = str(tmp_path / "crash.json")
        # build_parser captured _cmd_list by reference at set_defaults
        # time, so rebuild the parser through main with the patched one.
        with pytest.raises(RuntimeError, match="synthetic crash"):
            main(["list", "--blackbox", path])
        capsys.readouterr()
        bundle = load_blackbox(path)
        assert bundle["reason"]["type"] == "RuntimeError"
        assert bundle["command"] == "list"
        # The recorder trapped the fatal signals during the command, and
        # main's finally restored the previous handlers.
        assert seen[0] != handlers
        assert _fatal_handlers() == handlers

    def test_clean_run_leaves_no_bundle(self, tmp_path, capsys,
                                        monkeypatch):
        import repro.tools.cli as cli_mod

        handlers = _fatal_handlers()
        seen = []
        cmd_list = cli_mod._cmd_list

        def listing(args):
            seen.append(_fatal_handlers())
            return cmd_list(args)

        monkeypatch.setattr(cli_mod, "_cmd_list", listing)
        path = str(tmp_path / "crash.json")
        code = main(["list", "--blackbox", path])
        capsys.readouterr()
        assert code == 0
        assert not os.path.exists(path)
        assert seen[0] != handlers
        assert _fatal_handlers() == handlers

    def test_autopsy_subcommand(self, tmp_path, capsys, stack):
        path = str(tmp_path / "crash.json")
        recorder = FlightRecorder(path, stack)
        recorder.record_signal(signal.SIGTERM.value)
        code = main(["autopsy", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "fatal signal SIGTERM" in out
        assert "active loop : fir_n" in out

    def test_autopsy_rejects_non_bundle(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text("{}")
        code = main(["autopsy", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "unknown blackbox schema" in err

    def test_sigterm_subprocess_leaves_autopsy_able_bundle(self,
                                                           tmp_path):
        """The acceptance path: SIGTERM a real run mid-loop and autopsy
        what it left behind."""
        bundle_path = str(tmp_path / "crash.json")
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = repo_src
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.cli", "analyze",
             "utdsp_fir_array", "-p", "nout=256", "-p", "ntap=128",
             "--spill-dir", str(tmp_path / "spill"),
             "--segment-rows", "256",
             "--blackbox", bundle_path,
             "--status-interval", "0.1"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            import time

            deadline = time.time() + 30.0
            spill = tmp_path / "spill"
            # Wait until the run is demonstrably mid-loop: a spilled
            # segment exists only once the recorder is installed and a
            # loop is being traced.
            while not any(spill.glob("*/segment-*.vseg")):
                if proc.poll() is not None:
                    pytest.fail("run finished before SIGTERM landed; "
                                "enlarge the workload")
                if time.time() > deadline:
                    pytest.fail("no segment spilled within 30 s")
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert rc == -signal.SIGTERM  # killed by SIGTERM, as without
        bundle = load_blackbox(bundle_path)
        assert bundle["reason"] == {"kind": "signal",
                                    "signal": "SIGTERM",
                                    "signum": int(signal.SIGTERM)}
        text = render_autopsy(bundle)
        assert "fatal signal SIGTERM" in text
        assert bundle["phase"] is not None
