"""Sampling profiler (:mod:`repro.obs.sampling`).

Attribution is tested deterministically where possible (label
formatting, folding, null behavior) and with a bounded poll where the
real interpreter must be observed mid-flight: a worker thread runs the
workload in a loop while the test thread calls ``sample_once`` until an
IR-attributed sample lands.
"""

import threading
import time

import pytest

from repro.errors import VectraError
from repro.frontend import compile_source
from repro.interp.interpreter import run_module
from repro.obs import Run, current_run, use_run
from repro.obs.sampling import (
    DEFAULT_SAMPLE_HZ,
    NULL_SAMPLER,
    NullSampler,
    SamplingProfiler,
)

WORKLOAD = """
float A[64]; float B[64]; float C[64];
int main() {
    int i; int r;
    for (i = 0; i < 64; i = i + 1) {
        A[i] = i * 1.5; B[i] = i - 3.0;
    }
    for (r = 0; r < 40; r = r + 1) {
        for (i = 0; i < 64; i = i + 1) {
            C[i] = C[i] + A[i] * B[i] - C[i] * 0.25;
        }
    }
    return i + r;
}
"""


class TestConstruction:
    def test_rejects_nonpositive_hz(self):
        with pytest.raises(VectraError, match="--sample-hz"):
            SamplingProfiler(hz=0)
        with pytest.raises(VectraError, match="-5"):
            SamplingProfiler(hz=-5)

    def test_default_hz_is_prime(self):
        n = DEFAULT_SAMPLE_HZ
        assert n > 1
        assert all(n % d for d in range(2, int(n ** 0.5) + 1))


class TestNullSampler:
    def test_is_process_default(self):
        assert current_run().sampler is NULL_SAMPLER
        assert not NULL_SAMPLER.enabled

    def test_all_methods_noop(self):
        s = NullSampler()
        s.attach_module(object())
        s.start()
        assert s.sample_once() is False
        s.stop()
        assert s.folded_counts() == {}
        assert s.total_samples == 0 and s.ir_samples == 0


class TestActiveSampler:
    def test_use_run_scopes_and_restores(self):
        sampler = SamplingProfiler(hz=10)
        with use_run(Run(sampler=sampler)):
            assert current_run().sampler is sampler
        assert current_run().sampler is NULL_SAMPLER

    def test_run_without_sampler_is_null_scope(self):
        with use_run(Run()):
            assert current_run().sampler is NULL_SAMPLER


class TestSampling:
    def test_own_thread_sample_captures_python_stack(self):
        sampler = SamplingProfiler(hz=10)

        def here():
            return sampler.sample_once(threading.get_ident())

        assert here() is True
        assert sampler.total_samples == 1
        folded = sampler.folded_counts()
        assert len(folded) == 1
        (stack, n), = folded.items()
        assert n == 1
        frames = stack.split(";")
        # leaf-most frames name this test file and function
        assert any(f == "test_sampling:here" for f in frames)
        assert frames[-1].startswith(("test_sampling:", "sampling:"))

    def test_sample_of_dead_thread_returns_false(self):
        sampler = SamplingProfiler(hz=10)
        assert sampler.sample_once(-12345) is False
        assert sampler.total_samples == 0

    def test_start_stop_lifecycle(self):
        sampler = SamplingProfiler(hz=200)
        sampler.start()
        time.sleep(0.05)
        sampler.stop()
        sampler.stop()  # idempotent
        assert sampler.total_samples >= 1

    def test_ir_attribution_names_real_loop_and_sid(self):
        """The acceptance property: samples taken while the interpreter
        runs carry ``[ir]`` frames naming a real (loop, sid)."""
        module = compile_source(WORKLOAD)
        sampler = SamplingProfiler(hz=10)
        sampler.attach_module(module)
        stop = threading.Event()

        def busy():
            while not stop.is_set():
                run_module(module)

        worker = threading.Thread(target=busy, daemon=True)
        worker.start()
        try:
            deadline = time.monotonic() + 20.0
            while (sampler.ir_samples < 3
                   and time.monotonic() < deadline):
                sampler.sample_once(worker.ident)
                time.sleep(0.001)
        finally:
            stop.set()
            worker.join()
        assert sampler.ir_samples >= 3, "no IR-attributed sample in 20s"
        folded = sampler.folded_counts()
        ir_stacks = [k for k in folded if "[ir] loop " in k]
        assert ir_stacks, folded
        # loop frames resolve against the module: "loop {name} (L{id})"
        names = {info.name for info in module.loops.values()}
        assert any(any(f"loop {name} (L" in k for name in names)
                   for k in ir_stacks)
        # and at least one sample reached instruction (sid) or compiled
        # batch granularity below the loop frame
        assert any(("] sid " in k) or (" sid " in k)
                   or ("compiled batch" in k) for k in folded)

    def test_unresolved_ids_fold_without_module(self):
        sampler = SamplingProfiler(hz=10)
        frames = sampler._ir_frames(("step", 3, 17))
        assert frames == ("[ir] loop L3", "[ir] sid 17")
        assert sampler._ir_frames(("batch", 2, None)) == (
            "[ir] loop L2", "[ir] compiled batch (L2)")
        assert sampler._ir_frames(None) == ()

    def test_sid_label_resolves_opcode_and_line(self):
        module = compile_source(WORKLOAD)
        sampler = SamplingProfiler(hz=10)
        sampler.attach_module(module)
        loop_id, info = next(iter(module.loops.items()))
        label = sampler._loop_label(loop_id)
        assert label == f"[ir] loop {info.name} (L{loop_id})"
        # any real sid resolves to "[ir] {op} sid {sid} line {line}"
        first = module.instruction(0)
        text = sampler._sid_label(first.sid)
        assert text.startswith("[ir] ")
        assert f"sid {first.sid}" in text
        assert "line" in text


class TestWorkerSamplesMerge:
    def test_folded_tables_merge_like_counters(self):
        from repro.obs import Telemetry

        a = SamplingProfiler(hz=10)
        b = SamplingProfiler(hz=10)
        ident = threading.get_ident()
        a.sample_once(ident)
        a.sample_once(ident)
        b.sample_once(ident)
        tel = Telemetry()
        tel.add_samples(a.folded_counts())
        tel.add_samples(b.folded_counts())
        assert sum(tel.samples.values()) == 3
