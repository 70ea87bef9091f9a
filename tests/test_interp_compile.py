"""Trace-replay compilation (:mod:`repro.interp.compile`).

The contract under test is *bit-identity*: with the compiler on, every
observable artifact — trace columns, segment-store bytes, DDG, sink
stats, loop reports, profile counts, fuel accounting — must equal the
step-interpreter run exactly, in both the in-RAM and spilled trace
stores.  On top of that: kernel lifecycle (hotness threshold, caching,
rejection, retirement), mid-batch deoptimization, and telemetry.
"""

import random

import pytest

from repro.analysis.pipeline import analyze_program
from repro.errors import FuelExhaustedError, InterpError, MemoryError_
from repro.frontend import compile_source
from repro.interp.compile import (
    MIN_USEFUL_CALLS,
    REJECTED,
    LoopKernel,
    TraceCompiler,
)
from repro.interp.interpreter import Interpreter
from repro.obs import Run, Telemetry, use_run
from repro.trace.columnar import ColumnarLoopSink, ColumnarSink

STENCIL = """
float A[64]; float B[64]; float C[64];
int main() {
    int i; int r;
    for (i = 0; i < 64; i = i + 1) {
        A[i] = i * 1.5; B[i] = i - 3.0;
    }
    for (r = 0; r < 5; r = r + 1) {
        for (i = 0; i < 64; i = i + 1) {
            C[i] = C[i] + A[i] * B[i] - C[i] * 0.25;
        }
    }
    return i + r;
}
"""

BRANCHY = """
float A[64]; float C[64]; int K[64];
int main() {
    int i; int r; float acc;
    for (i = 0; i < 64; i = i + 1) { A[i] = i * 1.5; K[i] = i - 32; }
    acc = 0.0;
    for (r = 0; r < 6; r = r + 1) {
        for (i = 0; i < 64; i = i + 1) {
            if (K[i] < 0) { C[i] = A[i] * 2.0; }
            else { C[i] = A[i] - acc; }
            acc = acc + C[i];
        }
    }
    return r;
}
"""

REDUCTION = """
double A[96]; double total;
int main() {
    int i; double s;
    for (i = 0; i < 96; i = i + 1) { A[i] = (double)i * 0.5; }
    s = 0.0;
    for (i = 0; i < 96; i = i + 1) { s = s + A[i] * A[i]; }
    total = s;
    return 0;
}
"""


def _cols(sink):
    """The sink's columns, flattened to lists and dicts."""
    cols = sink.columns()
    return (cols.sids.tolist(), cols.opcodes.tolist(),
            cols.dep_counts.tolist(), cols.dep_flat.tolist(), sink.runs,
            sink.loop_breaks, sink.marker_rows, cols.addr_map(),
            cols.mem_map(), sink.store_map)


def _run(src, compile_loops, sink_factory=ColumnarSink, threshold=4,
         fuel=500_000_000):
    """Run mini-C source (or an already compiled module) to completion
    or to fuel exhaustion."""
    module = compile_source(src) if isinstance(src, str) else src
    sink = sink_factory()
    interp = Interpreter(module, sink=sink, fuel=fuel,
                         compile_loops=compile_loops,
                         compile_threshold=threshold)
    err = None
    try:
        rv = interp.run("main", ())
    except FuelExhaustedError as exc:
        rv, err = None, str(exc)
    return rv, interp, sink, err


class TestBitIdentity:
    @pytest.mark.parametrize("src", [STENCIL, BRANCHY, REDUCTION],
                             ids=["stencil", "branchy", "reduction"])
    def test_columns_and_counters_match_step_run(self, src):
        rv0, i0, s0, _ = _run(src, False)
        rv1, i1, s1, _ = _run(src, True)
        assert rv0 == rv1
        assert i0.executed_instructions == i1.executed_instructions
        assert i0.op_counts == i1.op_counts
        assert i0.loop_iter_hist == i1.loop_iter_hist
        assert _cols(s0) == _cols(s1)
        assert s0.stats() == s1.stats()
        assert any(isinstance(k, LoopKernel)
                   for k in i1._compiler.kernels.values())

    def test_ddg_identical_before_any_flush(self):
        # to_ddg straight after the run: the batches' array chunks and
        # the stepped rows' buffer meet first in columns().
        _, _, s0, _ = _run(STENCIL, False)
        _, _, s1, _ = _run(STENCIL, True)
        d0, d1 = s0.to_ddg(), s1.to_ddg()
        assert d0.sids.tolist() == d1.sids.tolist()
        assert d0.opcodes.tolist() == d1.opcodes.tolist()
        assert d0.addrs == d1.addrs
        assert d0.mem_addrs.tolist() == d1.mem_addrs.tolist()
        assert d0.store_addrs.tolist() == d1.store_addrs.tolist()
        assert list(d0.pred_indices) == list(d1.pred_indices)
        assert list(d0.pred_offsets) == list(d1.pred_offsets)
        # The columns survive the build: a second build and a second
        # read of the columns both still see every sparse entry.
        d2 = s1.to_ddg()
        assert d2.addrs == d1.addrs
        assert d2.mem_addrs.tolist() == d1.mem_addrs.tolist()
        assert _cols(s1) == _cols(s0)

    def test_serialized_trace_bytes_identical(self, tmp_path):
        """The segment store a compiled run writes equals the step run's
        byte for byte: manifest and every segment file."""
        from repro.trace.store import MANIFEST_NAME, SegmentedSink

        stores = []
        for compile_loops in (False, True):
            d = tmp_path / str(compile_loops)
            _run(BRANCHY, compile_loops,
                 lambda: SegmentedSink(str(d), segment_rows=64))[2].finish()
            stores.append({f.name: f.read_bytes() for f in d.iterdir()})
        assert MANIFEST_NAME in stores[0]
        assert len(stores[0]) > 2
        assert stores[0] == stores[1]

    def test_windowed_sink_identical(self):
        _, i0, s0, _ = _run(BRANCHY, False,
                            lambda: ColumnarLoopSink(2, {1, 3}))
        _, i1, s1, _ = _run(BRANCHY, True,
                            lambda: ColumnarLoopSink(2, {1, 3}))
        assert s0.spans_recorded == s1.spans_recorded == 2
        assert _cols(s0) == _cols(s1)
        assert i0.op_counts == i1.op_counts

    def test_spilled_store_identical(self, tmp_path):
        from repro.trace.store import SegmentedSink

        def seg(sub):
            d = tmp_path / sub
            d.mkdir()
            return lambda: SegmentedSink(str(d), segment_rows=128)

        _, _, sa, _ = _run(BRANCHY, False, seg("step"))
        _, _, sb, _ = _run(BRANCHY, True, seg("comp"))
        sta, stb = sa.finish(), sb.finish()
        ma, mb = dict(sta.manifest), dict(stb.manifest)
        assert ma["segments"] == mb["segments"]
        da, db = sta.to_ddg(), stb.to_ddg()
        assert da.sids.tolist() == db.sids.tolist()
        assert list(da.pred_indices) == list(db.pred_indices)
        assert list(da.store_addrs) == list(db.store_addrs)
        assert list(da.mem_addrs) == list(db.mem_addrs)


class TestFuelAccounting:
    def test_exhaustion_at_identical_record_index(self):
        base = _run(BRANCHY, False)[1].executed_instructions
        for fuel in (1500, 1501, 1502, base - 1, base):
            _, ia, sa, ea = _run(BRANCHY, False, fuel=fuel)
            _, ib, sb, eb = _run(BRANCHY, True, fuel=fuel)
            assert (ea is None) == (eb is None), fuel
            assert ia.executed_instructions == ib.executed_instructions
            assert _cols(sa) == _cols(sb), f"fuel={fuel}"
            assert ia.op_counts == ib.op_counts


class TestKernelLifecycle:
    def test_threshold_gates_compilation(self):
        _, interp, _, _ = _run(STENCIL, True, threshold=10_000)
        assert not any(isinstance(k, LoopKernel)
                       for k in interp._compiler.kernels.values())
        _, interp, _, _ = _run(STENCIL, True, threshold=4)
        kernels = [k for k in interp._compiler.kernels.values()
                   if isinstance(k, LoopKernel)]
        assert kernels
        # Kernels are cached and re-dispatched, not rebuilt per batch.
        assert all(k.calls >= 1 for k in kernels)

    def test_loop_with_call_rejected(self):
        src = """
float A[64];
float f(float x) { return x * 2.0; }
int main() {
    int i; int r;
    for (r = 0; r < 4; r = r + 1) {
        for (i = 0; i < 64; i = i + 1) { A[i] = f(A[i] + 1.0); }
    }
    return 0;
}
"""
        rv0, i0, s0, _ = _run(src, False)
        rv1, i1, s1, _ = _run(src, True)
        assert REJECTED in i1._compiler.kernels.values()
        assert _cols(s0) == _cols(s1)

    def test_short_trip_nested_loops_outer_rejected_inner_kept(self):
        # The outer loop records a nested LOOP_ENTER and is permanently
        # rejected.  The inner 2-trip loop compiles (its recording spans
        # the two backedges of one entry); from then on each instance
        # dispatches its kernel at loop entry and batches both of its
        # iterations, so the kernel earns its keep and is never
        # retired.  The trace stays bit-identical throughout.
        from repro.obs import EventLog

        src = """
float A[8];
int main() {
    int i; int r;
    for (r = 0; r < 64; r = r + 1) {
        for (i = 0; i < 2; i = i + 1) { A[i] = A[i] + 1.0; }
    }
    return 0;
}
"""
        _, i0, s0, _ = _run(src, False)
        log = EventLog(capacity=4096)
        with use_run(Run(tel=Telemetry(events=log))):
            _, i1, s1, _ = _run(src, True)
        assert _cols(s0) == _cols(s1)
        comp = i1._compiler
        rejected = [e["args"] for e in log.snapshot()
                    if e["name"] == "compile.kernel.rejected"]
        assert rejected == [{"loop": 0, "reason": "nested loop"}]
        assert comp.kernels[0] is REJECTED
        inner = comp.kernels[1]
        assert isinstance(inner, LoopKernel)
        # The dispatch right after the build finds no third iteration;
        # every later instance batches both of its iterations at entry.
        assert inner.gained == 2 * (inner.calls - 1)
        # The straddled first recording is counted as a failure strike.
        assert comp._fails and max(comp._fails.values()) >= 1

    def test_profile_run_uses_non_recording_kernel(self):
        module = compile_source(STENCIL)
        interp = Interpreter(module, sink=None, compile_threshold=4)
        interp.run("main", ())
        comp = interp._compiler
        assert isinstance(comp, TraceCompiler)
        kernels = [k for k in comp.kernels.values()
                   if isinstance(k, LoopKernel)]
        assert kernels
        # op_counts must match a compiler-off profile run exactly.
        plain = Interpreter(module, sink=None, compile_loops=False)
        plain.run("main", ())
        assert interp.op_counts == plain.op_counts
        assert (interp.executed_instructions
                == plain.executed_instructions)


class TestTelemetry:
    def test_compile_counters_recorded(self):
        tel = Telemetry()
        module = compile_source(STENCIL)
        with use_run(Run(tel=tel)):
            interp = Interpreter(module, sink=ColumnarSink(),
                                 compile_threshold=4)
            interp.run("main", ())
        assert tel.counters["interp.compile.kernels"] >= 1
        assert tel.counters["interp.compile.batches"] >= 1
        assert tel.counters["interp.compile.iterations"] > 0
        assert "interp.compile.build" in tel.spans

    def test_pipeline_reports_identical_with_and_without_compiler(self):
        r0 = analyze_program(STENCIL, benchmark="b", compile_loops=False)
        r1 = analyze_program(STENCIL, benchmark="b", compile_loops=True,
                             compile_threshold=4)
        assert r0.table() == r1.table()


class TestPropertyRandomKernels:
    """Randomized loop bodies — stencils, reductions, relaxations,
    data-dependent branches forcing mid-batch deopts — must stay
    bit-identical between step and compiled runs."""

    OPS = ["+", "-", "*"]

    def _gen(self, rng):
        n = rng.choice([48, 64, 80])
        reps = rng.randint(3, 6)
        body = []
        arrays = ["A", "B", "C"]
        for _ in range(rng.randint(1, 3)):
            dst = rng.choice(arrays)
            a, b = rng.choice(arrays), rng.choice(arrays)
            op1, op2 = rng.choice(self.OPS), rng.choice(self.OPS)
            c = rng.choice(["0.5", "1.25", "2.0"])
            body.append(f"{dst}[i] = {a}[i] {op1} {b}[i] {op2} {c};")
        if rng.random() < 0.5:
            body.append("s = s + A[i] * B[i];")      # reduction
        if rng.random() < 0.5:
            body.append("if (K[i] < 0) { C[i] = C[i] + s; } "
                        "else { C[i] = C[i] - 1.0; }")
        if rng.random() < 0.3:
            body.append("C[i] = C[i] * 0.5 + s * 0.25;")   # relaxation
        inner = "\n            ".join(body)
        return f"""
float A[{n}]; float B[{n}]; float C[{n}]; int K[{n}];
int main() {{
    int i; int r; float s;
    for (i = 0; i < {n}; i = i + 1) {{
        A[i] = i * 1.5; B[i] = i - 7.0; K[i] = i - {n // 2};
    }}
    s = 0.0;
    for (r = 0; r < {reps}; r = r + 1) {{
        for (i = 0; i < {n}; i = i + 1) {{
            {inner}
        }}
    }}
    return r;
}}
"""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_kernel_bit_identity(self, seed):
        src = self._gen(random.Random(seed))
        rv0, i0, s0, _ = _run(src, False)
        rv1, i1, s1, _ = _run(src, True)
        assert rv0 == rv1
        assert i0.op_counts == i1.op_counts
        assert _cols(s0) == _cols(s1)
        assert s0.stats() == s1.stats()
        d0, d1 = s0.to_ddg(), s1.to_ddg()
        assert d0.sids.tolist() == d1.sids.tolist()
        assert d0.addrs == d1.addrs
        assert d0.mem_addrs.tolist() == d1.mem_addrs.tolist()
        assert d0.store_addrs.tolist() == d1.store_addrs.tolist()
        assert list(d0.pred_indices) == list(d1.pred_indices)


class TestLifecycleInstants:
    """Kernel lifecycle events land on the timeline (and the live bus)
    so a watcher can see compilation happen during a run."""

    def _instants(self, src, threshold=4):
        from repro.obs import EventLog

        log = EventLog(capacity=4096)
        tel = Telemetry(events=log)
        module = compile_source(src)
        with use_run(Run(tel=tel)):
            interp = Interpreter(module, sink=ColumnarSink(),
                                 compile_threshold=threshold)
            interp.run("main", ())
        return [e for e in log.snapshot()
                if e["name"].startswith("compile.kernel.")], interp

    def test_recorded_instant_carries_kernel_shape(self):
        instants, interp = self._instants(STENCIL)
        recorded = [e for e in instants
                    if e["name"] == "compile.kernel.recorded"]
        assert recorded
        args = recorded[0]["args"]
        assert args["loop"] in interp._compiler.kernels
        assert args["records_per_iter"] > 0

    def test_rejected_instant_names_reason(self):
        src = """
float A[64];
float f(float x) { return x * 2.0; }
int main() {
    int i; int r;
    for (r = 0; r < 4; r = r + 1) {
        for (i = 0; i < 64; i = i + 1) { A[i] = f(A[i] + 1.0); }
    }
    return 0;
}
"""
        instants, _ = self._instants(src)
        rejected = [e for e in instants
                    if e["name"] == "compile.kernel.rejected"]
        assert rejected
        assert all("reason" in e["args"] for e in rejected)
        assert any("call in body" in e["args"]["reason"] for e in rejected)

    def test_retirement_emits_retired_instant(self):
        # The kernel is recorded while ``i < 8`` holds: its first batch
        # runs three iterations, then the branch guard fails at every
        # later backedge, so after MIN_USEFUL_CALLS dispatches averaging
        # under one iteration each the kernel is retired.
        src = """
float A[64];
int main() {
    int i;
    for (i = 0; i < 64; i = i + 1) {
        if (i < 8) { A[i] = A[i] + 1.0; } else { A[i] = A[i] - 1.0; }
    }
    return 0;
}
"""
        instants, interp = self._instants(src)
        retired = [e["args"] for e in instants
                   if e["name"] == "compile.kernel.retired"]
        assert retired == [{"loop": 0, "calls": MIN_USEFUL_CALLS,
                            "iterations": 3}]
        assert interp._compiler.kernels[0] is REJECTED
        _, i0, s0, _ = _run(src, False)
        _, i1, s1, _ = _run(src, True)
        assert _cols(s0) == _cols(s1)
        assert i0.op_counts == i1.op_counts

    def test_deopt_emits_instant_with_position(self):
        instants, _ = self._instants(BRANCHY)
        deopts = [e for e in instants if e["name"] == "compile.kernel.deopt"]
        assert deopts
        for e in deopts:
            assert e["args"]["at"] >= 0
            assert e["args"]["iterations"] >= 0

    def test_status_bus_counts_kernels_and_batches(self):
        from repro.obs.live import StatusBus

        bus = StatusBus()
        module = compile_source(STENCIL)
        with use_run(Run(bus=bus)):
            interp = Interpreter(module, sink=ColumnarSink(),
                                 compile_threshold=4)
            interp.run("main", ())
        assert bus.counters["kernels"] >= 1
        assert bus.counters["batches"] >= 1
        # off state: no live counters touched
        plain = Interpreter(module, sink=ColumnarSink(),
                            compile_threshold=4)
        plain.run("main", ())
        assert interp.executed_instructions == plain.executed_instructions


def _state(interp):
    """Everything a run leaves behind besides its trace."""
    return (interp.executed_instructions, dict(interp.op_counts),
            interp.memory.data,
            {lid: dict(h) for lid, h in interp.loop_iter_hist.items()},
            interp.dyn_parent)


class TestIntrinsicKernels:
    """Loops calling a pure intrinsic (exp, sqrt, fmax, sin/cos, ...)
    compile with the call inline; a call that raises deoptimizes so the
    step interpreter raises exactly what it raises without kernels."""

    @pytest.mark.parametrize("name", [
        "pde_solver", "pde_solver_hoisted", "gromacs_inner",
        "gromacs_transformed", "namd_pairlist", "povray_bbox",
        "gemsfdtd_nft",
    ])
    def test_registered_program_bit_identity(self, name):
        from repro.obs import EventLog
        from repro.workloads import get_workload

        module = get_workload(name).compile()
        _, i0, s0, e0 = _run(module, False, threshold=None)
        log = EventLog(capacity=65536)
        with use_run(Run(tel=Telemetry(events=log))):
            _, i1, s1, e1 = _run(module, True, threshold=None)
        assert e0 is None and e1 is None
        assert _state(i0) == _state(i1)
        assert _cols(s0) == _cols(s1)
        reasons = [e["args"]["reason"] for e in log.snapshot()
                   if e["name"] == "compile.kernel.rejected"]
        assert not any("call in body" in r for r in reasons)
        kernels = [k for k in i1._compiler.kernels.values()
                   if isinstance(k, LoopKernel)]
        assert any(63 in k.op_pat and k.gained for k in kernels)

    # Each inner loop is compiled during its first instance; the second
    # instance enters through its kernel and faults inside that batch.
    FAULTS = {
        "log": ("A[i] = A[i] + log(64.0 - i - r * 40.0);",
                "intrinsic log failed: math domain error"),
        "exp": ("A[i] = A[i] + exp(i * 2.0 + r * 600.0);",
                "intrinsic exp failed: math range error"),
        "sqrt": ("A[i] = A[i] + sqrt(80.0 - i - r * 40.0);",
                 "intrinsic sqrt failed: math domain error"),
    }

    @pytest.mark.parametrize("fn", sorted(FAULTS))
    def test_intrinsic_fault_mid_batch(self, fn):
        body, message = self.FAULTS[fn]
        src = f"""
double A[64];
int main() {{
    int i; int r;
    for (r = 0; r < 3; r = r + 1) {{
        for (i = 0; i < 64; i = i + 1) {{ {body} }}
    }}
    return 0;
}}
"""
        module = compile_source(src)
        runs = []
        for on in (False, True):
            sink = ColumnarSink()
            interp = Interpreter(module, sink=sink, compile_loops=on,
                                 compile_threshold=4)
            with pytest.raises(InterpError) as exc:
                interp.run("main", ())
            assert type(exc.value) is InterpError
            assert str(exc.value) == message
            runs.append((interp, sink))
        (i0, s0), (i1, s1) = runs
        assert _state(i0) == _state(i1)
        assert _cols(s0) == _cols(s1)
        assert s1.columns().opcodes[-1] == 63  # the faulting call's own record
        kern = i1._compiler.kernels[1]
        assert isinstance(kern, LoopKernel) and 63 in kern.op_pat
        # The fault hit a batch: the second instance ran its kernel
        # from loop entry up to the failing call.
        assert kern.gained > 64


class TestPointerGuards:
    """A kernel guards a pointer register once per iteration until the
    path writes it again.  Each iteration here loads twice through
    ``p = P[i]`` and twice through ``p = Q[i]``; ``Q[40]`` is null, so
    iteration 40 faults inside a batch, at the first load through the
    second pointer, where stepping faults."""

    SRC = """
double X[64]; double Y[64];
double *P[64]; double *Q[64];
double total;
int main() {
    int i; double s; double *p;
    for (i = 0; i < 64; i = i + 1) {
        X[i] = i * 0.5; Y[i] = i + 1.0;
        P[i] = &X[i]; Q[i] = &Y[i];
    }
    Q[40] = 0;
    s = 0.0;
    for (i = 0; i < 64; i = i + 1) {
        p = P[i];
        s = s + *p * *p;
        p = Q[i];
        s = s + *p * *p;
    }
    total = s;
    return 0;
}
"""

    def test_null_pointer_faults_mid_batch_as_stepped(self):
        module = compile_source(self.SRC)
        runs = []
        for on in (False, True):
            sink = ColumnarSink()
            interp = Interpreter(module, sink=sink, compile_loops=on,
                                 compile_threshold=4)
            with pytest.raises(MemoryError_) as exc:
                interp.run("main", ())
            runs.append((str(exc.value), interp, sink))
        (m0, i0, s0), (m1, i1, s1) = runs
        assert m0 == m1
        assert m0.startswith("load from invalid address 0 ")
        assert i0.executed_instructions == i1.executed_instructions
        assert _state(i0) == _state(i1)
        assert _cols(s0) == _cols(s1)
        assert s0.stats() == s1.stats()
        # The second loop's kernel ran the iterations before the fault
        # in one batch.
        kern = i1._compiler.kernels[1]
        assert isinstance(kern, LoopKernel)
        assert kern.calls == 1 and 30 < kern.gained < 40


ENTRY_LOOPS = {
    "for": "for (i = 0; i < n; i = i + 1) { A[i] = A[i] + s; s = s + 0.5; }",
    "while": "i = 0; while (i < n) { A[i] = A[i] + s; s = s + 0.5; "
             "i = i + 1; }",
    "do_while": "i = 0; do { A[i] = A[i] + s; s = s + 0.5; i = i + 1; } "
                "while (i < n);",
    "continue": "for (i = 0; i < n; i = i + 1) { if (i == 3) { continue; } "
                "A[i] = A[i] + s; s = s + 0.5; }",
}


def _entry_src(loop):
    # Inner trip counts cycle through 0, 5, 0, 6, 0, 7, 1, 8, 2, ...
    return f"""
float A[64]; int T[24];
int main() {{
    int i; int r; int n; float s;
    for (r = 0; r < 24; r = r + 1) {{ T[r] = (r * 7) % 13 - 2; }}
    s = 0.0;
    for (r = 0; r < 24; r = r + 1) {{
        n = T[r];
        {loop}
    }}
    return 0;
}}
"""


class TestEntryDispatch:
    """Kernels also dispatch at ``loop_enter`` when a jump to the
    header their path starts at follows it, so each instance's first
    iteration batches too; the first record keeps the entry jump's
    sid."""

    @pytest.fixture
    def entries(self, monkeypatch):
        """Spy recording ``(executed before, executed after)`` of every
        dispatch made at loop entry."""
        spans = []
        orig = TraceCompiler.dispatch

        def spy(self, *args, **kwargs):
            before = self.interp._executed
            res = orig(self, *args, **kwargs)
            entry = kwargs.get("entry_sid", args[8] if len(args) > 8
                               else None)
            if entry is not None:
                spans.append((before, self.interp._executed))
            return res

        monkeypatch.setattr(TraceCompiler, "dispatch", spy)
        return spans

    @staticmethod
    def _module(kind):
        module = compile_source(_entry_src(ENTRY_LOOPS[kind]))
        inner = [li.loop_id for li in module.loops.values()
                 if li.depth == 2]
        assert len(inner) == 1
        return module, inner[0]

    @pytest.mark.parametrize("kind", sorted(ENTRY_LOOPS))
    def test_window_on_every_instance_identical(self, kind, entries):
        module, lid = self._module(kind)
        window = lambda: ColumnarLoopSink(lid)  # noqa: E731
        _, i0, s0, e0 = _run(module, False, window)
        _, i1, s1, e1 = _run(module, True, window)
        assert e0 is None and e1 is None
        assert s0.spans_recorded == s1.spans_recorded == 24
        assert _state(i0) == _state(i1)
        assert _cols(s0) == _cols(s1)
        assert 0 in i0.loop_iter_hist[lid] or kind == "do_while"
        kern = i1._compiler.kernels[lid]
        assert isinstance(kern, LoopKernel)
        if kind == "do_while":
            # The path starts at the backedge's cbr: no entry dispatch.
            assert kern.entry is None and not entries
        else:
            assert kern.entry is not None and len(entries) > 10
            assert any(after - before > kern.length
                       for before, after in entries)

    @pytest.mark.parametrize("kind", sorted(ENTRY_LOOPS))
    def test_spilled_window_identical(self, kind, tmp_path, entries):
        from repro.trace.store import SegmentedLoopSink

        module, lid = self._module(kind)
        stores = []
        for on in (False, True):
            _, interp, sink, err = _run(module, on, lambda: SegmentedLoopSink(
                lid, spill_dir=str(tmp_path / str(on)), segment_rows=48))
            assert err is None
            stores.append((_state(interp), sink.finish()))
        (st0, a), (st1, b) = stores
        assert st0 == st1
        assert a.manifest["segments"] == b.manifest["segments"]
        da, db = a.to_ddg(), b.to_ddg()
        assert da.sids.tolist() == db.sids.tolist()
        assert da.opcodes.tolist() == db.opcodes.tolist()
        assert list(da.pred_indices) == list(db.pred_indices)
        assert list(da.pred_offsets) == list(db.pred_offsets)
        assert list(da.mem_addrs) == list(db.mem_addrs)
        assert list(da.store_addrs) == list(db.store_addrs)
        assert (kind == "do_while") == (not entries)

    @pytest.mark.parametrize("kind", ["for", "while", "continue"])
    def test_fuel_exhausted_inside_entry_batches(self, kind, entries):
        module, lid = self._module(kind)
        window = lambda: ColumnarLoopSink(lid)  # noqa: E731
        _run(module, True, window)
        spans = [sp for sp in entries if sp[1] - sp[0] >= 4][:4]
        assert spans
        budgets = sorted({b for start, end in spans
                          for b in (start + 1, (start + end) // 2, end - 1,
                                    end)})
        for fuel in budgets:
            _, i0, s0, e0 = _run(module, False, window, fuel=fuel)
            _, i1, s1, e1 = _run(module, True, window, fuel=fuel)
            assert e0 is not None and e0 == e1, fuel
            assert _state(i0) == _state(i1), fuel
            assert _cols(s0) == _cols(s1), fuel
