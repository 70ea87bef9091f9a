"""Capture at the source: ``analyze`` records only the capture set.

``analyze`` asks the windowed re-run for the candidate cone, so the
interpreter and the compiled kernels record only the instructions that
:func:`repro.analysis.candidates.capture_sids` says a candidate can reach
statically; every other instruction takes no node id and writes ``-1``
("no producer").  A run-time check catches the dependences the static
set misses (an uncaptured load that reads a captured store) and re-runs
the window capturing everything.  The contract is exactness: the cone
DDG, the report and the window counts equal those of a run that
captures every instruction.  Checked here on

- every analyzed window of the registry, FP and integer cones, in RAM
  and spilled, compiled and stepped: the set holds the dynamic cone,
  the captured cone DDG is the full one's, ``rows`` and
  ``window_nodes`` count the whole window, and no window falls back;
- a program whose callee reads an uninitialized local left by another
  frame's captured store, and a compiled loop that reads past the end of
  one array into another, which must fall back;
- hand-built register-carried loops (dead stores, dead carried and
  live-in producers), where compiled and stepped capture must give the
  same columns and stats at every batch size and under a fuel cut.
"""

import logging

import numpy as np
import pytest

from repro.analysis.candidates import candidate_opcodes, capture_sids
from repro.analysis.metrics import loop_metrics
from repro.analysis.pipeline import analyze_loop, windowed_loop_ddg
from repro.errors import FuelExhaustedError
from repro.frontend import compile_source
from repro.interp.compile import KernelTable, LoopKernel
from repro.interp.interpreter import DEFAULT_FUEL, Interpreter
from repro.ir.builder import IRBuilder
from repro.ir.instructions import Opcode
from repro.ir.module import GlobalVar, Module
from repro.ir.types import DOUBLE, INT32, INT64, ArrayType
from repro.ir.values import Constant
from repro.obs import Run, Telemetry, use_run
from repro.trace.columnar import ColumnarLoopSink
from repro.trace.store import SegmentStore, spill_subdir
from repro.workloads import list_workloads

from tests.test_candidate_cone import oracle_cone
from tests.test_compile_columns import N, _elem, _f64, _i64, carried_module
from tests.test_interp_compile import _cols
from tests.trace_oracle import assert_ddgs_identical

FLAGS = (False, True)


def _window(module, loop_id, entry, kernels=None, compiled=True):
    """Instance 0 of ``loop_id``, run into an in-RAM window sink."""
    sink = ColumnarLoopSink(loop_id, instances={0})
    Interpreter(module, sink=sink, compile_loops=compiled,
                kernels=kernels).run(entry, ())
    return sink


# -- every analyzed loop of the registry ----------------------------------


@pytest.mark.parametrize("workload", list_workloads(), ids=lambda w: w.name)
def test_registry_windows_capture_exactly(workload, tmp_path):
    module = workload.compile()
    sets = {inc: capture_sids(module, candidate_opcodes(inc))
            for inc in FLAGS}
    for loop_name in workload.analyze_loops:
        loop_id = module.loop_by_name(loop_name).loop_id
        full_sink = _window(module, loop_id, workload.entry)
        full = full_sink.to_ddg()
        sids = full_sink.columns().sids
        for include_integer in FLAGS:
            ops = candidate_opcodes(include_integer)
            capture = sets[include_integer]
            assert {full.sids[j] for j in oracle_cone(full, ops)} <= capture
            expected = full_sink.to_ddg(ops)
            held = int(np.isin(sids, list(capture)).sum())
            assert held < len(sids)
            for compiled in FLAGS:
                for spilled in FLAGS:
                    tel = Telemetry()
                    spill_dir = str(tmp_path / f"s{include_integer}"
                                    f"{compiled}") if spilled else None
                    with use_run(Run(tel=tel)):
                        ddg, stats, _ = windowed_loop_ddg(
                            module, loop_id, loop_name, workload.entry, (),
                            0, DEFAULT_FUEL, spill_dir=spill_dir,
                            segment_rows=max(1, held // 4),
                            compile_loops=compiled, cone_ops=ops)
                    where = (loop_name, include_integer, compiled, spilled)
                    assert_ddgs_identical(ddg, expected)
                    assert ddg.window_nodes == expected.window_nodes, where
                    assert stats["rows"] == full_sink.stats()["rows"]
                    assert stats["captured"] == held, where
                    assert "trace.capture_fallbacks" not in tel.counters
                    if spilled:
                        store = SegmentStore(spill_subdir(
                            spill_dir, f"{loop_name}-inst0"))
                        assert len(store.segments) >= 2, where


# -- the dependence only the run-time check sees ---------------------------

#: ``g`` returns an uninitialized local.  Stack addresses are reused
#: across frames, so it reads what ``f``'s local last held: the product
#: of a candidate, stored by a captured store into a different ``alloca``
#: (a different base object, so the static set drops ``g``'s load).
MISS = """
double A[4];

void f() {
  double t;
  t = A[0] * 3.0;
  A[1] = t;
}

double g() {
  double u;
  return u;
}

int main() {
  int i;
  L: for (i = 0; i < 8; i++) {
    f();
    A[0] = g() + 1.0;
  }
  return 0;
}
"""


def test_capture_miss_falls_back_to_full_capture(caplog):
    module = compile_source(MISS)
    ops = candidate_opcodes()
    loop_id = module.loop_by_name("L").loop_id
    expected = loop_metrics(_window(module, loop_id, "main").to_ddg(ops),
                            module, "L")

    # The static set alone drops the dependence and changes the report.
    static = _window(module, loop_id, "main",
                     KernelTable(capture_sids(module, ops)))
    assert static.capture_misses > 0
    static_report = loop_metrics(static.to_ddg(ops), module, "L")
    assert static_report.avg_concurrency == 8.0
    assert expected.avg_concurrency == 1.0
    assert [ir.num_partitions for ir in static_report.instructions] == [1, 1]
    assert [ir.num_partitions for ir in expected.instructions] == [8, 8]

    tel = Telemetry()
    with use_run(Run(tel=tel)), \
            caplog.at_level(logging.WARNING, logger="vectra.pipeline"):
        report = analyze_loop(module, "L")
    assert report == expected
    assert tel.counters["trace.capture_fallbacks"] == 1
    assert tel.counters["trace.records.captured"] == (
        tel.counters["trace.records.kept"])
    assert any("capture set" in r.getMessage() for r in caplog.records)


def test_fallback_discards_the_spilled_window(tmp_path):
    module = compile_source(MISS)
    loop_id = module.loop_by_name("L").loop_id
    ops = candidate_opcodes()
    kernels = KernelTable(capture_sids(module, ops))
    ddg, stats, _ = windowed_loop_ddg(
        module, loop_id, "L", "main", (), 0, DEFAULT_FUEL,
        spill_dir=str(tmp_path), segment_rows=16, cone_ops=ops,
        kernels=kernels)
    assert_ddgs_identical(ddg, _window(module, loop_id, "main").to_ddg(ops))
    assert stats["captured"] == stats["rows"]
    # The spill subdirectory holds the full-capture window only.
    store = SegmentStore(spill_subdir(str(tmp_path), "L-inst0"))
    assert store.manifest["uncaptured"] == 0
    assert store.total_rows == stats["rows"]
    # The rest of the analysis captures every instruction.
    assert kernels.capture is None


#: ``A[4 + i]`` runs past the end of ``A`` into ``B``: the load's base
#: object is ``A``, which no captured store writes, yet it reads what the
#: captured store to ``B[i]`` just wrote.  The loop compiles, so most of
#: its misses are found by the kernel batches' test.
PAST_THE_END = """
double A[4];
double B[64];
double C[64];

int main() {
  int i;
  for (i = 0; i < 64; i++) C[i] = 0.5 * (double)i;
  L: for (i = 0; i < 40; i++) {
    B[i] = C[i] * 2.0;
    C[i + 1] = A[4 + i] + 1.0;
  }
  return 0;
}
"""


@pytest.mark.parametrize("batch_iters", [1024, 5])
def test_kernel_batches_count_capture_misses(batch_iters):
    module = compile_source(PAST_THE_END)
    ops = candidate_opcodes()
    loop_id = module.loop_by_name("L").loop_id
    capture = capture_sids(module, ops)
    misses = []
    for compiled in FLAGS:
        sink = ColumnarLoopSink(loop_id, instances={0})
        interp = Interpreter(module, sink=sink, compile_loops=compiled,
                             compile_threshold=2, kernels=KernelTable(capture))
        if compiled:
            interp._compiler.batch_iters = batch_iters
        interp.run("main", ())
        misses.append(sink.capture_misses)
    assert interp._compiler.kernels[loop_id].gained > 30
    assert misses == [40, 40]

    tel = Telemetry()
    with use_run(Run(tel=tel)):
        ddg, _, _ = windowed_loop_ddg(module, loop_id, "L", "main", (), 0,
                                      DEFAULT_FUEL, compile_threshold=2,
                                      cone_ops=ops)
    assert tel.counters["trace.capture_fallbacks"] == 1
    assert_ddgs_identical(ddg, _window(module, loop_id, "main").to_ddg(ops))


# -- hand-built loops: compiled capture equals stepped capture -------------


def dead_store_module() -> Module:
    """``for i < N: x = A[i]; A[i + 1] = x * 1.5; A[i + 1] = (double)i;
    if (i % 7 == 3) B[i] = x * 1.5`` — the second store writes ``A[i+1]``
    from index arithmetic only, so the capture set drops it, between the
    captured store and the next iteration's (captured) load of the same
    address."""
    m = Module("dead_store")
    for name in "AB":
        m.add_global(GlobalVar(name, ArrayType(DOUBLE, N + 1),
                               [0.5 * j for j in range(N + 1)]))
    b = IRBuilder(m)
    b.start_function("main", [], INT32)
    loop = b.new_loop(1, 1, None, "inner")
    i = b.new_reg(INT64, "i")
    b.emit(Opcode.COPY, i, (_i64(0),))
    head, body, odd = (b.new_block("head"), b.new_block("body"),
                       b.new_block("odd"))
    latch, done = b.new_block("latch"), b.new_block("done")
    b.loop_enter(loop)
    b.jump(head)
    b.position_at(head)
    b.cbranch(b.icmp("lt", i, _i64(N)), body, done)

    b.position_at(body)
    x = b.load(_elem(b, "A", i))
    y = b.fmul(x, _f64(1.5))
    nxt = b.add(i, _i64(1))
    b.store(y, _elem(b, "A", nxt))
    b.store(b.cast(i, DOUBLE), _elem(b, "A", nxt))
    b.cbranch(b.icmp("eq", b.srem(i, _i64(7)), _i64(3)), odd, latch)
    b.position_at(odd)
    b.store(y, _elem(b, "B", i))
    b.jump(latch)

    b.position_at(latch)
    b.emit(Opcode.ADD, i, (i, _i64(1)))
    b.loop_next(loop)
    b.jump(head)
    b.position_at(done)
    b.loop_exit(loop)
    b.ret(Constant(0, INT32))
    b.finish_function()
    return m


def _hand_built():
    return {"derived": carried_module(False),
            "legacy": carried_module(True),
            "dead_store": dead_store_module()}


HAND = _hand_built()


def _run(module, compiled, kernels, batch_iters, fuel=DEFAULT_FUEL):
    sink = ColumnarLoopSink(module.loop_by_name("inner").loop_id)
    interp = Interpreter(module, sink=sink, fuel=fuel,
                         compile_loops=compiled, compile_threshold=2,
                         kernels=kernels)
    if compiled:
        interp._compiler.batch_iters = batch_iters
    try:
        interp.run("main", ())
    except FuelExhaustedError:
        pass
    return interp, sink


def _capture(module, include_integer=False):
    return capture_sids(module, candidate_opcodes(include_integer))


def test_hand_built_loops_hold_the_dead_cases():
    """Each case the hand-built loops are here for is really there."""
    def kern(name):
        module = HAND[name]
        capture = _capture(module)
        interp, _ = _run(module, True, KernelTable(capture), 1024)
        lid = module.loop_by_name("inner").loop_id
        kernel = interp._compiler.kernels[lid]
        assert isinstance(kernel, LoopKernel) and kernel.gained
        return kernel.plan, [e[0] for e in kernel._entries], capture

    plan, instrs, capture = kern("derived")
    # A dead carried producer (the pointer bump, the reload of ``prev``)
    # and a dead live-in one (``s0``, loaded before the loop).
    assert any(plan.rank[pos] < 0 for _slot, pos, _reg in plan.car_slots)
    defs = {ins.result.index: ins.sid
            for ins in HAND["derived"].function("main").all_instructions()
            if ins.result is not None}
    assert any(defs[r] not in capture for r in plan.li_regs)
    plan, instrs, _ = kern("dead_store")
    stores = [p for p, ins in enumerate(instrs) if ins.opcode is Opcode.STORE]
    assert [plan.rank[p] >= 0 for p in stores] == [True, False]


@pytest.mark.parametrize("batch_iters", [1024, 5, 1])
@pytest.mark.parametrize("name", sorted(HAND))
@pytest.mark.parametrize("include_integer", FLAGS)
def test_compiled_capture_equals_stepped(name, include_integer,
                                         batch_iters):
    module = HAND[name]
    capture = _capture(module, include_integer)
    runs = [_run(module, compiled, KernelTable(capture), batch_iters)
            for compiled in FLAGS]
    (i0, s0), (i1, s1) = runs
    assert i0.op_counts == i1.op_counts
    assert i0.memory.data == i1.memory.data
    assert _cols(s0) == _cols(s1)
    assert s0.stats() == s1.stats()
    assert s0.capture_misses == s1.capture_misses == 0
    assert s0.uncaptured > 0
    _, full = _run(module, True, None, batch_iters)
    assert s1.stats()["rows"] == full.stats()["rows"]
    ops = candidate_opcodes(include_integer)
    assert_ddgs_identical(s1.to_ddg(ops), full.to_ddg(ops))
    assert s1.to_ddg(ops).window_nodes == full.to_ddg(ops).window_nodes


@pytest.mark.parametrize("name", sorted(HAND))
def test_fuel_cut_inside_a_captured_batch(name):
    module = HAND[name]
    capture = _capture(module)
    base = _run(module, False, None, 1024)[0].executed_instructions
    for fuel in (base // 3, base // 2 + 1, base - 5):
        runs = [_run(module, compiled, KernelTable(capture), 5, fuel)
                for compiled in FLAGS]
        (i0, s0), (i1, s1) = runs
        assert i0.executed_instructions == i1.executed_instructions == (
            fuel + 1)
        assert _cols(s0) == _cols(s1), fuel
        assert s0.stats() == s1.stats(), fuel
        ops = candidate_opcodes()
        assert_ddgs_identical(s0.to_ddg(ops), s1.to_ddg(ops))
