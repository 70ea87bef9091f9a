"""Column derivation of compiled batches on register-carried loops.

Mini-C lowers every local to an ``alloca``, so a source program never
carries a value across loop iterations in a register.  The loops here are
built by hand with :class:`~repro.ir.builder.IRBuilder` to reach the
branches of the batch column derivation that lowered source cannot:

- dependence slots carried from the previous iteration (a pointer bumped
  across iterations, an index register, an accumulator);
- FP operand addresses that are live-in, a carried load, or a carried
  zero;
- store producers that are carried or live-in;
- legacy address mode, where a select over loaded values (or over a
  carried pointer) makes operand addresses runtime-only.

Each loop also takes a data-dependent branch every few iterations, so
batches deoptimize mid-path and end on a partial iteration.  Compiled
and stepped runs must give equal trace columns, full DDG and candidate
cone DDG, in RAM and spilled into segments small enough that cuts land
inside batches.
"""

import pytest

from repro.analysis.candidates import candidate_opcodes
from repro.interp.compile import LoopKernel
from repro.interp.interpreter import Interpreter
from repro.ir.builder import IRBuilder
from repro.ir.instructions import Opcode
from repro.ir.module import GlobalVar, Module
from repro.ir.types import DOUBLE, INT32, INT64, ArrayType, PointerType
from repro.ir.values import Constant, GlobalRef
from repro.trace.columnar import ColumnarLoopSink, ColumnarSink
from repro.trace.store import SegmentedLoopSink, SegmentedSink

from tests.test_interp_compile import _cols
from tests.trace_oracle import assert_ddgs_identical

N = 40        # inner trip count
R = 3         # outer trip count: each outer iteration re-enters the loop
F64P = PointerType(DOUBLE)


def _i64(v):
    return Constant(v, INT64)


def _f64(v):
    return Constant(v, DOUBLE)


def _arr(name):
    return GlobalRef(name, PointerType(ArrayType(DOUBLE, N + 1)))


def _elem(b, name, idx):
    """Address of ``name[idx]`` (8-byte doubles)."""
    return b.ptradd(_arr(name), b.mul(idx, _i64(8)), F64P)


def _set(b, opcode, reg, operands):
    """Write ``reg`` again: the loop carries it in a register."""
    b.emit(opcode, reg, operands)


def carried_module(legacy: bool) -> Module:
    """``for r < R: (re-init); for i < N: body`` with register-carried
    state in the inner loop ``inner``.

    Derived address mode (``legacy=False``):

    - ``x = *p`` reads through a pointer bumped at the end of the body
      (carried dependence slot);
    - ``prev * 2`` reads ``prev`` before this iteration reloads it
      (carried-load FP operand);
    - ``acc + x`` reads the accumulator before this iteration's ``fadd``
      rewrites it (carried-zero FP operand);
    - ``t2 - s0`` reads a value loaded before the loop (live-in FP
      operand);
    - ``C[i] = pv`` stores a value computed later in the body (carried
      store producer), ``D[i] = sv`` one computed before the loop
      (live-in store producer) and ``A[i] = t3`` one computed earlier in
      the body.

    ``legacy=True`` adds a select between a loaded value and the carried
    ``prev``, and a pointer select, whose operand addresses only the
    kernel can track.
    """
    m = Module("carried")
    for name in "ABCDG":
        init = [0.25 * j + (ord(name) - 64) for j in range(N + 1)]
        m.add_global(GlobalVar(name, ArrayType(DOUBLE, N + 1), init))
    b = IRBuilder(m)
    b.start_function("main", [], INT32)
    outer = b.new_loop(1, 1, None, "outer")
    inner = b.new_loop(2, 2, outer.loop_id, "inner")

    s0 = b.load(b.ptradd(_arr("G"), _i64(8), F64P))   # defa = &G[1]
    sv = b.fadd(s0, _f64(0.5))                         # defn >= 0
    r = b.new_reg(INT64, "r")
    i = b.new_reg(INT64, "i")
    acc = b.new_reg(DOUBLE, "acc")
    prev = b.new_reg(DOUBLE, "prev")
    pv = b.new_reg(DOUBLE, "pv")
    p = b.new_reg(F64P, "p")
    _set(b, Opcode.COPY, r, (_i64(0),))

    ohead, obody = b.new_block("ohead"), b.new_block("obody")
    olatch, oexit = b.new_block("olatch"), b.new_block("oexit")
    ihead, ibody = b.new_block("ihead"), b.new_block("ibody")
    iodd, ieven = b.new_block("iodd"), b.new_block("ieven")
    ilatch, iexit = b.new_block("ilatch"), b.new_block("iexit")

    b.loop_enter(outer)
    b.jump(ohead)
    b.position_at(ohead)
    b.cbranch(b.icmp("lt", r, _i64(R)), obody, oexit)

    b.position_at(obody)
    _set(b, Opcode.COPY, i, (_i64(0),))
    _set(b, Opcode.COPY, acc, (s0,))                   # defa = &G[1]
    _set(b, Opcode.LOAD, prev, (_elem(b, "B", r),))    # defa = &B[r]
    _set(b, Opcode.FADD, pv, (s0, _f64(1.0)))
    _set(b, Opcode.PTRADD, p, (_arr("A"), b.mul(r, _i64(8))))
    b.loop_enter(inner)
    b.jump(ihead)

    b.position_at(ihead)
    b.cbranch(b.icmp("lt", i, _i64(N)), ibody, iexit)

    b.position_at(ibody)
    x = b.load(p)
    t1 = b.fmul(prev, _f64(2.0))
    t2 = b.fadd(acc, x)
    t3 = b.fsub(t2, s0)
    b.store(pv, _elem(b, "C", i))
    b.store(sv, _elem(b, "D", i))
    b.store(t3, _elem(b, "A", i))
    if legacy:
        sel = b.select(b.fcmp("lt", t1, t2), x, prev)
        b.store(b.fmul(sel, _f64(3.0)), _elem(b, "C", i))
    b.cbranch(b.icmp("eq", b.srem(i, _i64(7)), _i64(3)), iodd, ieven)

    b.position_at(iodd)
    b.store(t1, _elem(b, "D", i))
    b.jump(ilatch)
    b.position_at(ieven)
    b.jump(ilatch)

    b.position_at(ilatch)
    _set(b, Opcode.FADD, acc, (t3, t1))
    _set(b, Opcode.LOAD, prev, (_elem(b, "B", i),))
    _set(b, Opcode.FMUL, pv, (t2, _f64(0.5)))
    bumped = b.ptradd(p, _i64(8), F64P)
    if legacy:
        _set(b, Opcode.SELECT, p, (b.icmp("lt", i, _i64(N)), bumped, p))
    else:
        _set(b, Opcode.COPY, p, (bumped,))
    _set(b, Opcode.ADD, i, (i, _i64(1)))
    b.loop_next(inner)
    b.jump(ihead)

    b.position_at(iexit)
    b.loop_exit(inner)
    b.jump(olatch)
    b.position_at(olatch)
    _set(b, Opcode.ADD, r, (r, _i64(1)))
    b.loop_next(outer)
    b.jump(ohead)

    b.position_at(oexit)
    b.loop_exit(outer)
    b.ret(Constant(0, INT32))
    b.finish_function()
    return m


MODULES = {legacy: carried_module(legacy) for legacy in (False, True)}
INNER = MODULES[False].loop_by_name("inner").loop_id


def _run(module, compiled, sink, batch_iters):
    interp = Interpreter(module, sink=sink, compile_loops=compiled,
                         compile_threshold=2)
    if compiled:
        interp._compiler.batch_iters = batch_iters
    interp.run("main", ())
    return interp


def _kernel(interp) -> LoopKernel:
    kern = interp._compiler.kernels[INNER]
    assert isinstance(kern, LoopKernel) and kern.gained
    return kern


def _ddgs(source):
    """Full DDG and both candidate cones (FP only, and with integers)."""
    return [source(None), source(candidate_opcodes(False)),
            source(candidate_opcodes(True))]


SINKS = {
    "full": ColumnarSink,
    "window": lambda: ColumnarLoopSink(INNER),
    "instance": lambda: ColumnarLoopSink(INNER, {1}),
}


@pytest.mark.parametrize("legacy", [False, True], ids=["derived", "legacy"])
def test_kernel_reaches_the_carried_branches(legacy):
    kern = _kernel(_run(MODULES[legacy], True, ColumnarSink(), 1024))
    plan = kern.plan
    assert plan.legacy == legacy
    assert plan.car_slots
    assert {kind for _P, _mj, kind, _a1, _a2 in plan.store_groups} == {
        1, 2, 3}
    if not legacy:
        kinds = {side[0] for _P, d1, d2 in plan.fp_groups
                 for side in (d1, d2)}
        assert {1, 3, 4} <= kinds


@pytest.mark.parametrize("batch_iters", [1024, 5, 1])
@pytest.mark.parametrize("sink", sorted(SINKS))
@pytest.mark.parametrize("legacy", [False, True], ids=["derived", "legacy"])
def test_compiled_columns_and_ddgs_equal_stepped(legacy, sink, batch_iters):
    module = MODULES[legacy]
    runs = []
    for compiled in (False, True):
        s = SINKS[sink]()
        interp = _run(module, compiled, s, batch_iters)
        runs.append((interp, s))
    (i0, s0), (i1, s1) = runs
    _kernel(i1)
    assert i0.op_counts == i1.op_counts
    assert i0.memory.data == i1.memory.data
    assert _cols(s0) == _cols(s1)
    assert s0.stats() == s1.stats()
    for d0, d1 in zip(_ddgs(s0.to_ddg), _ddgs(s1.to_ddg)):
        assert_ddgs_identical(d0, d1)
        assert (d0.window_nodes, d0.window_edges) == (
            d1.window_nodes, d1.window_edges)


@pytest.mark.parametrize("segment_rows", [7, 64])
@pytest.mark.parametrize("window", [False, True], ids=["full", "window"])
@pytest.mark.parametrize("legacy", [False, True], ids=["derived", "legacy"])
def test_spilled_compiled_equals_stepped_and_in_ram(legacy, window,
                                                    segment_rows, tmp_path):
    module = MODULES[legacy]
    ram = SINKS["window" if window else "full"]()
    _run(module, False, ram, 1024)
    stores, stats = [], []
    for compiled in (False, True):
        spill_dir = str(tmp_path / f"c{int(compiled)}")
        if window:
            s = SegmentedLoopSink(INNER, spill_dir=spill_dir,
                                  segment_rows=segment_rows)
        else:
            s = SegmentedSink(spill_dir, segment_rows=segment_rows)
        interp = _run(module, compiled, s, 5)
        if compiled:
            _kernel(interp)
        stats.append(s.stats())
        stores.append(s.finish())
    assert stats[0] == stats[1]
    a, b = stores
    assert len(a.segments) > 2
    assert a.manifest["segments"] == b.manifest["segments"]
    assert _cols(a.to_sink()) == _cols(b.to_sink()) == _cols(ram)
    cone_ops = (None, candidate_opcodes(False), candidate_opcodes(True))
    for ops, d_ram in zip(cone_ops, _ddgs(ram.to_ddg)):
        assert_ddgs_identical(a.to_ddg(cone_ops=ops), d_ram)
        assert_ddgs_identical(b.to_ddg(cone_ops=ops), d_ram)


@pytest.mark.parametrize("legacy", [False, True], ids=["derived", "legacy"])
def test_fuel_cut_inside_a_batch(legacy):
    """Fuel budgets that end inside compiled batches of the window."""
    from repro.errors import FuelExhaustedError

    module = MODULES[legacy]
    base = _run(module, False, ColumnarSink(), 1024).executed_instructions
    for fuel in (base // 3, base // 2 + 1, base - 5):
        cols = []
        for compiled in (False, True):
            sink = ColumnarLoopSink(INNER)
            interp = Interpreter(module, sink=sink, fuel=fuel,
                                 compile_loops=compiled,
                                 compile_threshold=2)
            with pytest.raises(FuelExhaustedError):
                interp.run("main", ())
            cols.append((_cols(sink), sink.to_ddg(candidate_opcodes(True))))
        (c0, d0), (c1, d1) = cols
        assert c0 == c1, fuel
        assert_ddgs_identical(d0, d1)
