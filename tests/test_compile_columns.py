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
- a select over loaded values (or over a carried pointer), which makes
  operand addresses runtime-only: the compiler rejects that loop, and
  the step interpreter runs it;
- a pointer register written twice in one iteration, which the kernel
  must guard again after the second write.

Each loop also takes a data-dependent branch every few iterations, so
batches deoptimize mid-path and end on a partial iteration.  Compiled
and stepped runs must give equal trace columns, full DDG and candidate
cone DDG, in RAM and spilled into segments small enough that cuts land
inside batches.

A recording batch derives its columns only when the sink's columns are
read, and resolves then the store backpatches whose producer lies inside
it, while later stores note theirs at once.  The backpatch loops check
that the first store still wins: a stepped store after a loop, and a
later loop's live-in store, naming a producer of a pending batch that
the batch stored too, and a segment cut between a batch-internal
producer and its store.
"""

import pytest

import repro.interp.compile as compile_mod
from repro.analysis.candidates import candidate_opcodes, capture_sids
from repro.errors import MemoryError_
from repro.frontend import compile_source
from repro.interp.compile import REJECTED, KernelTable, LoopKernel
from repro.interp.interpreter import Interpreter
from repro.ir.builder import IRBuilder
from repro.ir.instructions import Opcode
from repro.ir.module import GlobalVar, Module
from repro.ir.types import DOUBLE, INT32, INT64, ArrayType, PointerType
from repro.ir.values import Constant, GlobalRef
from repro.obs import EventLog, Run, Telemetry, use_run
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
    ``prev``, and a pointer select, whose operand addresses only run time
    knows.  Such a loop once compiled in a *legacy* address mode, in
    which the kernel tracked every register's address; the compiler now
    rejects it.
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


def rewritten_pointer_module() -> Module:
    """``for i < N: q = &A[i]; x = *q; q = i == 25 ? 0 : &A[i + 1];
    A[i] = x + *q`` with ``q`` one register, written twice per
    iteration: the load through its second value faults at ``i == 25``.
    """
    m = Module("rewritten")
    m.add_global(GlobalVar("A", ArrayType(DOUBLE, N + 1),
                           [0.5 * j for j in range(N + 1)]))
    b = IRBuilder(m)
    b.start_function("main", [], INT32)
    loop = b.new_loop(1, 1, None, "loop")
    i = b.new_reg(INT64, "i")
    q = b.new_reg(F64P, "q")
    _set(b, Opcode.COPY, i, (_i64(0),))
    head, body, done = (b.new_block("head"), b.new_block("body"),
                        b.new_block("done"))
    b.loop_enter(loop)
    b.jump(head)
    b.position_at(head)
    b.cbranch(b.icmp("lt", i, _i64(N)), body, done)

    b.position_at(body)
    _set(b, Opcode.PTRADD, q, (_arr("A"), b.mul(i, _i64(8))))
    x = b.load(q)
    live = b.cast(b.icmp("ne", i, _i64(25)), INT64)
    nxt = b.cast(_elem(b, "A", b.add(i, _i64(1))), INT64)
    _set(b, Opcode.CAST, q, (b.mul(live, nxt),))
    b.store(b.fadd(x, b.load(q)), _elem(b, "A", i))
    _set(b, Opcode.ADD, i, (i, _i64(1)))
    b.loop_next(loop)
    b.jump(head)

    b.position_at(done)
    b.loop_exit(loop)
    b.ret(Constant(0, INT32))
    b.finish_function()
    return m


def _counted(b, info, idx, body):
    """``for (idx = 0; idx < N; idx++) body()`` as loop ``info``; the
    builder is left after the loop's exit."""
    head, blk, done = (b.new_block("head"), b.new_block("body"),
                       b.new_block("done"))
    _set(b, Opcode.COPY, idx, (_i64(0),))
    b.loop_enter(info)
    b.jump(head)
    b.position_at(head)
    b.cbranch(b.icmp("lt", idx, _i64(N)), blk, done)
    b.position_at(blk)
    body()
    _set(b, Opcode.ADD, idx, (idx, _i64(1)))
    b.loop_next(info)
    b.jump(head)
    b.position_at(done)
    b.loop_exit(info)


def backpatch_module() -> Module:
    """``for r < R:`` three loops whose stores name producers across
    batch boundaries.

    - ``produce``: ``t = A[i] * 2; u = t + 1; C[i] = t``.  After it, the
      stepped stores ``D[r] = t`` and ``E[r] = u`` name producers inside
      the loop's last batch: ``t``'s was stored in the loop already, so
      ``C``'s address wins; ``u``'s was not, so ``E``'s does.
    - ``consume``: ``F[j] = t; G[j] = u; H[j] = s; B[j] += t`` — live-in
      stores naming producers of ``produce``'s batches, which lose to
      the stores before them, and ``s = t * 3`` from the stepped code
      between the loops, which ``H[0]`` stores first.
    - ``carry``: ``I[k] = pv; pv = A[k] * 0.5`` — a carried store, whose
      producer is the previous iteration's, so a segment cut at an
      iteration's end falls between the two.
    """
    m = Module("backpatch")
    for name in "ABCDEFGHI":
        init = [0.5 * j + (ord(name) - 64) for j in range(N + 1)]
        m.add_global(GlobalVar(name, ArrayType(DOUBLE, N + 1), init))
    b = IRBuilder(m)
    b.start_function("main", [], INT32)
    outer = b.new_loop(1, 1, None, "outer")
    produce = b.new_loop(2, 2, outer.loop_id, "produce")
    consume = b.new_loop(3, 2, outer.loop_id, "consume")
    carry = b.new_loop(4, 2, outer.loop_id, "carry")
    r, i, j, k = (b.new_reg(INT64, name) for name in "rijk")
    t, u, pv = (b.new_reg(DOUBLE, name) for name in ("t", "u", "pv"))
    _set(b, Opcode.COPY, r, (_i64(0),))
    _set(b, Opcode.COPY, t, (_f64(0.0),))
    _set(b, Opcode.COPY, u, (_f64(0.0),))
    ohead, obody, oexit = (b.new_block("ohead"), b.new_block("obody"),
                           b.new_block("oexit"))
    b.loop_enter(outer)
    b.jump(ohead)
    b.position_at(ohead)
    b.cbranch(b.icmp("lt", r, _i64(R)), obody, oexit)
    b.position_at(obody)

    def produce_body():
        _set(b, Opcode.FMUL, t, (b.load(_elem(b, "A", i)), _f64(2.0)))
        _set(b, Opcode.FADD, u, (t, _f64(1.0)))
        b.store(t, _elem(b, "C", i))

    _counted(b, produce, i, produce_body)
    b.store(t, _elem(b, "D", r))
    b.store(u, _elem(b, "E", r))
    s = b.fmul(t, _f64(3.0))

    def consume_body():
        b.store(t, _elem(b, "F", j))
        b.store(u, _elem(b, "G", j))
        b.store(s, _elem(b, "H", j))
        b.store(b.fadd(b.load(_elem(b, "B", j)), t), _elem(b, "B", j))

    _counted(b, consume, j, consume_body)
    _set(b, Opcode.COPY, pv, (s,))

    def carry_body():
        b.store(pv, _elem(b, "I", k))
        _set(b, Opcode.FMUL, pv, (b.load(_elem(b, "A", k)), _f64(0.5)))

    _counted(b, carry, k, carry_body)
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
BACKPATCH = backpatch_module()
OUTER = BACKPATCH.loop_by_name("outer").loop_id
BACKPATCH_LOOPS = ("produce", "consume", "carry")

#: case -> (module, window loop, the instance an ``instance`` sink
#: keeps): the backpatch loops' window is their outer loop, which runs
#: once, so all three loops and the stepped stores between them fall
#: in it.
CASES = {
    "derived": (MODULES[False], INNER, 1),
    "legacy": (MODULES[True], INNER, 1),
    "backpatch": (BACKPATCH, OUTER, 0),
}


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


def _compiled_as_expected(interp, case):
    """The loops ran batches, or, with a runtime-only operand address
    (``legacy``), the inner loop was rejected and stepped."""
    if case == "legacy":
        assert interp._compiler.kernels[INNER] is REJECTED
    elif case == "derived":
        _kernel(interp)
    else:
        for name in BACKPATCH_LOOPS:
            kern = interp._compiler.kernels[
                BACKPATCH.loop_by_name(name).loop_id]
            assert isinstance(kern, LoopKernel) and kern.gained, name


def _ddgs(source):
    """Full DDG and both candidate cones (FP only, and with integers)."""
    return [source(None), source(candidate_opcodes(False)),
            source(candidate_opcodes(True))]


#: sink -> factory over a case's window loop and instance.
SINKS = {
    "full": lambda loop, instance: ColumnarSink(),
    "window": lambda loop, instance: ColumnarLoopSink(loop),
    "instance": lambda loop, instance: ColumnarLoopSink(loop, {instance}),
}


@pytest.mark.parametrize("legacy", [False, True], ids=["derived", "legacy"])
def test_kernel_reaches_the_carried_branches(legacy):
    log = EventLog(capacity=4096)
    with use_run(Run(tel=Telemetry(events=log))):
        interp = _run(MODULES[legacy], True, ColumnarSink(), 1024)
    rejected = [e["args"]["reason"] for e in log.snapshot()
                if e["name"] == "compile.kernel.rejected"
                and e["args"]["loop"] == INNER]
    if legacy:
        assert interp._compiler.kernels[INNER] is REJECTED
        assert len(rejected) == 1
        assert rejected[0].startswith("runtime-only operand address")
        return
    assert not rejected
    plan = _kernel(interp).plan
    assert plan.car_slots
    assert {kind for _P, _mj, kind, _a1, _a2 in plan.store_groups} == {
        1, 2, 3}
    kinds = {side[0] for _P, d1, d2 in plan.fp_groups
             for side in (d1, d2)}
    assert {1, 3, 4} <= kinds


@pytest.mark.parametrize("batch_iters", [1024, 5, 1])
@pytest.mark.parametrize("sink", sorted(SINKS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_compiled_columns_and_ddgs_equal_stepped(case, sink, batch_iters):
    module, loop, instance = CASES[case]
    runs = []
    for compiled in (False, True):
        s = SINKS[sink](loop, instance)
        interp = _run(module, compiled, s, batch_iters)
        runs.append((interp, s))
    (i0, s0), (i1, s1) = runs
    _compiled_as_expected(i1, case)
    assert i0.op_counts == i1.op_counts
    assert i0.memory.data == i1.memory.data
    # Column by column, the backpatches (``store_map``) included.
    assert _cols(s0) == _cols(s1)
    assert s0.stats() == s1.stats()
    for d0, d1 in zip(_ddgs(s0.to_ddg), _ddgs(s1.to_ddg)):
        assert_ddgs_identical(d0, d1)
        assert (d0.window_nodes, d0.window_edges) == (
            d1.window_nodes, d1.window_edges)


@pytest.mark.parametrize("segment_rows", [7, 64])
@pytest.mark.parametrize("window", [False, True], ids=["full", "window"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_spilled_compiled_equals_stepped_and_in_ram(case, window,
                                                    segment_rows, tmp_path):
    module, loop, instance = CASES[case]
    ram = SINKS["window" if window else "full"](loop, instance)
    _run(module, False, ram, 1024)
    stores, stats = [], []
    for compiled in (False, True):
        spill_dir = str(tmp_path / f"c{int(compiled)}")
        if window:
            s = SegmentedLoopSink(loop, spill_dir=spill_dir,
                                  segment_rows=segment_rows)
        else:
            s = SegmentedSink(spill_dir, segment_rows=segment_rows)
        interp = _run(module, compiled, s, 5)
        if compiled:
            _compiled_as_expected(interp, case)
        stats.append(s.stats())
        stores.append(s.finish())
    assert stats[0] == stats[1]
    # A store of a value whose producer row already spilled with its
    # store entry is no late patch: counted once, as in RAM.
    assert stats[0] == ram.stats()
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


def test_pointer_rewritten_mid_path_is_guarded_again():
    module = rewritten_pointer_module()
    runs = []
    for compiled in (False, True):
        sink = ColumnarSink()
        interp = Interpreter(module, sink=sink, compile_loops=compiled,
                             compile_threshold=2)
        with pytest.raises(MemoryError_) as exc:
            interp.run("main", ())
        runs.append((str(exc.value), interp, sink))
    (m0, i0, s0), (m1, i1, s1) = runs
    assert m0 == m1
    assert m0.startswith("load from invalid address 0 ")
    assert i0.executed_instructions == i1.executed_instructions
    assert i0.memory.data == i1.memory.data
    assert _cols(s0) == _cols(s1)
    assert s0.stats() == s1.stats()
    kern = i1._compiler.kernels[module.loop_by_name("loop").loop_id]
    assert isinstance(kern, LoopKernel)
    assert 15 < kern.gained < 25


def test_backpatches_across_batches_keep_the_first_store(tmp_path):
    """The stores after ``produce`` name its last pending batch's
    producers: the one the loop stored keeps the loop's address, the
    other takes ``E``'s; the live-in stores of ``consume`` lose to the
    stores before them, except ``H[0]``'s of the stepped ``s``.  Spilled,
    cuts fall between a producer and the store that first names it."""
    sink = ColumnarSink()
    interp = _run(BACKPATCH, True, sink, 5)
    _compiled_as_expected(interp, "backpatch")
    addr = interp.global_addr
    stored = set(sink.store_map.values())
    assert addr["D"] not in stored and addr["F"] not in stored
    assert {addr["E"], addr["H"]} <= stored
    spilled = SegmentedSink(str(tmp_path), segment_rows=16)
    _run(BACKPATCH, True, spilled, 5)
    # The store's backpatch arrived after the producer's row spilled.
    assert spilled.finish().manifest["late_patches"] > 0


# -- derivation once per kernel per window -------------------------------


@pytest.mark.parametrize("block_rows", [1, 7, 64])
@pytest.mark.parametrize("module", [MODULES[False], BACKPATCH],
                         ids=["carried", "backpatch"])
def test_derivation_in_blocks_equals_stepped(module, block_rows,
                                             monkeypatch):
    """A kernel's pending batches derived a few batches at a time, down
    to one batch per block."""
    monkeypatch.setattr(compile_mod, "DERIVE_BLOCK_ROWS", block_rows)
    sinks = []
    for compiled in (False, True):
        sink = ColumnarSink()
        _run(module, compiled, sink, 5)
        sinks.append(sink)
    s0, s1 = sinks
    assert _cols(s0) == _cols(s1)
    assert s0.stats() == s1.stats()
    for d0, d1 in zip(_ddgs(s0.to_ddg), _ddgs(s1.to_ddg)):
        assert_ddgs_identical(d0, d1)


REENTERED = """
double A[8];

int main() {
  int r;
  int i;
  W: for (r = 0; r < 50; r++) {
    L: for (i = 0; i < 8; i++) A[i] = A[i] * 0.5 + 1.0;
  }
  return 0;
}
"""


def test_reentered_loop_derives_one_group_per_window():
    """50 recording batches of one kernel in one window are derived in
    one pass, however often the columns are read."""
    module = compile_source(REENTERED)
    window = module.loop_by_name("W").loop_id
    kernels = KernelTable()
    Interpreter(module, compile_threshold=2, kernels=kernels).run("main", ())
    tel = Telemetry()
    with use_run(Run(tel=tel)):
        sink = ColumnarLoopSink(window, instances={0})
        Interpreter(module, sink=sink, kernels=kernels).run("main", ())
        assert sink.capture_misses == 0
        stats = sink.stats()
        ddg = sink.to_ddg()
    assert tel.counters["interp.compile.batches"] == 50
    assert tel.counters["trace.derive.groups"] == 1
    stepped = ColumnarLoopSink(window, instances={0})
    Interpreter(module, sink=stepped, compile_loops=False).run("main", ())
    assert _cols(stepped) == _cols(sink)
    assert stepped.stats() == stats
    assert_ddgs_identical(stepped.to_ddg(), ddg)


#: ``A[4 + r]`` runs past the end of ``A`` into ``B``, whose element the
#: captured store just wrote: each outer iteration's stepped code after
#: the compiled loop ``L`` has one capture miss.
STEPPED_MISSES = """
double A[4];
double B[8];
double C[16];

int main() {
  int r;
  int i;
  W: for (r = 0; r < 6; r++) {
    L: for (i = 0; i < 16; i++) C[i] = C[i] * 0.5 + 1.0;
    B[r] = C[r] * 2.0;
    C[r + 1] = A[4 + r] + 1.0;
  }
  return 0;
}
"""


def test_stepped_capture_misses_leave_batches_pending():
    """Counting a stepped capture miss derives nothing: the window's six
    batches of ``L``, one before each miss, are derived as one group."""
    module = compile_source(STEPPED_MISSES)
    window = module.loop_by_name("W").loop_id
    capture = capture_sids(module, candidate_opcodes())
    kernels = KernelTable(capture)
    Interpreter(module, compile_threshold=2, kernels=kernels).run("main", ())
    tel = Telemetry()
    with use_run(Run(tel=tel)):
        sink = ColumnarLoopSink(window, instances={0})
        Interpreter(module, sink=sink, kernels=kernels).run("main", ())
        assert sink.capture_misses == 6
    assert tel.counters["interp.compile.batches"] == 6
    assert tel.counters["trace.derive.groups"] == 1
    stepped = ColumnarLoopSink(window, instances={0})
    Interpreter(module, sink=stepped, compile_loops=False,
                kernels=KernelTable(capture)).run("main", ())
    assert stepped.capture_misses == 6
    assert _cols(stepped) == _cols(sink)
    assert stepped.stats() == sink.stats()
