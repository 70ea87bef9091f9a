"""Trace-replay compilation: specialize hot loop bodies into batch kernels.

The step interpreter pays one full dispatch — opcode chain, operand
``ev()`` closures, per-record ``emit()`` — for every executed
instruction.  For a hot loop almost all of that work is *re-derivable*:
once one iteration's straight-line instruction path is known, every
subsequent iteration that follows the same control flow executes the
same opcodes against the same registers, emits records with the same
sids/opcodes/dep-counts, and differs only in values, node ids, and
memory addresses.

This module borrows the tracing-JIT idiom (PyPy-style meta-tracing):

1. **Hotness.**  The profiler's own per-loop counters
   (``op_counts[(lid + 2) * LOOP_KEY_STRIDE + LOOP_NEXT]`` — exactly
   what :mod:`repro.profiler.hotloops` tallies) count loop iterations.
   When a loop crosses :data:`~repro.profiler.hotloops
   .HOT_LOOP_THRESHOLD` iterations, the interpreter records the next
   iteration's instruction path, anchored just after the loop's
   ``loop_next`` marker (the backedge position).  Kernels are
   dispatched at two points: at that anchor (the backedge), and at
   ``loop_enter`` when the next instruction is the ``jump`` to the
   header the path's own first ``jump`` targets — ``for`` and
   ``while`` loops lower to exactly that, so each instance's first
   iteration batches too.  The entry batch's first record carries the
   entry ``jump``'s sid; everything else about it is the path's.
2. **Specialization.**  The recorded path is compiled — via
   ``compile``/``exec`` — into a *batch kernel*: a closure running up
   to B iterations per dispatch as straight-line Python over local
   variables, with operand dispatch, register maps, constants, and
   global addresses folded in at codegen time.  One kernel per loop
   serves every dispatch, recording or not, and its source is kept
   short (see :func:`_generate`), since a short run can spend as long
   compiling its kernels as running them.  The kernel table
   (:class:`KernelTable`) may be shared by the runs of one analysis,
   so each loop is recorded and compiled once per analysis.
3. **Derived columns.**  Record node ids within a straight-line path
   are *affine* in the iteration index — the record at captured path
   position ``P`` of iteration ``i`` is node ``N0 + i*W + rank[P]``,
   with ``W`` the positions per iteration that the run's capture set
   holds and ``rank[P]`` the position's rank among them (every
   position, when the run captures everything) — so the dependence
   column, the def-node write-backs, and (via a static def-addr class
   analysis) the operand-address column are all re-derivable from path
   structure plus the kernel's memory-address stream.  The kernel
   therefore accumulates only what is genuinely runtime — one address
   per memory operand, one ``MW`` lookup per load when recording.  A
   recording dispatch derives nothing: it hands the batch to the sink
   (:meth:`ColumnarSink.reserve`), which takes its rows (their runs,
   loop-id change and marker rows are arithmetic), keeps the raw
   streams as int64 with the kernel's other pending batches
   (:class:`PendingBatches`) and applies at once only the store
   backpatches whose producer lies before the batch.  When the sink's
   columns are first read, every pending batch of one kernel is derived
   in one vectorized pass (:class:`_Derivation`) and written, with the
   stepped rows, into the window's columns in one merge, so the numpy
   calls per window grow with its kernels, not its batches — no
   per-record ``emit()``, no per-item Python bookkeeping.
4. **Guards and deoptimization.**  Every branch in the path guards its
   recorded direction, and every faulting operation (division by zero,
   invalid load/store address) guards its precondition *before*
   executing; a pure intrinsic call (``exp``, ``sqrt``, ...) runs the
   very function object the step interpreter calls, inside ``try``,
   and any exception it raises acts as a failed guard.  A failed guard
   stops the batch at that exact record index and hands control back
   to the step interpreter at the guarded instruction with all
   register/memory state written back — the step interpreter then
   re-executes it, emitting the identical record or raising the
   identical error.  Output is therefore bit-identical to
   step execution: same columns, same runs, same markers, same
   backpatches, same profile counts, same fuel accounting.

A loop is *rejected* for compilation (permanently) when its recorded
path contains a call to a user function, a nested loop marker, or a
register whose address only run time knows (see :class:`_Plan`), or
exceeds :data:`MAX_PATH_LEN`; intrinsic calls stay in the path.
Recording *aborts* (transiently, retried until
:data:`MAX_RECORD_FAILURES` aborts over all the runs that share the
kernel table) when the loop exits or returns mid-recording — the
straddle a short-trip loop always hits.

Fuel never overshoots: the dispatcher caps each batch at
``(fuel - executed) // path_len`` full iterations and refuses to run
once fewer than one iteration of budget remains, so the step
interpreter hits the exact budgeted instruction and raises
``FuelExhaustedError`` at the same record index as an uncompiled run.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.ir.types import FloatType, IntType
from repro.ir.values import Constant, GlobalRef, VirtualReg
from repro.obs import current_run, get_logger

#: Iterations of a batch dispatched per kernel invocation.
BATCH_ITERS = 1024

#: Longest loop-body path worth specializing (records per iteration).
MAX_PATH_LEN = 512

#: Transient recording failures (loop exited mid-recording) tolerated
#: before the loop is rejected outright — bounds re-record overhead for
#: short-trip loops.
MAX_RECORD_FAILURES = 8

#: Dispatch calls after which a kernel averaging under one iteration
#: per dispatch is retired (pathological data-dependent branches).
MIN_USEFUL_CALLS = 32

#: Sentinel marking a loop as not-compilable in ``TraceCompiler.kernels``.
REJECTED = object()

_log = get_logger("interp.compile")

_CMP_OPS = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "=="}

#: Records per path position carry a fixed dependence count per opcode;
#: an intrinsic call (63) carries one per operand instead.
_DEP_COUNTS = {
    1: 2, 2: 2, 3: 2,            # add/sub/mul
    4: 2, 5: 2,                  # sdiv/srem
    10: 2, 11: 2, 12: 2, 13: 2,  # fadd/fsub/fmul/fdiv
    20: 2, 21: 2, 22: 2, 23: 2, 24: 2,  # and/or/xor/shl/ashr
    30: 2, 31: 2,                # icmp/fcmp
    40: 1,                       # cast
    41: 3,                       # select
    42: 1,                       # copy
    50: 0,                       # alloca
    51: 2, 52: 2,                # load/store
    53: 2,                       # ptradd
    60: 0, 61: 1,                # jump/cbr
    71: 0,                       # loop_next (the path terminator)
}

_INT_ARITH = {1: "+", 2: "-", 3: "*"}
_FP_ARITH = {10: "+", 11: "-", 12: "*", 13: "/"}
_BITWISE = {20: "&", 21: "|", 22: "^", 23: "<<", 24: ">>"}


class _Recording:
    """An in-flight path recording for one loop."""

    __slots__ = ("loop_id", "block", "pc", "path")

    def __init__(self, loop_id: int, block, pc: int):
        self.loop_id = loop_id
        #: anchor: the (block, pc) just after the triggering loop_next —
        #: where every compiled iteration begins and ends.
        self.block = block
        self.pc = pc
        #: (instr, block, pc) per executed instruction, filled by the
        #: interpreter's capture hook.
        self.path: List[Tuple] = []


# -- static path analysis ----------------------------------------------------


class _Plan:
    """Static column structure derived from a recorded path.

    The run's capture set (:func:`repro.analysis.candidates
    .capture_sids`) splits the path positions into *captured* ones, which
    take node ids and become records, and the rest, which take none and
    write ``-1`` ("no producer") wherever their node id would go.  Each
    captured position ``P`` has a ``rank`` among the captured positions
    of the path, so the record at ``P`` in iteration ``i`` is node ``N0
    + i*W + rank[P]`` with ``W`` (``width``) the captured positions per
    iteration; only captured positions get a column slot.  Memory
    operands and loads are laid out for the whole path, so the kernel's
    streams stay complete: operand addresses come from uncaptured loads
    too, and an uncaptured load's ``MW`` lookup is what the capture-miss
    test reads (``dead_cols``).  ``mem_cols`` picks the captured entries
    out of the memory-operand stream and ``fp_pos`` holds the captured FP
    records' ranks.  ``ends[name][P]`` counts what the positions before
    ``P`` hold — captured rows (``cap``), dependence slots (``dep``),
    captured memory operands (``mem``) and FP records (``fp``) — so a
    partial iteration that stopped at ``P`` is cut there, and
    ``ends[name][L]`` is a full iteration's.

    Dependence slots classify as *constant* (``-1``), *affine* (operand
    written earlier in the same iteration at captured position ``d`` →
    node ``N0 + i*W + rank[d]``), *carried* (written later in the path →
    the previous iteration's final write, ``N0 + i*W + rank[d] - W``;
    iteration 0 reads the pre-batch ``defn`` entry), *live-in* (never
    written in the path → the pre-batch ``defn`` entry), or
    *load-writer* (the runtime ``MW`` lookup a load emits).  An affine or
    carried producer at an uncaptured position is a constant ``-1``
    (iteration 0 of a carried one still reads ``defn``).  The per-slot
    pair ``dep_mask`` (1 on live affine and carried slots) and
    ``dep_off`` (``-1``, ``rank[d]`` or ``rank[d] - W``; 0 where the
    batch fills the slot) make a batch's whole dependence slab one
    expression, ``base[:, None] * dep_mask + dep_off`` with ``base`` the
    iterations' first node ids; three fancy-index assignments fill the
    carried slots' first row, the live-in slots and the load-writer
    slots.

    Def-addr classes per write event form a small lattice: ``-1``
    (zero — arithmetic, compares, allocas), ``mj >= 0`` (the mj-th
    memory operand's address: a load, or a copy/pointer-cast of one
    within the iteration), or ``-2`` (runtime-only — a select over a
    value that has an address, or a copy of a carried/live-in pointer).
    A path with any ``-2`` gets no plan (:func:`_analyze` returns
    ``None``) and its loop is rejected; for every other path the
    address column, and the def-address write-backs, are derived from
    the memory-address stream.  Each FP operand side is a gather from
    the stream (``fp_stride``/``fp_off`` over a zero slot followed by the
    stream), and live-in, carried-load and carried-zero sides patch in
    their pre-batch ``defa`` entries.  ``pre_n``/``pre_a`` read a
    batch's pre-batch ``defn`` entries (carried, then live-in slots) and
    ``defa`` entries (live-in, then first-iteration FP sides).

    Store backpatches split by where the producer lies.  ``pre_stores``
    (position, rank, memory operand, register) name one before the
    batch, through ``defn``; the ``st_*`` arrays describe those inside
    it — position, rank, memory operand, producer offset from the
    iteration's first row, and whether that is the previous
    iteration's — and ``st_shared`` says whether two of them can name
    one producer.
    """

    __slots__ = (
        "length", "rank", "width", "cap_end", "ends",
        "sids", "ops", "cnts", "dep_width", "dep_off",
        "dep_mask", "car_slots", "car_idx", "car_regs", "li_idx",
        "li_regs", "lw_idx", "lw_cols", "dead_cols", "n_mem", "n_load",
        "mem_cols", "mem_off", "fp_pos", "fp_groups",
        "fp_base", "fp_stride", "fp_off", "fp_li_idx", "fp_li_regs",
        "fp_first_idx", "fp_first_regs", "store_groups", "pre_stores",
        "st_pos", "st_rank", "st_mj", "st_poff", "st_carried", "st_shared",
        "pre_n", "pre_a", "wb",
    )


def _getter(regs):
    """A function from a register file to the tuple of its ``regs``
    entries, or ``None`` for no register."""
    if not regs:
        return None
    if len(regs) == 1:
        r = regs[0]
        return lambda values: (values[r],)
    return itemgetter(*regs)


def _analyze(entries, captured) -> Optional[_Plan]:
    """Single forward walk over the path computing the :class:`_Plan`;
    ``captured`` flags each path position that the capture set holds.
    ``None`` when a register's def-address is runtime-only."""
    L = len(entries)
    rank: List[int] = []
    cap_end: List[int] = [0]
    for cap in captured:
        rank.append(cap_end[-1] if cap else -1)
        cap_end.append(cap_end[-1] + (1 if cap else 0))
    W = cap_end[-1]
    final_w: Dict[int, int] = {}
    for P, (instr, _b, _p, _t) in enumerate(entries):
        res = getattr(instr, "result", None)
        if res is not None:
            final_w[res.index] = P

    dep_off: List[int] = []
    dep_mask: List[int] = []
    dep_end: List[int] = [0]
    car_slots: List[Tuple[int, int, int]] = []
    li_slots: List[Tuple[int, int]] = []
    lw_slots: List[Tuple[int, int]] = []
    dead_loads: List[bool] = []
    mem_rank: List[int] = []
    fp_end: List[int] = [0]
    mem_end: List[int] = [0]
    fp_raw: List[Tuple] = []
    store_groups: List[Tuple[int, int, int, int, int]] = []
    cur_w: Dict[int, int] = {}    # reg -> most recent write pos this iter
    wclass: Dict[int, int] = {}   # reg -> current def-addr class
    writes: Dict[int, List[int]] = defaultdict(list)
    aclasses: Dict[int, List[int]] = defaultdict(list)
    runtime_addr = False

    def dep_desc(op):
        if isinstance(op, VirtualReg):
            q = op.index
            if q in cur_w:
                return (1, cur_w[q], 0)       # affine
            if q in final_w:
                return (2, final_w[q], q)     # carried
            return (3, q, 0)                  # live-in
        return (0, 0, 0)                      # constant / global

    def add_dep(d):
        if not cap:
            return
        slot = len(dep_off)
        kind = d[0]
        if kind == 1 or kind == 2:
            r = rank[d[1]]
            if kind == 2:
                car_slots.append((slot, d[1], d[2]))
            if r < 0:                         # uncaptured producer
                dep_off.append(-1)
                dep_mask.append(0)
            else:
                dep_off.append(r - W if kind == 2 else r)
                dep_mask.append(1)
            return
        dep_off.append(-1 if kind == 0 else 0)
        dep_mask.append(0)
        if kind == 3:
            li_slots.append((slot, d[1]))
        elif kind == 4:
            lw_slots.append((slot, d[1]))

    def side_desc(op):
        # FP-operand address provenance (a -2 class rejects the path).
        if not isinstance(op, VirtualReg):
            return (0,)
        q = op.index
        if q in cur_w:
            c = wclass[q]
            return (0,) if c < 0 else (2, c)
        return ("p", q)                       # resolve after the walk

    def aclass_of(op):
        if not isinstance(op, VirtualReg):
            return -1
        q = op.index
        if q in cur_w:
            return wclass[q]
        return -2  # carried/live-in pointer provenance: runtime-only

    def write(r, P, ac):
        nonlocal runtime_addr
        cur_w[r] = P
        wclass[r] = ac
        writes[r].append(P)
        aclasses[r].append(ac)
        if ac == -2:
            runtime_addr = True

    for P, (instr, _b, _p, _taken) in enumerate(entries):
        opc = instr.opcode._value_
        ops = instr.operands
        cap = captured[P]

        if opc == 51:  # LOAD: pointer slot, then the load-writer slot
            add_dep(dep_desc(ops[0]))
            add_dep((4, len(dead_loads), 0))
            dead_loads.append(not cap)
            write(instr.result.index, P, len(mem_rank))
            mem_rank.append(rank[P])

        elif opc == 52:  # STORE
            vd = dep_desc(ops[0])
            add_dep(vd)
            add_dep(dep_desc(ops[1]))
            kind = vd[0]
            # A real producer -> a note_store item group; an uncaptured
            # one takes no backpatch (a carried one still may, from the
            # pre-batch ``defn`` entry).
            if cap and (kind >= 2 or (kind == 1 and rank[vd[1]] >= 0)):
                a1 = vd[1] if kind == 3 else rank[vd[1]]
                store_groups.append((P, len(mem_rank), kind, a1, vd[2]))
            mem_rank.append(rank[P])

        elif opc in _FP_ARITH:
            add_dep(dep_desc(ops[0]))
            add_dep(dep_desc(ops[1]))
            fp_raw.append((P, side_desc(ops[0]), side_desc(ops[1])))
            write(instr.result.index, P, -1)

        elif (opc in _INT_ARITH or opc in _BITWISE
              or opc in (4, 5, 30, 31, 53)):
            add_dep(dep_desc(ops[0]))
            add_dep(dep_desc(ops[1]))
            write(instr.result.index, P, -1)

        elif opc == 61:  # CBR
            add_dep(dep_desc(ops[0]))

        elif opc == 40:  # CAST
            add_dep(dep_desc(ops[0]))
            to_type = instr.result.type
            if isinstance(to_type, (IntType, FloatType)):
                ac = -1
            else:  # pointer retyping keeps provenance
                ac = aclass_of(ops[0])
            write(instr.result.index, P, ac)

        elif opc == 41:  # SELECT
            for op in ops:
                add_dep(dep_desc(op))
            ac = (-1 if aclass_of(ops[1]) == -1
                  and aclass_of(ops[2]) == -1 else -2)
            write(instr.result.index, P, ac)

        elif opc == 42:  # COPY
            add_dep(dep_desc(ops[0]))
            write(instr.result.index, P, aclass_of(ops[0]))

        elif opc == 50:  # ALLOCA
            write(instr.result.index, P, -1)

        elif opc == 63:  # CALL of an intrinsic: one slot per operand
            for op in ops:
                add_dep(dep_desc(op))
            if instr.result is not None:
                write(instr.result.index, P, -1)

        # 60 / 71 (jump / loop_next): no deps, no state.
        dep_end.append(len(dep_off))
        fp_end.append(fp_end[-1] + (1 if cap and opc in _FP_ARITH else 0))
        mem_end.append(mem_end[-1] + (1 if cap and opc in (51, 52) else 0))

    if runtime_addr:
        return None

    def fin_side(s):
        # Resolve a carried/live-in pend against the *final* write.
        if s[0] == "p":
            q = s[1]
            if q not in writes:
                return (1, q)                 # live-in
            c = aclasses[q][-1]
            return (4, q) if c < 0 else (3, c, q)  # carried zero / load
        return s

    fp_groups = [(rank[P], fin_side(s1), fin_side(s2))
                 for P, s1, s2 in fp_raw if rank[P] >= 0]

    plan = _Plan()
    NM = len(mem_rank)
    kept = [e for e, cap in zip(entries, captured) if cap]
    plan.length = L
    plan.rank = tuple(rank)
    plan.width = W
    plan.cap_end = tuple(cap_end)
    plan.sids = np.array([e[0].sid for e in kept], dtype=np.int64)
    plan.ops = np.array([e[0].opcode._value_ for e in kept], dtype=np.int8)
    plan.cnts = np.array([dep_end[P + 1] - dep_end[P]
                          for P in range(L) if captured[P]], dtype=np.intc)
    plan.dep_width = len(dep_off)
    plan.dep_off = np.array(dep_off, dtype=np.int64)
    plan.dep_mask = np.array(dep_mask, dtype=np.int64)
    plan.car_slots = tuple(car_slots)
    plan.car_idx = np.array([c[0] for c in car_slots], dtype=np.intp)
    plan.car_regs = tuple(c[2] for c in car_slots)
    plan.li_idx = np.array([c[0] for c in li_slots], dtype=np.intp)
    plan.li_regs = tuple(c[1] for c in li_slots)
    plan.lw_idx = np.array([c[0] for c in lw_slots], dtype=np.intp)
    plan.lw_cols = np.array([c[1] for c in lw_slots], dtype=np.intp)
    plan.dead_cols = (np.flatnonzero(dead_loads) if any(dead_loads)
                      else None)
    plan.n_mem = NM
    plan.n_load = len(dead_loads)
    plan.mem_cols = np.flatnonzero([r >= 0 for r in mem_rank])
    plan.mem_off = np.array([r for r in mem_rank if r >= 0],
                            dtype=np.int64)
    plan.fp_pos = np.array([g[0] for g in fp_groups], dtype=np.int64)
    plan.fp_groups = tuple(fp_groups)
    plan.ends = {name: np.array(counts, dtype=np.int64) for name, counts in (
        ("cap", cap_end), ("dep", dep_end), ("mem", mem_end),
        ("fp", fp_end))}
    # Derived FP operand addresses gather from ``[zeros(fp_base),
    # stream]``: a same-iteration load reads its iteration's slot, a
    # carried load the previous one's (the zero block, for iteration 0),
    # and every other side the first zero.
    plan.fp_base = max(NM, 1)
    stride: List[int] = []
    off: List[int] = []
    li: List[Tuple[int, int]] = []
    first: List[Tuple[int, int]] = []
    for _r, d1, d2 in fp_groups:
        for d in (d1, d2):
            s = len(stride)
            kd = d[0]
            if kd == 2:                       # same-iteration load
                stride.append(NM)
                off.append(plan.fp_base + d[1])
            elif kd == 3:                     # carried load
                stride.append(NM)
                off.append(plan.fp_base - NM + d[1])
                first.append((s, d[2]))
            else:
                stride.append(0)
                off.append(0)
                if kd == 1:                   # live-in: every iteration
                    li.append((s, d[1]))
                elif kd == 4:                 # carried zero: iteration 0
                    first.append((s, d[1]))
    plan.fp_stride = np.array(stride, dtype=np.int64)
    plan.fp_off = np.array(off, dtype=np.int64)
    plan.fp_li_idx = np.array([c[0] for c in li], dtype=np.intp)
    plan.fp_li_regs = tuple(c[1] for c in li)
    plan.fp_first_idx = np.array([c[0] for c in first], dtype=np.intp)
    plan.fp_first_regs = tuple(c[1] for c in first)
    plan.store_groups = tuple(store_groups)
    # Backpatches whose producer lies before the batch: iteration 0 of
    # a carried store (``defn[a2]``) and a live-in one (``defn[a1]``; a
    # later iteration's store of it loses under first-store-wins).  All
    # the others name a producer inside the batch.
    plan.pre_stores = tuple(
        (P, rank[P], mj, a2 if kind == 2 else a1)
        for P, mj, kind, a1, a2 in store_groups if kind >= 2)
    inner = [(P, rank[P], mj, a1 if kind == 1 else a1 - W, kind == 2)
             for P, mj, kind, a1, _a2 in store_groups
             if kind == 1 or (kind == 2 and a1 >= 0)]
    plan.st_pos, plan.st_rank, plan.st_mj, plan.st_poff = (
        np.array([g[i] for g in inner], dtype=np.int64) for i in range(4))
    plan.st_carried = np.array([g[4] for g in inner], dtype=bool)
    # Two of them name one producer only if they share its rank.
    plan.st_shared = len({g[3] + W * g[4] for g in inner}) < len(inner)
    plan.pre_n = _getter(plan.car_regs + plan.li_regs)
    plan.pre_a = _getter(plan.fp_li_regs + plan.fp_first_regs)
    plan.wb = tuple(
        (r, tuple(writes[r]), tuple(aclasses[r]),
         tuple(rank[P] for P in writes[r])) for r in sorted(writes))
    return plan


class LoopKernel:
    """A compiled loop body: path metadata plus one kernel function.

    One kernel serves every dispatch of the loop.  It always accumulates
    the memory-address stream, and the load-writer stream when
    recording: a recording dispatch keeps both for the derivation of
    its trace columns (:class:`PendingBatches`), and every dispatch
    derives the def-address write-backs from the address stream
    (:func:`_writeback`).  The function is generated and compiled
    on first use.  ``plan`` is the path's :func:`_analyze` under the
    run's capture set; the kernel numbers only the captured positions,
    so it serves only runs with the same capture set.
    """

    __slots__ = (
        "loop_id", "length", "anchor", "entry", "resume", "plan",
        "op_pat", "count_items", "calls", "gained",
        "_entries", "_gaddr", "_fn", "_src",
    )

    def __init__(self, loop_id: int, entries, anchor, global_addr,
                 plan: _Plan):
        self.loop_id = loop_id
        self.length = len(entries)
        self.anchor = anchor
        first = entries[0][0]
        #: the header block the path's leading ``jump`` targets: a
        #: ``loop_enter`` followed by a jump there starts an iteration
        #: of this very path.  ``None`` (no entry dispatch) when the
        #: path starts with anything else, e.g. a do-while's ``cbr``.
        #: A jump has no operand, so a capture set holds every jump or
        #: none, and the entry jump is captured just when this one is.
        self.entry = first.targets[0] if first.opcode._value_ == 60 else None
        #: (block, in-block index) per path position — the step
        #: interpreter resumes here on deopt at that position.
        self.resume = tuple((blk, pc) for _instr, blk, pc, _tk in entries)
        self.plan = plan
        self.op_pat = [e[0].opcode._value_ for e in entries]
        self.count_items = tuple(Counter(self.op_pat).items())
        self.calls = 0
        self.gained = 0
        self._entries = entries
        self._gaddr = global_addr
        self._fn = None
        self._src = ""

    def source(self) -> str:
        """The generated kernel source (for tests and introspection)."""
        self.fn(True)
        return self._src

    def pending(self) -> "PendingBatches":
        """An empty group for this kernel's recording batches in a sink."""
        return PendingBatches(self.plan)

    def fn(self, recording: bool):
        """The kernel function, generated and compiled on first call.

        ``recording`` does not select anything: the one kernel serves
        recording and non-recording dispatches alike.  The parameter
        stays because ``perfbench/tracer.py`` wraps this method, with
        this signature, to count the batches of every dispatch.
        """
        f = self._fn
        if f is None:
            run = current_run()
            tel = run.tel
            with tel.span("interp.compile.build"):
                src, ns = _generate(self._entries, self._gaddr, self.plan)
                exec(compile(src, f"<vectra-kernel-loop{self.loop_id}>",
                             "exec"), ns)
                f = self._fn = ns["_kernel"]
            self._src = src
            if tel.enabled:
                tel.count("interp.compile.kernels")
            run.bus.count("kernels")
            _log.debug("compiled loop %d (%d records/iter)", self.loop_id,
                       self.length)
        return f


# -- code generation ---------------------------------------------------------


def _tuple_assign(targets: List[str], values: List[str]) -> str:
    """One assignment statement binding ``targets`` to ``values``."""
    return f"{', '.join(targets)} = {', '.join(values)}"


def _generate(entries, global_addr, plan: _Plan):
    """Generate the kernel source for a recorded path.

    Returns ``(source, namespace)`` where ``namespace`` carries the
    helpers and non-literal constants (alloca types, intrinsics) the
    source needs.  The generated ``_kernel(B, N0, V, MEM, MW, ALLOC, R)``
    runs up to ``B`` iterations, returning ``(k, dpc, ma, lw)`` — ``k``
    completed iterations and, when a guard failed, the path position
    ``dpc`` to resume stepping at (``-1`` for a full batch); ``ma``
    holds one address per executed memory operand, and ``lw`` one ``MW``
    lookup per executed load when ``R`` (a recording dispatch: only the
    column derivation reads ``lw``) and none otherwise.  Positions before
    ``dpc`` in the partial iteration have executed; position ``dpc`` and
    later have not.  A store records its node id in ``MW`` (``N0`` numbers
    the batch's first captured record), or ``-1`` when the capture set
    does not hold it.

    The source is kept short, since compiling it is a large share of a
    short run's cost:

    - every register the path touches is loaded from ``V`` in one
      tuple assignment, and every register it writes is stored back in
      one (a guard can fail before a register's first write in the very
      first iteration, so the write-back must see the pre-batch value);
    - a pointer register is guarded once per iteration until the path
      writes it again — an unchanged value that passed the guard passes
      it again — and a global's address is never guarded;
    - a guard, and the wrap of an integer result, is one statement.

    The kernel tracks no operand addresses: the column derivation
    (:class:`_Derivation`) and :func:`_writeback` derive them from
    ``ma``.
    """
    from repro.interp.interpreter import _INTRINSICS, _cdiv, _f32
    from repro.runtime.memory import default_value

    consts: Dict[str, object] = {"_f32": _f32, "_cdiv": _cdiv}
    touched: set = set()
    written: set = set()
    # pointer registers that passed a guard since their last write
    guarded: set = set()
    stamps = False  # a captured store writes ``nb`` into MW
    body: List[str] = []
    o = body.append

    def vx(op) -> str:
        if isinstance(op, VirtualReg):
            touched.add(op.index)
            return f"v{op.index}"
        if isinstance(op, Constant):
            return f"({op.value!r})"
        return repr(global_addr[op.name])  # GlobalRef

    def deopt(cond: str, P: int) -> None:
        o(f"if {cond}: dpc = {P}; break")

    def pointer(op, P: int) -> str:
        pe = vx(op)
        if isinstance(op, GlobalRef):
            return pe
        if isinstance(op, VirtualReg):
            if op.index in guarded:
                return pe
            guarded.add(op.index)
        deopt(f"type({pe}) is not int or {pe} <= 0", P)
        return pe

    def wrote(r: int) -> None:
        touched.add(r)
        written.add(r)
        guarded.discard(r)

    def define(r: int, expr: str) -> None:
        o(f"v{r} = {expr}")
        wrote(r)

    def wrap_int(r: int, bits: int) -> None:
        # ``v >> (bits - 1)`` runs first, as in the step interpreter, so
        # a float operand raises the same TypeError.
        half = 1 << (bits - 1)
        o(f"if v{r} >> {bits - 1} not in (0, -1):"
          f" v{r} = ((v{r} + {half}) & {(1 << bits) - 1}) - {half}")

    for P, (instr, _blk, _pc, taken) in enumerate(entries):
        opc = instr.opcode._value_
        ops = instr.operands

        if opc == 51:  # LOAD: stream entries read the pointer first
            pe = pointer(ops[0], P)
            o(f"R and lwa(MWg({pe}, -1)); maa({pe})")
            dv = default_value(instr.result.type)
            define(instr.result.index, f"MEMg({pe}, {dv!r})")

        elif opc == 52:  # STORE
            ve = vx(ops[0])
            pe = pointer(ops[1], P)
            r = plan.rank[P]
            stamps = stamps or r >= 0
            writer = f"nb + {r}" if r >= 0 else "-1"
            o(f"MEM[{pe}] = {ve}; MW[{pe}] = {writer}; maa({pe})")

        elif opc in _FP_ARITH:
            ae = vx(ops[0])
            be = vx(ops[1])
            if opc == 13:
                deopt(f"{be} == 0.0", P)
            expr = f"{ae} {_FP_ARITH[opc]} {be}"
            if instr.result.type.bits == 32:
                expr = f"_f32({expr})"
            define(instr.result.index, expr)

        elif opc in _INT_ARITH or opc in _BITWISE:
            sym = _INT_ARITH.get(opc) or _BITWISE[opc]
            r = instr.result.index
            define(r, f"{vx(ops[0])} {sym} {vx(ops[1])}")
            wrap_int(r, instr.result.type.bits)

        elif opc == 53:  # PTRADD
            define(instr.result.index, f"{vx(ops[0])} + {vx(ops[1])}")

        elif opc == 30 or opc == 31:  # ICMP / FCMP
            cmp = _CMP_OPS.get(instr.pred, "!=")
            define(instr.result.index,
                   f"1 if {vx(ops[0])} {cmp} {vx(ops[1])} else 0")

        elif opc == 61:  # CBR — guard the recorded direction
            ce = vx(ops[0])
            deopt(f"not {ce}" if taken else ce, P)

        elif opc == 60 or opc == 71:  # JUMP / LOOP_NEXT: no deps, no state
            pass

        elif opc == 40:  # CAST
            ve = vx(ops[0])
            to_type = instr.result.type
            r = instr.result.index
            if isinstance(to_type, IntType):
                define(r, f"int({ve}) if type({ve}) is float else {ve}")
                wrap_int(r, to_type.bits)
            elif isinstance(to_type, FloatType):
                define(r, f"_f32(float({ve}))" if to_type.bits == 32
                       else f"float({ve})")
            else:  # pointer retyping keeps provenance
                define(r, ve)

        elif opc == 4 or opc == 5:  # SDIV / SREM
            ae = vx(ops[0])
            be = vx(ops[1])
            deopt(f"{be} == 0", P)
            if opc == 4:
                define(instr.result.index, f"_cdiv({ae}, {be})")
            else:
                define(instr.result.index,
                       f"{ae} - _cdiv({ae}, {be}) * {be}")

        elif opc == 41:  # SELECT
            ce = vx(ops[0])
            ae = vx(ops[1])
            be = vx(ops[2])
            define(instr.result.index, f"{ae} if {ce} else {be}")

        elif opc == 42:  # COPY
            define(instr.result.index, vx(ops[0]))

        elif opc == 50:  # ALLOCA
            consts[f"T{P}"] = instr.alloc_type
            define(instr.result.index, f"ALLOC(T{P})")

        elif opc == 63:  # CALL of an intrinsic — any exception deopts
            # The step interpreter's own function object, so values are
            # identical by construction; on an exception it re-executes
            # the call and raises exactly what it always raises.
            consts[f"F{P}"] = _INTRINSICS[instr.callee]
            call = f"F{P}({', '.join(vx(a) for a in ops)})"
            res = instr.result
            if res is None:
                o(f"try: {call}")
            else:
                o(f"try: v{res.index} = {call}")
            o(f"except Exception: dpc = {P}; break")
            if res is not None:
                wrote(res.index)

        else:  # pragma: no cover - build() validates the path first
            raise AssertionError(f"unsupported opcode {opc} in path")

    lines = ["def _kernel(B, N0, V, MEM, MW, ALLOC, R):"]
    w = lines.append
    if plan.n_load:
        w("    MEMg = MEM.get; MWg = MW.get; lw = []; lwa = lw.append")
    if plan.n_mem:
        w("    ma = []; maa = ma.append")
    if touched:
        regs = sorted(touched)
        w("    " + _tuple_assign([f"v{i}" for i in regs],
                                 [f"V[{i}]" for i in regs]))
    w("    dpc = -1")
    w("    for k in range(B):")
    if stamps:
        w(f"        nb = N0 + k * {plan.width}")
    for line in body:
        w("        " + line)
    w("    else:")
    w("        k = B")
    if written:
        regs = sorted(written)
        w("    " + _tuple_assign([f"V[{i}]" for i in regs],
                                 [f"v{i}" for i in regs]))
    w(f"    return k, dpc, {'ma' if plan.n_mem else '()'},"
      f" {'lw' if plan.n_load else '()'}")
    return "\n".join(lines) + "\n", consts


# -- column derivation -------------------------------------------------------


#: A kernel's pending batches are derived in blocks of about this many
#: captured rows (the batches that end within one such stretch of the
#: window), so no temporary spans a whole window.
DERIVE_BLOCK_ROWS = 1 << 14

#: Stream padding for a partial iteration's unexecuted tail: no address,
#: no writer.
_NO_ADDRS = array("q", bytes(8 * MAX_PATH_LEN))
_NO_WRITERS = array("q", [-1]) * MAX_PATH_LEN


class PendingBatches:
    """The recording batches one kernel dispatched into one sink since
    the sink's columns were last read, kept raw.

    A recording dispatch derives no columns.  The sink reserves the
    batch's rows (:meth:`~repro.trace.columnar.ColumnarSink.reserve`)
    and adds here what derivation needs: where the batch starts (sink
    row and node id), its full iterations and the path positions of the
    partial one, the entry ``jump``'s sid when that replaces the first
    record's (``-1`` otherwise), the raw ``ma``/``lw`` streams as int64,
    padded to whole iterations, and the few pre-batch ``defn``/``defa``
    entries its carried and live-in slots read.  When the columns are
    read, every batch of the kernel is derived in one vectorized pass
    (:class:`_Derivation`).
    """

    __slots__ = ("plan", "row0", "node0", "iters", "part", "sid0", "ma",
                 "lw", "pre_n", "pre_a")

    def __init__(self, plan: _Plan):
        self.plan = plan
        self.row0: List[int] = []
        self.node0: List[int] = []
        self.iters: List[int] = []
        self.part: List[int] = []
        self.sid0: List[int] = []
        self.ma = array("q")
        self.lw = array("q")
        self.pre_n = array("q")
        self.pre_a = array("q")

    def add(self, row0, N0, k, part, sid0, ma, lw, defn, defa):
        """One batch of ``k`` full iterations and the first ``part`` path
        positions of one more.  Must run *before* :func:`_writeback`:
        the pre-batch ``defn``/``defa`` entries are read here.

        Returns the batch's store backpatches whose producer lies before
        it (a carried store's in iteration 0, a live-in store's), as
        ``(store row offset, producer node, address)`` in store order.
        """
        plan = self.plan
        self.row0.append(row0)
        self.node0.append(N0)
        self.iters.append(k)
        self.part.append(part)
        self.sid0.append(sid0)
        if ma:
            self.ma.fromlist(ma)
        if lw:
            self.lw.fromlist(lw)
        if part:
            rows = k + 1
            self.ma.extend(_NO_ADDRS[:rows * plan.n_mem - len(ma)])
            self.lw.extend(_NO_WRITERS[:rows * plan.n_load - len(lw)])
        if plan.pre_n is not None:
            self.pre_n.extend(plan.pre_n(defn))
        if plan.pre_a is not None:
            self.pre_a.extend(plan.pre_a(defa))
        return [(r, defn[q], ma[mj]) for P, r, mj, q in plan.pre_stores
                if defn[q] >= 0 and (k or P < part)]

    def markers(self, k: int) -> range:
        """The row offsets of a batch's loop-marker records: each full
        iteration ends on its ``loop_next``."""
        W = self.plan.width
        return range(W - 1, k * W, W)

    def derivation(self) -> "_Derivation":
        """Every batch, as arrays ready to derive."""
        return _Derivation(self.plan, self.row0, self.node0, self.iters,
                           self.part, self.sid0, self.ma, self.lw,
                           self.pre_n, self.pre_a)


def _cut(grid, ends):
    """The entries of each grid row left of its ``ends`` entry, row-major
    (each row's leading entries are what executed)."""
    if (ends == grid.shape[1]).all():
        return grid.reshape((-1,) + grid.shape[2:])
    return grid[np.arange(grid.shape[1]) < ends[:, None]]


class _Block(NamedTuple):
    """The iteration rows of a block of batches ``b0 .. b1-1``."""

    b0: int
    b1: int
    R: int
    #: each batch's first row, and each row's batch and iteration.
    first: np.ndarray
    bj: np.ndarray
    it: np.ndarray
    #: the path positions each row executed: all, or up to a deopt.
    cut: np.ndarray
    #: the rows a deopt cut short (at most one per batch).
    short: np.ndarray


class _Derivation:
    """Pending batches of one kernel as arrays, derived together.

    Each batch is laid out as the rows of a grid per column — one row
    per iteration, the partial one included, and one column per captured
    path position, dependence slot, memory operand, FP operand or store
    — and each row is cut at the count of what executed, so one pass of
    vectorized calls serves every batch of a block, however many batches
    and whatever the path length.  The window's columns are written in
    two steps (:func:`repro.trace.columnar.derive_rows`): :meth:`place`
    writes the dense per-row columns; once every row's first dependence
    is known, :meth:`fill` writes the dependence column, returns the
    sparse columns and the capture misses, and resolves the store
    backpatches whose producer lies inside a batch.  Dense entries are
    scattered straight to their rows; a partial iteration's cut-off
    entries go to one spare slot past the window's.  ``uncaptured``
    counts the records the capture set did not hold.
    """

    __slots__ = ("plan", "row0", "node0", "iters", "part", "sid0", "ncap",
                 "rfirst", "ma", "lw", "pre_n", "pre_a", "blocks",
                 "uncaptured")

    def __init__(self, plan, row0, node0, iters, part, sid0, ma, lw, pre_n,
                 pre_a):
        self.plan = plan
        self.row0 = np.array(row0, dtype=np.int64)
        self.node0 = np.array(node0, dtype=np.int64)
        k = self.iters = np.array(iters, dtype=np.int64)
        p = self.part = np.array(part, dtype=np.int64)
        self.sid0 = np.array(sid0, dtype=np.int64)
        nb = len(k)
        self.ncap = k * plan.width + plan.ends["cap"][p]
        #: each batch's first stream row (streams hold whole rows), and
        #: the total.
        self.rfirst = np.zeros(nb + 1, dtype=np.int64)
        np.cumsum(k + (p > 0), out=self.rfirst[1:])
        self.ma = np.frombuffer(ma, dtype=np.int64)
        self.lw = np.frombuffer(lw, dtype=np.int64)
        self.pre_n = (np.frombuffer(pre_n, dtype=np.int64).reshape(nb, -1)
                      if len(pre_n) else None)
        self.pre_a = (np.frombuffer(pre_a, dtype=np.int64).reshape(nb, -1)
                      if len(pre_a) else None)
        self.uncaptured = int((k * plan.length + p).sum() - self.ncap.sum())
        cap = np.cumsum(self.ncap)
        total = int(cap[-1]) if nb else 0
        cuts = np.searchsorted(
            cap, np.arange(DERIVE_BLOCK_ROWS, total, DERIVE_BLOCK_ROWS),
            side="right")
        self.blocks = sorted({0, nb, *cuts.tolist()})

    def _blocks(self):
        plan = self.plan
        bounds = self.blocks
        for b0, b1 in zip(bounds, bounds[1:]):
            first = self.rfirst[b0:b1 + 1] - self.rfirst[b0]
            R = int(first[-1])
            first = first[:-1]
            bj = np.repeat(np.arange(b1 - b0), np.diff(self.rfirst[b0:b1 + 1]))
            it = np.arange(R) - first[bj]
            cut = np.where(it == self.iters[b0:b1][bj],
                           self.part[b0:b1][bj], plan.length)
            yield _Block(b0, b1, R, first, bj, it, cut,
                         np.flatnonzero(cut < plan.length))

    def _scatter(self, blk, shift, width, ends):
        """The destination of every grid entry: row ``r``'s run from
        ``shift[r]`` on, its cut-off tail at ``-1`` (the spare slot)."""
        dest = shift[:, None] + np.arange(width)
        if len(blk.short):
            s = blk.short
            dest[s] = np.where(np.arange(width) < ends[blk.cut[s]][:, None],
                               dest[s], -1)
        return dest

    def place(self, sids, ops, cnts, lo: int) -> None:
        """Write the batches' sid, opcode and dependence-count columns
        into the window's arrays, whose index 0 is sink row ``lo``."""
        plan = self.plan
        W = plan.width
        for blk in self._blocks():
            dest = self._scatter(
                blk, (self.row0[blk.b0:blk.b1] - lo)[blk.bj] + blk.it * W, W,
                plan.ends["cap"])
            sids[dest] = plan.sids
            ops[dest] = plan.ops
            cnts[dest] = plan.cnts
        entry = self.sid0 >= 0
        sids[self.row0[entry] - lo] = self.sid0[entry]

    def fill(self, dep, dstart, lo: int, store_map, items=None):
        """Write the batches' dependences into ``dep``, row ``r``'s from
        ``dstart[r - lo]`` on; return ``(addr_rows, addr_pairs, mem_rows,
        mem_vals, misses)``, rows as sink rows.

        A store backpatch whose producer lies inside a batch goes into
        ``store_map``, the first of a producer's stores winning, over any
        entry a later store already put there.  Given ``items``, they
        are appended to it instead, as ``(store row, producer node,
        address)`` in store order.
        """
        out = [self._fill(blk, dep, dstart, lo, store_map, items)
               for blk in self._blocks()]
        if len(out) == 1:
            return out[0]
        return (*(np.concatenate(col) for col in list(zip(*out))[:4]),
                sum(o[4] for o in out))

    def _fill(self, blk, dep, dstart, lo, store_map, items):
        plan = self.plan
        W = plan.width
        DW = plan.dep_width
        NM = plan.n_mem
        ends = plan.ends
        b0, b1, R = blk.b0, blk.b1, blk.R
        first, bj, it, cut = blk.first, blk.bj, blk.it, blk.cut
        base = self.node0[b0:b1][bj] + it * W
        rbase = self.row0[b0:b1][bj] + it * W
        r0, r1 = self.rfirst[b0], self.rfirst[b1]

        deps = base[:, None] * plan.dep_mask + plan.dep_off
        nc = len(plan.car_regs)
        if nc:
            deps[first[:, None], plan.car_idx] = self.pre_n[b0:b1, :nc]
        if plan.li_regs:
            deps[:, plan.li_idx] = self.pre_n[b0:b1][bj, nc:]
        misses = 0
        if plan.n_load:
            writers = self.lw[r0 * plan.n_load:r1 * plan.n_load].reshape(
                R, plan.n_load)
            deps[:, plan.lw_idx] = writers[:, plan.lw_cols]
            if plan.dead_cols is not None:
                misses = int(np.count_nonzero(
                    writers[:, plan.dead_cols] >= 0))
        shift = (dstart[self.row0[b0:b1] - lo] - first * DW)[bj]
        dep[self._scatter(blk, shift + np.arange(R) * DW, DW,
                          ends["dep"])] = deps

        stream = self.ma[r0 * NM:r1 * NM].reshape(R, NM)
        mem_end = ends["mem"][cut]
        mem_vals = _cut(stream[:, plan.mem_cols], mem_end)
        mem_rows = _cut(rbase[:, None] + plan.mem_off, mem_end)
        nfp = len(plan.fp_pos)
        if nfp:
            grid = np.zeros(plan.fp_base + R * NM, dtype=np.int64)
            grid[plan.fp_base:] = stream.reshape(-1)
            sides = grid[np.arange(R)[:, None] * plan.fp_stride + plan.fp_off]
            nl = len(plan.fp_li_regs)
            if nl:
                sides[:, plan.fp_li_idx] = self.pre_a[b0:b1][bj, :nl]
            if plan.fp_first_regs:
                sides[first[:, None], plan.fp_first_idx] = (
                    self.pre_a[b0:b1, nl:])
            fp_end = ends["fp"][cut]
            addr_pairs = _cut(sides.reshape(R, nfp, 2), fp_end)
            addr_rows = _cut(rbase[:, None] + plan.fp_pos, fp_end)
        else:
            addr_pairs = _NO_PAIRS
            addr_rows = _NO_NODES

        if len(plan.st_pos):
            # Stores that executed, and whose producer lies in the batch:
            # a carried one's in iterations after the first.
            ok = plan.st_pos < cut[:, None]
            ok &= (it > 0)[:, None] | ~plan.st_carried
            addrs = stream[:, plan.st_mj][ok]
            if items is None:
                prod = (rbase[:, None] + plan.st_poff)[ok]
                if plan.st_shared:
                    # Row-major is store order: keep each producer's first.
                    prod, firsts = np.unique(prod, return_index=True)
                    addrs = addrs[firsts]
                store_map.update(zip(prod.tolist(), addrs.tolist()))
            else:
                items.extend(zip(
                    (rbase[:, None] + plan.st_rank)[ok].tolist(),
                    (base[:, None] + plan.st_poff)[ok].tolist(),
                    addrs.tolist()))
        return addr_rows, addr_pairs, mem_rows, mem_vals, misses


#: The operand-address columns of a block without FP records.
_NO_NODES = np.empty(0, dtype=np.int64)
_NO_PAIRS = np.empty((0, 2), dtype=np.int64)
_NO_NODES.flags.writeable = _NO_PAIRS.flags.writeable = False


def _writeback(plan, N0, k, part, defn, defa, ma):
    """Update ``defn``/``defa`` for every register the batch wrote.

    The last write visible to the step interpreter is the final full
    iteration's — or, after a deopt, the partial iteration's last write
    *before* the failed guard; a write at an uncaptured position leaves
    ``-1``.  ``defa`` is reconstructed from the memory-address stream,
    for recording and non-recording dispatches alike.
    """
    W = plan.width
    nfin = N0 + k * W
    NM = plan.n_mem
    if part:
        for r, wl, al, wn in plan.wb:
            j = bisect_left(wl, part)
            if j:
                j -= 1
                o = wn[j]
                defn[r] = nfin + o if o >= 0 else -1
                a = al[j]
                defa[r] = 0 if a < 0 else ma[k * NM + a]
            elif k:
                o = wn[-1]
                defn[r] = nfin - W + o if o >= 0 else -1
                a = al[-1]
                defa[r] = 0 if a < 0 else ma[(k - 1) * NM + a]
    elif k:
        for r, _wl, al, wn in plan.wb:
            o = wn[-1]
            defn[r] = nfin - W + o if o >= 0 else -1
            a = al[-1]
            defa[r] = 0 if a < 0 else ma[(k - 1) * NM + a]


# -- the compiler ------------------------------------------------------------


class KernelTable(dict):
    """The kernels of one analysis: loop id -> :class:`LoopKernel`, or
    :data:`REJECTED`.

    The interpreters of one analysis of one module may share a table, so
    a later run dispatches the kernels an earlier run built from its
    first iteration on.  Sharing is exact: guards make a kernel correct
    from any entry state, and every interpreter of a module lays its
    globals out at the same addresses, the ones a kernel bakes in.

    ``capture`` is the capture set of every run that uses the table (a
    set of sids, or ``None`` for every instruction;
    :func:`repro.analysis.candidates.capture_sids`): a kernel numbers
    only the records its capture set holds, so runs with another set
    need another table.  :meth:`reset` empties the table for a new set.
    ``fails`` counts each loop's aborted recordings over all those runs,
    so a loop whose recordings keep straddling its exit is rejected
    after :data:`MAX_RECORD_FAILURES` of them in total.
    """

    def __init__(self, capture=None):
        super().__init__()
        self.capture = capture
        self.fails: Dict[int, int] = defaultdict(int)

    def reset(self, capture) -> None:
        """Drop every kernel and strike; later runs capture ``capture``."""
        self.clear()
        self.fails.clear()
        self.capture = capture


class TraceCompiler:
    """Per-interpreter trace-replay compiler: hotness, recording,
    kernel construction, and batch dispatch.

    ``kernels`` is the :class:`KernelTable` the interpreter was given
    (a fresh one when none was), whose capture set the interpreter's
    runs follow.
    """

    __slots__ = ("interp", "threshold", "batch_iters", "kernels", "_fails")

    def __init__(self, interp, threshold: Optional[int] = None,
                 batch_iters: int = BATCH_ITERS,
                 kernels: Optional[KernelTable] = None):
        from repro.profiler.hotloops import HOT_LOOP_THRESHOLD

        self.interp = interp
        self.threshold = (HOT_LOOP_THRESHOLD if threshold is None
                          else threshold)
        self.batch_iters = batch_iters
        #: loop id -> LoopKernel, or :data:`REJECTED`.
        self.kernels = KernelTable() if kernels is None else kernels
        self._fails = self.kernels.fails

    # -- recording lifecycle ------------------------------------------------

    def begin(self, loop_id: int, block, pc: int) -> _Recording:
        return _Recording(loop_id, block, pc)

    def reject(self, loop_id: int, reason: str = "unspecified") -> None:
        """Permanently exclude a loop (user call/nested loop/oversized path).

        The rejection drops a ``compile.kernel.rejected`` timeline
        instant carrying the reason, so a Perfetto view shows *why* a
        loop fell back to the step interpreter.
        """
        self.kernels[loop_id] = REJECTED
        current_run().tel.instant("compile.kernel.rejected",
                                  {"loop": loop_id, "reason": reason})
        _log.debug("loop %d rejected for compilation: %s", loop_id,
                   reason)

    def abort(self, loop_id: int) -> None:
        """Transient recording failure (the loop exited mid-recording);
        rejected outright after :data:`MAX_RECORD_FAILURES` strikes."""
        self._fails[loop_id] += 1
        if self._fails[loop_id] >= MAX_RECORD_FAILURES:
            self.reject(
                loop_id,
                f"recording aborted {MAX_RECORD_FAILURES} times "
                f"(loop exits mid-path)",
            )

    def build(self, rec: _Recording, cur_loop: int) -> None:
        """Validate a completed recording and construct its kernel."""
        from repro.interp.interpreter import _INTRINSICS

        lid = rec.loop_id
        path = rec.path
        if cur_loop != lid or len(path) < 2:
            self.abort(lid)
            return
        last = path[-1][0]
        if last.opcode._value_ != 71 or last.loop_id != lid:
            self.abort(lid)
            return
        entries = []
        n = len(path)
        for i, (instr, blk, pc) in enumerate(path):
            opc = instr.opcode._value_
            if opc == 71:
                if i != n - 1:
                    self.reject(lid, "loop_next mid-path")
                    return
                taken = False
            elif opc == 61:
                taken = path[i + 1][1] is instr.targets[0]
            elif opc in _DEP_COUNTS or (opc == 63
                                         and instr.callee in _INTRINSICS):
                taken = False
            else:
                # user calls/ret/markers should have stopped the capture;
                # any other opcode simply is not specialized.
                self.reject(lid, f"unspecialized opcode {opc}")
                return
            entries.append((instr, blk, pc, taken))
        captured = self.interp.captured
        plan = _analyze(entries, [captured[e[0].sid] for e in entries])
        if plan is None:
            self.reject(lid, "runtime-only operand address (a select over "
                             "an addressed value, or a copy of a carried "
                             "or live-in pointer)")
            return
        kern = LoopKernel(lid, entries, (rec.block, rec.pc),
                          self.interp.global_addr, plan)
        self.kernels[lid] = kern
        current_run().tel.instant(
            "compile.kernel.recorded",
            {"loop": lid, "records_per_iter": kern.length},
        )

    # -- batch dispatch -----------------------------------------------------

    def dispatch(self, kern: LoopKernel, values, defn, defa, sink,
                 recording: bool, cur_loop: int, loop_key: int,
                 entry_sid: Optional[int] = None):
        """Run batches of the kernel until a guard deoptimizes.

        Returns ``(resume_block, resume_pc, iterations)`` — the step
        interpreter continues from there — or ``None`` when fewer than
        one iteration of fuel remains (the step interpreter then burns
        the tail and raises ``FuelExhaustedError`` at the exact budget).
        ``entry_sid`` marks a dispatch at ``loop_enter``: the sid of
        the entry ``jump`` that stands in for the path's first record.
        """
        interp = self.interp
        L = kern.length
        plan = kern.plan
        fuel = interp.fuel
        room = (fuel - interp._executed) // L
        if room <= 0:
            return None
        counts = interp.op_counts
        mem = interp.memory.data
        mw = interp._mem_writer
        alloc = interp.memory.alloc_stack
        # Positional on purpose: perfbench/tracer.py wraps LoopKernel.fn.
        fn = kern.fn(recording)
        batch = self.batch_iters
        total = 0
        batches = 0
        guard_exit = False
        run = current_run()
        tel = run.tel
        # Per-batch iteration counts (k) feed the batch_iterations
        # histogram; collected only under telemetry so the disabled
        # dispatch path is unchanged.
        ks = [] if tel.enabled else None
        W = plan.width
        # The entry jump's sid replaces the first record's, if captured.
        sid0 = (entry_sid if entry_sid is not None and plan.rank[0] >= 0
                else -1)
        while True:
            B = batch if batch < room else room
            N0 = interp._node
            k, dpc, ma, lw = fn(B, N0, values, mem, mw, alloc, recording)
            batches += 1
            if ks is not None:
                ks.append(k)
            part = dpc if dpc > 0 else 0
            nrec = k * L + part
            if nrec:
                ncap = k * W + plan.cap_end[part]
                interp._node = N0 + ncap
                interp._executed += nrec
                if k:
                    for opc_i, c in kern.count_items:
                        counts[loop_key + opc_i] += c * k
                if part:
                    for opc_i in kern.op_pat[:part]:
                        counts[loop_key + opc_i] += 1
                if recording:
                    sink.reserve(kern, N0, cur_loop, ncap, k, part, sid0,
                                 ma, lw, defn, defa)
                _writeback(plan, N0, k, part, defn, defa, ma)
                total += k
            sid0 = -1
            if dpc >= 0:
                guard_exit = True
                resume = kern.resume[dpc]
                break
            room = (fuel - interp._executed) // L
            if room <= 0:
                resume = kern.anchor
                break
        kern.calls += 1
        kern.gained += total
        if kern.calls >= MIN_USEFUL_CALLS and kern.gained < kern.calls:
            # Guards fail nearly every dispatch: batching buys nothing
            # for this loop, so retire the kernel and step instead.
            self.kernels[kern.loop_id] = REJECTED
            tel.instant(
                "compile.kernel.retired",
                {"loop": kern.loop_id, "calls": kern.calls,
                 "iterations": kern.gained},
            )
            _log.debug("loop %d kernel retired (%d iterations over %d "
                       "dispatches)", kern.loop_id, kern.gained,
                       kern.calls)
        if guard_exit:
            tel.instant(
                "compile.kernel.deopt",
                {"loop": kern.loop_id, "at": dpc,
                 "iterations": total},
            )
        if tel.enabled:
            tel.count("interp.compile.batches", batches)
            tel.count("interp.compile.iterations", total)
            tel.count("interp.compile.deopts")
            if guard_exit:
                tel.count("interp.compile.guard_exits")
            for k in ks:
                tel.observe("interp.compile.batch_iterations", k)
        run.bus.count("batches", batches)
        return resume[0], resume[1], total
