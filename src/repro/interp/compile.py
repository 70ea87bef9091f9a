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
   global addresses folded in at codegen time.
3. **Derived columns.**  Record node ids within a straight-line path
   are *affine* in the iteration index — the record at path position
   ``P`` of iteration ``i`` is node ``N0 + i*L + P`` — so the
   dependence column, the def-node write-backs, and (via a static
   def-addr class analysis) the operand-address column are all
   re-derivable from path structure plus the kernel's memory-address
   stream.  The kernel therefore accumulates only what is genuinely
   runtime — one address per memory operand, one ``MW`` lookup per
   load — and the dispatcher derives whole numpy columns from the
   kernel's pattern arrays with a fixed handful of vectorized calls per
   batch, whatever the path length, and hands them to
   :meth:`ColumnarSink.bulk_append` / :meth:`SegmentedSink.bulk_append`
   as they are — no per-record ``emit()``, no per-record Python
   bookkeeping (store backpatches aside).
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
path contains a call to a user function, a nested loop marker, or
exceeds :data:`MAX_PATH_LEN`; intrinsic calls stay in the path.
Recording *aborts* (transiently, retried up to
:data:`MAX_RECORD_FAILURES` times) when the loop exits or returns
mid-recording — the straddle a short-trip loop always hits.

Fuel never overshoots: the dispatcher caps each batch at
``(fuel - executed) // path_len`` full iterations and refuses to run
once fewer than one iteration of budget remains, so the step
interpreter hits the exact budgeted instruction and raises
``FuelExhaustedError`` at the same record index as an uncompiled run.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from itertools import chain as _chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ir.types import FloatType, IntType
from repro.ir.values import Constant, VirtualReg
from repro.obs import get_logger, get_status_bus, get_telemetry

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

    Dependence slots classify as *constant* (``-1``), *affine* (operand
    written earlier in the same iteration at position ``d`` → node
    ``N0 + i*L + d``), *carried* (written later in the path → the
    previous iteration's final write, ``N0 + i*L + d - L``; iteration 0
    reads the pre-batch ``defn`` entry), *live-in* (never written in the
    path → the pre-batch ``defn`` entry), or *load-writer* (the runtime
    ``MW`` lookup a load emits).  The per-slot pair ``dep_mask`` (1 on
    affine and carried slots) and ``dep_off`` (``-1``, ``d`` or
    ``d - L``; 0 where the batch fills the slot) make a batch's whole
    dependence slab one expression, ``base[:, None] * dep_mask +
    dep_off`` with ``base`` the iterations' first node ids; three
    fancy-index assignments fill the carried slots' first row, the
    live-in slots and the load-writer slots.

    Def-addr classes per write event form a small lattice: ``-1``
    (zero — arithmetic, compares, allocas), ``mj >= 0`` (the mj-th
    memory operand's address: a load, or a copy/pointer-cast of one
    within the iteration), or ``-2`` (runtime-only — a select over
    pointers, or a copy of a carried/live-in pointer).  Any ``-2``
    demotes the whole kernel to *legacy* address mode, where the kernel
    itself tracks per-register addresses and appends one operand-address
    pair per FP record; otherwise the dispatcher derives the address
    column from the memory-address stream.  In derived mode each FP
    operand side is a gather from the stream (``fp_stride``/``fp_off``
    over a zero slot followed by the stream), and live-in, carried-load
    and carried-zero sides patch in their pre-batch ``defa`` entries.
    """

    __slots__ = (
        "sids", "ops", "cnts", "dep_width", "dep_end", "dep_off",
        "dep_mask", "car_slots", "car_idx", "car_regs", "li_idx",
        "li_regs", "lw_idx", "n_mem", "n_load", "n_addr", "mem_pos",
        "fp_groups", "fp_pos", "fp_end", "fp_base", "fp_stride", "fp_off",
        "fp_li_idx", "fp_li_regs", "fp_first_idx", "fp_first_regs",
        "rta_pos", "store_groups", "wb", "legacy", "has_store",
    )


def _analyze(entries) -> _Plan:
    """Single forward walk over the path computing the :class:`_Plan`."""
    L = len(entries)
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
    lw_slots: List[int] = []
    mem_pos: List[int] = []
    rta_pos: List[int] = []
    fp_end: List[int] = [0]
    fp_raw: List[Tuple] = []
    store_groups: List[Tuple[int, int, int, int, int]] = []
    cur_w: Dict[int, int] = {}    # reg -> most recent write pos this iter
    wclass: Dict[int, int] = {}   # reg -> current def-addr class
    writes: Dict[int, List[int]] = defaultdict(list)
    aclasses: Dict[int, List[int]] = defaultdict(list)
    legacy = False
    has_store = False
    n_load = 0

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
        slot = len(dep_off)
        kind = d[0]
        if kind == 1:
            dep_off.append(d[1])
            dep_mask.append(1)
            return
        if kind == 2:
            dep_off.append(d[1] - L)
            dep_mask.append(1)
            car_slots.append((slot, d[1], d[2]))
            return
        dep_off.append(-1 if kind == 0 else 0)
        dep_mask.append(0)
        if kind == 3:
            li_slots.append((slot, d[1]))
        elif kind == 4:
            lw_slots.append(slot)

    def side_desc(op):
        # FP-operand address provenance (derived mode only).
        if not isinstance(op, VirtualReg):
            return (0,)
        q = op.index
        if q in cur_w:
            c = wclass[q]
            if c == -1:
                return (0,)
            if c >= 0:
                return (2, c)
            return None                       # runtime-only
        return ("p", q)                       # resolve after the walk

    def aclass_of(op):
        if not isinstance(op, VirtualReg):
            return -1
        q = op.index
        if q in cur_w:
            return wclass[q]
        return -2  # carried/live-in pointer provenance: runtime-only

    def write(r, P, ac):
        nonlocal legacy
        cur_w[r] = P
        wclass[r] = ac
        writes[r].append(P)
        aclasses[r].append(ac)
        if ac == -2:
            legacy = True

    for P, (instr, _b, _p, _taken) in enumerate(entries):
        opc = instr.opcode._value_
        ops = instr.operands

        if opc == 51:  # LOAD: pointer slot, then the load-writer slot
            add_dep(dep_desc(ops[0]))
            add_dep((4, n_load, 0))
            n_load += 1
            write(instr.result.index, P, len(mem_pos))
            mem_pos.append(P)

        elif opc == 52:  # STORE
            vd = dep_desc(ops[0])
            add_dep(vd)
            add_dep(dep_desc(ops[1]))
            has_store = True
            if vd[0]:  # real producer -> note_store item group
                store_groups.append((P, len(mem_pos), vd[0], vd[1], vd[2]))
            mem_pos.append(P)

        elif opc in _FP_ARITH:
            add_dep(dep_desc(ops[0]))
            add_dep(dep_desc(ops[1]))
            fp_raw.append((P, side_desc(ops[0]), side_desc(ops[1])))
            rta_pos.append(P)
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
        fp_end.append(len(rta_pos))

    def fin_side(s):
        # Resolve a carried/live-in pend against the *final* write.
        if s is None:
            return None
        if s[0] == "p":
            q = s[1]
            if q not in writes:
                return (1, q)                 # live-in
            c = aclasses[q][-1]
            if c == -1:
                return (4, q)                 # carried zero
            if c >= 0:
                return (3, c, q)              # carried load
            return None
        return s

    fp_groups: List[Tuple] = []
    if not legacy:
        fins = [(fin_side(s1), fin_side(s2)) for _P, s1, s2 in fp_raw]
        if any(f1 is None or f2 is None for f1, f2 in fins):
            legacy = True
        else:
            fp_groups = [(raw[0], f1, f2)
                         for raw, (f1, f2) in zip(fp_raw, fins)]

    plan = _Plan()
    NM = len(mem_pos)
    plan.sids = np.array([[e[0].sid for e in entries]], dtype=np.int64)
    plan.ops = np.array([[e[0].opcode._value_ for e in entries]],
                        dtype=np.int8)
    plan.cnts = np.diff(dep_end).astype(np.intc).reshape(1, L)
    plan.dep_width = len(dep_off)
    plan.dep_end = tuple(dep_end)
    plan.dep_off = np.array(dep_off, dtype=np.int64)
    plan.dep_mask = np.array(dep_mask, dtype=np.int64)
    plan.car_slots = tuple(car_slots)
    plan.car_idx = np.array([c[0] for c in car_slots], dtype=np.intp)
    plan.car_regs = tuple(c[2] for c in car_slots)
    plan.li_idx = np.array([c[0] for c in li_slots], dtype=np.intp)
    plan.li_regs = tuple(c[1] for c in li_slots)
    plan.lw_idx = np.array(lw_slots, dtype=np.intp)
    plan.n_mem = NM
    plan.n_load = n_load
    plan.n_addr = len(rta_pos)
    plan.mem_pos = np.array(mem_pos, dtype=np.int64)
    plan.fp_groups = tuple(fp_groups)
    plan.fp_pos = np.array([g[0] for g in fp_groups], dtype=np.int64)
    plan.fp_end = tuple(fp_end)
    # Derived FP operand addresses gather from ``[zeros(fp_base),
    # stream]``: a same-iteration load reads its iteration's slot, a
    # carried load the previous one's (the zero block, for iteration 0),
    # and every other side the first zero.
    plan.fp_base = max(NM, 1)
    stride: List[int] = []
    off: List[int] = []
    li: List[Tuple[int, int]] = []
    first: List[Tuple[int, int]] = []
    for _P, d1, d2 in fp_groups:
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
    plan.rta_pos = np.array(rta_pos, dtype=np.int64)
    plan.store_groups = tuple(store_groups)
    plan.wb = tuple(
        (r, tuple(writes[r]), tuple(aclasses[r])) for r in sorted(writes))
    plan.legacy = legacy
    plan.has_store = has_store
    return plan


class LoopKernel:
    """A compiled loop body: path metadata plus lazily-built variants.

    Two kernel variants exist per loop — recording (accumulates the
    memory-address / load-writer streams for column derivation) and
    non-recording (state updates only, for profile runs and inactive
    trace windows) — generated on first use.
    """

    __slots__ = (
        "loop_id", "length", "anchor", "entry", "resume", "plan",
        "op_pat", "count_items", "calls", "gained",
        "_entries", "_gaddr", "_fns", "_srcs",
    )

    def __init__(self, loop_id: int, entries, anchor, global_addr):
        self.loop_id = loop_id
        self.length = len(entries)
        self.anchor = anchor
        first = entries[0][0]
        #: the header block the path's leading ``jump`` targets: a
        #: ``loop_enter`` followed by a jump there starts an iteration
        #: of this very path.  ``None`` (no entry dispatch) when the
        #: path starts with anything else, e.g. a do-while's ``cbr``.
        self.entry = first.targets[0] if first.opcode._value_ == 60 else None
        #: (block, in-block index) per path position — the step
        #: interpreter resumes here on deopt at that position.
        self.resume = tuple((blk, pc) for _instr, blk, pc, _tk in entries)
        self.plan = _analyze(entries)
        self.op_pat = [e[0].opcode._value_ for e in entries]
        self.count_items = tuple(Counter(self.op_pat).items())
        self.calls = 0
        self.gained = 0
        self._entries = entries
        self._gaddr = global_addr
        self._fns: Dict[bool, object] = {}
        self._srcs: Dict[bool, str] = {}

    def source(self, recording: bool) -> str:
        """The generated kernel source for one variant (for tests and
        ``explain``-style introspection)."""
        self.fn(recording)
        return self._srcs[recording]

    def fn(self, recording: bool):
        f = self._fns.get(recording)
        if f is None:
            tel = get_telemetry()
            with tel.span("interp.compile.build"):
                src, consts = _generate(self._entries, self._gaddr,
                                        recording, self.plan)
                tag = "rec" if recording else "norec"
                code = compile(
                    src, f"<vectra-kernel-loop{self.loop_id}-{tag}>",
                    "exec")
                ns = consts
                exec(code, ns)
                f = ns["_kernel"]
            self._srcs[recording] = src
            self._fns[recording] = f
            if tel.enabled:
                tel.count("interp.compile.kernels")
            get_status_bus().count("kernels")
            _log.debug("compiled loop %d (%s, %d records/iter)",
                       self.loop_id, tag, self.length)
        return f


# -- code generation ---------------------------------------------------------


def _generate(entries, global_addr, recording: bool, plan: _Plan):
    """Generate one kernel variant's source for a recorded path.

    Returns ``(source, namespace)`` where ``namespace`` carries the
    helpers and non-literal constants (alloca types) the source needs.
    The generated ``_kernel(B, N0, V, A, MEM, MW, ALLOC)`` runs up to
    ``B`` iterations, returning ``(k, dpc, ma, lw, ap)`` — ``k``
    completed iterations and, when a guard failed, the path position
    ``dpc`` to resume stepping at (``-1`` for a full batch); ``ma``
    holds one address per executed memory operand, ``lw`` one ``MW``
    lookup per executed load, and ``ap`` (legacy address mode only)
    one operand-address pair per executed FP record.  Positions before
    ``dpc`` in the partial iteration have executed and emitted;
    position ``dpc`` and later have not.
    """
    from repro.interp.interpreter import _INTRINSICS, _cdiv, _f32
    from repro.runtime.memory import default_value

    L = len(entries)
    # Derived mode needs no per-register address tracking at all; the
    # non-recording variant and legacy mode keep it (the dispatcher
    # cannot derive ``defa`` without the recorded address stream).
    keep_a = plan.legacy or not recording
    consts: Dict[str, object] = {"_f32": _f32, "_cdiv": _cdiv}
    live: set = set()
    a_live: set = set()
    written: set = set()
    body: List[str] = []
    o = body.append

    def vx(op) -> str:
        if isinstance(op, VirtualReg):
            i = op.index
            if i not in written:
                live.add(i)
            return f"v{i}"
        if isinstance(op, Constant):
            return f"({op.value!r})"
        return repr(global_addr[op.name])  # GlobalRef

    def ax(op) -> str:
        if isinstance(op, VirtualReg):
            i = op.index
            if i not in written:
                a_live.add(i)
            return f"a{i}"
        return "0"

    def wrap_int(target: str, bits: int) -> None:
        o(f"if {target} >> {bits - 1} not in (0, -1):")
        o(f"    {target} &= {(1 << bits) - 1}")
        o(f"    if {target} >= {1 << (bits - 1)}:")
        o(f"        {target} -= {1 << bits}")

    for P, (instr, _blk, _pc, taken) in enumerate(entries):
        opc = instr.opcode._value_
        ops = instr.operands

        if opc == 51:  # LOAD
            pe = vx(ops[0])
            r = instr.result.index
            o(f"p{P} = {pe}")
            o(f"if type(p{P}) is not int or p{P} <= 0:")
            o(f"    dpc = {P}")
            o("    break")
            if recording:
                o(f"lwa(MWg(p{P}, -1))")
            dv = default_value(instr.result.type)
            o(f"v{r} = MEMg(p{P}, {dv!r})")
            if keep_a:
                o(f"a{r} = p{P}")
            if recording:
                o(f"maa(p{P})")
            written.add(r)

        elif opc == 52:  # STORE
            ve = vx(ops[0])
            pe = vx(ops[1])
            o(f"p{P} = {pe}")
            o(f"if type(p{P}) is not int or p{P} <= 0:")
            o(f"    dpc = {P}")
            o("    break")
            o(f"MEM[p{P}] = {ve}")
            o(f"MW[p{P}] = nb + {P}")
            if recording:
                o(f"maa(p{P})")

        elif opc in _FP_ARITH:
            ae = vx(ops[0])
            be = vx(ops[1])
            if opc == 13:
                o(f"if {be} == 0.0:")
                o(f"    dpc = {P}")
                o("    break")
            expr = f"{ae} {_FP_ARITH[opc]} {be}"
            if instr.result.type.bits == 32:
                expr = f"_f32({expr})"
            r = instr.result.index
            o(f"v{r} = {expr}")
            if recording and plan.legacy:
                o(f"apa(({ax(ops[0])}, {ax(ops[1])}))")
            if keep_a:
                o(f"a{r} = 0")
            written.add(r)

        elif opc in _INT_ARITH:
            ae = vx(ops[0])
            be = vx(ops[1])
            r = instr.result.index
            o(f"v{r} = {ae} {_INT_ARITH[opc]} {be}")
            wrap_int(f"v{r}", instr.result.type.bits)
            if keep_a:
                o(f"a{r} = 0")
            written.add(r)

        elif opc == 53:  # PTRADD
            ae = vx(ops[0])
            be = vx(ops[1])
            r = instr.result.index
            o(f"v{r} = {ae} + {be}")
            if keep_a:
                o(f"a{r} = 0")
            written.add(r)

        elif opc == 30 or opc == 31:  # ICMP / FCMP
            ae = vx(ops[0])
            be = vx(ops[1])
            cmp = _CMP_OPS.get(instr.pred, "!=")
            r = instr.result.index
            o(f"v{r} = 1 if {ae} {cmp} {be} else 0")
            if keep_a:
                o(f"a{r} = 0")
            written.add(r)

        elif opc == 61:  # CBR — guard the recorded direction
            ce = vx(ops[0])
            o(f"if not {ce}:" if taken else f"if {ce}:")
            o(f"    dpc = {P}")
            o("    break")

        elif opc == 60 or opc == 71:  # JUMP / LOOP_NEXT: no deps, no state
            pass

        elif opc == 40:  # CAST
            ve = vx(ops[0])
            to_type = instr.result.type
            r = instr.result.index
            if isinstance(to_type, IntType):
                o(f"v{r} = {ve}")
                o(f"if type(v{r}) is float:")
                o(f"    v{r} = int(v{r})")
                wrap_int(f"v{r}", to_type.bits)
                if keep_a:
                    o(f"a{r} = 0")
            elif isinstance(to_type, FloatType):
                if to_type.bits == 32:
                    o(f"v{r} = _f32(float({ve}))")
                else:
                    o(f"v{r} = float({ve})")
                if keep_a:
                    o(f"a{r} = 0")
            else:  # pointer retyping keeps provenance
                o(f"v{r} = {ve}")
                if keep_a:
                    o(f"a{r} = {ax(ops[0])}")
            written.add(r)

        elif opc == 4 or opc == 5:  # SDIV / SREM
            ae = vx(ops[0])
            be = vx(ops[1])
            o(f"if {be} == 0:")
            o(f"    dpc = {P}")
            o("    break")
            r = instr.result.index
            if opc == 4:
                o(f"v{r} = _cdiv({ae}, {be})")
            else:
                o(f"q{P} = _cdiv({ae}, {be})")
                o(f"v{r} = {ae} - q{P} * {be}")
            if keep_a:
                o(f"a{r} = 0")
            written.add(r)

        elif opc in _BITWISE:
            ae = vx(ops[0])
            be = vx(ops[1])
            r = instr.result.index
            o(f"v{r} = {ae} {_BITWISE[opc]} {be}")
            wrap_int(f"v{r}", instr.result.type.bits)
            if keep_a:
                o(f"a{r} = 0")
            written.add(r)

        elif opc == 41:  # SELECT
            ce = vx(ops[0])
            ae = vx(ops[1])
            be = vx(ops[2])
            r = instr.result.index
            if keep_a:
                o(f"if {ce}:")
                o(f"    v{r} = {ae}")
                o(f"    a{r} = {ax(ops[1])}")
                o("else:")
                o(f"    v{r} = {be}")
                o(f"    a{r} = {ax(ops[2])}")
            else:
                o(f"v{r} = {ae} if {ce} else {be}")
            written.add(r)

        elif opc == 42:  # COPY
            ve = vx(ops[0])
            r = instr.result.index
            o(f"v{r} = {ve}")
            if keep_a:
                o(f"a{r} = {ax(ops[0])}")
            written.add(r)

        elif opc == 50:  # ALLOCA
            consts[f"T{P}"] = instr.alloc_type
            r = instr.result.index
            o(f"v{r} = ALLOC(T{P})")
            if keep_a:
                o(f"a{r} = 0")
            written.add(r)

        elif opc == 63:  # CALL of an intrinsic — any exception deopts
            # The step interpreter's own function object, so values are
            # identical by construction; on an exception it re-executes
            # the call and raises exactly what it always raises.
            consts[f"F{P}"] = _INTRINSICS[instr.callee]
            call = f"F{P}({', '.join(vx(a) for a in ops)})"
            res = instr.result
            o("try:")
            o(f"    v{res.index} = {call}" if res is not None
              else f"    {call}")
            o("except Exception:")
            o(f"    dpc = {P}")
            o("    break")
            if res is not None:
                if keep_a:
                    o(f"a{res.index} = 0")
                written.add(res.index)

        else:  # pragma: no cover - build() validates the path first
            raise AssertionError(f"unsupported opcode {opc} in path")

    rec_ma = recording and plan.n_mem
    rec_lw = recording and plan.n_load
    rec_ap = recording and plan.legacy and plan.n_addr
    lines = ["def _kernel(B, N0, V, A, MEM, MW, ALLOC):"]
    w = lines.append
    if plan.n_load:
        w("    MEMg = MEM.get")
        if recording:
            w("    MWg = MW.get")
    if rec_ma:
        w("    ma = []")
        w("    maa = ma.append")
    if rec_lw:
        w("    lw = []")
        w("    lwa = lw.append")
    if rec_ap:
        w("    ap = []")
        w("    apa = ap.append")
    # Every touched register is preloaded — not just live-ins: a guard
    # can fail before a register's first write in the very first
    # iteration, and the epilogue write-back below must then restore
    # the untouched pre-batch value.
    for i in sorted(live | written):
        w(f"    v{i} = V[{i}]")
    if keep_a:
        for i in sorted(a_live | written):
            w(f"    a{i} = A[{i}]")
    w("    dpc = -1")
    w("    for k in range(B):")
    if plan.has_store:
        w(f"        nb = N0 + k * {L}")
    for line in body:
        w("        " + line)
    w("    else:")
    w("        k = B")
    for i in sorted(written):
        w(f"    V[{i}] = v{i}")
    if keep_a:
        for i in sorted(written):
            w(f"    A[{i}] = a{i}")
    w(f"    return k, dpc, {'ma' if rec_ma else '()'},"
      f" {'lw' if rec_lw else '()'}, {'ap' if rec_ap else '()'}")
    return "\n".join(lines) + "\n", consts


# -- column derivation -------------------------------------------------------


#: The operand-address columns of a batch without FP records.
_NO_NODES = np.empty(0, dtype=np.int64)
_NO_PAIRS = np.empty((0, 2), dtype=np.int64)
_NO_NODES.flags.writeable = _NO_PAIRS.flags.writeable = False


def _emit(kern, N0, k, part, defn, defa, ma, lw, ap, sink, cur_loop,
          sid0=None):
    """Derive one batch's columns as numpy arrays and bulk-append them.

    The batch's ``k`` full iterations, plus the partial one a deopt
    leaves (its first ``part`` records), are laid out as the rows of a
    grid per column — one row per iteration, one column per path
    position, dependence slot, memory operand or FP operand — and each
    column is cut at the count of what executed.  So every column comes
    from a fixed handful of vectorized calls whatever the path length;
    only the store backpatches stay per item.

    Must run *before* :func:`_writeback`: carried iteration-0 and
    live-in slots read the pre-batch ``defn``/``defa`` entries.
    ``sid0``, when given, replaces the first record's sid: an entry
    batch starts with the ``loop_enter`` block's ``jump``, not the
    path's backedge ``jump``.
    """
    plan = kern.plan
    L = kern.length
    NM = plan.n_mem
    rows = k + 1 if part else k
    nrec = k * L + part
    # First node id of each iteration.
    base = np.arange(N0, N0 + rows * L, L, dtype=np.int64)
    col = base[:, None]
    sids = plan.sids.repeat(rows, 0).reshape(-1)[:nrec]
    if sid0 is not None:
        sids[0] = sid0
    deps = col * plan.dep_mask + plan.dep_off
    if plan.car_regs:
        deps[0, plan.car_idx] = [defn[r] for r in plan.car_regs]
    if plan.li_regs:
        deps[:, plan.li_idx] = [defn[r] for r in plan.li_regs]
    if plan.n_load:
        # The partial iteration's missing tail lands only in slots that
        # the cut below drops.
        writers = np.empty(rows * plan.n_load, dtype=np.int64)
        writers[:len(lw)] = np.fromiter(lw, np.int64, len(lw))
        deps[:, plan.lw_idx] = writers.reshape(rows, plan.n_load)
    mem_vals = np.fromiter(ma, np.int64, len(ma))
    mem_nodes = (col + plan.mem_pos).reshape(-1)[:len(mem_vals)]
    if plan.legacy:
        addr_pairs = np.array(ap, dtype=np.int64).reshape(-1, 2)
        addr_nodes = (col + plan.rta_pos).reshape(-1)[:len(addr_pairs)]
    elif not len(plan.fp_pos):
        addr_pairs = _NO_PAIRS
        addr_nodes = _NO_NODES
    else:
        n_fp = k * len(plan.fp_pos) + plan.fp_end[part]
        stream = np.zeros(plan.fp_base + rows * NM, dtype=np.int64)
        stream[plan.fp_base:plan.fp_base + len(mem_vals)] = mem_vals
        sides = stream[np.arange(rows)[:, None] * plan.fp_stride
                       + plan.fp_off]
        if plan.fp_li_regs:
            sides[:, plan.fp_li_idx] = [defa[q] for q in plan.fp_li_regs]
        if plan.fp_first_regs:
            sides[0, plan.fp_first_idx] = [defa[q]
                                           for q in plan.fp_first_regs]
        addr_pairs = sides.reshape(-1, 2)[:n_fp]
        addr_nodes = (col + plan.fp_pos).reshape(-1)[:n_fp]
    store_lists: List[list] = []
    if k:
        kL = k * L
        kNM = k * NM
        for P, mj, kind, a1, a2 in plan.store_groups:
            b = N0 + P
            if kind == 1:     # producer written same iteration at a1
                store_lists.append(list(zip(
                    range(b, b + kL, L),
                    range(N0 + a1, N0 + a1 + kL, L),
                    ma[mj:kNM:NM])))
            elif kind == 2:   # carried producer: prior iteration's a1
                g = list(zip(
                    range(b + L, b + kL, L),
                    range(N0 + a1, N0 + a1 + kL - L, L),
                    ma[mj + NM:kNM:NM]))
                p0 = defn[a2]
                if p0 >= 0:
                    g.insert(0, (b, p0, ma[mj]))
                store_lists.append(g)
            else:             # live-in producer: note_store first-wins,
                p0 = defn[a1]  # so one item covers the whole batch
                if p0 >= 0:
                    store_lists.append([(b, p0, ma[mj])])
    if part:
        nfin = N0 + k * L
        mab = k * NM
        pstore = []
        for P, mj, kind, a1, a2 in plan.store_groups:
            if P >= part:
                break
            if kind == 1:
                p0 = nfin + a1
            elif kind == 2:
                p0 = nfin - L + a1 if k else defn[a2]
            else:
                p0 = defn[a1]
            if p0 >= 0:
                pstore.append((nfin + P, p0, ma[mab + mj]))
        if pstore:
            store_lists.append(pstore)
    if len(store_lists) > 1:
        # Node keys are unique (one store per record), so sorting
        # restores the chronological order note_store's first-wins rule
        # needs.
        store_items = sorted(_chain.from_iterable(store_lists))
    elif store_lists:
        store_items = store_lists[0]
    else:
        store_items = ()
    sink.bulk_append(
        N0, cur_loop, sids,
        plan.ops.repeat(rows, 0).reshape(-1)[:nrec],
        plan.cnts.repeat(rows, 0).reshape(-1)[:nrec],
        deps.reshape(-1)[:k * plan.dep_width + plan.dep_end[part]],
        base[:k] + (L - 1), addr_nodes, addr_pairs, mem_nodes, mem_vals,
        store_items)


def _writeback(plan, L, N0, k, part, defn, defa, ma, recording):
    """Update ``defn``/``defa`` for every register the batch wrote.

    The last write visible to the step interpreter is the final full
    iteration's — or, after a deopt, the partial iteration's last write
    *before* the failed guard.  Legacy and non-recording kernels track
    ``defa`` themselves; derived recording mode reconstructs it from
    the memory-address stream here.
    """
    nfin = N0 + k * L
    NM = plan.n_mem
    derive_a = recording and not plan.legacy
    if part:
        for r, wl, al in plan.wb:
            j = bisect_left(wl, part)
            if j:
                j -= 1
                defn[r] = nfin + wl[j]
                if derive_a:
                    a = al[j]
                    defa[r] = 0 if a < 0 else ma[k * NM + a]
            elif k:
                defn[r] = nfin - L + wl[-1]
                if derive_a:
                    a = al[-1]
                    defa[r] = 0 if a < 0 else ma[(k - 1) * NM + a]
    elif k:
        for r, wl, al in plan.wb:
            defn[r] = nfin - L + wl[-1]
            if derive_a:
                a = al[-1]
                defa[r] = 0 if a < 0 else ma[(k - 1) * NM + a]


# -- the compiler ------------------------------------------------------------


class TraceCompiler:
    """Per-interpreter trace-replay compiler: hotness, recording,
    kernel construction, and batch dispatch."""

    __slots__ = ("interp", "threshold", "batch_iters", "kernels", "_fails")

    def __init__(self, interp, threshold: Optional[int] = None,
                 batch_iters: int = BATCH_ITERS):
        from repro.profiler.hotloops import HOT_LOOP_THRESHOLD

        self.interp = interp
        self.threshold = (HOT_LOOP_THRESHOLD if threshold is None
                          else threshold)
        self.batch_iters = batch_iters
        #: loop id -> LoopKernel, or :data:`REJECTED`.
        self.kernels: Dict[int, object] = {}
        self._fails: Dict[int, int] = defaultdict(int)

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
        get_telemetry().instant("compile.kernel.rejected",
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
        kern = LoopKernel(lid, entries, (rec.block, rec.pc),
                          self.interp.global_addr)
        self.kernels[lid] = kern
        get_telemetry().instant(
            "compile.kernel.recorded",
            {"loop": lid, "records_per_iter": kern.length,
             "legacy_addr": kern.plan.legacy},
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
        fn = kern.fn(recording)
        batch = self.batch_iters
        total = 0
        batches = 0
        guard_exit = False
        tel = get_telemetry()
        # Per-batch iteration counts (k) feed the batch_iterations
        # histogram; collected only under telemetry so the disabled
        # dispatch path is unchanged.
        ks = [] if tel.enabled else None
        while True:
            B = batch if batch < room else room
            N0 = interp._node
            k, dpc, ma, lw, ap = fn(B, N0, values, defa, mem, mw, alloc)
            batches += 1
            if ks is not None:
                ks.append(k)
            part = dpc if dpc > 0 else 0
            nrec = k * L + part
            if nrec:
                interp._node = N0 + nrec
                interp._executed += nrec
                if k:
                    for opc_i, c in kern.count_items:
                        counts[loop_key + opc_i] += c * k
                if part:
                    for opc_i in kern.op_pat[:part]:
                        counts[loop_key + opc_i] += 1
                if recording:
                    _emit(kern, N0, k, part, defn, defa, ma, lw, ap, sink,
                          cur_loop, entry_sid)
                _writeback(plan, L, N0, k, part, defn, defa, ma,
                           recording)
                total += k
            entry_sid = None
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
        get_status_bus().count("batches", batches)
        return resume[0], resume[1], total
