"""The tracing IR interpreter.

This component plays the role of the paper's LLVM instrumentation plus
native execution: it runs a module and emits one dynamic record per
executed IR instruction, carrying

- the producer node ids of every consumed value (flow dependences through
  virtual registers and through memory via a last-writer table), and
- the byte addresses of memory operands (for the stride analyses).

A run captures the instructions of its kernel table's capture set (every
instruction when it has none; see
:func:`repro.analysis.candidates.capture_sids`).  An instruction outside
it takes no node id and emits nothing, and writes ``-1`` ("no producer")
to its result's def-node and, for a store, to the last-writer table, so
the captured records keep contiguous node ids.

Register dependences are wired *through* calls and returns: a parameter
use links to the caller's argument producer, and a call's result links to
the producer of the returned value.  This matches tracking dependences
through LLVM virtual registers in the paper's implementation.

Performance notes: this is a hot interpreter loop in pure Python, so the
dispatch body binds everything it touches to locals, compares opcodes by
enum identity, and keys the profile counter dict with a single int.
"""

from __future__ import annotations

import math
import struct
from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import FuelExhaustedError, InterpError, MemoryError_
from repro.interp.compile import (
    MAX_PATH_LEN as _MAX_PATH,
    REJECTED as _REJECTED,
    KernelTable,
    TraceCompiler,
)
from repro.ir.instructions import Opcode
from repro.obs import current_run, get_logger
from repro.ir.module import Module
from repro.ir.types import FloatType, IntType, PointerType
from repro.ir.values import Constant, GlobalRef, VirtualReg
from repro.runtime.memory import Memory, default_value

_OP_ADD = Opcode.ADD
_OP_SUB = Opcode.SUB
_OP_MUL = Opcode.MUL
_OP_SDIV = Opcode.SDIV
_OP_SREM = Opcode.SREM
_OP_FADD = Opcode.FADD
_OP_FSUB = Opcode.FSUB
_OP_FMUL = Opcode.FMUL
_OP_FDIV = Opcode.FDIV
_OP_AND = Opcode.AND
_OP_OR = Opcode.OR
_OP_XOR = Opcode.XOR
_OP_SHL = Opcode.SHL
_OP_ASHR = Opcode.ASHR
_OP_ICMP = Opcode.ICMP
_OP_FCMP = Opcode.FCMP
_OP_CAST = Opcode.CAST
_OP_SELECT = Opcode.SELECT
_OP_COPY = Opcode.COPY
_OP_ALLOCA = Opcode.ALLOCA
_OP_LOAD = Opcode.LOAD
_OP_STORE = Opcode.STORE
_OP_PTRADD = Opcode.PTRADD
_OP_JUMP = Opcode.JUMP
_OP_CBR = Opcode.CBR
_OP_RET = Opcode.RET
_OP_CALL = Opcode.CALL
_OP_LENTER = Opcode.LOOP_ENTER
_OP_LNEXT = Opcode.LOOP_NEXT
_OP_LEXIT = Opcode.LOOP_EXIT

#: Profile-counter key stride: one slot per opcode per loop.
LOOP_KEY_STRIDE = 128

#: Default interpreter instruction budget (override with ``fuel=`` or the
#: CLI's ``--fuel``).
DEFAULT_FUEL = 500_000_000

_pack = struct.pack
_unpack = struct.unpack

_log = get_logger("interp")


def _f32(x: float) -> float:
    """Round a Python float to binary32 precision."""
    return _unpack("f", _pack("f", x))[0]


_INTRINSICS = {
    "exp": math.exp,
    "sqrt": math.sqrt,
    "fabs": abs,
    "sin": math.sin,
    "cos": math.cos,
    "log": math.log,
    "floor": math.floor,
    "pow": math.pow,
    "fmin": min,
    "fmax": max,
}


def _cdiv(a: int, b: int) -> int:
    """C-style integer division (truncation toward zero)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


class ProfileCounters(NamedTuple):
    """The profile counters of one run, as plain (picklable) dicts.

    Every run updates them on every executed instruction, whether or not
    a sink records, so a windowed re-run's counters equal a sink-less
    run's.  :func:`repro.profiler.hotloops.profile_loops` and
    :func:`repro.vectorizer.packed.percent_packed` read them from either
    this snapshot or a live :class:`Interpreter`.
    """

    op_counts: Dict[int, int]
    dyn_parent: Dict[int, int]
    loop_iter_hist: Dict[int, Dict[int, int]]


class Interpreter:
    """Executes a module, producing profile counts and (optionally) a trace."""

    def __init__(self, module: Module, sink=None, fuel: int = DEFAULT_FUEL,
                 compile_loops: bool = True,
                 compile_threshold: Optional[int] = None,
                 kernels: Optional[KernelTable] = None):
        self.module = module
        self.memory = Memory()
        self.sink = sink
        self.fuel = fuel
        #: cycles/counts bucket: key = (loop_id + 2) * LOOP_KEY_STRIDE + opcode
        self.op_counts: Dict[int, int] = defaultdict(int)
        self.global_addr: Dict[str, int] = {}
        self._node = 0
        self._mem_writer: Dict[int, int] = {}
        self._loop_stack: List[int] = []
        self._iter_stack: List[int] = []
        self._loop_instance_counters: Dict[int, int] = defaultdict(int)
        #: first-observed dynamic parent of each loop (-1 = top level);
        #: captures nesting through function calls, unlike static loop info.
        self.dyn_parent: Dict[int, int] = {}
        #: per-loop histogram {iteration count: instances} — the remainder
        #: model for packed-operation accounting needs per-instance trip
        #: counts, not just totals.
        self.loop_iter_hist: Dict[int, Dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self._executed = 0
        #: per sid: whether this run captures the instruction's records —
        #: the capture set of ``kernels``, or every instruction.
        capture = kernels.capture if kernels is not None else None
        self.captured: List[bool] = (
            [True] * module.sid_bound if capture is None
            else [sid in capture for sid in range(module.sid_bound)])
        self._layout_globals()
        #: trace-replay compiler (:mod:`repro.interp.compile`): hot loop
        #: bodies specialize into batch kernels that emit trace records
        #: wholesale.  Requires a sink that reserves rows for batches
        #: (``reserve``, or no sink at all — profile runs batch too); a
        #: sink without it (the record-object reference sinks of the
        #: test oracle) runs on pure stepping.  ``kernels``, a kernel
        #: table the caller owns, lets the runs of one analysis of this
        #: module share their kernels (see
        #: :class:`~repro.interp.compile.KernelTable`).
        self._compiler = None
        if compile_loops and (
            sink is None or hasattr(sink, "reserve")
        ):
            self._compiler = TraceCompiler(self, compile_threshold,
                                           kernels=kernels)
        # One check at construction, zero per-record cost: the sampling
        # profiler resolves (loop id, sid) samples against this module
        # at fold time.
        sampler = current_run().sampler
        if sampler.enabled:
            sampler.attach_module(module)

    # -- setup -------------------------------------------------------------

    def _layout_globals(self) -> None:
        for gv in self.module.globals.values():
            addr = self.memory.alloc_global(gv.type)
            self.global_addr[gv.name] = addr
            if gv.initializer is not None:
                self.memory.initialize(addr, gv.type, gv.initializer)

    # -- public API --------------------------------------------------------

    def run(self, entry: str = "main", args: Sequence = ()):
        """Execute ``entry`` with scalar ``args``; returns its return value."""
        fn = self.module.function(entry)
        if len(args) != len(fn.param_regs):
            raise InterpError(
                f"{entry} expects {len(fn.param_regs)} argument(s), "
                f"got {len(args)}"
            )
        triples = [(self._coerce_arg(v, t), -1, 0)
                   for v, t in zip(args, fn.param_types)]
        bus = current_run().bus
        if not bus.enabled:
            value, _, _ = self._exec_function(fn, triples)
            return value
        # Live progress rides a pull sampler: the ticker reads the
        # executed-instruction counter at frame time, so the dispatch
        # loop above carries zero per-record instrumentation.
        base = self._executed
        bus.set_total("records", self.fuel)
        bus.track("records", lambda: self._executed - base)
        try:
            value, _, _ = self._exec_function(fn, triples)
        finally:
            bus.untrack("records", self._executed - base)
        return value

    @staticmethod
    def _coerce_arg(value, type):
        if isinstance(type, FloatType):
            return float(value)
        return int(value)

    @property
    def executed_instructions(self) -> int:
        return self._executed

    def profile_counters(self) -> ProfileCounters:
        """Snapshot of the profile counters.  Unlike the live counters,
        whose ``defaultdict(lambda: ...)`` does not pickle, it can leave
        a pool worker."""
        return ProfileCounters(
            dict(self.op_counts),
            dict(self.dyn_parent),
            {lid: dict(hist) for lid, hist in self.loop_iter_hist.items()},
        )

    # -- the dispatch loop -----------------------------------------------------

    def _exec_function(self, fn, args: List[Tuple]) -> Tuple:
        memory = self.memory
        mem = memory.data
        sink = self.sink
        # One bound-method hoist serves every record: emit() takes plain
        # scalars, so tracing allocates no record object on the hot path.
        sink_emit = sink.emit if sink is not None else None
        counts = self.op_counts
        module = self.module
        loop_stack = self._loop_stack

        nregs = fn.num_regs
        values: List = [None] * nregs
        defn: List[int] = [-1] * nregs
        defa: List[int] = [0] * nregs
        for reg, (v, dn, da) in zip(fn.param_regs, args):
            i = reg.index
            values[i] = v
            defn[i] = dn
            defa[i] = da

        frame_save = memory.push_frame()
        block = fn.blocks[0]
        instrs = block.instructions
        pc = 0
        cur_loop = loop_stack[-1] if loop_stack else -1
        loop_key = (cur_loop + 2) * LOOP_KEY_STRIDE
        recording = sink is not None and sink.active
        fuel = self.fuel
        # Trace-replay compilation state: ``rec``/``rec_path`` hold an
        # in-flight path recording (one iteration of a hot loop); the
        # capture hook below is a single is-None test per instruction
        # when idle.
        comp = self._compiler
        rec = None
        rec_path: List = []
        captured = self.captured

        VR = VirtualReg
        CONST = Constant

        def ev(op):
            """Evaluate an operand to (value, def_node, def_addr)."""
            if type(op) is VR:
                i = op.index
                return values[i], defn[i], defa[i]
            if type(op) is CONST:
                return op.value, -1, 0
            return self.global_addr[op.name], -1, 0  # GlobalRef

        try:
            while True:
                instr = instrs[pc]
                pc += 1
                opc = instr.opcode
                if rec is not None:
                    rec_path.append((instr, block, pc - 1))
                    if len(rec_path) > _MAX_PATH:
                        comp.reject(rec.loop_id, "path too long")
                        rec = None
                self._executed += 1
                counts[loop_key + opc] += 1
                if self._executed > fuel:
                    _log.warning(
                        "fuel exhausted after %d instructions (fuel=%d) "
                        "in %s; the collected trace is truncated",
                        self._executed, fuel, fn.name,
                    )
                    current_run().tel.instant(
                        "interp.fuel_exhausted",
                        {"executed": self._executed, "fuel": fuel,
                         "function": fn.name},
                    )
                    raise FuelExhaustedError(
                        f"instruction budget exhausted after "
                        f"{self._executed} instructions (fuel={fuel}); "
                        f"re-run with a larger budget via --fuel or "
                        f"Interpreter(fuel=...)"
                    )
                if captured[instr.sid]:
                    node = self._node
                    self._node = node + 1
                    emitting = recording
                else:
                    node = -1
                    emitting = False
                    if recording:
                        sink.uncaptured += 1

                if opc is _OP_LOAD:
                    addr, pdn, _ = ev(instr.operands[0])
                    if type(addr) is not int or addr <= 0:
                        raise MemoryError_(
                            f"load from invalid address {addr!r} "
                            f"(sid {instr.sid})"
                        )
                    writer = self._mem_writer.get(addr, -1)
                    value = mem.get(addr)
                    if value is None:
                        value = default_value(instr.result.type)
                    i = instr.result.index
                    values[i] = value
                    defn[i] = node
                    defa[i] = addr
                    if emitting:
                        sink_emit(node, instr.sid, 51, cur_loop,
                                  (pdn, writer), (), addr)
                    elif recording and writer >= 0:
                        # An uncaptured load read a captured store: a
                        # dependence the capture set missed.
                        sink.note_capture_miss()
                    continue

                if opc is _OP_STORE:
                    value, vdn, _ = ev(instr.operands[0])
                    addr, pdn, _ = ev(instr.operands[1])
                    if type(addr) is not int or addr <= 0:
                        raise MemoryError_(
                            f"store to invalid address {addr!r} "
                            f"(sid {instr.sid})"
                        )
                    mem[addr] = value
                    self._mem_writer[addr] = node
                    if emitting:
                        sink_emit(node, instr.sid, 52, cur_loop,
                                  (vdn, pdn), (), addr)
                        if vdn >= 0:
                            sink.note_store(vdn, addr)
                    continue

                if (
                    opc is _OP_FADD
                    or opc is _OP_FSUB
                    or opc is _OP_FMUL
                    or opc is _OP_FDIV
                ):
                    a, adn, ada = ev(instr.operands[0])
                    b, bdn, bda = ev(instr.operands[1])
                    if opc is _OP_FADD:
                        value = a + b
                    elif opc is _OP_FSUB:
                        value = a - b
                    elif opc is _OP_FMUL:
                        value = a * b
                    else:
                        if b == 0.0:
                            raise InterpError(
                                f"float division by zero (sid {instr.sid})"
                            )
                        value = a / b
                    if instr.result.type.bits == 32:
                        value = _f32(value)
                    i = instr.result.index
                    values[i] = value
                    defn[i] = node
                    defa[i] = 0
                    if emitting:
                        sink_emit(node, instr.sid, opc._value_, cur_loop,
                                  (adn, bdn), (ada, bda))
                    continue

                if (
                    opc is _OP_ADD
                    or opc is _OP_SUB
                    or opc is _OP_MUL
                ):
                    a, adn, _ = ev(instr.operands[0])
                    b, bdn, _ = ev(instr.operands[1])
                    if opc is _OP_ADD:
                        value = a + b
                    elif opc is _OP_SUB:
                        value = a - b
                    else:
                        value = a * b
                    bits = instr.result.type.bits
                    if value >> (bits - 1) not in (0, -1):
                        value &= (1 << bits) - 1
                        if value >= 1 << (bits - 1):
                            value -= 1 << bits
                    i = instr.result.index
                    values[i] = value
                    defn[i] = node
                    defa[i] = 0
                    if emitting:
                        sink_emit(node, instr.sid, opc._value_, cur_loop, (adn, bdn))
                    continue

                if opc is _OP_PTRADD:
                    a, adn, _ = ev(instr.operands[0])
                    b, bdn, _ = ev(instr.operands[1])
                    i = instr.result.index
                    values[i] = a + b
                    defn[i] = node
                    defa[i] = 0
                    if emitting:
                        sink_emit(node, instr.sid, 53, cur_loop, (adn, bdn))
                    continue

                if opc is _OP_ICMP or opc is _OP_FCMP:
                    a, adn, _ = ev(instr.operands[0])
                    b, bdn, _ = ev(instr.operands[1])
                    pred = instr.pred
                    if pred == "lt":
                        value = 1 if a < b else 0
                    elif pred == "le":
                        value = 1 if a <= b else 0
                    elif pred == "gt":
                        value = 1 if a > b else 0
                    elif pred == "ge":
                        value = 1 if a >= b else 0
                    elif pred == "eq":
                        value = 1 if a == b else 0
                    else:
                        value = 1 if a != b else 0
                    i = instr.result.index
                    values[i] = value
                    defn[i] = node
                    defa[i] = 0
                    if emitting:
                        sink_emit(node, instr.sid, opc._value_, cur_loop, (adn, bdn))
                    continue

                if opc is _OP_CBR:
                    cond, cdn, _ = ev(instr.operands[0])
                    block = instr.targets[0] if cond else instr.targets[1]
                    instrs = block.instructions
                    pc = 0
                    if emitting:
                        sink_emit(node, instr.sid, 61, cur_loop, (cdn,))
                    continue

                if opc is _OP_JUMP:
                    block = instr.targets[0]
                    instrs = block.instructions
                    pc = 0
                    if emitting:
                        sink_emit(node, instr.sid, 60, cur_loop)
                    continue

                if opc is _OP_LENTER or opc is _OP_LNEXT or opc is _OP_LEXIT:
                    lid = instr.loop_id
                    if opc is _OP_LENTER:
                        # A nested loop inside a recorded body means the
                        # path is not straight-line: never compilable.
                        if rec is not None:
                            comp.reject(rec.loop_id, "nested loop")
                            rec = None
                        instance = self._loop_instance_counters[lid]
                        self._loop_instance_counters[lid] = instance + 1
                        if lid not in self.dyn_parent:
                            self.dyn_parent[lid] = cur_loop
                        loop_stack.append(lid)
                        self._iter_stack.append(0)
                        cur_loop = lid
                        loop_key = (lid + 2) * LOOP_KEY_STRIDE
                        if sink is not None:
                            sink.on_marker(70, lid, instance)
                            recording = sink.active
                            if recording:
                                sink_emit(node, instr.sid, 70, lid)
                        # Entry dispatch: a for/while loop enters through
                        # a jump to the header its kernel path starts at,
                        # so the first iteration batches too.
                        if comp is not None:
                            kern = comp.kernels.get(lid)
                            nxt = instrs[pc]
                            if (kern is not None and kern is not _REJECTED
                                    and nxt.opcode is _OP_JUMP
                                    and nxt.targets[0] is kern.entry):
                                res = comp.dispatch(
                                    kern, values, defn, defa, sink,
                                    recording, lid, loop_key, nxt.sid)
                                if res is not None:
                                    block, pc, iters = res
                                    instrs = block.instructions
                                    self._iter_stack[-1] += iters
                        continue
                    elif opc is _OP_LNEXT:
                        if self._iter_stack:
                            self._iter_stack[-1] += 1
                        if emitting:
                            sink_emit(node, instr.sid, 71, lid)
                        if comp is not None:
                            if rec is not None and rec.loop_id == lid:
                                comp.build(rec, cur_loop)
                                rec = None
                            kern = comp.kernels.get(lid)
                            if kern is None:
                                if (counts[loop_key + 71]
                                        >= comp.threshold):
                                    rec = comp.begin(lid, block, pc)
                                    rec_path = rec.path
                            elif kern is not _REJECTED:
                                res = comp.dispatch(
                                    kern, values, defn, defa, sink,
                                    recording, cur_loop, loop_key)
                                if res is not None:
                                    block, pc, iters = res
                                    instrs = block.instructions
                                    if iters and self._iter_stack:
                                        self._iter_stack[-1] += iters
                    else:  # LOOP_EXIT
                        # Recording straddled the loop's last iteration:
                        # abandon it and retry on a later instance.
                        if rec is not None:
                            comp.abort(rec.loop_id)
                            rec = None
                        if loop_stack and loop_stack[-1] == lid:
                            loop_stack.pop()
                            if self._iter_stack:
                                iters = self._iter_stack.pop()
                                self.loop_iter_hist[lid][iters] += 1
                        if emitting:
                            sink_emit(node, instr.sid, 72, lid)
                        if sink is not None:
                            sink.on_marker(72, lid, -1)
                            recording = sink.active
                    cur_loop = loop_stack[-1] if loop_stack else -1
                    loop_key = (cur_loop + 2) * LOOP_KEY_STRIDE
                    continue

                if opc is _OP_CAST:
                    value, vdn, vda = ev(instr.operands[0])
                    to_type = instr.result.type
                    if isinstance(to_type, IntType):
                        if type(value) is float:
                            value = int(value)  # trunc toward zero
                        bits = to_type.bits
                        if value >> (bits - 1) not in (0, -1):
                            value &= (1 << bits) - 1
                            if value >= 1 << (bits - 1):
                                value -= 1 << bits
                    elif isinstance(to_type, FloatType):
                        value = float(value)
                        if to_type.bits == 32:
                            value = _f32(value)
                    # Pointer casts: value passes through unchanged.
                    i = instr.result.index
                    values[i] = value
                    defn[i] = node
                    # Per the paper, a value produced by another instruction
                    # carries artificial address 0; only pointer *retyping*
                    # keeps provenance (it is not a computation).
                    defa[i] = vda if isinstance(to_type, PointerType) else 0
                    if emitting:
                        sink_emit(node, instr.sid, 40, cur_loop, (vdn,))
                    continue

                if opc is _OP_SDIV or opc is _OP_SREM:
                    a, adn, _ = ev(instr.operands[0])
                    b, bdn, _ = ev(instr.operands[1])
                    if b == 0:
                        raise InterpError(
                            f"integer division by zero (sid {instr.sid})"
                        )
                    q = _cdiv(a, b)
                    value = q if opc is _OP_SDIV else a - q * b
                    i = instr.result.index
                    values[i] = value
                    defn[i] = node
                    defa[i] = 0
                    if emitting:
                        sink_emit(node, instr.sid, opc._value_, cur_loop, (adn, bdn))
                    continue

                if (
                    opc is _OP_AND
                    or opc is _OP_OR
                    or opc is _OP_XOR
                    or opc is _OP_SHL
                    or opc is _OP_ASHR
                ):
                    a, adn, _ = ev(instr.operands[0])
                    b, bdn, _ = ev(instr.operands[1])
                    if opc is _OP_AND:
                        value = a & b
                    elif opc is _OP_OR:
                        value = a | b
                    elif opc is _OP_XOR:
                        value = a ^ b
                    elif opc is _OP_SHL:
                        value = a << b
                    else:
                        value = a >> b
                    bits = instr.result.type.bits
                    if value >> (bits - 1) not in (0, -1):
                        value &= (1 << bits) - 1
                        if value >= 1 << (bits - 1):
                            value -= 1 << bits
                    i = instr.result.index
                    values[i] = value
                    defn[i] = node
                    defa[i] = 0
                    if emitting:
                        sink_emit(node, instr.sid, opc._value_, cur_loop, (adn, bdn))
                    continue

                if opc is _OP_SELECT:
                    cond, cdn, _ = ev(instr.operands[0])
                    a, adn, ada = ev(instr.operands[1])
                    b, bdn, bda = ev(instr.operands[2])
                    i = instr.result.index
                    values[i] = a if cond else b
                    defn[i] = node
                    defa[i] = ada if cond else bda
                    if emitting:
                        sink_emit(node, instr.sid, 41, cur_loop,
                                  (cdn, adn, bdn))
                    continue

                if opc is _OP_COPY:
                    value, vdn, vda = ev(instr.operands[0])
                    i = instr.result.index
                    values[i] = value
                    defn[i] = node
                    defa[i] = vda
                    if emitting:
                        sink_emit(node, instr.sid, 42, cur_loop, (vdn,))
                    continue

                if opc is _OP_ALLOCA:
                    addr = memory.alloc_stack(instr.alloc_type)
                    i = instr.result.index
                    values[i] = addr
                    defn[i] = node
                    defa[i] = 0
                    if emitting:
                        sink_emit(node, instr.sid, 50, cur_loop)
                    continue

                if opc is _OP_CALL:
                    callee = instr.callee
                    native = _INTRINSICS.get(callee)
                    # A user call ends a straight-line path; a pure
                    # intrinsic compiles inline.
                    if rec is not None and native is None:
                        comp.reject(rec.loop_id, "call in body")
                        rec = None
                    triples = [ev(a) for a in instr.operands]
                    if emitting:
                        sink_emit(node, instr.sid, 63, cur_loop,
                                  tuple(t[1] for t in triples))
                    if native is not None:
                        try:
                            value = native(*[t[0] for t in triples])
                        except (ValueError, OverflowError) as exc:
                            raise InterpError(
                                f"intrinsic {callee} failed: {exc}"
                            ) from exc
                        rnode, raddr = node, 0
                    else:
                        value, rnode, raddr = self._exec_function(
                            module.function(callee), triples
                        )
                        recording = sink is not None and sink.active
                    if instr.result is not None:
                        i = instr.result.index
                        values[i] = value
                        defn[i] = rnode if rnode >= 0 else node
                        defa[i] = raddr
                    continue

                if opc is _OP_RET:
                    # A return mid-recording (loop exited through it):
                    # abandon the path; a later instance retries.
                    if rec is not None:
                        comp.abort(rec.loop_id)
                        rec = None
                    if instr.operands:
                        value, vdn, vda = ev(instr.operands[0])
                    else:
                        value, vdn, vda = None, -1, 0
                    if emitting:
                        sink_emit(node, instr.sid, 62, cur_loop,
                                  (vdn,) if instr.operands else ())
                    return value, vdn, vda

                raise InterpError(f"unhandled opcode {instr.opcode!r}")
        finally:
            memory.pop_frame(frame_save)

def run_module(module: Module, entry: str = "main", args: Sequence = (),
               fuel: int = DEFAULT_FUEL, compile_loops: bool = True,
               compile_threshold: Optional[int] = None):
    """Execute a module without tracing; returns (return value, interpreter)."""
    interp = Interpreter(module, sink=None, fuel=fuel,
                         compile_loops=compile_loops,
                         compile_threshold=compile_threshold)
    value = interp.run(entry, args)
    return value, interp
