"""Candidate-instruction selection.

The paper restricts SIMD characterization to floating-point add, subtract,
multiply, and divide — "the set of floating-point instructions that have
vector counterparts in SIMD architectures" (§3).  All other instructions
still participate in dependences; they are just not characterized.

The machinery is opcode-agnostic: pass ``include_integer=True`` to also
characterize integer arithmetic, as the paper notes is possible (§4).

:func:`capture_sids` bounds, before anything runs, which static
instructions the candidate cone of a trace window can contain, so the
windowed re-run records only those (DESIGN.md §18).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.ddg.graph import DDG
from repro.ir.instructions import (
    FP_ARITH_OPCODES,
    INT_ARITH_OPCODES,
    MARKER_OPCODES,
    Opcode,
)
from repro.ir.module import Module
from repro.ir.types import PointerType
from repro.ir.values import GlobalRef, VirtualReg

FP_OPS: FrozenSet[int] = frozenset(int(op) for op in FP_ARITH_OPCODES)
INT_OPS: FrozenSet[int] = frozenset(int(op) for op in INT_ARITH_OPCODES)


def candidate_opcodes(include_integer: bool = False) -> FrozenSet[int]:
    return FP_OPS | INT_OPS if include_integer else FP_OPS


def candidate_sids(ddg: DDG, include_integer: bool = False) -> List[int]:
    """Static instruction ids with at least one candidate instance in the
    graph, in first-execution order.  Reads the DDG's precomputed
    sid -> opcode index instead of rescanning the node columns."""
    ops = candidate_opcodes(include_integer)
    return [sid for sid, opcode in ddg.sid_opcodes.items() if opcode in ops]


#: The base object of a pointer that may point anywhere.
_UNKNOWN = "?"

#: Opcodes whose pointer result points into its pointer operands' objects.
_POINTER_PASSING = frozenset({Opcode.PTRADD, Opcode.COPY, Opcode.CAST,
                              Opcode.SELECT})

_Reg = Tuple[str, int]


def _pointer_objects(module: Module, sites) -> Dict[_Reg, Set]:
    """The base objects each pointer register may point into.

    Objects are the globals (by name) and the ``alloca`` instructions (by
    sid).  ``ptradd``, ``copy``, pointer-to-pointer ``cast`` and
    ``select`` pass on the union of their pointer operands' objects, and
    a parameter takes the union over its call sites' arguments.  A
    pointer loaded from memory, returned by a call, built from an
    integer, or handed to ``main`` (or to a function nothing calls) gets
    the unknown object.  One flow-insensitive fixpoint over the module.
    """
    objs: Dict[_Reg, Set] = defaultdict(set)
    flows: Dict[_Reg, List[_Reg]] = defaultdict(list)

    def take(dst: _Reg, fname: str, op) -> None:
        if type(op) is VirtualReg:
            flows[(fname, op.index)].append(dst)
        elif type(op) is GlobalRef:
            objs[dst].add(op.name)

    for fname, fn in module.functions.items():
        callers = sites.get(fname, ())
        for k, reg in enumerate(fn.param_regs):
            if not isinstance(reg.type, PointerType):
                continue
            dst = (fname, reg.index)
            if fname == "main" or not callers:
                objs[dst].add(_UNKNOWN)
            for caller, call in callers:
                take(dst, caller, call.operands[k])
        for ins in fn.all_instructions():
            res = ins.result
            if res is None or not isinstance(res.type, PointerType):
                continue
            dst = (fname, res.index)
            opc = ins.opcode
            if opc is Opcode.ALLOCA:
                objs[dst].add(ins.sid)
            elif opc in _POINTER_PASSING and any(
                    isinstance(op.type, PointerType) for op in ins.operands):
                for op in ins.operands:
                    if isinstance(op.type, PointerType):
                        take(dst, fname, op)
            else:
                objs[dst].add(_UNKNOWN)
    stack = list(objs)
    while stack:
        src = stack.pop()
        have = objs[src]
        for dst in flows.get(src, ()):
            if not have <= objs[dst]:
                objs[dst] |= have
                stack.append(dst)
    return objs


def capture_sids(module: Module, ops: Iterable[int]) -> FrozenSet[int]:
    """The capture set of an analysis whose candidates are the
    instructions with an opcode in ``ops``: the candidate sids, every sid
    reachable from them in the module's static dependence graph, and
    every loop marker.

    The graph over-approximates every flow dependence the tracer can
    record, except memory dependences between base objects that share
    an address at run time (stack addresses reused across frames, read
    through an uninitialized local; a subscript past an object's end);
    the windowed re-run detects those at run time (DESIGN.md §18).  Its
    edges run

    - from each definition of a register to each use of it in the same
      function;
    - from a call's arguments to the uses of the callee's matching
      parameters;
    - from the callee's returned values, and from the call itself, to
      the uses of the call's result;
    - from each store to each load whose base objects may overlap its
      own (:func:`_pointer_objects`; the unknown object overlaps all).

    A captured call also captures every instruction that can produce its
    callee's return value: the tracer names the call as its result's
    producer only when the callee returned no produced value, so an
    uncaptured producer must not leave that slot to the call.
    """
    ops = frozenset(ops)
    sites: Dict[str, List] = defaultdict(list)
    defs: Dict[_Reg, List] = defaultdict(list)
    results: Dict[int, _Reg] = {}
    succ: Dict[_Reg, List] = defaultdict(list)
    rets: Dict[str, List[_Reg]] = defaultdict(list)
    loads: List[Tuple] = []
    stores: Dict[int, Tuple] = {}
    calls: Dict[int, str] = {}
    seeds: List = []
    for fname, fn in module.functions.items():
        for ins in fn.all_instructions():
            opc = ins.opcode
            if opc in MARKER_OPCODES or int(opc) in ops:
                seeds.append(ins.sid)
            if ins.result is not None:
                key = results[ins.sid] = (fname, ins.result.index)
                defs[key].append(ins)
            for op in ins.operands:
                if type(op) is VirtualReg:
                    succ[(fname, op.index)].append(ins.sid)
            if opc is Opcode.CALL and ins.callee in module.functions:
                sites[ins.callee].append((fname, ins))
                if ins.result is not None:
                    calls[ins.sid] = ins.callee
            elif opc is Opcode.RET and ins.operands:
                if type(ins.operands[0]) is VirtualReg:
                    rets[fname].append((fname, ins.operands[0].index))
            elif opc is Opcode.LOAD:
                loads.append((ins.sid, fname, ins.operands[0]))
            elif opc is Opcode.STORE:
                stores[ins.sid] = (fname, ins.operands[1])
    for callee, callers in sites.items():
        params = module.functions[callee].param_regs
        for caller, call in callers:
            for op, reg in zip(call.operands, params):
                if type(op) is VirtualReg:
                    succ[(caller, op.index)].append((callee, reg.index))
            if call.result is not None:
                dst = (caller, call.result.index)
                for key in rets.get(callee, ()):
                    succ[key].append(dst)

    objs = _pointer_objects(module, sites)

    def bases(fname: str, op) -> FrozenSet:
        if type(op) is GlobalRef:
            return frozenset((op.name,))
        if type(op) is VirtualReg:
            found = objs.get((fname, op.index))
            if found and _UNKNOWN not in found:
                return frozenset(found)
        return frozenset((_UNKNOWN,))

    load_bases = [(sid, bases(fname, op)) for sid, fname, op in loads]
    by_object: Dict[object, List[int]] = defaultdict(list)
    for sid, found in load_bases:
        for obj in found:
            by_object[obj].append(sid)
    params = {name: {reg.index: k for k, reg in enumerate(fn.param_regs)}
              for name, fn in module.functions.items()}

    def returned_producers(callee: str) -> List[int]:
        # Backward from the callee's returned registers to the
        # instructions whose node the tracer can hand back as the value's
        # producer: their definitions, through nested calls' returns and
        # through parameters to the arguments of every call site.
        found: List[int] = []
        todo = list(rets.get(callee, ()))
        seen = set(todo)
        while todo:
            fname, reg = key = todo.pop()
            nxt = []
            for ins in defs.get(key, ()):
                found.append(ins.sid)
                if ins.sid in calls:
                    nxt += rets.get(calls[ins.sid], ())
            k = params[fname].get(reg)
            if k is not None:
                for caller, call in sites.get(fname, ()):
                    op = call.operands[k]
                    if type(op) is VirtualReg:
                        nxt.append((caller, op.index))
            for key in nxt:
                if key not in seen:
                    seen.add(key)
                    todo.append(key)
        return found

    live = set(seeds)
    stack = list(live)
    reached_objects: Set = set()
    every_load = False

    def visit(node) -> None:
        if node not in live:
            live.add(node)
            stack.append(node)

    while stack:
        node = stack.pop()
        if type(node) is tuple:
            for nxt in succ.get(node, ()):
                visit(nxt)
            continue
        result = results.get(node)
        if result is not None:
            visit(result)
        if node in calls:
            for sid in returned_producers(calls[node]):
                visit(sid)
        if node in stores and not every_load:
            found = bases(*stores[node])
            if _UNKNOWN in found:
                every_load = True
                for sid, _ in load_bases:
                    visit(sid)
                continue
            for obj in found | {_UNKNOWN}:
                if obj not in reached_objects:
                    reached_objects.add(obj)
                    for sid in by_object.get(obj, ()):
                        visit(sid)
    return frozenset(n for n in live if type(n) is int)
