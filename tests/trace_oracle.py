"""Reference oracle for the trace→DDG path.

The original record-object sinks and DDG walker, kept verbatim as the
oracle that ``tests/test_ddg_oracle.py`` and ``tests/test_columnar.py``
check the production columnar path against.  :class:`RecordingSink` and
:class:`LoopWindowSink` allocate one :class:`DynInstr` per retained
instruction; :func:`walk_records` builds the CSR DDG from that record
list in one linear pass.  Production packs records into flat columns
(:class:`repro.trace.columnar.ColumnarSink`) and remaps them with numpy
(:meth:`~repro.trace.columnar.ColumnarSink.to_ddg`).

The sinks still plug into :class:`~repro.interp.interpreter.Interpreter`.
They have no ``reserve``, so the interpreter runs them on the step
path only; an oracle run therefore also checks the compiled kernels.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ddg.graph import _CSR_TYPECODE, DDG
from repro.interp.interpreter import DEFAULT_FUEL, Interpreter
from repro.trace.events import (
    MARKER_ENTER,
    MARKER_EXIT,
    DynInstr,
)
from repro.trace.trace import Trace


class RecordingSink:
    """Retains every dynamic record."""

    def __init__(self):
        self.records: List[DynInstr] = []
        self.active = True

    def emit(
        self,
        node: int,
        sid: int,
        opcode: int,
        loop_id: int,
        deps: Tuple[int, ...] = (),
        addrs: Tuple[int, ...] = (),
        addr: int = 0,
    ) -> None:
        self.records.append(
            DynInstr(node, sid, opcode, loop_id, deps, addrs, addr)
        )

    def on_record(self, rec: DynInstr) -> None:
        self.records.append(rec)

    def on_marker(self, kind: int, loop_id: int, instance: int) -> None:
        """Markers are recorded through :meth:`emit`; nothing extra."""

    def note_store(self, producer_node: int, addr: int) -> None:
        # A full recording retains every executed instruction, so node
        # ids equal list positions: the backpatch is one indexed write
        # (no node->record dict).
        records = self.records
        if producer_node < len(records):
            rec = records[producer_node]
            if rec.node == producer_node and rec.store_addr == 0:
                rec.store_addr = addr


class LoopWindowSink:
    """Retains records only inside chosen instances of one loop.

    ``instances=None`` keeps every instance (each becomes a separate span
    in the resulting trace); otherwise only instance indices in the given
    set are kept.  Nested re-entry of the same loop id (possible through
    recursion) is handled with a depth counter.

    The store-address backpatch index ``_by_node`` is bounded: it only
    holds records of the currently open span and is dropped when the
    span closes, so retained bookkeeping stays O(window) even when the
    sink records many instances back to back.
    """

    def __init__(self, loop_id: int, instances: Optional[set] = None):
        self.loop_id = loop_id
        self.instances = instances
        self.records: List[DynInstr] = []
        self._by_node: Dict[int, DynInstr] = {}
        self.active = False
        self._depth = 0

    def _wanted(self, instance: int) -> bool:
        return self.instances is None or instance in self.instances

    def on_marker(self, kind: int, loop_id: int, instance: int) -> None:
        if loop_id != self.loop_id:
            return
        if kind == MARKER_ENTER:
            if self._depth == 0 and self._wanted(instance):
                self.active = True
            self._depth += 1
        elif kind == MARKER_EXIT:
            self._depth -= 1
            if self._depth <= 0:
                self._depth = 0
                if self.active:
                    self.active = False
                    # Span closed: no later store can backpatch into it
                    # (stores outside the window are never recorded), so
                    # the index is dead weight — drop it.
                    self._by_node.clear()

    def emit(
        self,
        node: int,
        sid: int,
        opcode: int,
        loop_id: int,
        deps: Tuple[int, ...] = (),
        addrs: Tuple[int, ...] = (),
        addr: int = 0,
    ) -> None:
        self.on_record(DynInstr(node, sid, opcode, loop_id, deps, addrs, addr))

    def on_record(self, rec: DynInstr) -> None:
        self.records.append(rec)
        self._by_node[rec.node] = rec

    def note_store(self, producer_node: int, addr: int) -> None:
        rec = self._by_node.get(producer_node)
        if rec is not None and rec.store_addr == 0:
            rec.store_addr = addr


def walk_records(trace: Trace) -> DDG:
    index: Dict[int, int] = {}
    sids: List[int] = []
    opcodes: List[int] = []
    # Accumulate CSR vectors as plain lists (fast appends), convert to
    # typed arrays in one C-level pass at the end.
    pred_indices: List[int] = []
    pred_offsets: List[int] = [0]
    addrs: List[tuple] = []
    store_addrs: List[int] = []
    mem_addrs: List[int] = []

    # Bound methods hoisted out of the per-record loop: this function is
    # the single hottest Python loop in the pipeline after tracing.
    sid_append = sids.append
    op_append = opcodes.append
    idx_extend = pred_indices.extend
    off_append = pred_offsets.append
    addr_append = addrs.append
    store_append = store_addrs.append
    mem_append = mem_addrs.append

    n = 0
    for rec in trace.records:
        if rec.is_marker:
            continue
        sid_append(rec.sid)
        op_append(int(rec.opcode))
        if rec.deps:
            idx_extend(sorted({index[d] for d in rec.deps if d in index}))
        # The node enters the producer index only after its own deps are
        # resolved, so every emitted edge provably satisfies p < n: the
        # DDG constructor can skip its structural re-validation.
        index[rec.node] = n
        n += 1
        off_append(len(pred_indices))
        addr_append(rec.addrs)
        store_append(rec.store_addr)
        mem_append(rec.addr)

    return DDG(
        sids,
        opcodes,
        addrs=addrs,
        store_addrs=store_addrs,
        mem_addrs=mem_addrs,
        pred_indices=array(_CSR_TYPECODE, pred_indices),
        pred_offsets=array(_CSR_TYPECODE, pred_offsets),
        validate=False,
    )


def record_trace(module, entry: str = "main", args: Sequence = (),
                 loop: Optional[int] = None,
                 instances: Optional[set] = None,
                 fuel: int = DEFAULT_FUEL) -> Trace:
    """Run ``module`` into a reference sink and return its record
    :class:`Trace`: every record, or only ``loop``'s chosen instances."""
    sink = (RecordingSink() if loop is None
            else LoopWindowSink(loop, instances))
    Interpreter(module, sink=sink, fuel=fuel).run(entry, args)
    return Trace(module, sink.records)


def assert_ddgs_identical(a: DDG, b: DDG) -> None:
    assert a.sids == b.sids
    assert a.opcodes == b.opcodes
    assert list(a.pred_indices) == list(b.pred_indices)
    assert list(a.pred_offsets) == list(b.pred_offsets)
    assert [tuple(t) for t in a.addrs] == [tuple(t) for t in b.addrs]
    assert list(a.store_addrs) == list(b.store_addrs)
    assert list(a.mem_addrs) == list(b.mem_addrs)
