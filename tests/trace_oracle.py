"""Reference oracle for the trace→DDG path.

The original record-object sinks and DDG walker, kept verbatim as the
oracle that ``tests/test_ddg_oracle.py`` and ``tests/test_columnar.py``
check the production columnar path against.  :class:`RecordingSink` and
:class:`LoopWindowSink` allocate one :class:`DynInstr` per retained
instruction; :func:`walk_records` builds the CSR DDG from that record
list in one linear pass.  :class:`Trace` indexes a record list by loop
span (:meth:`Trace.subtrace`, :meth:`Trace.iteration_numbers`).
Production packs records into flat columns
(:class:`repro.trace.columnar.ColumnarSink`) and remaps them with numpy
(:meth:`~repro.trace.columnar.ColumnarSink.to_ddg`); :func:`sink_records`
reads a production sink's columns back as records, so tests can hold
them against the oracle record for record.

The sinks still plug into :class:`~repro.interp.interpreter.Interpreter`.
They have no ``reserve``, so the interpreter runs them on the step
path only; an oracle run therefore also checks the compiled kernels.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ddg.graph import _CSR_TYPECODE, DDG
from repro.errors import TraceError
from repro.interp.interpreter import DEFAULT_FUEL, Interpreter
from repro.ir.instructions import Opcode
from repro.trace.columnar import ColumnarLoopSink, ColumnarSink
from repro.trace.events import MARKER_ENTER, MARKER_EXIT, MARKER_NEXT


class DynInstr:
    """One dynamic instruction instance.

    Attributes
    ----------
    node:
        Globally unique dynamic node id (execution order; ids increase
        monotonically along the trace, so trace order is a topological
        order of the DDG).
    sid:
        Static instruction id (see :class:`repro.ir.Instruction`).
    opcode:
        Opcode as an int.
    loop_id:
        Innermost active source loop id, or -1 outside all loops.
    deps:
        Producer node ids for this record's flow dependences (register
        operands' defining nodes; for loads, also the last store to the
        address).  Ids of -1 (constants/parameters of the entry function)
        are included as-is and filtered during DDG construction.
    addrs:
        For candidate (FP arithmetic) instructions: per-operand source
        addresses — the address a feeding load read from, or 0 for values
        not obtained from memory (paper §3.2's "artificial address of
        zero").  Empty for non-candidates.
    addr:
        Accessed memory address for loads/stores; 0 otherwise.
    store_addr:
        Address this record's *result* was first stored to, or 0.  Filled
        in retroactively by the tracer when a store consumes the value;
        completes the paper's access tuple (operands + written location).
    """

    __slots__ = (
        "node",
        "sid",
        "opcode",
        "loop_id",
        "deps",
        "addrs",
        "addr",
        "store_addr",
    )

    def __init__(
        self,
        node: int,
        sid: int,
        opcode: int,
        loop_id: int,
        deps: Tuple[int, ...] = (),
        addrs: Tuple[int, ...] = (),
        addr: int = 0,
        store_addr: int = 0,
    ):
        self.node = node
        self.sid = sid
        self.opcode = opcode
        self.loop_id = loop_id
        self.deps = deps
        self.addrs = addrs
        self.addr = addr
        self.store_addr = store_addr

    @property
    def is_marker(self) -> bool:
        return self.opcode in (MARKER_ENTER, MARKER_NEXT, MARKER_EXIT)

    @property
    def access_tuple(self) -> Tuple[int, ...]:
        """The paper's memory-access tuple: operand sources plus the
        address the result was stored to."""
        return self.addrs + (self.store_addr,)

    def __repr__(self) -> str:
        return (
            f"<dyn {self.node} sid={self.sid} op={Opcode(self.opcode).name} "
            f"loop={self.loop_id}>"
        )


class LoopSpan:
    """One dynamic instance of a loop: a [start, end] record-index window.

    ``start`` points at the LOOP_ENTER record and ``end`` at the matching
    LOOP_EXIT record (both inclusive, both may be missing for truncated
    windows, in which case they clamp to the trace bounds).
    """

    __slots__ = ("loop_id", "instance", "start", "end")

    def __init__(self, loop_id: int, instance: int, start: int, end: int):
        self.loop_id = loop_id
        self.instance = instance
        self.start = start
        self.end = end

    def __repr__(self) -> str:
        return (
            f"<span loop={self.loop_id} inst={self.instance} "
            f"[{self.start}, {self.end}]>"
        )


class Trace:
    """A sequence of dynamic records plus the module they came from."""

    def __init__(self, module: Module, records: Sequence[DynInstr]):
        self.module = module
        self.records: List[DynInstr] = list(records)
        self._spans: Optional[Dict[int, List[LoopSpan]]] = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[DynInstr]:
        return iter(self.records)

    # -- loop span indexing --------------------------------------------------

    def _build_spans(self) -> Dict[int, List[LoopSpan]]:
        spans: Dict[int, List[LoopSpan]] = {}
        open_stack: List[LoopSpan] = []
        counters: Dict[int, int] = {}
        for i, rec in enumerate(self.records):
            if rec.opcode == MARKER_ENTER:
                instance = counters.get(rec.loop_id, 0)
                counters[rec.loop_id] = instance + 1
                span = LoopSpan(rec.loop_id, instance, i, len(self.records) - 1)
                open_stack.append(span)
                spans.setdefault(rec.loop_id, []).append(span)
            elif rec.opcode == MARKER_EXIT:
                if not open_stack:
                    raise TraceError("unbalanced LOOP_EXIT in trace")
                span = open_stack.pop()
                if span.loop_id != rec.loop_id:
                    raise TraceError(
                        f"mismatched loop markers: enter {span.loop_id}, "
                        f"exit {rec.loop_id}"
                    )
                span.end = i
        return spans

    @property
    def spans(self) -> Dict[int, List[LoopSpan]]:
        if self._spans is None:
            self._spans = self._build_spans()
        return self._spans

    def loop_instances(self, loop_id: int) -> List[LoopSpan]:
        return self.spans.get(loop_id, [])

    def subtrace(self, loop_id: int, instance: int = 0) -> "Trace":
        """The paper's per-loop subtrace: records of one loop instance."""
        instances = self.loop_instances(loop_id)
        if instance >= len(instances):
            raise TraceError(
                f"loop {loop_id} has {len(instances)} instance(s); "
                f"requested {instance}"
            )
        span = instances[instance]
        return Trace(self.module, self.records[span.start : span.end + 1])

    # -- iteration annotation ------------------------------------------------

    def iteration_numbers(self, loop_id: int) -> List[int]:
        """Per-record iteration index of ``loop_id`` (-1 when the record is
        outside the loop).  Used by the Larus-style baseline."""
        out: List[int] = []
        depth = 0
        iteration = -1
        for rec in self.records:
            if rec.opcode == MARKER_ENTER and rec.loop_id == loop_id:
                depth += 1
                if depth == 1:
                    iteration = 0
                out.append(iteration)
            elif rec.opcode == MARKER_EXIT and rec.loop_id == loop_id:
                out.append(iteration)
                depth -= 1
                if depth == 0:
                    iteration = -1
            elif rec.opcode == MARKER_NEXT and rec.loop_id == loop_id:
                out.append(iteration)
                if depth == 1:
                    iteration += 1
            else:
                out.append(iteration)
        return out

    # -- convenience -----------------------------------------------------------

    def candidate_records(self) -> List[DynInstr]:
        """Records of candidate (FP arithmetic) instructions."""
        from repro.ir.instructions import FP_ARITH_OPCODES

        fp = frozenset(int(op) for op in FP_ARITH_OPCODES)
        return [r for r in self.records if r.opcode in fp]

    def __repr__(self) -> str:
        return f"<trace: {len(self.records)} records>"


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


def sink_records(sink: ColumnarSink) -> List[DynInstr]:
    """The records a production sink holds, read back from its columns
    and bookkeeping: node ids from the runs, loop ids from the change
    points, store addresses from the backpatches."""
    cols = sink.columns()
    runs = sink.runs
    breaks = sink.loop_breaks
    dep_flat = cols.dep_flat.tolist()
    dep_counts = cols.dep_counts.tolist()
    addr_get = cols.addr_map().get
    mem_get = cols.mem_map().get
    store_get = sink.store_map.get
    records = []
    ri = bi = node = start = 0
    loop_id = -1
    for row, (sid, op) in enumerate(zip(cols.sids.tolist(),
                                        cols.opcodes.tolist())):
        if ri < len(runs) and runs[ri][1] == row:
            node = runs[ri][0]
            ri += 1
        if bi < len(breaks) and breaks[bi][0] == row:
            loop_id = breaks[bi][1]
            bi += 1
        nd = dep_counts[row]
        records.append(DynInstr(node, sid, op, loop_id,
                                tuple(dep_flat[start:start + nd]),
                                addr_get(row, ()), mem_get(row, 0),
                                store_get(row, 0)))
        start += nd
        node += 1
    return records


def columnar_trace(module, entry: str = "main", args: Sequence = (),
                   loop: Optional[int] = None,
                   instances: Optional[set] = None) -> Trace:
    """Run ``module`` into a production sink — a
    :class:`~repro.trace.columnar.ColumnarSink`, or with ``loop`` a
    :class:`~repro.trace.columnar.ColumnarLoopSink` over its chosen
    instances — and return the record :class:`Trace` of its columns."""
    sink = (ColumnarSink() if loop is None
            else ColumnarLoopSink(loop, instances))
    Interpreter(module, sink=sink).run(entry, args)
    return Trace(module, sink_records(sink))


def program_ddg(module, entry: str = "main", args: Sequence = ()) -> DDG:
    """The whole-program DDG of one run of ``module``."""
    sink = ColumnarSink()
    Interpreter(module, sink=sink).run(entry, args)
    return sink.to_ddg()


def emit_records(sink, records: Sequence[DynInstr]):
    """Feed ``records`` to a production sink as a run would: each record,
    then its store-address backpatch.  Returns the sink."""
    for rec in records:
        sink.emit(rec.node, rec.sid, rec.opcode, rec.loop_id, rec.deps,
                  rec.addrs, rec.addr)
        if rec.store_addr:
            sink.note_store(rec.node, rec.store_addr)
    return sink


def records_equal(a: DynInstr, b: DynInstr) -> bool:
    """Whether two records carry the same fields."""
    return ((a.node, a.sid, int(a.opcode), a.loop_id, tuple(a.deps),
             tuple(a.addrs), a.addr, a.store_addr)
            == (b.node, b.sid, int(b.opcode), b.loop_id, tuple(b.deps),
                tuple(b.addrs), b.addr, b.store_addr))


def assert_ddgs_identical(a: DDG, b: DDG) -> None:
    assert a.sids.tolist() == b.sids.tolist()
    assert a.opcodes.tolist() == b.opcodes.tolist()
    assert list(a.pred_indices) == list(b.pred_indices)
    assert list(a.pred_offsets) == list(b.pred_offsets)
    assert a.addrs == b.addrs
    assert a.addr_cols.tolist() == b.addr_cols.tolist()
    assert a.addr_counts.tolist() == b.addr_counts.tolist()
    assert a.store_addrs.tolist() == b.store_addrs.tolist()
    assert a.mem_addrs.tolist() == b.mem_addrs.tolist()
