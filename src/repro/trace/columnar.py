"""Columnar streaming trace storage: the one trace→DDG path.

The sinks here pack each dynamic record straight into per-field columns
as the interpreter emits it — no per-record object — and
:meth:`ColumnarSink.to_ddg` turns the columns into the CSR
:class:`~repro.ddg.graph.DDG` with a handful of numpy array passes.  The
combination is the "fused interpret→trace→DDG" pipeline: a windowed
analysis run produces an analysis-ready DDG with no intermediate trace
materialization.  A record :class:`~repro.trace.trace.Trace` (a
``subtrace`` or a file read back by :mod:`repro.trace.serialize`) is
packed into the same columns by :func:`pack_records`, so every DDG in
the system comes out of the same remap.  Given a set of candidate
opcodes, the remap returns the window's candidate cone
(:class:`CandidateCone`) instead of the whole window graph.

The columns are numpy arrays (:class:`TraceColumns`) held in chunks.
The records :meth:`ColumnarSink.emit` receives one at a time are
buffered in Python lists; a compiled loop batch (:mod:`repro.interp
.compile`) only reserves its rows (:meth:`ColumnarSink.reserve`) and
stays pending, raw, with the other batches of its kernel.  When the
columns are first read, the pending batches are derived one kernel at a
time and written, with the buffered rows, into one chunk
(:func:`derive_rows`).  Every reader takes the columns from
:meth:`ColumnarSink.columns`, which concatenates the chunks.

Three pieces of bookkeeping keep the columns as small as the data:

- **Runs.**  Node ids are global and monotonically increasing, and the
  interpreter only skips emitting while a window sink is inactive, so
  recorded node ids form contiguous runs.  Only each run's (first node,
  first row) pair is stored; every other node id is recovered by
  arithmetic.  This also makes the store-address backpatch an O(1)
  dict write (``row = node - run_node0 + run_row0``) instead of a
  node→record lookup.
- **Loop-id run-length encoding.**  The innermost active loop only
  changes at loop-marker records, so the per-record ``loop_id`` column
  is piecewise constant and stored as (row, loop_id) change points.
- **Sparse columns.**  Most records carry no operand addresses and no
  memory address, so those are stored only for the rows that carry
  them, as ascending row keys with CSR values.

The ``DynInstr``/``Trace`` API survives as a lazy view:
:attr:`ColumnarSink.records` materializes the object list on demand and
:class:`ColumnarTrace` is a :class:`~repro.trace.trace.Trace` whose
``records`` delegate to it, so serialization, ``LoopSpan`` indexing and
``subtrace`` slicing keep working unchanged (mirroring the CSR/preds
tuple-view pattern of the batched Algorithm 1 engine).
"""

from __future__ import annotations

from array import array
from itertools import chain as _chain
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TraceError
from repro.ir.instructions import Opcode
from repro.obs import current_run
from repro.trace.events import (
    MARKER_ENTER,
    MARKER_EXIT,
    DynInstr,
)
from repro.trace.trace import Trace

#: Every opcode a record may carry.  The columns read any opcode at or
#: above ``MARKER_ENTER`` as a loop marker, so :func:`pack_records`
#: refuses values outside the enum.
_OPCODES = frozenset(int(op) for op in Opcode)


class TraceColumns(NamedTuple):
    """A sink's trace columns as numpy arrays, one row per record.

    The dense columns hold one entry per row; ``dep_flat`` holds each
    row's ``dep_counts[r]`` producer node ids, concatenated.  The sparse
    columns are keyed by ascending row: ``addr_rows`` are the rows that
    carry operand addresses, ``addr_counts`` how many each carries and
    ``addr_flat`` the addresses; ``mem_rows``/``mem_vals`` are the rows
    of loads and stores and the address each accessed.  The fields and
    dtypes are the segment file's sections of the same names
    (:mod:`repro.trace.store`).
    """

    sids: np.ndarray
    opcodes: np.ndarray
    dep_counts: np.ndarray
    dep_flat: np.ndarray
    addr_rows: np.ndarray
    addr_counts: np.ndarray
    addr_flat: np.ndarray
    mem_rows: np.ndarray
    mem_vals: np.ndarray

    def addr_map(self) -> Dict[int, Tuple[int, ...]]:
        """Row -> operand-address tuple, for the rows that carry one."""
        return dict(zip(self.addr_rows.tolist(),
                        addr_tuples(self.addr_counts, self.addr_flat)))

    def mem_map(self) -> Dict[int, int]:
        """Row -> accessed address, for the loads and stores."""
        return dict(zip(self.mem_rows.tolist(), self.mem_vals.tolist()))


#: The dtype of each :class:`TraceColumns` field.
COLUMN_DTYPES = (np.int64, np.int8, np.intc, np.int64, np.int64, np.intc,
                 np.int64, np.int64, np.int64)

_EMPTY_COLUMNS = TraceColumns(*(np.empty(0, dtype=dt)
                                for dt in COLUMN_DTYPES))
for _col in _EMPTY_COLUMNS:
    _col.flags.writeable = False


def concat_columns(parts: Sequence[TraceColumns]) -> TraceColumns:
    """The rows of ``parts``, in order, copied into one set of columns."""
    if not parts:
        return _EMPTY_COLUMNS
    return TraceColumns(*(np.concatenate(p) for p in zip(*parts)))


#: An emit buffer holding no row.
_NO_STEPS = ((), (), (), (), {}, {})


def _merge_sparse(parts):
    """Sparse columns ``(rows, counts, values)``, each keyed by ascending
    rows, merged into one; ``counts`` is ``None`` when every row carries
    one value."""
    parts = [p for p in parts if len(p[0])] or parts[:1]
    if len(parts) == 1:
        return parts[0]
    rows, values = (np.concatenate([p[i] for p in parts]) for i in (0, 2))
    order = np.argsort(rows, kind="stable")
    if parts[0][1] is None:
        return rows[order], None, values[order]
    counts = np.concatenate([p[1] for p in parts])
    taken = counts[order]
    starts = np.cumsum(counts) - counts
    values = values[np.repeat(starts[order] - (np.cumsum(taken) - taken),
                              taken) + np.arange(len(values))]
    return rows[order], taken, values


def derive_rows(n: int, lo: int, derivations, store_map,
                steps=_NO_STEPS, items=None):
    """The columns of ``n`` rows from sink row ``lo`` on, in one merge.

    ``steps`` is an emit buffer, ``(sids, opcodes, dep_counts, deps,
    addrs, mems)`` with the sparse fields keyed by sink row, whose rows
    fill the gaps between the rows that the compiled batches of
    ``derivations`` (:class:`repro.interp.compile._Derivation`, one per
    kernel) reserved.  The batches write their dense columns first;
    once every row's dependence count is known, their dependences, and
    they hand back their sparse columns, which merge with the buffer's
    by row.  They resolve their batch-internal store backpatches into
    ``store_map`` (into ``items``, when given).  Returns ``(columns,
    uncaptured, misses)``: the batches' uncaptured records and capture
    misses.
    """
    sids_b, ops_b, cnts_b, deps_b, addrs, mems = steps
    vals = list(addrs.values())
    counts = np.fromiter(map(len, vals), np.intc, len(vals))
    addr_parts = [(np.fromiter(addrs, np.int64, len(vals)), counts,
                   np.fromiter(_chain.from_iterable(vals), np.int64,
                               int(counts.sum())))]
    mem_parts = [(np.fromiter(mems, np.int64, len(mems)), None,
                  np.fromiter(mems.values(), np.int64, len(mems)))]
    # One spare slot past the rows (and the dependences) takes the
    # entries the batches cut off; -1 sids mark the stepped rows.
    sids = np.full(n + 1, -1, dtype=np.int64)
    ops = np.empty(n + 1, dtype=np.int8)
    cnts = np.empty(n + 1, dtype=np.intc)
    for d in derivations:
        d.place(sids, ops, cnts, lo)
    sids, ops, cnts = sids[:n], ops[:n], cnts[:n]
    stepped = np.flatnonzero(sids < 0)
    sids[stepped] = sids_b
    ops[stepped] = ops_b
    cnts[stepped] = cnts_b
    dstart = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(cnts, out=dstart[1:])
    dep = np.empty(int(dstart[-1]) + 1, dtype=np.int64)
    if deps_b:
        sc = cnts[stepped]
        dep[np.repeat(dstart[stepped] - (np.cumsum(sc) - sc), sc)
            + np.arange(len(deps_b))] = deps_b
    uncaptured = misses = 0
    for d in derivations:
        addr_rows, addr_pairs, mem_rows, mem_vals, m = d.fill(
            dep, dstart, lo, store_map, items)
        addr_parts.append((addr_rows,
                           np.full(len(addr_rows), 2, dtype=np.intc),
                           addr_pairs.reshape(-1)))
        mem_parts.append((mem_rows, None, mem_vals))
        uncaptured += d.uncaptured
        misses += m
    addr_rows, addr_counts, addr_flat = _merge_sparse(addr_parts)
    mem_rows, _, mem_vals = _merge_sparse(mem_parts)
    return (TraceColumns(sids, ops, cnts, dep[:-1], addr_rows, addr_counts,
                         addr_flat, mem_rows, mem_vals), uncaptured, misses)


def addr_tuples(counts, flat) -> List[Tuple[int, ...]]:
    """The operand-address tuple of each row of CSR address columns."""
    if (counts == 2).all():
        # Every interpreter and kernel row: a binary FP op's pair.
        return list(zip(flat[0::2].tolist(), flat[1::2].tolist()))
    flat = flat.tolist()
    out = []
    start = 0
    for end in np.cumsum(counts).tolist():
        out.append(tuple(flat[start:end]))
        start = end
    return out


def scatter_ints(out, di, rows, vals):
    """Scatter int ``vals`` keyed by row into ``out`` through the
    row→node map ``di``; rows that map to no node (-1) are skipped."""
    p = di[rows]
    kept = p >= 0
    out[p[kept]] = vals[kept]


def scatter_sparse(di, n, cols: TraceColumns):
    """Dense per-node columns from the sparse ones of ``cols``, through
    the row→node map ``di`` (rows mapping to -1 are skipped): the
    operand-address tuples as a list and the memory addresses as an
    array, zero where a node has none."""
    out_addrs: List[tuple] = [()] * n
    if len(cols.addr_rows):
        for p, val in zip(di[cols.addr_rows].tolist(),
                          addr_tuples(cols.addr_counts, cols.addr_flat)):
            if p >= 0:
                out_addrs[p] = val
    out_mem = np.zeros(n, dtype=np.int64)
    scatter_ints(out_mem, di, cols.mem_rows, cols.mem_vals)
    return out_addrs, out_mem


def unique_deps(mapped, counts, n_rows, n_nodes):
    """Each row's sorted unique predecessors, as flat edge columns.

    ``mapped`` holds every recorded dependence as a DDG node index (-1
    when it names no node of the window) and ``counts`` the number of
    dependences per row, ``n_rows`` rows in all; ``n_nodes`` bounds the
    node indices.  One global sort of (row-major, pred-minor) composite
    keys and an adjacent-duplicate mask do the work.  Returns ``(rows,
    preds)``: the consumer row and producer node of every kept edge,
    sorted by row, then by producer.
    """
    stride = n_nodes + 2
    key = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
    key *= stride
    key += mapped
    key += 1
    key.sort()
    rows = key // stride
    preds = key - rows * stride
    preds -= 1
    m = key.shape[0]
    if not m:
        return rows, preds
    keep = np.empty(m, dtype=bool)
    keep[0] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    keep &= preds >= 0
    return rows[keep], preds[keep]


def csr_arrays(rows, preds, node_rows, n_rows):
    """``(pred_indices, pred_offsets)`` as ``array('q')`` for the nodes
    at ``node_rows`` (in node order), from :func:`unique_deps`-shaped
    edge columns whose consumers all lie in ``node_rows``."""
    from repro.ddg.graph import _CSR_TYPECODE

    offsets = np.empty(len(node_rows) + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(np.bincount(rows, minlength=n_rows)[node_rows],
              out=offsets[1:])
    indices_arr = array(_CSR_TYPECODE)
    indices_arr.frombytes(preds.astype(np.int64, copy=False).tobytes())
    offsets_arr = array(_CSR_TYPECODE)
    offsets_arr.frombytes(offsets.tobytes())
    return indices_arr, offsets_arr


class CandidateCone:
    """The candidate cone of one trace window: the nodes whose static
    instruction is a candidate's, or reachable from one.

    Algorithm 1 (§3.1) raises a timestamp only at instances of the
    instruction under analysis, so a node that no candidate instance
    reaches has timestamp 0 on every lane; 0 is the identity of max over
    timestamps >= 0, so dropping it and its out-edges changes no kept
    node's timestamp.  The cone is taken on the window's *sid graph*
    (an edge ``a -> b`` for every DDG edge from an instance of static
    instruction ``a`` to one of ``b``): the live sids are the candidate
    sids and every sid reachable from them, and the cone is every node
    with a live sid.  That is a superset of the per-node cone (no
    candidate instance reaches a node whose sid is not live), and the
    sid graph has only as many vertices as the window has static
    instructions, so the walk is cheap.

    Both remaps use it in three steps: :meth:`add` takes the window's
    nodes and edges in batches (all at once in RAM, one segment at a
    time when spilled), :meth:`finish` fixes the cone over every node
    of the window, and :meth:`select` cuts one batch of remapped
    columns down to it, renumbering kept nodes in execution order.
    """

    def __init__(self, cone_ops):
        self._ops = np.fromiter(cone_ops, np.int64)
        self._seeds = set()
        self._edges = set()
        self.keep = None
        self.new_index = None

    def add(self, node_sids, node_ops, pred_sids, cons_sids) -> None:
        """One batch: the sids and opcodes of some window nodes, and the
        producer and consumer sids of some window edges."""
        is_candidate = np.isin(node_ops, self._ops)
        self._seeds.update(np.unique(node_sids[is_candidate]).tolist())
        if not len(pred_sids):
            return
        lo = min(int(pred_sids.min()), int(cons_sids.min()))
        span = max(int(pred_sids.max()), int(cons_sids.max())) - lo + 1
        keys = (pred_sids - lo) * span
        keys += cons_sids - lo
        if span * span <= 8 * len(keys):
            # A flag per possible pair takes no more memory than the keys
            # and is an order of magnitude faster than hashing them.
            seen = np.zeros(span * span, dtype=bool)
            seen[keys] = True
            pairs = np.flatnonzero(seen)
        else:
            pairs = np.unique(keys)
        src, dst = np.divmod(pairs, span)
        self._edges.update(zip((src + lo).tolist(), (dst + lo).tolist()))

    def _live_sids(self) -> set:
        """The candidate sids and every sid reachable from them."""
        succs = {}
        for a, b in self._edges:
            succs.setdefault(a, []).append(b)
        live = set(self._seeds)
        stack = list(live)
        while stack:
            for b in succs.get(stack.pop(), ()):
                if b not in live:
                    live.add(b)
                    stack.append(b)
        return live

    def finish(self, node_sids) -> None:
        """Fix the cone over all window nodes (their sids, in node order):
        ``keep`` marks cone nodes and ``new_index`` numbers them."""
        self.keep = np.isin(node_sids,
                            np.fromiter(self._live_sids(), np.int64))
        self.new_index = np.cumsum(self.keep) - 1

    def select(self, node0, node_rows, rows, preds):
        """Cut one batch of remapped columns down to the cone.

        ``node_rows`` are the batch's node rows, holding window nodes
        ``node0, node0 + 1, ...``; ``rows``/``preds`` are its
        :func:`unique_deps` edges with window-wide producer indices.
        An edge survives iff its producer is in the cone (its consumer
        then is too).  Returns the kept node rows and edges, producers
        renumbered into the cone.
        """
        live = self.keep[preds]
        kept_rows = node_rows[self.keep[node0:node0 + len(node_rows)]]
        return kept_rows, rows[live], self.new_index[preds[live]]


class ColumnarSink:
    """Retains every dynamic record, packed into flat columns.

    The interpreter feeds it through :meth:`emit` (opcode as a plain
    int) and the compiled kernels through :meth:`reserve`; every reader
    — :meth:`to_ddg`, the lazy :attr:`records` view, the segment spill —
    takes the columns from :meth:`columns`.
    """

    __slots__ = (
        "runs", "loop_breaks", "marker_rows", "active",
        "uncaptured", "pending", "_stores",
        "_chunks", "_merged", "_sealed", "_sids", "_ops", "_cnts", "_deps",
        "_addrs", "_mems", "_misses",
        "_next_node", "_cur_node0", "_cur_row0", "_last_loop", "_records",
        "_sid_append", "_op_append", "_cnt_append", "_dep_extend",
    )

    def __init__(self):
        #: The rows derived so far, as :class:`TraceColumns` chunks in
        #: row order; ``_merged`` rows in all.
        self._chunks: List[TraceColumns] = []
        self._merged = 0
        #: Rows that are merged or reserved by a pending batch: the emit
        #: buffer's rows lie between the reserved ones, after these.
        self._sealed = 0
        #: The emit buffer: plain lists (a list append is the cheapest
        #: per-record write) and row-keyed dicts for the sparse fields,
        #: since most records carry no operand or memory address.
        self._sids: List[int] = []
        self._ops: List[int] = []
        self._cnts: List[int] = []
        self._deps: List[int] = []
        self._addrs: Dict[int, Tuple[int, ...]] = {}
        self._mems: Dict[int, int] = {}
        #: Compiled batches whose rows are reserved but not derived:
        #: kernel -> :class:`~repro.interp.compile.PendingBatches`.
        self.pending: Dict[object, object] = {}
        #: Store-address backpatches, keyed by row (:attr:`store_map`).
        self._stores: Dict[int, int] = {}
        #: (first node id, first row) of each contiguous recorded run.
        self.runs: List[Tuple[int, int]] = []
        #: (row, loop_id) change points of the RLE'd loop-id column.
        self.loop_breaks: List[Tuple[int, int]] = []
        #: rows holding loop-marker records (sparse; they are no nodes).
        self.marker_rows: List[int] = []
        self.active = True
        #: Window records the interpreter executed but did not capture
        #: (outside its capture set): they count in :meth:`stats`'s
        #: ``rows`` and the DDG's ``window_nodes``, and hold no row.
        #: Pending batches add theirs when they are derived.
        self.uncaptured = 0
        self._misses = 0
        #: Node id that continues the open run; ``None`` until the first
        #: record, so that record opens a run whatever its id.
        self._next_node: Optional[int] = None
        self._cur_node0 = 0
        self._cur_row0 = 0
        self._last_loop: Optional[int] = None
        self._records: Optional[List[DynInstr]] = None
        # The buffer lists are cleared in place, never rebound, so the
        # bound methods can be cached once — each saves an attribute
        # chain per record in emit().
        self._sid_append = self._sids.append
        self._op_append = self._ops.append
        self._cnt_append = self._cnts.append
        self._dep_extend = self._deps.extend

    @classmethod
    def from_columns(cls, cols: TraceColumns, runs, loop_breaks,
                     marker_rows, store_map,
                     uncaptured: int = 0) -> "ColumnarSink":
        """A sink holding ``cols`` and the given bookkeeping, ready to
        take more records as if it had emitted them (the segment store
        reassembles spilled columns through this)."""
        sink = cls()
        sink.uncaptured = uncaptured
        if len(cols.sids):
            sink._chunks.append(cols)
            sink._sealed = sink._merged = len(cols.sids)
        sink.runs.extend(runs)
        sink.loop_breaks.extend(loop_breaks)
        sink.marker_rows.extend(marker_rows)
        sink._stores.update(store_map)
        if sink.runs:
            last_node, last_row = sink.runs[-1]
            sink._next_node = last_node + (sink._sealed - last_row)
            sink._cur_node0 = last_node
            sink._cur_row0 = last_row
        if sink.loop_breaks:
            sink._last_loop = sink.loop_breaks[-1][1]
        return sink

    def __len__(self) -> int:
        return self._sealed + len(self._sids)

    @property
    def store_map(self) -> Dict[int, int]:
        """Store-address backpatches, keyed by row: written out of row
        order (a producer learns its address when a later store names
        it), first store wins.  Reading it derives the pending batches,
        which resolve theirs."""
        self._merge()
        return self._stores

    @property
    def capture_misses(self) -> int:
        """Uncaptured loads that read a captured store while recording:
        the stepped ones (:meth:`note_capture_miss`) and the pending
        batches', which reading this derives."""
        self._merge()
        return self._misses

    def note_capture_miss(self) -> None:
        """Count a stepped capture miss (derives nothing)."""
        self._misses += 1

    # -- the streaming write path (hot) ------------------------------------

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
        row = self._sealed + len(self._sids)
        if node != self._next_node:
            self._cur_node0 = node
            self._cur_row0 = row
            self.runs.append((node, row))
        self._next_node = node + 1
        if loop_id != self._last_loop:
            self.loop_breaks.append((row, loop_id))
            self._last_loop = loop_id
        if opcode >= MARKER_ENTER:
            self.marker_rows.append(row)
        self._sid_append(sid)
        self._op_append(opcode)
        if deps:
            self._dep_extend(deps)
        self._cnt_append(len(deps))
        if addrs:
            self._addrs[row] = addrs
        if addr:
            self._mems[row] = addr

    def reserve(self, kern, node0: int, loop_id: int, n: int, k: int,
                part: int, sid0: int, ma, lw, defn, defa) -> None:
        """Take the ``n`` rows of a compiled batch of ``kern``, leaving
        their columns to be derived when the columns are read.

        The batch — ``k`` full iterations and the first ``part`` path
        positions of one more, the entry sid ``sid0`` (or ``-1``), the
        kernel's raw ``ma``/``lw`` streams and the ``defn``/``defa``
        tables as they stand before the batch — joins the other pending
        batches of its kernel in :attr:`pending`
        (:class:`~repro.interp.compile.PendingBatches`, which
        ``kern.pending()`` makes).  Its rows carry node ids ``node0 ..
        node0+n-1`` and one ``loop_id`` (a compiled region never crosses
        a loop-enter/exit marker), so its runs, loop-id change point and
        marker rows are arithmetic.  Its store backpatches whose producer
        lies before it go through :meth:`note_store` now; those whose
        producer lies inside it are resolved when it is derived, where
        they win over the notes of later stores (:meth:`_merge`).

        The result is identical to ``n`` :meth:`emit` calls with the
        records' fields.
        """
        batches = self.pending.get(kern)
        if batches is None:
            batches = self.pending[kern] = kern.pending()
        notes = batches.add(len(self), node0, k, part, sid0, ma, lw, defn,
                            defa)
        self._take(node0, loop_id, n, batches.markers(k))
        for _row, producer, addr in notes:
            self.note_store(producer, addr)

    def _take(self, node0: int, loop_id: int, n: int,
              markers: range) -> None:
        """Take ``n`` rows of node ids ``node0 ..`` and one ``loop_id``,
        with loop-marker records at the row offsets ``markers``."""
        if n:
            row0 = self._sealed + len(self._sids)
            if node0 != self._next_node:
                self._cur_node0 = node0
                self._cur_row0 = row0
                self.runs.append((node0, row0))
            self._next_node = node0 + n
            if loop_id != self._last_loop:
                self.loop_breaks.append((row0, loop_id))
                self._last_loop = loop_id
            self.marker_rows.extend(range(row0 + markers.start,
                                          row0 + markers.stop, markers.step))
            self._sealed += n

    def _derive(self, derivations, lo: int, n: int, steps=_NO_STEPS,
                items=None) -> TraceColumns:
        """:func:`derive_rows`, under the ``trace.derive`` span when there
        are batches to derive; adds their uncaptured records and capture
        misses to the sink's."""
        if not derivations:
            return derive_rows(n, lo, (), None, steps)[0]
        tel = current_run().tel
        with tel.span("trace.derive"):
            cols, uncaptured, misses = derive_rows(
                n, lo, derivations, self._stores, steps, items)
        if tel.enabled:
            tel.count("trace.derive.groups", len(derivations))
        self.uncaptured += uncaptured
        self._misses += misses
        return cols

    def _merge(self) -> None:
        """Derive the pending batches and seal the emit buffer: the rows
        since the last merge become one chunk.

        A batch-internal store backpatch goes straight into
        :attr:`store_map`, over an entry that a store after the batch put
        there first: no store before the batch can name a producer in
        it, so the batch's own store is the first.
        """
        derivations = [b.derivation() for b in self.pending.values()]
        self.pending.clear()
        lo = self._merged
        n = len(self) - lo
        if not (n or derivations):
            return
        cols = self._derive(derivations, lo, n, (
            self._sids, self._ops, self._cnts, self._deps, self._addrs,
            self._mems))
        if n:
            self._chunks.append(cols)
        self._sealed = self._merged = lo + n
        self._sids.clear()
        self._ops.clear()
        self._cnts.clear()
        self._deps.clear()
        self._addrs.clear()
        self._mems.clear()

    def columns(self) -> TraceColumns:
        """Every row's columns, as numpy arrays: the one read path.

        Derives the pending batches, seals the emit buffer and
        concatenates the chunks into one, which replaces them, so a
        second call costs nothing.  Callers must not write into the
        arrays.
        """
        self._merge()
        if len(self._chunks) != 1:
            self._chunks = [concat_columns(self._chunks)]
        return self._chunks[0]

    def on_marker(self, kind: int, loop_id: int, instance: int) -> None:
        """Markers are recorded through :meth:`emit`; nothing extra."""

    def note_store(self, producer_node: int, addr: int) -> None:
        """Backpatch the producer's store address: one map write.

        Backpatches resolve within the current contiguous run (for a
        full recording that is the whole trace; for a window sink, the
        open span).  The first store wins.
        """
        row = producer_node - self._cur_node0 + self._cur_row0
        if row >= self._cur_row0 and row not in self._stores:
            self._stores[row] = addr

    # -- telemetry ---------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Summary counters for telemetry (O(#markers) once the pending
        batches are derived, which this does).

        ``rows`` counts every record of the window, captured or not (the
        rows a run capturing every instruction would hold), ``captured``
        the rows held.  The rest count what the held rows carry: marker
        records, marker-free segments (the spans of captured DDG nodes
        between markers), resolved store backpatches (stores of a
        captured producer), and contiguous recorded runs."""
        self._merge()
        n = len(self)
        segments = 0
        prev = 0
        for m in self.marker_rows:
            if m > prev:
                segments += 1
            prev = m + 1
        if prev < n:
            segments += 1
        return {
            "rows": n + self.uncaptured,
            "captured": n,
            "markers": len(self.marker_rows),
            "marker_segments": segments,
            "backpatches": len(self._stores),
            "runs": len(self.runs),
        }

    # -- fused DDG construction --------------------------------------------

    def to_ddg(self, cone_ops=None):
        """The CSR DDG over these columns: every non-marker row is a node,
        and each row's recorded producers that are nodes of these columns
        become its sorted, unique predecessors.

        The row→node map, the dependence remap, the node-column gathers
        and the sparse-column scatter run as vectorized array passes over
        :meth:`columns`.

        With ``cone_ops`` (a set of candidate opcodes) the result is the
        window's candidate cone (:class:`CandidateCone`): only the nodes
        whose static instruction is reachable from a candidate's, in
        execution order, and only the edges out of them.  The cone is cut
        right after the dependence sort, before any per-node list is
        built.  ``window_nodes`` of the result counts every node of the
        window, captured or not; ``window_edges`` counts the edges among
        the captured rows.
        """
        from repro.ddg.graph import DDG

        cols = self.columns()
        n_rows = len(cols.sids)
        is_node = np.ones(n_rows, dtype=bool)
        if self.marker_rows:
            is_node[self.marker_rows] = False
        node_rows = np.flatnonzero(is_node)
        n = len(node_rows)
        # row -> DDG node index (-1 for markers), with one trailing -1
        # slot so the full-trace remap can resolve the interpreter's
        # "no producer" dep sentinel (-1) by plain negative indexing.
        di = np.full(n_rows + 1, -1, dtype=np.int64)
        di[node_rows] = np.arange(n, dtype=np.int64)
        rows, preds = self._remap_deps(cols, di, n, n_rows)
        window_nodes, window_edges = n, len(preds)

        if cone_ops is not None:
            node_sids = cols.sids[node_rows]
            cone = CandidateCone(cone_ops)
            cone.add(node_sids, cols.opcodes[node_rows], node_sids[preds],
                     cols.sids[rows])
            cone.finish(node_sids)
            node_rows, rows, preds = cone.select(0, node_rows, rows, preds)
            n = len(node_rows)
            di.fill(-1)
            di[node_rows] = np.arange(n, dtype=np.int64)

        # Markers carry no sparse fields; rows of nodes outside the cone
        # map to -1 and are skipped.
        out_addrs, out_mem = scatter_sparse(di, n, cols)
        store = self._stores
        out_store = np.zeros(n, dtype=np.int64)
        scatter_ints(out_store, di, np.fromiter(store, np.int64, len(store)),
                     np.fromiter(store.values(), np.int64, len(store)))
        indices_arr, offsets_arr = csr_arrays(rows, preds, node_rows,
                                              n_rows)
        # Execution order is topological order, so every edge the remap
        # emits satisfies p < n and the DDG constructor can skip
        # structural validation.
        return DDG(
            cols.sids[node_rows].tolist(),
            cols.opcodes[node_rows].tolist(),
            addrs=out_addrs,
            store_addrs=out_store.tolist(),
            mem_addrs=out_mem.tolist(),
            pred_indices=indices_arr,
            pred_offsets=offsets_arr,
            validate=False,
            window_nodes=window_nodes + self.uncaptured,
            window_edges=window_edges,
        )

    def _remap_deps(self, cols, di, n, n_rows):
        """Map every dep to its DDG node (or -1) through the runs and the
        row→node map ``di``, then :func:`unique_deps`.  Returns the
        ``(rows, preds)`` edge columns."""
        df = cols.dep_flat
        runs = self.runs
        if len(runs) <= 1:
            node0 = runs[0][0] if runs else 0
            if node0:
                idx = df - node0
                idx = np.where((idx >= 0) & (idx < n_rows), idx, n_rows)
            else:
                # Full recording: node id == row; the -1 dep sentinel
                # wraps to the trailing -1 slot of di.
                idx = df
            mapped = di[idx]
        else:
            rn = np.asarray([r[0] for r in runs], dtype=np.int64)
            rr = np.asarray([r[1] for r in runs], dtype=np.int64)
            rend = np.empty_like(rr)
            rend[:-1] = rr[1:]
            rend[-1] = n_rows
            j = np.searchsorted(rn, df, side="right") - 1
            jc = np.maximum(j, 0)
            rows = df - rn[jc] + rr[jc]
            mapped = di[np.where((j >= 0) & (rows < rend[jc]), rows, n_rows)]
        return unique_deps(mapped, cols.dep_counts, n_rows, n)

    # -- record view -------------------------------------------------------

    @property
    def records(self) -> List[DynInstr]:
        """Lazy ``DynInstr`` materialization of the columns (built once;
        rebuilt if more records arrived since)."""
        recs = self._records
        if recs is not None and len(recs) == len(self):
            return recs
        cols = self.columns()
        recs = []
        append = recs.append
        runs = self.runs
        breaks = self.loop_breaks
        dep_flat = cols.dep_flat.tolist()
        dep_counts = cols.dep_counts.tolist()
        addr_get = cols.addr_map().get
        mem_get = cols.mem_map().get
        store_get = self._stores.get
        n_runs = len(runs)
        n_breaks = len(breaks)
        ri = 0
        bi = 0
        node = 0
        loop_id = -1
        row = 0
        start = 0
        for sid, op in zip(cols.sids.tolist(), cols.opcodes.tolist()):
            if ri < n_runs and runs[ri][1] == row:
                node = runs[ri][0]
                ri += 1
            if bi < n_breaks and breaks[bi][0] == row:
                loop_id = breaks[bi][1]
                bi += 1
            nd = dep_counts[row]
            ds = tuple(dep_flat[start:start + nd]) if nd else ()
            start += nd
            append(DynInstr(node, sid, op, loop_id, ds,
                            addr_get(row, ()), mem_get(row, 0),
                            store_get(row, 0)))
            node += 1
            row += 1
        self._records = recs
        return recs


class ColumnarLoopSink(ColumnarSink):
    """Retains records only inside chosen instances of one loop — the
    paper's subtrace, "started upon loop entry and terminated upon loop
    exit" (§4.1).  ``instances=None`` keeps every instance; nested
    re-entry of the same loop id (through recursion) is handled with a
    depth counter.

    ``spans_recorded`` counts the window activations — the number of
    loop spans the columns contain — so the fused analysis path can
    validate instance selection without building spans from records.
    """

    __slots__ = ("loop_id", "instances", "spans_recorded", "_depth")

    def __init__(self, loop_id: int, instances: Optional[set] = None):
        super().__init__()
        self.loop_id = loop_id
        self.instances = instances
        self.active = False
        self.spans_recorded = 0
        self._depth = 0

    def _wanted(self, instance: int) -> bool:
        return self.instances is None or instance in self.instances

    def on_marker(self, kind: int, loop_id: int, instance: int) -> None:
        if loop_id != self.loop_id:
            return
        if kind == MARKER_ENTER:
            if self._depth == 0 and self._wanted(instance):
                self.active = True
                self.spans_recorded += 1
                # Each span opens a run, even when no captured record
                # ran since the last one ended.
                self._next_node = None
            self._depth += 1
        elif kind == MARKER_EXIT:
            self._depth -= 1
            if self._depth <= 0:
                self._depth = 0
                self.active = False


def pack_records(records: Sequence[DynInstr]) -> ColumnarSink:
    """Pack a record list into the columns of a :class:`ColumnarSink`,
    so that record traces take the same :meth:`ColumnarSink.to_ddg` as
    the interpreter's sinks.

    The DDG of the packed columns has one node per non-marker record and
    an edge from each of its deps that names an earlier non-marker
    record.  To keep
    the remap's invariants, markers are packed bare (no deps or
    addresses), deps that do not name an earlier node id are dropped, and
    store addresses are written to ``store_map`` as recorded.  Raises
    :class:`TraceError` when node ids do not strictly increase or a
    record's opcode is not an :class:`~repro.ir.instructions.Opcode`.
    """
    sink = ColumnarSink()
    emit = sink.emit
    store_map = sink.store_map
    first = prev = None
    for row, rec in enumerate(records):
        node = rec.node
        if prev is None:
            first = node
        elif node <= prev:
            raise TraceError(
                f"record {row}: node id {node} does not follow {prev}"
            )
        prev = node
        op = rec.opcode
        if op not in _OPCODES:
            raise TraceError(f"record {row}: unknown opcode {op!r}")
        op = int(op)
        if op >= MARKER_ENTER:
            emit(node, rec.sid, op, rec.loop_id)
            continue
        deps = tuple(d for d in rec.deps if first <= d < node)
        emit(node, rec.sid, op, rec.loop_id, deps, rec.addrs, rec.addr)
        if rec.store_addr:
            store_map[row] = rec.store_addr
    return sink


class ColumnarTrace(Trace):
    """A :class:`Trace` view over a columnar sink.

    ``records`` materializes lazily; span indexing, subtraces and
    serialization work unchanged through it.  :func:`~repro.ddg.build
    .build_ddg` recognizes the attached sink and remaps its columns
    directly instead of packing the records again.
    """

    def __init__(self, module, sink: ColumnarSink):
        self.module = module
        self.columnar_sink = sink
        self._spans = None

    def __len__(self) -> int:
        return len(self.columnar_sink)

    @property
    def records(self) -> List[DynInstr]:
        return self.columnar_sink.records
