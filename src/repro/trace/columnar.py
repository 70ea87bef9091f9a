"""Columnar streaming trace storage: the one trace→DDG path.

The sinks here pack each dynamic record straight into flat per-field
columns as the interpreter emits it — no per-record object — and
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

Two pieces of bookkeeping keep the columns as small as the data:

- **Runs.**  Node ids are global and monotonically increasing, and the
  interpreter only skips emitting while a window sink is inactive, so
  recorded node ids form contiguous runs.  Only each run's (first node,
  first row) pair is stored; every other node id is recovered by
  arithmetic.  This also makes the store-address backpatch an O(1)
  list write (``row = node - run_node0 + run_row0``) instead of a
  node→record dict.
- **Loop-id run-length encoding.**  The innermost active loop only
  changes at loop-marker records, so the per-record ``loop_id`` column
  is piecewise constant and stored as (row, loop_id) change points.

The ``DynInstr``/``Trace`` API survives as a lazy view:
:attr:`ColumnarSink.records` materializes the object list on demand and
:class:`ColumnarTrace` is a :class:`~repro.trace.trace.Trace` whose
``records`` delegate to it, so serialization, ``LoopSpan`` indexing and
``subtrace`` slicing keep working unchanged (mirroring the CSR/preds
tuple-view pattern of the batched Algorithm 1 engine).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TraceError
from repro.ir.instructions import Opcode
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


def scatter_ints(out, di, rows, vals):
    """Scatter int ``vals`` keyed by row into ``out`` through the
    row→node map ``di``; rows that map to no node (-1) are skipped."""
    p = di[rows]
    kept = p >= 0
    out[p[kept]] = np.asarray(vals, dtype=np.int64)[kept]


def _scatter_map(out, di, map_):
    """:func:`scatter_ints` from a row-keyed dict."""
    if map_:
        rows = np.fromiter(map_.keys(), np.int64, len(map_))
        vals = np.fromiter(map_.values(), np.int64, len(map_))
        scatter_ints(out, di, rows, vals)


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


def _row_index(keys):
    """Row keys of one deferred sparse run as an int64 index array."""
    if type(keys) is range:
        return np.arange(keys.start, keys.stop, keys.step, np.int64)
    return np.asarray(keys, dtype=np.int64)


class ColumnarSink:
    """Retains every dynamic record, packed into flat columns.

    The interpreter feeds it through :meth:`emit` (opcode as a plain
    int) and the compiled kernels through :meth:`bulk_append`;
    downstream code either consumes the columns directly (:meth:`to_ddg`)
    or the lazy :attr:`records` view.
    """

    __slots__ = (
        "sids", "opcodes", "dep_flat", "dep_counts",
        "addr_map", "mem_map", "store_map",
        "runs", "loop_breaks", "marker_rows", "active",
        "_addr_runs", "_mem_runs",
        "_next_node", "_cur_node0", "_cur_row0", "_last_loop", "_records",
        "_sid_append", "_op_append", "_cnt_append", "_dep_extend",
    )

    def __init__(self):
        self.sids: List[int] = []
        self.opcodes: List[int] = []
        #: CSR-style dependence column: ``dep_counts[r]`` producer node
        #: ids per row, concatenated in ``dep_flat``.  Flat ints instead
        #: of a tuple per row: the cyclic collector has nothing to
        #: track, which matters at millions of records.  ``dep_flat`` is
        #: a plain list (list append is ~4x faster per record than
        #: ``array('q')``; :meth:`to_ddg` converts once in bulk) and the
        #: counts live in an ``array('i')`` numpy can view zero-copy.
        #: (An earlier revision used a u8 ``bytearray`` here, which made
        #: any dynamic row with >255 predecessors raise mid-trace.)
        self.dep_flat: List[int] = []
        self.dep_counts = array("i")
        #: Sparse columns, keyed by row: most records carry no operand
        #: addresses, no memory address, and no store backpatch, so a
        #: map per populated row beats a dense per-record append.
        self.addr_map: Dict[int, Tuple[int, ...]] = {}
        self.mem_map: Dict[int, int] = {}
        self.store_map: Dict[int, int] = {}
        #: Sparse-column runs deferred by :meth:`bulk_append` when the
        #: batch lands with row == node: each entry is a ``(keys, vals)``
        #: column pair whose keys are already rows.  The vectorized DDG
        #: scatter consumes them natively (no dict hashing at all);
        #: every other reader drains them via :meth:`_flush_sparse`.
        self._addr_runs: List[tuple] = []
        self._mem_runs: List[tuple] = []
        #: (first node id, first row) of each contiguous recorded run.
        self.runs: List[Tuple[int, int]] = []
        #: (row, loop_id) change points of the RLE'd loop-id column.
        self.loop_breaks: List[Tuple[int, int]] = []
        #: rows holding loop-marker records (sparse; lets :meth:`to_ddg`
        #: bulk-copy the marker-free row segments between them).
        self.marker_rows: List[int] = []
        self.active = True
        #: Node id that continues the open run; ``None`` until the first
        #: record, so that record opens a run whatever its id.
        self._next_node: Optional[int] = None
        self._cur_node0 = 0
        self._cur_row0 = 0
        self._last_loop: Optional[int] = None
        self._records: Optional[List[DynInstr]] = None
        # The columns are append-only and never rebound, so the bound
        # methods can be cached once — each saves an attribute chain per
        # record in emit().
        self._sid_append = self.sids.append
        self._op_append = self.opcodes.append
        self._cnt_append = self.dep_counts.append
        self._dep_extend = self.dep_flat.extend

    def __len__(self) -> int:
        return len(self.sids)

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
        row = len(self.sids)
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
            self.addr_map[row] = addrs
        if addr:
            self.mem_map[row] = addr

    def bulk_append(
        self,
        node0: int,
        loop_id: int,
        n: int,
        sids,
        opcodes,
        dep_counts,
        dep_flat,
        marker_offsets=(),
        addr_runs=(),
        mem_runs=(),
        store_items=(),
    ) -> None:
        """Append ``n`` contiguous records wholesale — the batch-kernel
        write path (:mod:`repro.interp.compile`).

        The records carry node ids ``node0 .. node0+n-1`` and a single
        ``loop_id`` (a compiled region never crosses a loop-enter/exit
        marker, so the innermost loop is constant).  ``sids``/``opcodes``
        are length-``n`` columns; ``dep_counts`` and ``dep_flat`` are the
        CSR dependence slab.  ``marker_offsets`` lists the loop-marker
        records by *absolute node id*.  The sparse columns arrive as
        *column runs*: ``addr_runs`` and ``mem_runs`` are sequences of
        ``(keys, vals)`` pairs where ``keys`` is a range (or ascending
        list) of absolute node ids and ``vals`` a same-length sequence —
        operand-address tuples and memory addresses respectively.
        ``store_items`` stays an item triple iterable ``(store_node,
        producer_node, addr)`` in chronological order (store nodes
        ascending) so the first-store-wins rule of :meth:`note_store`
        resolves exactly as per-record emission would.  Absolute keys
        make the common case — a full recording, where row == node —
        zero-cost: the runs are parked as-is and either scattered
        vectorized by the DDG build or drained once by
        :meth:`_flush_sparse`.  Any row/node skew (window sinks, spilled
        chunks) falls back to a per-item adjustment.

        The result is byte-identical to ``n`` :meth:`emit` calls with
        the same per-record fields.
        """
        if n <= 0:
            return
        row0 = len(self.sids)
        if node0 != self._next_node:
            self._cur_node0 = node0
            self._cur_row0 = row0
            self.runs.append((node0, row0))
        self._next_node = node0 + n
        if loop_id != self._last_loop:
            self.loop_breaks.append((row0, loop_id))
            self._last_loop = loop_id
        shift = row0 - node0
        if marker_offsets:
            if shift == 0:
                self.marker_rows += marker_offsets
            else:
                mr_append = self.marker_rows.append
                for m in marker_offsets:
                    mr_append(m + shift)
        self.sids += sids
        self.opcodes += opcodes
        self.dep_counts.extend(dep_counts)
        if dep_flat:
            self.dep_flat += dep_flat
        if addr_runs:
            if shift == 0:
                self._addr_runs += addr_runs
            else:
                addr_map = self.addr_map
                for keys, vals in addr_runs:
                    for node, addrs in zip(keys, vals):
                        addr_map[node + shift] = addrs
        if mem_runs:
            if shift == 0:
                self._mem_runs += mem_runs
            else:
                mem_map = self.mem_map
                for keys, vals in mem_runs:
                    for node, addr in zip(keys, vals):
                        mem_map[node + shift] = addr
        if store_items:
            note = self.note_store
            for _node, producer_node, addr in store_items:
                note(producer_node, addr)

    def _flush_sparse(self) -> None:
        """Drain deferred sparse-column runs into the row-keyed maps.

        Runs are deferred only when their batch landed with row == node,
        so the keys already are rows.  Idempotent; readers that touch
        ``addr_map``/``mem_map`` directly call this first, while the
        vectorized DDG scatter consumes the runs without a dict pass.
        """
        if self._addr_runs:
            am = self.addr_map
            for keys, vals in self._addr_runs:
                am.update(zip(keys, vals))
            self._addr_runs.clear()
        if self._mem_runs:
            mm = self.mem_map
            for keys, vals in self._mem_runs:
                mm.update(zip(keys, vals))
            self._mem_runs.clear()

    def on_marker(self, kind: int, loop_id: int, instance: int) -> None:
        """Markers are recorded through :meth:`emit`; nothing extra."""

    def note_store(self, producer_node: int, addr: int) -> None:
        """Backpatch the producer's store address: one map write.

        Backpatches resolve within the current contiguous run (for a
        full recording that is the whole trace; for a window sink, the
        open span).  The first store wins.
        """
        row = producer_node - self._cur_node0 + self._cur_row0
        if row >= self._cur_row0 and row not in self.store_map:
            self.store_map[row] = addr

    # -- telemetry ---------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Cheap summary counters for telemetry (O(#markers), no column
        walk): recorded rows, marker records, marker-free segments (the
        DDG-node-producing spans :meth:`to_ddg` bulk-copies), resolved
        store backpatches, and contiguous recorded runs."""
        n = len(self.sids)
        segments = 0
        prev = 0
        for m in self.marker_rows:
            if m > prev:
                segments += 1
            prev = m + 1
        if prev < n:
            segments += 1
        return {
            "rows": n,
            "markers": len(self.marker_rows),
            "marker_segments": segments,
            "backpatches": len(self.store_map),
            "runs": len(self.runs),
        }

    # -- fused DDG construction --------------------------------------------

    def to_ddg(self, cone_ops=None):
        """The CSR DDG over these columns: every non-marker row is a node,
        and each row's recorded producers that are nodes of these columns
        become its sorted, unique predecessors.

        The row→node map, the sparse-column scatter and the dependence
        remap run as vectorized array passes.

        With ``cone_ops`` (a set of candidate opcodes) the result is the
        window's candidate cone (:class:`CandidateCone`): only the nodes
        whose static instruction is reachable from a candidate's, in
        execution order, and only the edges out of them.  The cone is cut
        right after the dependence sort, before any per-node list is
        built.  ``window_nodes``/``window_edges`` of the result always
        count the whole window's graph.
        """
        from repro.ddg.graph import DDG

        n_rows = len(self.sids)
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
        rows, preds = self._remap_deps(di, n, n_rows)
        window_nodes, window_edges = n, len(preds)

        if cone_ops is None:
            # The marker-free row spans slice-copy out of the columns
            # wholesale (C-level copies, cheaper than a gather).
            out_sids: List[int] = []
            out_ops: List[int] = []
            prev = 0
            for m in self.marker_rows + [n_rows]:
                out_sids += self.sids[prev:m]
                out_ops += self.opcodes[prev:m]
                prev = m + 1
        else:
            sid_rows = np.fromiter(self.sids, np.int64, n_rows)
            # Opcodes fit a byte (segment files store them as one), and
            # bytearray converts a list of small ints ~8x faster than
            # numpy does.
            op_rows = np.frombuffer(bytearray(self.opcodes), dtype=np.uint8)
            node_sids = sid_rows[node_rows]
            cone = CandidateCone(cone_ops)
            cone.add(node_sids, op_rows[node_rows], node_sids[preds],
                     sid_rows[rows])
            cone.finish(node_sids)
            node_rows, rows, preds = cone.select(0, node_rows, rows, preds)
            n = len(node_rows)
            di.fill(-1)
            di[node_rows] = np.arange(n, dtype=np.int64)
            out_sids = sid_rows[node_rows].tolist()
            out_ops = op_rows[node_rows].tolist()

        # Scatter the sparse columns into dense per-node vectors
        # (markers carry none of these; rows of nodes outside the cone
        # map to -1 and are skipped).  The int-valued columns scatter
        # wholesale; operand-address tuples stay a Python loop over the
        # few keyed rows.
        out_addrs: List[tuple] = [()] * n
        addr_map = self.addr_map
        if addr_map:
            keyed = np.fromiter(addr_map.keys(), np.int64, len(addr_map))
            for p, val in zip(di[keyed].tolist(), addr_map.values()):
                if p >= 0:
                    out_addrs[p] = val
        for keys, vals in self._addr_runs:
            for p, val in zip(di[_row_index(keys)].tolist(), vals):
                if p >= 0:
                    out_addrs[p] = val
        out_store = np.zeros(n, dtype=np.int64)
        _scatter_map(out_store, di, self.store_map)
        out_mem = np.zeros(n, dtype=np.int64)
        _scatter_map(out_mem, di, self.mem_map)
        for keys, vals in self._mem_runs:
            scatter_ints(out_mem, di, _row_index(keys), vals)

        indices_arr, offsets_arr = csr_arrays(rows, preds, node_rows,
                                              n_rows)
        # Execution order is topological order, so every edge the remap
        # emits satisfies p < n and the DDG constructor can skip
        # structural validation.
        return DDG(
            out_sids,
            out_ops,
            addrs=out_addrs,
            store_addrs=out_store.tolist(),
            mem_addrs=out_mem.tolist(),
            pred_indices=indices_arr,
            pred_offsets=offsets_arr,
            validate=False,
            window_nodes=window_nodes,
            window_edges=window_edges,
        )

    def _remap_deps(self, di, n, n_rows):
        """Map every dep to its DDG node (or -1) through the runs and the
        row→node map ``di``, then :func:`unique_deps`.  Returns the
        ``(rows, preds)`` edge columns."""
        df = np.fromiter(self.dep_flat, np.int64, len(self.dep_flat))
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
        counts = np.frombuffer(self.dep_counts, dtype=np.intc)
        return unique_deps(mapped, counts, n_rows, n)

    # -- record view -------------------------------------------------------

    @property
    def records(self) -> List[DynInstr]:
        """Lazy ``DynInstr`` materialization of the columns (built once;
        rebuilt if more records arrived since)."""
        recs = self._records
        if recs is not None and len(recs) == len(self.sids):
            return recs
        self._flush_sparse()
        recs = []
        append = recs.append
        runs = self.runs
        breaks = self.loop_breaks
        dep_flat = self.dep_flat
        dep_counts = self.dep_counts
        addr_get = self.addr_map.get
        mem_get = self.mem_map.get
        store_get = self.store_map.get
        n_runs = len(runs)
        n_breaks = len(breaks)
        ri = 0
        bi = 0
        node = 0
        loop_id = -1
        row = 0
        start = 0
        for sid, op in zip(self.sids, self.opcodes):
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
