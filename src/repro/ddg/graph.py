"""The dynamic data-dependence graph (DDG).

Nodes are dynamic instruction instances; edges are flow dependences (a
node consumes a value another node produced, through a virtual register or
a memory location).  Anti-, output-, and control-dependences are excluded,
exactly as in the paper (§3, "DDG Generation").

Nodes are stored in execution order, which is a topological order: an
instruction can only consume already-produced values, so every edge points
from a lower index to a higher index.  All analyses exploit this (the
paper's "topological sort traversal" is a single linear scan here).

Predecessor adjacency is stored in CSR form: one flat ``array``-typed
index vector plus an offsets vector, so the batched Algorithm 1 engine
walks a contiguous buffer instead of chasing per-node tuples.  The old
list-of-tuples view survives as the lazy :attr:`preds` property for
callers (and tests) that still want it.

The node columns are numpy arrays, and the operand addresses a
zero-padded matrix with a per-node arity, so the analyses that read them
(the sid index, the memory-flow edges, the §3.2/§3.3 stride scans) run
as array passes.  :attr:`addrs` is the lazy list-of-tuples view of the
operand addresses, for the per-node consumers.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError

#: array typecode for CSR vectors — signed 64-bit, large-trace safe.
_CSR_TYPECODE = "q"


def addr_columns(nodes, counts, flat, n: int):
    """The DDG's operand-address columns from CSR-shaped ones: row ``r``
    holds ``counts[r]`` addresses of ``flat`` and belongs to node
    ``nodes[r]``, or to none when that is -1.  Returns the ``(n,
    widest)`` int64 matrix, zero past each node's arity and as wide as
    the widest row, and the int8 arity of each node."""
    width = int(counts.max()) if len(counts) else 0
    cols = np.zeros((n, width), dtype=np.int64)
    arity = np.zeros(n, dtype=np.int8)
    if width:
        kept = nodes >= 0
        arity[nodes[kept]] = counts[kept]
        # Each flat address's node and its position in the node's tuple.
        flat_nodes = np.repeat(nodes, counts)
        starts = np.cumsum(counts, dtype=np.int64) - counts
        pos = np.arange(len(flat_nodes)) - np.repeat(starts, counts)
        kept = flat_nodes >= 0
        cols[flat_nodes[kept], pos[kept]] = flat[kept]
    return cols, arity


class DDG:
    """Compact arrays-of-columns dependence graph.

    Attributes
    ----------
    sids:      static instruction id per node (int64 array).
    opcodes:   opcode per node (int8 array).
    pred_indices: flat CSR vector of predecessor node indices.
    pred_offsets: CSR offsets; node ``i``'s predecessors are
               ``pred_indices[pred_offsets[i]:pred_offsets[i+1]]``.
    preds:     lazy list-of-tuples view of the CSR adjacency.
    addr_cols: operand source addresses, an ``(n, widest)`` int64 matrix,
               zero past each node's arity (only binary FP records carry
               any, two each).
    addr_counts: the arity of each node's operand-address tuple (int8).
    addrs:     lazy list-of-tuples view of the operand addresses.
    store_addrs: address the node's result was first stored to (0 if none).
    mem_addrs: accessed address for load/store nodes (0 otherwise).
    window_nodes, window_edges: size of the trace window's graph.
               ``window_nodes`` counts every node of the window, and
               ``window_edges`` the edges among the records the run
               captured: a run that records only a capture set
               (:func:`repro.analysis.candidates.capture_sids`) holds
               no row, and so no edge, for the other instructions.  A
               candidate cone (:class:`repro.trace.columnar
               .CandidateCone`) is cut from a larger window graph; a
               full graph of a run that captured everything has them
               equal to ``len(self)`` and :attr:`num_edges`.
    """

    def __init__(
        self,
        sids: Sequence[int],
        opcodes: Sequence[int],
        preds: Optional[Sequence[Tuple[int, ...]]] = None,
        addrs: Optional[Sequence[Tuple[int, ...]]] = None,
        store_addrs: Optional[Sequence[int]] = None,
        mem_addrs: Optional[Sequence[int]] = None,
        *,
        addr_cols=None,
        addr_counts=None,
        pred_indices: Optional[Sequence[int]] = None,
        pred_offsets: Optional[Sequence[int]] = None,
        validate: bool = True,
        window_nodes: Optional[int] = None,
        window_edges: Optional[int] = None,
    ):
        n = len(sids)
        if len(opcodes) != n:
            raise AnalysisError("DDG column lengths disagree")
        self.sids = np.asarray(sids, dtype=np.int64)
        self.opcodes = np.asarray(opcodes, dtype=np.int8)
        if pred_indices is not None or pred_offsets is not None:
            if preds is not None:
                raise AnalysisError(
                    "pass either preds or pred_indices/pred_offsets, not both"
                )
            if pred_indices is None or pred_offsets is None:
                raise AnalysisError(
                    "pred_indices and pred_offsets must be given together"
                )
            self.pred_indices = (
                pred_indices
                if isinstance(pred_indices, array)
                else array(_CSR_TYPECODE, pred_indices)
            )
            self.pred_offsets = (
                pred_offsets
                if isinstance(pred_offsets, array)
                else array(_CSR_TYPECODE, pred_offsets)
            )
        else:
            if preds is None or len(preds) != n:
                raise AnalysisError("DDG column lengths disagree")
            indices = array(_CSR_TYPECODE)
            offsets = array(_CSR_TYPECODE, [0])
            for ps in preds:
                indices.extend(ps)
                offsets.append(len(indices))
            self.pred_indices = indices
            self.pred_offsets = offsets
        if addrs is not None:
            if addr_cols is not None or addr_counts is not None:
                raise AnalysisError(
                    "pass either addrs or addr_cols/addr_counts, not both"
                )
            addr_cols, addr_counts = addr_columns(
                np.arange(n), np.fromiter(map(len, addrs), np.int64, n),
                np.fromiter((a for tup in addrs for a in tup), np.int64),
                n)
        elif addr_cols is None and addr_counts is None:
            addr_cols = np.zeros((n, 0), dtype=np.int64)
            addr_counts = np.zeros(n, dtype=np.int8)
        elif addr_cols is None or addr_counts is None:
            raise AnalysisError(
                "addr_cols and addr_counts must be given together"
            )
        if len(addr_cols) != n or len(addr_counts) != n:
            raise AnalysisError("DDG column lengths disagree")
        self.addr_cols = addr_cols
        self.addr_counts = addr_counts
        self.store_addrs = (np.zeros(n, dtype=np.int64) if store_addrs is None
                            else np.asarray(store_addrs, dtype=np.int64))
        self.mem_addrs = (np.zeros(n, dtype=np.int64) if mem_addrs is None
                          else np.asarray(mem_addrs, dtype=np.int64))
        self.window_nodes = n if window_nodes is None else window_nodes
        self.window_edges = (len(self.pred_indices) if window_edges is None
                             else window_edges)
        # ``validate=False`` is for constructors that guarantee a
        # well-formed topological CSR by construction (the trace remaps
        # of ColumnarSink.to_ddg and SegmentStore.to_ddg); every
        # other path keeps the O(N+E) structural check.
        if validate:
            self._validate_csr()
        self._preds_view: Optional[List[Tuple[int, ...]]] = None
        self._addrs_view: Optional[List[Tuple[int, ...]]] = None
        self._sid_nodes: Optional[Dict[int, List[int]]] = None
        self._sid_opcodes: Optional[Dict[int, int]] = None

    def _validate_csr(self) -> None:
        offsets = self.pred_offsets
        indices = self.pred_indices
        n = len(self.sids)
        if len(offsets) != n + 1 or offsets[0] != 0 or (
            offsets[n] != len(indices)
        ):
            raise AnalysisError("malformed CSR predecessor offsets")
        # Rows are tiny (a handful of preds), so this stays a plain loop
        # over pre-converted lists — builtin-call-per-row variants lose.
        idx = indices.tolist()
        lo = 0
        for i, hi in enumerate(offsets.tolist()[1:]):
            if hi < lo:
                raise AnalysisError("malformed CSR predecessor offsets")
            for p in idx[lo:hi]:
                if not 0 <= p < i:
                    raise AnalysisError(
                        f"edge {p} -> {i} violates topological node order"
                    )
            lo = hi

    def __len__(self) -> int:
        return len(self.sids)

    @property
    def preds(self) -> List[Tuple[int, ...]]:
        """List-of-tuples compatibility view of the CSR adjacency (lazy,
        built once)."""
        if self._preds_view is None:
            indices = self.pred_indices
            offsets = self.pred_offsets
            self._preds_view = [
                tuple(indices[offsets[i] : offsets[i + 1]])
                for i in range(len(self.sids))
            ]
        return self._preds_view

    @property
    def addrs(self) -> List[Tuple[int, ...]]:
        """List-of-tuples view of the operand addresses (lazy, built
        once): each node's row of :attr:`addr_cols`, cut to its arity."""
        if self._addrs_view is None:
            self._addrs_view = [
                tuple(row[:k]) for row, k in zip(self.addr_cols.tolist(),
                                                 self.addr_counts.tolist())
            ]
        return self._addrs_view

    def edge_arrays(self):
        """Every edge as int64 arrays ``(producers, consumers)``, in CSR
        order: by consumer, then in predecessor order."""
        offsets = np.frombuffer(self.pred_offsets, dtype=np.int64)
        return (np.frombuffer(self.pred_indices, dtype=np.int64),
                np.repeat(np.arange(len(self.sids)), np.diff(offsets)))

    def pred_row(self, i: int) -> array:
        """Predecessors of node ``i`` as a flat array slice."""
        return self.pred_indices[
            self.pred_offsets[i] : self.pred_offsets[i + 1]
        ]

    @property
    def num_edges(self) -> int:
        return len(self.pred_indices)

    def successors(self) -> List[List[int]]:
        """Adjacency in the forward direction (computed on demand)."""
        succs: List[List[int]] = [[] for _ in range(len(self.sids))]
        indices = self.pred_indices
        offsets = self.pred_offsets
        for i in range(len(self.sids)):
            for j in range(offsets[i], offsets[i + 1]):
                succs[indices[j]].append(i)
        return succs

    # -- static-instruction indexes ---------------------------------------

    @property
    def sid_nodes(self) -> Dict[int, List[int]]:
        """sid -> node indices of its instances, in execution order
        (lazy, built once; treat as read-only)."""
        if self._sid_nodes is None:
            sids, first, counts = np.unique(self.sids, return_index=True,
                                            return_counts=True)
            # Grouped by sid value, in execution order inside a group.
            members = np.argsort(self.sids, kind="stable").tolist()
            ends = np.cumsum(counts).tolist()
            starts = [0, *ends[:-1]]
            sids = sids.tolist()
            self._sid_nodes = {
                sids[j]: members[starts[j]:ends[j]]
                for j in np.argsort(first).tolist()
            }
        return self._sid_nodes

    @property
    def sid_opcodes(self) -> Dict[int, int]:
        """sid -> opcode of its first instance, in first-seen order
        (lazy, built once)."""
        if self._sid_opcodes is None:
            sids, first = np.unique(self.sids, return_index=True)
            order = np.argsort(first)
            self._sid_opcodes = dict(zip(sids[order].tolist(),
                                         self.opcodes[first[order]].tolist()))
        return self._sid_opcodes

    def instances_of(self, sid: int) -> List[int]:
        """Node indices of all dynamic instances of static instruction ``sid``."""
        return list(self.sid_nodes.get(sid, ()))

    def static_ids(self) -> List[int]:
        """Distinct static instruction ids present, in first-seen order."""
        return list(self.sid_opcodes)

    def memory_flow_edges(self) -> int:
        """The number of store→load flow edges: edges whose consumer is
        a load and whose producer is a store instruction.

        These are the dependences that flow *through memory* rather than
        through a virtual register — exactly the evidence needed to
        confront a compiler's may-alias refusal with the trace: zero
        such edges in a loop window means no cross-instance flow
        dependence materialized at run time.
        """
        from repro.ir.instructions import Opcode

        producers, consumers = self.edge_arrays()
        opcodes = self.opcodes
        return int(np.count_nonzero(
            (opcodes[consumers] == int(Opcode.LOAD))
            & (opcodes[producers] == int(Opcode.STORE))))

    def has_path(self, src: int, dst: int) -> bool:
        """Reachability test (used by tests to verify Property 3.1)."""
        if src >= dst:
            return False
        succs = self.successors()
        stack = [src]
        seen = set()
        while stack:
            i = stack.pop()
            if i == dst:
                return True
            for j in succs[i]:
                if j <= dst and j not in seen:
                    seen.add(j)
                    stack.append(j)
        return False

    def __repr__(self) -> str:
        return f"<DDG: {len(self)} nodes, {self.num_edges} edges>"
