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
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError

#: array typecode for CSR vectors — signed 64-bit, large-trace safe.
_CSR_TYPECODE = "q"


class DDG:
    """Compact arrays-of-columns dependence graph.

    Attributes
    ----------
    sids:      static instruction id per node.
    opcodes:   opcode int per node.
    pred_indices: flat CSR vector of predecessor node indices.
    pred_offsets: CSR offsets; node ``i``'s predecessors are
               ``pred_indices[pred_offsets[i]:pred_offsets[i+1]]``.
    preds:     lazy list-of-tuples view of the CSR adjacency.
    addrs:     operand source-address tuple per node (candidates only).
    store_addrs: address the node's result was first stored to (0 if none).
    mem_addrs: accessed address for load/store nodes (0 otherwise).
    window_nodes, window_edges: size of the whole trace window's graph.
               A candidate cone (:class:`repro.trace.columnar
               .CandidateCone`) is cut from a larger window graph;
               otherwise they equal ``len(self)`` and :attr:`num_edges`.
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
        pred_indices: Optional[Sequence[int]] = None,
        pred_offsets: Optional[Sequence[int]] = None,
        validate: bool = True,
        window_nodes: Optional[int] = None,
        window_edges: Optional[int] = None,
    ):
        n = len(sids)
        if len(opcodes) != n:
            raise AnalysisError("DDG column lengths disagree")
        self.sids = list(sids)
        self.opcodes = list(opcodes)
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
        self.addrs = list(addrs) if addrs is not None else [()] * n
        self.store_addrs = (
            list(store_addrs) if store_addrs is not None else [0] * n
        )
        self.mem_addrs = list(mem_addrs) if mem_addrs is not None else [0] * n
        self.window_nodes = n if window_nodes is None else window_nodes
        self.window_edges = (len(self.pred_indices) if window_edges is None
                             else window_edges)
        # ``validate=False`` is for constructors that guarantee a
        # well-formed topological CSR by construction (build_ddg); every
        # other path keeps the O(N+E) structural check.
        if validate:
            self._validate_csr()
        self._preds_view: Optional[List[Tuple[int, ...]]] = None
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

    def _build_sid_index(self) -> None:
        nodes: Dict[int, List[int]] = {}
        opcode_of: Dict[int, int] = {}
        for i, (sid, opcode) in enumerate(zip(self.sids, self.opcodes)):
            members = nodes.get(sid)
            if members is None:
                nodes[sid] = [i]
                opcode_of[sid] = opcode
            else:
                members.append(i)
        self._sid_nodes = nodes
        self._sid_opcodes = opcode_of

    @property
    def sid_nodes(self) -> Dict[int, List[int]]:
        """sid -> node indices of its instances, in execution order
        (lazy, built once; treat as read-only)."""
        if self._sid_nodes is None:
            self._build_sid_index()
        return self._sid_nodes

    @property
    def sid_opcodes(self) -> Dict[int, int]:
        """sid -> opcode of its first instance (lazy, built once)."""
        if self._sid_opcodes is None:
            self._build_sid_index()
        return self._sid_opcodes

    def instances_of(self, sid: int) -> List[int]:
        """Node indices of all dynamic instances of static instruction ``sid``."""
        return list(self.sid_nodes.get(sid, ()))

    def static_ids(self) -> List[int]:
        """Distinct static instruction ids present, in first-seen order."""
        return list(self.sid_nodes)

    def memory_flow_edges(self) -> List[Tuple[int, int]]:
        """All store→load flow edges: ``(store_node, load_node)`` pairs
        where a load's recorded producer is a store instruction.

        These are the dependences that flow *through memory* rather than
        through a virtual register — exactly the evidence needed to
        confront a compiler's may-alias refusal with the trace: zero
        such edges in a loop window means no cross-instance flow
        dependence materialized at run time.
        """
        from repro.ir.instructions import Opcode

        load = int(Opcode.LOAD)
        store = int(Opcode.STORE)
        opcodes = self.opcodes
        indices = self.pred_indices
        offsets = self.pred_offsets
        edges: List[Tuple[int, int]] = []
        for i, opcode in enumerate(opcodes):
            if opcode != load:
                continue
            for j in range(offsets[i], offsets[i + 1]):
                p = indices[j]
                if opcodes[p] == store:
                    edges.append((p, i))
        return edges

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
