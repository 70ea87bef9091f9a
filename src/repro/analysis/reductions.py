"""Reduction-chain detection and dependence relaxation.

The paper treats reduction updates (``s += a[i]``) as dependence chains —
correctly non-vectorizable under its model — but notes that icc *does*
vectorize reductions, and proposes as future work "to identify and remove
dependence edges that are due to updates of reduction variables" (§3,
§4.1).  This module implements that extension:

- :func:`detect_reduction_chains` finds candidate instructions whose
  instances accumulate into a fixed memory location (store target equals
  one of the operand source addresses);
- :func:`reduction_relaxed_partitions` re-runs Algorithm 1 with the
  store->load dependence edges of those accumulator locations removed,
  exposing the additional parallelism a reduction-aware vectorizer gets.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.analysis.timestamps import batched_parallel_partitions
from repro.ddg.graph import DDG
from repro.ir.instructions import Opcode

_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)

#: Only associative accumulations qualify (fadd/fsub chains; a product
#: reduction via fmul also qualifies mathematically and is included).
_REDUCIBLE = frozenset({int(Opcode.FADD), int(Opcode.FSUB), int(Opcode.FMUL)})


def cached_reduction_chains(ddg: DDG) -> Dict[int, Set[int]]:
    """:func:`detect_reduction_chains`, computed once per DDG.

    The detection scan is a whole-graph pass; per-candidate-sid callers
    (``loop_metrics`` analyzes every candidate of a loop) share one result
    cached on the graph object itself.
    """
    chains = ddg.__dict__.get("_reduction_chains")
    if chains is None:
        chains = detect_reduction_chains(ddg)
        ddg.__dict__["_reduction_chains"] = chains
    return chains


def removed_edges_by_sid(
    ddg: DDG, sids: Sequence[int]
) -> Dict[int, Set[Tuple[int, int]]]:
    """Reduction edges to ignore, keyed by sid — the batched engine's
    ``removed_edges_by_sid`` input.  Sids without a detected reduction
    chain are simply absent (their lane keeps every edge)."""
    chains = cached_reduction_chains(ddg)
    return {
        sid: reduction_edges(ddg, chains[sid])
        for sid in sids
        if sid in chains
    }


def detect_reduction_chains(ddg: DDG) -> Dict[int, Set[int]]:
    """Find accumulator locations per candidate static instruction.

    Returns ``{sid: {accumulator addresses}}`` for instructions where at
    least two instances both read and write the same address (the
    ``s += expr`` pattern: operand source address == store target)."""
    store = ddg.store_addrs
    # A padded operand-address entry is 0 and a store target here is
    # not, so the match stays inside each node's own tuple.
    updates = (np.isin(ddg.opcodes, list(_REDUCIBLE)) & (store != 0)
               & (ddg.addr_cols == store[:, None]).any(axis=1))
    pairs, counts = np.unique(
        np.column_stack((ddg.sids[updates], store[updates])), axis=0,
        return_counts=True)
    chains: Dict[int, Set[int]] = {}
    for sid, addr in pairs[counts >= 2].tolist():
        chains.setdefault(sid, set()).add(addr)
    return chains


def reduction_edges(ddg: DDG, accumulators: Set[int]) -> Set[Tuple[int, int]]:
    """DDG edges carrying the reduction chain: store->load edges through
    an accumulator address.  Cached per (DDG, accumulator set)."""
    cache = ddg.__dict__.setdefault("_reduction_edge_cache", {})
    key = frozenset(accumulators)
    cached = cache.get(key)
    if cached is not None:
        return cached
    opcodes = ddg.opcodes
    at_accumulator = np.isin(ddg.mem_addrs, list(accumulators))
    stores, loads = ddg.edge_arrays()
    through = ((opcodes[loads] == _LOAD) & at_accumulator[loads]
               & (opcodes[stores] == _STORE) & at_accumulator[stores])
    removed = set(zip(stores[through].tolist(), loads[through].tolist()))
    cache[key] = removed
    return removed


def reduction_relaxed_partitions(
    ddg: DDG, sid: int
) -> Dict[int, List[int]]:
    """Algorithm 1 partitions for ``sid`` with its reduction dependences
    ignored: one lane of the batched engine.  If ``sid`` has no detected
    reduction chain, the result equals the unrelaxed partitioning."""
    removed = removed_edges_by_sid(ddg, [sid])
    return batched_parallel_partitions(ddg, [sid], removed)[sid]
