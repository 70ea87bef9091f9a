"""§3.2 — subdividing parallel partitions by contiguous memory access.

Members of a parallel partition are independent, but efficient SIMD
execution also needs contiguous (unit-stride) or splat (zero-stride)
operands.  Following the paper: sort the partition's instances by the
memory addresses of their operands (the *access tuple*: per-operand source
address plus the address the result was stored to, with artificial address
0 for values not obtained from memory), then scan, closing the current
subpartition whenever the observed stride is (1) non-zero and non-unit, or
(2) different from the previously observed stride.

"Unit" means one element: the distance equals the data-type size.

:func:`unit_stride_subpartitions` runs the sort and the scan for every
partition of a loop window at once, as array passes (DESIGN.md §19).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class StrideBreak:
    """One §3.2 split point: the pair of dynamic instances whose observed
    stride closed a unit-stride subpartition.

    ``prev_node``/``node`` are DDG node indices in sorted-access order;
    the tuples are their full access tuples (operand source addresses +
    store target), ``stride`` their componentwise difference.  The
    explain layer turns these into stride-break provenance witnesses."""

    prev_node: int
    node: int
    prev_tuple: Tuple[int, ...]
    tuple: Tuple[int, ...]
    stride: Tuple[int, ...]


def access_tuples(ddg, nodes: Sequence[int]) -> List[Tuple[int, ...]]:
    """The access tuple of each node: operand source addresses + store
    target (0-padded entries mean "not from memory")."""
    idx = np.asarray(nodes, dtype=np.int64)
    return [(*row[:k], store) for row, k, store in zip(
        ddg.addr_cols[idx].tolist(), ddg.addr_counts[idx].tolist(),
        ddg.store_addrs[idx].tolist())]


def _joins(acceptable, repeats):
    """Which pairs of the sorted scan join the current subpartition.

    The scan's rule, pair by pair: pair ``q`` joins iff ``acceptable[q]``
    and (``repeats[q]`` or pair ``q - 1`` did not join), where
    ``repeats[q]`` means its stride equals pair ``q - 1``'s.  A pair that
    is not acceptable is a *reset* (it does not join) and an acceptable
    repeat a *set* (it joins, whatever came before); every other pair
    *toggles*.  So each pair's verdict is the last reset's or set's,
    flipped once per toggle since: that anchor's value XOR the parity of
    the distance to it.  Before the first anchor stands a virtual reset
    at pair -1.
    """
    q = np.arange(len(acceptable))
    sets = acceptable & repeats
    anchor = np.maximum.accumulate(np.where(~acceptable | sets, q, -1))
    return (sets[anchor] & (anchor >= 0)) ^ ((q - anchor) & 1).astype(bool)


def unit_stride_subpartitions(
    ddg,
    partitions_by_sid: Dict[int, Dict[int, List[int]]],
    elem_sizes: Dict[int, int],
    breaks: Optional[Dict[int, List[StrideBreak]]] = None,
) -> Dict[int, Dict[int, List[List[int]]]]:
    """Split every non-singleton parallel partition of a loop window into
    unit/zero-stride subpartitions, in one pass.

    ``partitions_by_sid`` is Algorithm 1's ``{sid: {timestamp: [node,
    ...]}}``, ``elem_sizes`` the element size of each sid.  Returns
    ``{sid: {timestamp: subpartitions}}`` for the partitions of two or
    more members, in the input's order; each subpartition is a list of
    node indices in sorted-access order, and every member of a partition
    appears in exactly one of its subpartitions.  Singleton outputs are
    the instances that found no contiguous neighbors — §3.3 reconsiders
    them.  A singleton partition is not subdivided.

    ``breaks``, when given, collects per sid one :class:`StrideBreak`
    per split point (the concrete instance pair whose stride closed a
    run), in partition order and then in sorted order — the metrics are
    unchanged; only provenance is recorded.

    One stable sort by (partition, access tuple) lines up the members of
    every partition, and the scan runs over the sorted pairs as array
    passes (:func:`_joins`).  The access tuples are rows of the DDG's
    zero-padded operand-address matrix plus the store target: the
    members of one partition are instances of one static instruction,
    so they share one arity, and a padded component is 0 in all of
    them, so it sorts no member apart and its stride is always 0.
    """
    keys: List[Tuple[int, int]] = []
    sizes: List[int] = []
    members: List[int] = []
    for sid, parts in partitions_by_sid.items():
        for t, nodes in parts.items():
            if len(nodes) >= 2:
                keys.append((sid, t))
                sizes.append(len(nodes))
                members += nodes
    if not keys:
        return {}
    part = np.repeat(np.arange(len(keys)), sizes)
    elem = np.repeat([elem_sizes[sid] for sid, _ in keys], sizes)
    nodes = np.array(members, dtype=np.int64)
    tuples = np.column_stack((ddg.addr_cols[nodes], ddg.store_addrs[nodes]))
    # np.lexsort sorts by its last key first.
    order = np.lexsort((*tuples.T[::-1], part))
    nodes, part, elem, tuples = (nodes[order], part[order], elem[order],
                                 tuples[order])
    # Pair q is sorted members q and q + 1.
    stride = tuples[1:] - tuples[:-1]
    inside = part[1:] == part[:-1]
    acceptable = inside & ((stride == 0)
                           | (stride == elem[1:, None])).all(axis=1)
    repeats = np.zeros(len(stride), dtype=bool)
    repeats[1:] = (stride[1:] == stride[:-1]).all(axis=1)
    split = ~_joins(acceptable, repeats)

    bounds = [0, *(np.flatnonzero(split) + 1).tolist(), len(nodes)]
    ordered = nodes.tolist()
    subs = [ordered[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    out: Dict[int, Dict[int, List[List[int]]]] = {}
    lo = 0
    for (sid, t), k in zip(keys, np.bincount(
            part[bounds[:-1]], minlength=len(keys)).tolist()):
        out.setdefault(sid, {})[t] = subs[lo:lo + k]
        lo += k

    if breaks is not None:
        at = np.flatnonzero(inside & split)
        for p, k, a, b, prev, cur, step in zip(
                part[at].tolist(), ddg.addr_counts[nodes[at]].tolist(),
                nodes[at].tolist(), nodes[at + 1].tolist(),
                tuples[at].tolist(), tuples[at + 1].tolist(),
                stride[at].tolist()):
            breaks.setdefault(keys[p][0], []).append(StrideBreak(
                a, b, (*prev[:k], prev[-1]), (*cur[:k], cur[-1]),
                (*step[:k], step[-1])))
    return out


def vectorizable_ops(subpartitions: Sequence[Sequence[int]]) -> int:
    """Operations inside non-singleton subpartitions (potentially packed)."""
    return sum(len(s) for s in subpartitions if len(s) >= 2)


def average_subpartition_size(
    subpartitions: Sequence[Sequence[int]],
) -> float:
    """Mean size of non-singleton subpartitions (the paper's Average
    Vec. Size)."""
    sizes = [len(s) for s in subpartitions if len(s) >= 2]
    if not sizes:
        return 0.0
    return sum(sizes) / len(sizes)
