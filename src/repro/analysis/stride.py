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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import itemgetter, sub
from typing import List, Optional, Sequence, Tuple


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
    return [ddg.addrs[i] + (ddg.store_addrs[i],) for i in nodes]


_access_tuple = itemgetter(0)


def unit_stride_subpartitions(
    ddg,
    partition: Sequence[int],
    elem_size: int,
    breaks: Optional[List[StrideBreak]] = None,
) -> List[List[int]]:
    """Split one parallel partition into unit/zero-stride subpartitions.

    Returns lists of node indices; every member of the input appears in
    exactly one subpartition.  Singleton outputs are the instances that
    found no contiguous neighbors — §3.3 reconsiders them.

    ``breaks``, when given, collects one :class:`StrideBreak` per split
    point (the concrete instance pair whose stride closed a run) — the
    metrics are unchanged; only provenance is recorded.

    The members of one partition are instances of one static
    instruction, so their access tuples share one arity; the acceptable
    strides, ``{0, elem_size}`` per component, are built once for it.
    """
    if not partition:
        return []
    addrs = ddg.addrs
    store_addrs = ddg.store_addrs
    keyed = sorted([(addrs[i] + (store_addrs[i],), i) for i in partition],
                   key=_access_tuple)
    current_tuple, prev_node = keyed[0]
    # Every stride component either repeats the same address (splat /
    # constant operand) or advances by exactly one element.
    acceptable = set(product((0, elem_size), repeat=len(current_tuple)))
    subpartitions: List[List[int]] = []
    current = [prev_node]
    current_stride = None
    for tup, node in keyed[1:]:
        stride = tuple(map(sub, tup, current_tuple))
        if stride == current_stride or (
            current_stride is None and stride in acceptable
        ):
            current.append(node)
        else:
            subpartitions.append(current)
            if breaks is not None:
                breaks.append(StrideBreak(prev_node, node, current_tuple,
                                          tup, stride))
            current = [node]
            stride = None
        current_tuple = tup
        current_stride = stride
        prev_node = node
    subpartitions.append(current)
    return subpartitions


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
