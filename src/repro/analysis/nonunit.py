"""§3.3 — fixed non-unit constant-stride analysis.

Instances left in singleton subpartitions by the unit-stride scan may
still be combinable at some fixed non-unit stride — evidence that a data
layout transformation (array transposition, AoS -> SoA) would unlock
vectorization.  The paper's waitlist scan: sort the instances, walk the
list accepting any instance whose stride from the previously accepted one
matches the subpartition's current stride (established by its first pair);
mismatching instances go to a waitlist that is rescanned, in order, to
form the next subpartition — until no instances remain.

Rescanning the waitlist costs O(n x subpartitions).  This module runs
the same scan as a hash-chained walk instead (see
:func:`nonunit_stride_subpartitions`), in O(n log n).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.stride import access_tuples


@dataclass(frozen=True)
class NonunitGroup:
    """Provenance of one fixed-stride subpartition: the first pair of
    instances that established its stride (``None`` for a subpartition
    that never found a partner)."""

    size: int
    stride: Optional[Tuple[int, ...]]
    first_node: int
    second_node: Optional[int]
    first_tuple: Tuple[int, ...]
    second_tuple: Optional[Tuple[int, ...]]


def _tuple_stride(
    prev: Tuple[int, ...], cur: Tuple[int, ...]
) -> Tuple[int, ...]:
    return tuple(map(sub, cur, prev))


def nonunit_stride_subpartitions(
    ddg,
    singletons: Sequence[int],
    groups: Optional[List[NonunitGroup]] = None,
) -> List[List[int]]:
    """Group ``singletons`` (node indices of one static instruction and one
    timestamp) into fixed-stride subpartitions via the waitlist scan.

    ``groups``, when given, collects one :class:`NonunitGroup` per output
    subpartition — the stride each subpartition locked onto and the
    concrete instance pair that established it (explain-layer
    provenance; the partitioning itself is unchanged).

    Each round of the waitlist scan takes the first remaining instance
    in sorted order as its head and the next one as its partner; their
    difference ``s`` is the round's stride.  From an accepted tuple
    ``t`` the rescan accepts the first remaining instance at ``t + s``.
    Lexicographic order is translation-invariant, so ``t + s`` sorts
    after ``t`` whenever ``s`` is non-zero, and every copy of ``t + s``
    lies ahead of the scan.  A round is therefore the chain ``t0, t0+s,
    t0+2s, ...``, each link the first remaining copy of its tuple, up to
    the first missing link; a zero stride takes every copy of the head's
    tuple.  The walk looks each link up in a dict instead of rescanning.

    Precondition: all access tuples of one call share one arity, as the
    instances of one static instruction do; componentwise strides and
    the translation argument need it.
    """
    if not singletons:
        return []
    # The remaining copies of each distinct tuple, in input order (the
    # order a stable sort by tuple keeps), stored reversed so pop()
    # takes the first one.
    remaining: Dict[Tuple[int, ...], List[int]] = {}
    for tup, node in zip(reversed(access_tuples(ddg, singletons)),
                         reversed(singletons)):
        remaining.setdefault(tup, []).append(node)
    order = sorted(remaining)
    subpartitions: List[List[int]] = []
    for head, first_tuple in enumerate(order):
        copies = remaining[first_tuple]
        if not copies:
            continue  # every copy joined an earlier round's chain
        # This round exhausts the head's tuple: a second copy is the
        # partner, and the zero stride then takes the rest.
        first_node = copies.pop()
        current = [first_node]
        partner = head
        while partner < len(order) and not remaining[order[partner]]:
            partner += 1
        stride = second_node = second_tuple = None
        if partner < len(order):
            second_tuple = order[partner]
            second_node = remaining[second_tuple].pop()
            current.append(second_node)
            stride = _tuple_stride(first_tuple, second_tuple)
            link = tuple(map(add, second_tuple, stride))
            while remaining.get(link):
                current.append(remaining[link].pop())
                link = tuple(map(add, link, stride))
        subpartitions.append(current)
        if groups is not None:
            groups.append(NonunitGroup(
                size=len(current),
                stride=stride,
                first_node=first_node,
                second_node=second_node,
                first_tuple=first_tuple,
                second_tuple=second_tuple,
            ))
    return subpartitions
