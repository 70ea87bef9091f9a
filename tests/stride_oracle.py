"""Reference oracle for the §3.2 and §3.3 stride scans.

These are the original, straightforward scans, kept verbatim as the
oracle that ``tests/test_stride_differential.py`` checks the production
scans in ``repro.analysis.stride`` and ``repro.analysis.nonunit``
against.  The §3.2 scan tests every stride component with
:func:`_is_unit_or_zero`; the §3.3 scan literally rescans the remaining
waitlist once per output subpartition, which costs O(n x
subpartitions).  Both record the same provenance objects
(:class:`StrideBreak`, :class:`NonunitGroup`) as the production scans,
so their outputs compare with ``==``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.nonunit import NonunitGroup
from repro.analysis.stride import StrideBreak, access_tuples


def _tuple_stride(
    prev: Tuple[int, ...], cur: Tuple[int, ...]
) -> Tuple[int, ...]:
    return tuple(c - p for p, c in zip(prev, cur))


def _is_unit_or_zero(stride: Tuple[int, ...], elem_size: int) -> bool:
    """Every component either repeats the same address (splat / constant
    operand) or advances by exactly one element."""
    return all(s == 0 or s == elem_size for s in stride)


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
    """
    if not partition:
        return []
    keyed = sorted(
        zip(access_tuples(ddg, partition), partition), key=lambda kv: kv[0]
    )
    subpartitions: List[List[int]] = []
    prev_node = keyed[0][1]
    current = [prev_node]
    current_tuple = keyed[0][0]
    current_stride = None
    for tup, node in keyed[1:]:
        stride = _tuple_stride(current_tuple, tup)
        acceptable = _is_unit_or_zero(stride, elem_size)
        if acceptable and (current_stride is None or stride == current_stride):
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
    provenance; the partitioning itself is unchanged)."""
    if not singletons:
        return []
    work: List[Tuple[Tuple[int, ...], int]] = sorted(
        zip(access_tuples(ddg, singletons), singletons),
        key=lambda kv: kv[0],
    )
    subpartitions: List[List[int]] = []
    while work:
        first_tuple, first_node = work[0]
        current = [first_node]
        current_tuple = first_tuple
        current_stride = None
        second: Optional[Tuple[Tuple[int, ...], int]] = None
        waitlist: List[Tuple[Tuple[int, ...], int]] = []
        for tup, node in work[1:]:
            stride = _tuple_stride(current_tuple, tup)
            if current_stride is None or stride == current_stride:
                if current_stride is None:
                    second = (tup, node)
                current_stride = stride
                current.append(node)
                current_tuple = tup
            else:
                waitlist.append((tup, node))
        subpartitions.append(current)
        if groups is not None:
            groups.append(NonunitGroup(
                size=len(current),
                stride=current_stride,
                first_node=first_node,
                second_node=second[1] if second else None,
                first_tuple=first_tuple,
                second_tuple=second[0] if second else None,
            ))
        work = waitlist
    return subpartitions
