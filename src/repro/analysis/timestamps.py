"""Algorithm 1: per-static-instruction timestamping (paper §3.1).

For a chosen static instruction *s*, walk the DDG in topological order.
Each node's timestamp is the maximum of its predecessors' timestamps,
incremented by one exactly when the node is an instance of *s*.  Then all
instances of *s* sharing a timestamp form one *parallel partition*.

Guarantees (paper Properties 3.1 / 3.2, property-tested in this repo):

- if any DDG path connects two instances of *s*, their timestamps differ,
  so members of one partition are mutually independent;
- every instance gets the smallest feasible timestamp, so the partitions
  expose the *maximum* available parallelism for *s* under all
  dependence-preserving reorderings.

Because DDG nodes are stored in execution order (already topological),
the traversal is a single linear scan.

Two engines are provided:

- :func:`compute_all_timestamps` / :func:`batched_parallel_partitions` —
  the batched engine every analysis runs: ONE pass over the CSR-packed
  graph carrying a K-wide timestamp vector per node (elementwise max
  over predecessors, then increment only the lane of the node's own
  sid).  One static instruction is the K=1 case.
- :func:`compute_timestamps` / :func:`parallel_partitions` — the scalar
  reference the tests check the batched engine against: one O(N+E) pass
  per static instruction.  Timestamp lanes never interact, so the
  batched result is bit-identical to K scalar passes.

The batched engine packs all K lanes of a node's vector into a single
Python integer (fixed-width bit fields, one guard bit each) so that the
per-edge elementwise max is a constant number of big-integer operations
— the classic SWAR selection ``(a & m) | (b & ~m)`` with the per-field
mask derived from a borrow-free subtraction — and the per-node lane
increment is one addition of ``1 << (lane * width)``.  Work per edge is
thereby O(K/machine-word) instead of K interpreted compare-branches,
and single-predecessor nodes share their predecessor's (immutable)
packed vector outright.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ddg.graph import DDG
from repro.errors import AnalysisError
from repro.obs import current_run


def compute_timestamps(
    ddg: DDG,
    target_sid: int,
    removed_edges: Optional[set] = None,
) -> List[int]:
    """Timestamp per node for the analysis of ``target_sid``.

    ``removed_edges`` optionally drops specific (pred, node) pairs — used
    by the reduction-relaxation extension.
    """
    sids = ddg.sids.tolist()
    indices = ddg.pred_indices
    offsets = ddg.pred_offsets
    ts = [0] * len(sids)
    if removed_edges:
        for i in range(len(sids)):
            t = 0
            for j in range(offsets[i], offsets[i + 1]):
                p = indices[j]
                if (p, i) not in removed_edges and ts[p] > t:
                    t = ts[p]
            if sids[i] == target_sid:
                t += 1
            ts[i] = t
        return ts
    for i in range(len(sids)):
        t = 0
        for j in range(offsets[i], offsets[i + 1]):
            tp = ts[indices[j]]
            if tp > t:
                t = tp
        if sids[i] == target_sid:
            t += 1
        ts[i] = t
    return ts


class PackedScan:
    """Result of one batched scan: per-node lane-packed timestamp ints.

    Lane ``j`` of node ``i`` is ``(vectors[i] >> j * width) & value_mask``
    and equals ``compute_timestamps(ddg, targets[j], ...)[i]``.
    ``timestamp(i, sid)`` resolves the lane by sid — what downstream
    consumers (witness extraction) use to read single values without
    unpacking whole lanes.
    """

    __slots__ = ("vectors", "lane", "width", "value_mask")

    def __init__(self, vectors, lane, width, value_mask):
        self.vectors = vectors
        self.lane = lane
        self.width = width
        self.value_mask = value_mask

    def lane_value(self, i: int, j: int) -> int:
        return (self.vectors[i] >> (j * self.width)) & self.value_mask

    def timestamp(self, i: int, sid: int) -> int:
        """Timestamp of node ``i`` on the lane of static instruction
        ``sid`` (O(1); the scan must have included ``sid``)."""
        return self.lane_value(i, self.lane[sid])


def _timestamp_vectors(
    ddg: DDG,
    targets: Sequence[int],
    removed_edges_by_sid: Optional[Dict[int, Iterable[Tuple[int, int]]]],
) -> PackedScan:
    """One topological scan carrying a K-lane packed timestamp per node.

    Each lane is a ``width``-bit field: ``width - 1`` value bits plus one
    guard bit.  A timestamp never exceeds the node count, so value bits
    cannot overflow into the guard.  Per edge the elementwise max is four
    big-integer operations (SWAR field select); per candidate node the
    increment is one addition on the node's own lane.
    """
    k = len(targets)
    lane: Dict[int, int] = {sid: j for j, sid in enumerate(targets)}
    if len(lane) != k:
        raise AnalysisError("duplicate target sids in batched timestamping")

    sids = ddg.sids.tolist()
    indices = ddg.pred_indices
    offsets = ddg.pred_offsets
    n = len(sids)
    tel = current_run().tel
    if tel.enabled:
        tel.count("algorithm1.nodes_scanned", n)
        tel.count("algorithm1.edges_scanned", len(indices))
    width = n.bit_length() + 1
    field = (1 << width) - 1
    value_mask = field >> 1
    guards = 0  # guard bit of every lane
    full = 0  # all bits of every lane
    for j in range(k):
        guards |= 1 << (j * width + width - 1)
        full |= field << (j * width)

    # Edges dropped on specific lanes (reduction relaxation): a removed
    # edge contributes nothing on its lanes, and 0 is the identity of max
    # over timestamps >= 0, so masking the lanes to zero is exact.
    clear_masks: Dict[Tuple[int, int], int] = {}
    if removed_edges_by_sid:
        for sid, edges in removed_edges_by_sid.items():
            j = lane.get(sid)
            if j is None:
                continue
            for edge in edges or ():
                clear_masks[edge] = clear_masks.get(edge, full) ^ (
                    field << (j * width)
                )

    increments = {sid: 1 << (lane[sid] * width) for sid in targets}
    get_increment = increments.get
    shift = width - 1
    vectors: List[int] = []
    append = vectors.append
    if not clear_masks:
        for lo, hi, sid in zip(offsets[:-1], offsets[1:], sids):
            m = hi - lo
            if m == 0:
                t = 0
            elif m == 1:
                t = vectors[indices[lo]]
            else:
                t = vectors[indices[lo]]
                for x in range(lo + 1, hi):
                    b = vectors[indices[x]]
                    if t is not b:
                        select = ((((t | guards) - b) & guards) >> shift) * field
                        t = (t & select) | (b & (full ^ select))
            add = get_increment(sid)
            if add is not None:
                t += add
            append(t)
    else:
        get_clear = clear_masks.get
        for i in range(n):
            lo = offsets[i]
            hi = offsets[i + 1]
            t = 0
            for x in range(lo, hi):
                p = indices[x]
                b = vectors[p]
                clear = get_clear((p, i))
                if clear is not None:
                    b &= clear
                if t is b:
                    continue
                select = ((((t | guards) - b) & guards) >> shift) * field
                t = (t & select) | (b & (full ^ select))
            add = get_increment(sids[i])
            if add is not None:
                t += add
            append(t)
    return PackedScan(vectors, lane, width, value_mask)


def packed_timestamp_scan(
    ddg: DDG,
    target_sids: Sequence[int],
    removed_edges_by_sid: Optional[Dict[int, Iterable[Tuple[int, int]]]] = None,
) -> PackedScan:
    """Run the batched Algorithm 1 scan and hand back the lane-packed
    vectors themselves.

    This is the reusable form of :func:`batched_parallel_partitions`: a
    caller that also needs per-node timestamps *after* partitioning (the
    explain layer walks CSR predecessors backward from the timestamp
    frontier to extract dependence-chain witnesses) keeps the one scan
    and derives both views from it via :func:`partitions_from_scan` and
    :meth:`PackedScan.timestamp`, instead of paying a second pass.
    """
    return _timestamp_vectors(ddg, list(target_sids), removed_edges_by_sid)


def partitions_from_scan(
    ddg: DDG, scan: PackedScan
) -> Dict[int, Dict[int, List[int]]]:
    """Parallel partitions for every lane of ``scan``:
    ``{sid: {timestamp: [node, ...]}}``, node lists in execution order —
    bit-identical to :func:`parallel_partitions` per sid.

    Only the instances of the scanned sids are visited: each one's
    own-lane timestamp is unpacked, and one stable argsort over (lane,
    timestamp) groups them, keeping execution order inside a group.
    Timestamps come out ascending, which is the order
    :func:`parallel_partitions` first sees them in: by Property 3.2 an
    instance at ``t + 1`` has an ancestor instance at ``t``, and an
    ancestor executes first.
    """
    partitions: Dict[int, Dict[int, List[int]]] = {
        sid: {} for sid in scan.lane
    }
    if not partitions:
        return partitions
    targets = np.fromiter(scan.lane, np.int64, len(scan.lane))
    by_sid = np.argsort(targets)
    nodes = np.flatnonzero(np.isin(ddg.sids, targets))
    lanes = by_sid[np.searchsorted(targets[by_sid], ddg.sids[nodes])]
    vectors = scan.vectors
    value_mask = scan.value_mask
    stamps = np.fromiter(
        ((vectors[i] >> shift) & value_mask
         for i, shift in zip(nodes.tolist(), (lanes * scan.width).tolist())),
        np.int64, len(nodes))
    span = int(stamps.max(initial=0)) + 1
    keys = lanes * span + stamps
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1)).tolist()
    members = nodes[order].tolist()
    sids = targets.tolist()
    for lo, hi, key in zip(starts, starts[1:] + [len(members)],
                           keys[starts].tolist()):
        j, t = divmod(key, span)
        partitions[sids[j]][t] = members[lo:hi]
    return partitions


def compute_all_timestamps(
    ddg: DDG,
    target_sids: Sequence[int],
    removed_edges_by_sid: Optional[Dict[int, Iterable[Tuple[int, int]]]] = None,
) -> Dict[int, List[int]]:
    """Batched Algorithm 1: timestamps for many static instructions in one
    topological scan.

    Equivalent to ``{sid: compute_timestamps(ddg, sid,
    removed_edges_by_sid.get(sid)) for sid in target_sids}`` but K times
    cheaper in graph traversals.  ``removed_edges_by_sid`` optionally maps
    a sid to the (pred, node) edges ignored on that sid's lane only (the
    reduction-relaxation extension).
    """
    targets = list(target_sids)
    if not targets:
        return {}
    scan = _timestamp_vectors(ddg, targets, removed_edges_by_sid)
    vectors = scan.vectors
    value_mask = scan.value_mask
    out: Dict[int, List[int]] = {}
    for sid in targets:
        shift = scan.lane[sid] * scan.width
        out[sid] = [(v >> shift) & value_mask for v in vectors]
    return out


def batched_parallel_partitions(
    ddg: DDG,
    target_sids: Sequence[int],
    removed_edges_by_sid: Optional[Dict[int, Iterable[Tuple[int, int]]]] = None,
) -> Dict[int, Dict[int, List[int]]]:
    """Parallel partitions for many static instructions from one scan.

    Returns ``{sid: {timestamp: [node, ...]}}``, each inner mapping
    bit-identical to :func:`parallel_partitions` for that sid.
    """
    targets = list(target_sids)
    if not targets:
        return {}
    scan = _timestamp_vectors(ddg, targets, removed_edges_by_sid)
    return partitions_from_scan(ddg, scan)


def parallel_partitions(
    ddg: DDG,
    target_sid: int,
    timestamps: Optional[Sequence[int]] = None,
    removed_edges: Optional[set] = None,
) -> Dict[int, List[int]]:
    """Partitions of the instances of ``target_sid``: timestamp -> node list.

    Node lists are in execution order.  Every instance of the target
    appears in exactly one partition.
    """
    if timestamps is None:
        timestamps = compute_timestamps(ddg, target_sid, removed_edges)
    partitions: Dict[int, List[int]] = {}
    for i, sid in enumerate(ddg.sids.tolist()):
        if sid == target_sid:
            partitions.setdefault(timestamps[i], []).append(i)
    return partitions


def average_partition_size(partitions: Dict[int, List[int]]) -> float:
    """Mean partition size — the paper's per-instruction parallelism metric."""
    if not partitions:
        return 0.0
    total = sum(len(p) for p in partitions.values())
    return total / len(partitions)


def critical_path_length(partitions: Dict[int, List[int]]) -> int:
    """Number of partitions = length of the per-instruction dependence
    chain (the largest timestamp)."""
    return max(partitions) if partitions else 0
