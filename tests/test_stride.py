"""§3.2 unit/zero-stride subpartitioning tests on constructed DDGs."""

from repro.analysis.stride import (
    access_tuples,
    average_subpartition_size,
    unit_stride_subpartitions,
    vectorizable_ops,
)
from repro.ddg import DDG
from repro.ir.instructions import Opcode

FMUL = int(Opcode.FMUL)


def ddg_with_tuples(tuples):
    """Independent instances of one instruction with given access tuples
    (last element is the store address)."""
    n = len(tuples)
    return DDG(
        [1] * n,
        [FMUL] * n,
        [()] * n,
        addrs=[t[:-1] for t in tuples],
        store_addrs=[t[-1] for t in tuples],
    )


def subdivide(ddg, nodes, elem_size):
    """The §3.2 subpartitions of one partition (timestamp 1 of sid 1)."""
    return unit_stride_subpartitions(ddg, {1: {1: nodes}},
                                     {1: elem_size})[1][1]


class TestUnitStride:
    def test_contiguous_tuples_form_one_subpartition(self):
        tuples = [(100 + 8 * i, 200 + 8 * i, 300 + 8 * i) for i in range(5)]
        ddg = ddg_with_tuples(tuples)
        subs = subdivide(ddg, list(range(5)), 8)
        assert len(subs) == 1
        assert len(subs[0]) == 5

    def test_zero_stride_components_allowed(self):
        """Splat operands (same address each time) are vectorizable."""
        tuples = [(100, 200 + 8 * i, 300 + 8 * i) for i in range(4)]
        ddg = ddg_with_tuples(tuples)
        subs = subdivide(ddg, list(range(4)), 8)
        assert len(subs) == 1

    def test_constants_use_artificial_zero(self):
        tuples = [(0, 200 + 8 * i, 300 + 8 * i) for i in range(4)]
        ddg = ddg_with_tuples(tuples)
        subs = subdivide(ddg, list(range(4)), 8)
        assert len(subs) == 1

    def test_non_unit_stride_splits(self):
        tuples = [(100 + 16 * i, 200 + 16 * i, 300 + 16 * i)
                  for i in range(4)]
        ddg = ddg_with_tuples(tuples)
        subs = subdivide(ddg, list(range(4)), 8)
        assert all(len(s) == 1 for s in subs)

    def test_stride_change_splits(self):
        # first three unit-contiguous, then a gap, then unit again
        tuples = (
            [(100 + 8 * i, 0, 300 + 8 * i) for i in range(3)]
            + [(400 + 8 * i, 0, 600 + 8 * i) for i in range(3)]
        )
        ddg = ddg_with_tuples(tuples)
        subs = subdivide(ddg, list(range(6)), 8)
        sizes = sorted(len(s) for s in subs)
        assert sizes == [3, 3]

    def test_unsorted_input_is_sorted_first(self):
        tuples = [(100 + 8 * i, 0, 300 + 8 * i) for i in (3, 0, 2, 1)]
        ddg = ddg_with_tuples(tuples)
        subs = subdivide(ddg, list(range(4)), 8)
        assert len(subs) == 1
        assert len(subs[0]) == 4

    def test_float32_element_size(self):
        tuples = [(100 + 4 * i, 0, 300 + 4 * i) for i in range(4)]
        ddg = ddg_with_tuples(tuples)
        assert len(subdivide(ddg, list(range(4)), 4)) == 1
        # Same addresses under double element size: stride 4 is non-unit.
        subs8 = subdivide(ddg, list(range(4)), 8)
        assert all(len(s) == 1 for s in subs8)

    def test_mixed_component_strides_split(self):
        """One component unit, another jumping irregularly."""
        tuples = [(100 + 8 * i, 200 + 24 * i, 300 + 8 * i)
                  for i in range(4)]
        ddg = ddg_with_tuples(tuples)
        subs = subdivide(ddg, list(range(4)), 8)
        assert all(len(s) == 1 for s in subs)

    def test_every_member_appears_once(self):
        tuples = [(100 + 8 * (i % 3), 0, 300 + 16 * i) for i in range(7)]
        ddg = ddg_with_tuples(tuples)
        subs = subdivide(ddg, list(range(7)), 8)
        flat = sorted(x for s in subs for x in s)
        assert flat == list(range(7))

    def test_empty_partition(self):
        ddg = ddg_with_tuples([(0, 0, 0)])
        assert unit_stride_subpartitions(ddg, {1: {1: []}}, {1: 8}) == {}

    def test_singleton_partition_is_not_subdivided(self):
        ddg = ddg_with_tuples([(0, 0, 0)])
        assert unit_stride_subpartitions(ddg, {1: {1: [0]}}, {1: 8}) == {}


class TestMetricsHelpers:
    def test_vectorizable_ops_counts_non_singletons(self):
        assert vectorizable_ops([[1, 2, 3], [4], [5, 6]]) == 5

    def test_average_subpartition_size(self):
        assert average_subpartition_size([[1, 2, 3], [4], [5, 6]]) == 2.5
        assert average_subpartition_size([[1]]) == 0.0

    def test_access_tuples_include_store_target(self):
        ddg = ddg_with_tuples([(10, 20, 30)])
        assert access_tuples(ddg, [0]) == [(10, 20, 30)]
