"""The §3.2 and §3.3 stride scans against their reference oracle.

``tests/stride_oracle.py`` keeps the original scans (the literal
waitlist rescan of §3.3 and the componentwise §3.2 scan).  The
production scans must return the same subpartitions, in the same member
order, with the same ``StrideBreak`` / ``NonunitGroup`` provenance — on
random access tuples and on the real stride-scan inputs of two
workloads.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.analysis.metrics as metrics
from repro.analysis.nonunit import nonunit_stride_subpartitions
from repro.analysis.pipeline import analyze_kernel
from repro.analysis.stride import access_tuples, unit_stride_subpartitions
from tests import stride_oracle as oracle
from tests.test_nonunit import ddg_with_tuples


@st.composite
def access_inputs(draw, max_n=200):
    """Access tuples of one arity (1-3) on a small grid, so repeated
    tuples (zero strides) and fixed-stride chains are common, plus the
    node order the scan is called with (shuffled)."""
    width = draw(st.integers(min_value=1, max_value=3))
    span = draw(st.sampled_from([0, 1, 2, 3, 5, 9, 40]))
    scale = draw(st.sampled_from([1, 4, 8, 24]))
    n = draw(st.integers(min_value=0, max_value=max_n))
    component = st.integers(min_value=0, max_value=span).map(
        lambda k: 1000 + k * scale)
    tuples = draw(st.lists(st.tuples(*[component] * width),
                           min_size=n, max_size=n))
    nodes = draw(st.permutations(range(n)))
    return tuples, nodes


def assert_nonunit_matches_oracle(ddg, nodes):
    groups, want_groups = [], []
    got = nonunit_stride_subpartitions(ddg, nodes, groups=groups)
    want = oracle.nonunit_stride_subpartitions(ddg, nodes,
                                               groups=want_groups)
    assert got == want
    assert groups == want_groups
    assert nonunit_stride_subpartitions(ddg, nodes) == want


def assert_unit_matches_oracle(ddg, nodes, elem_size):
    breaks, want_breaks = [], []
    got = unit_stride_subpartitions(ddg, nodes, elem_size, breaks=breaks)
    want = oracle.unit_stride_subpartitions(ddg, nodes, elem_size,
                                            breaks=want_breaks)
    assert got == want
    assert breaks == want_breaks
    assert unit_stride_subpartitions(ddg, nodes, elem_size) == want


class TestAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(access_inputs())
    def test_nonunit_scan_matches_waitlist_rescan(self, case):
        tuples, nodes = case
        assert_nonunit_matches_oracle(ddg_with_tuples(tuples), nodes)

    @settings(max_examples=200, deadline=None)
    @given(access_inputs(), st.sampled_from([1, 4, 8, 24]))
    def test_unit_scan_matches_componentwise_scan(self, case, elem_size):
        tuples, nodes = case
        assert_unit_matches_oracle(ddg_with_tuples(tuples), nodes,
                                   elem_size)


@pytest.mark.parametrize("workload", ["milc_su3mv", "gauss_seidel"])
def test_real_scan_inputs_match_oracle(workload, monkeypatch):
    """Every stride-scan call of a real analysis, replayed through the
    oracle: same subpartitions and provenance, one arity per call."""
    unit_calls, nonunit_calls = [], []
    unit_scan = metrics.unit_stride_subpartitions
    nonunit_scan = metrics.nonunit_stride_subpartitions

    def recording_unit(ddg, partition, elem_size, breaks=None):
        unit_calls.append((ddg, list(partition), elem_size))
        return unit_scan(ddg, partition, elem_size, breaks)

    def recording_nonunit(ddg, singletons, groups=None):
        nonunit_calls.append((ddg, list(singletons)))
        return nonunit_scan(ddg, singletons, groups)

    monkeypatch.setattr(metrics, "unit_stride_subpartitions",
                        recording_unit)
    monkeypatch.setattr(metrics, "nonunit_stride_subpartitions",
                        recording_nonunit)
    analyze_kernel(workload)

    assert unit_calls and nonunit_calls
    for ddg, nodes, elem_size in unit_calls:
        assert len({len(t) for t in access_tuples(ddg, nodes)}) == 1
        assert_unit_matches_oracle(ddg, nodes, elem_size)
    for ddg, nodes in nonunit_calls:
        assert len({len(t) for t in access_tuples(ddg, nodes)}) == 1
        assert_nonunit_matches_oracle(ddg, nodes)
