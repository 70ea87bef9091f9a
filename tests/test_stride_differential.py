"""The §3.2 and §3.3 stride scans against their reference oracle.

``tests/stride_oracle.py`` keeps the original scans (the literal
waitlist rescan of §3.3 and the componentwise §3.2 scan, one partition
per call).  The production scans must return the same subpartitions, in
the same member order, with the same ``StrideBreak`` / ``NonunitGroup``
provenance — on random access tuples and on the real stride-scan inputs
of two workloads.  The production §3.2 pass subdivides every partition
of a loop window in one call, so it is checked partition by partition.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

import repro.analysis.metrics as metrics
from repro.analysis.nonunit import nonunit_stride_subpartitions
from repro.analysis.pipeline import analyze_kernel
from repro.analysis.stride import access_tuples, unit_stride_subpartitions
from repro.ddg import DDG
from repro.ir.instructions import Opcode
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


@st.composite
def loop_inputs(draw, max_size=40):
    """One loop window's partitions for one §3.2 call: sids of arity 0
    (an integer candidate's access tuple is its store target alone) and
    arity 2 (a binary FP candidate's), element sizes 4 and 8, and
    singleton partitions, mixed.  Addresses lie on a small grid, 0 (not
    from memory) among them, so unit and zero strides are common; each
    partition lists its members in a shuffled order."""
    scale = draw(st.sampled_from([4, 8, 16]))
    span = draw(st.sampled_from([1, 2, 3, 9]))
    component = st.integers(min_value=0, max_value=span).map(
        lambda k: k and 1000 + k * scale)
    tuples, node_sids = [], []
    partitions_by_sid, elem_sizes = {}, {}
    for sid in range(1, draw(st.integers(min_value=1, max_value=4)) + 1):
        arity = draw(st.sampled_from([0, 2]))
        elem_sizes[sid] = draw(st.sampled_from([4, 8]))
        parts = partitions_by_sid[sid] = {}
        for t in range(1, draw(st.integers(min_value=1, max_value=3)) + 1):
            size = draw(st.one_of(st.just(1), st.integers(
                min_value=2, max_value=max_size)))
            first = len(tuples)
            tuples += draw(st.lists(st.tuples(*[component] * (arity + 1)),
                                    min_size=size, max_size=size))
            node_sids += [sid] * size
            parts[t] = draw(st.permutations(range(first, first + size)))
    n = len(tuples)
    ddg = DDG(node_sids, [int(Opcode.FMUL)] * n, [()] * n,
              addrs=[t[:-1] for t in tuples],
              store_addrs=[t[-1] for t in tuples])
    return ddg, tuples, partitions_by_sid, elem_sizes


def assert_nonunit_matches_oracle(ddg, nodes):
    groups, want_groups = [], []
    got = nonunit_stride_subpartitions(ddg, nodes, groups=groups)
    want = oracle.nonunit_stride_subpartitions(ddg, nodes,
                                               groups=want_groups)
    assert got == want
    assert groups == want_groups
    assert nonunit_stride_subpartitions(ddg, nodes) == want


def assert_unit_matches_oracle(ddg, partitions_by_sid, elem_sizes):
    """The loop-wide §3.2 call against the oracle's scan of each
    partition: the same subpartitions in the same member order, no entry
    for a singleton partition, and per sid the same breaks in partition
    order; then §3.3 over each partition's leftovers."""
    breaks = {}
    got = unit_stride_subpartitions(ddg, partitions_by_sid, elem_sizes,
                                    breaks=breaks)
    want_breaks = {}
    for sid, parts in partitions_by_sid.items():
        for t, nodes in parts.items():
            if len(nodes) < 2:
                assert t not in got.get(sid, {})
                continue
            found = []
            want = oracle.unit_stride_subpartitions(
                ddg, nodes, elem_sizes[sid], breaks=found)
            assert got[sid][t] == want
            if found:
                want_breaks.setdefault(sid, []).extend(found)
            leftovers = [node for sub in want if len(sub) == 1
                         for node in sub]
            assert_nonunit_matches_oracle(ddg, leftovers)
    assert breaks == want_breaks
    assert unit_stride_subpartitions(ddg, partitions_by_sid,
                                     elem_sizes) == got


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
        assert_unit_matches_oracle(ddg_with_tuples(tuples), {1: {1: nodes}},
                                   {1: elem_size})

    @settings(max_examples=200, deadline=None)
    @given(loop_inputs())
    def test_loop_wide_scan_matches_each_partition(self, case):
        ddg, tuples, partitions_by_sid, elem_sizes = case
        nodes = list(range(len(tuples)))
        assert access_tuples(ddg, nodes) == tuples
        assert_unit_matches_oracle(ddg, partitions_by_sid, elem_sizes)


@pytest.mark.parametrize("workload", ["milc_su3mv", "gauss_seidel"])
def test_real_scan_inputs_match_oracle(workload, monkeypatch):
    """Every stride-scan call of a real analysis, replayed through the
    oracle: every partition of each loop-wide §3.2 call, then each §3.3
    call; same subpartitions and provenance, one arity per call."""
    unit_calls, nonunit_calls = [], []
    unit_scan = metrics.unit_stride_subpartitions
    nonunit_scan = metrics.nonunit_stride_subpartitions

    def recording_unit(ddg, partitions_by_sid, elem_sizes, breaks=None):
        unit_calls.append((ddg, copy.deepcopy(partitions_by_sid),
                           dict(elem_sizes)))
        return unit_scan(ddg, partitions_by_sid, elem_sizes, breaks)

    def recording_nonunit(ddg, singletons, groups=None):
        nonunit_calls.append((ddg, list(singletons)))
        return nonunit_scan(ddg, singletons, groups)

    monkeypatch.setattr(metrics, "unit_stride_subpartitions",
                        recording_unit)
    monkeypatch.setattr(metrics, "nonunit_stride_subpartitions",
                        recording_nonunit)
    analyze_kernel(workload)

    assert unit_calls and nonunit_calls
    for ddg, partitions_by_sid, elem_sizes in unit_calls:
        for parts in partitions_by_sid.values():
            for nodes in parts.values():
                assert len({len(t) for t in access_tuples(ddg, nodes)}) == 1
        assert_unit_matches_oracle(ddg, partitions_by_sid, elem_sizes)
    for ddg, nodes in nonunit_calls:
        assert len({len(t) for t in access_tuples(ddg, nodes)}) == 1
        assert_nonunit_matches_oracle(ddg, nodes)
