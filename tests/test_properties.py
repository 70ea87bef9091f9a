"""Property-based tests (hypothesis) for the core invariants.

Covers: Property 3.1 / 3.2 of the paper on random DAGs, stride
subpartition invariants, the non-unit waitlist scan, DDG structural
invariants, layout arithmetic, and an interpreter-vs-Python oracle on
randomized arithmetic expressions.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.analysis.nonunit import nonunit_stride_subpartitions
from repro.analysis.stride import unit_stride_subpartitions
from repro.analysis.timestamps import compute_timestamps, parallel_partitions
from repro.ddg import DDG
from repro.ir.instructions import Opcode
from repro.runtime.layout import flatten_index

FMUL = int(Opcode.FMUL)
FADD = int(Opcode.FADD)


@st.composite
def random_dags(draw, max_nodes=40):
    """A random DAG in topological order with nodes tagged by one of a
    few static instruction ids."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    sids = draw(st.lists(st.integers(min_value=1, max_value=4),
                         min_size=n, max_size=n))
    preds = []
    for i in range(n):
        if i == 0:
            preds.append(())
            continue
        k = draw(st.integers(min_value=0, max_value=min(3, i)))
        ps = draw(st.lists(st.integers(min_value=0, max_value=i - 1),
                           min_size=k, max_size=k, unique=True))
        preds.append(tuple(sorted(ps)))
    opcodes = [FMUL if s % 2 else FADD for s in sids]
    return DDG(sids, opcodes, preds)


@st.composite
def access_tuple_lists(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    width = draw(st.integers(min_value=1, max_value=3))
    tuples = []
    for _ in range(n):
        tuples.append(tuple(
            draw(st.integers(min_value=0, max_value=400)) * 8
            for _ in range(width)
        ))
    return tuples


def ddg_from_tuples(tuples):
    n = len(tuples)
    return DDG(
        [1] * n,
        [FMUL] * n,
        [()] * n,
        addrs=[t[:-1] for t in tuples],
        store_addrs=[t[-1] for t in tuples],
    )


def unit_subpartitions(ddg, nodes):
    """§3.2 over one partition of sid 1; a singleton stays whole."""
    if len(nodes) < 2:
        return [nodes]
    return unit_stride_subpartitions(ddg, {1: {1: nodes}}, {1: 8})[1][1]


class TestAlgorithm1Properties:
    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_property_31_independence_within_partition(self, ddg):
        """Members of one partition are never connected by a DDG path."""
        for sid in set(ddg.sids):
            parts = parallel_partitions(ddg, sid)
            for members in parts.values():
                for i, a in enumerate(members):
                    for b in members[i + 1:]:
                        assert not ddg.has_path(a, b)

    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_property_31_path_implies_ordered_timestamps(self, ddg):
        for sid in set(ddg.sids):
            ts = compute_timestamps(ddg, sid)
            instances = ddg.instances_of(sid)
            for i, a in enumerate(instances):
                for b in instances[i + 1:]:
                    if ddg.has_path(a, b):
                        assert ts[a] < ts[b]

    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_property_32_timestamps_minimal(self, ddg):
        """Each instance's timestamp equals 1 + the largest count of
        same-sid instances on any path into it (computed independently by
        brute force)."""
        for sid in set(ddg.sids):
            ts = compute_timestamps(ddg, sid)
            best = [0] * len(ddg)
            for i in range(len(ddg)):
                longest = 0
                for p in ddg.preds[i]:
                    longest = max(longest, best[p])
                own = 1 if ddg.sids[i] == sid else 0
                best[i] = longest + own
                if ddg.sids[i] == sid:
                    assert ts[i] == best[i]

    @given(random_dags())
    @settings(max_examples=40, deadline=None)
    def test_partitions_cover_all_instances_exactly_once(self, ddg):
        for sid in set(ddg.sids):
            parts = parallel_partitions(ddg, sid)
            flat = sorted(x for p in parts.values() for x in p)
            assert flat == ddg.instances_of(sid)

    @given(random_dags())
    @settings(max_examples=60, deadline=None)
    def test_batched_engine_matches_scalar(self, ddg):
        """One K-lane batched scan == K scalar Algorithm 1 passes."""
        from repro.analysis.timestamps import (
            batched_parallel_partitions,
            compute_all_timestamps,
        )

        targets = ddg.static_ids()
        all_ts = compute_all_timestamps(ddg, targets)
        all_parts = batched_parallel_partitions(ddg, targets)
        for sid in targets:
            assert all_ts[sid] == compute_timestamps(ddg, sid)
            assert all_parts[sid] == parallel_partitions(ddg, sid)
            # The same timestamps in the same (first-seen) order.
            assert list(all_parts[sid]) == list(parallel_partitions(ddg, sid))


class TestStrideProperties:
    @given(access_tuple_lists())
    @settings(max_examples=80, deadline=None)
    def test_unit_subpartitions_partition_the_input(self, tuples):
        ddg = ddg_from_tuples(tuples)
        subs = unit_subpartitions(ddg, list(range(len(tuples))))
        flat = sorted(x for s in subs for x in s)
        assert flat == list(range(len(tuples)))

    @given(access_tuple_lists())
    @settings(max_examples=80, deadline=None)
    def test_unit_subpartitions_have_uniform_unit_strides(self, tuples):
        ddg = ddg_from_tuples(tuples)
        subs = unit_subpartitions(ddg, list(range(len(tuples))))
        for sub in subs:
            if len(sub) < 2:
                continue
            tups = sorted(
                ddg.addrs[i] + (ddg.store_addrs[i],) for i in sub
            )
            strides = {
                tuple(b - a for a, b in zip(t1, t2))
                for t1, t2 in zip(tups, tups[1:])
            }
            assert len(strides) == 1
            (stride,) = strides
            assert all(s in (0, 8) for s in stride)

    @given(access_tuple_lists())
    @settings(max_examples=80, deadline=None)
    def test_nonunit_subpartitions_partition_the_input(self, tuples):
        ddg = ddg_from_tuples(tuples)
        subs = nonunit_stride_subpartitions(ddg, list(range(len(tuples))))
        flat = sorted(x for s in subs for x in s)
        assert flat == list(range(len(tuples)))

    @given(access_tuple_lists())
    @settings(max_examples=80, deadline=None)
    def test_nonunit_subpartitions_have_constant_strides(self, tuples):
        ddg = ddg_from_tuples(tuples)
        subs = nonunit_stride_subpartitions(ddg, list(range(len(tuples))))
        for sub in subs:
            if len(sub) < 3:
                continue
            tups = sorted(
                ddg.addrs[i] + (ddg.store_addrs[i],) for i in sub
            )
            strides = {
                tuple(b - a for a, b in zip(t1, t2))
                for t1, t2 in zip(tups, tups[1:])
            }
            assert len(strides) == 1


class TestLayoutProperties:
    @given(
        st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                 max_size=4)
    )
    @settings(max_examples=50, deadline=None)
    def test_flatten_index_bijective(self, dims):
        seen = set()
        total = math.prod(dims)
        indices = [0] * len(dims)
        for _ in range(total):
            flat = flatten_index(dims, indices)
            assert 0 <= flat < total
            assert flat not in seen
            seen.add(flat)
            for axis in reversed(range(len(dims))):
                indices[axis] += 1
                if indices[axis] < dims[axis]:
                    break
                indices[axis] = 0
        assert len(seen) == total


class TestInterpreterOracle:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from("+-*"),
                st.integers(min_value=-50, max_value=50),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_integer_expression_chain(self, ops):
        from repro.frontend import compile_source
        from repro.interp import run_module

        body = "int x = 1;"
        expected = 1
        for op, value in ops:
            body += f" x = x {op} {value};"
            if op == "+":
                expected = expected + value
            elif op == "-":
                expected = expected - value
            else:
                expected = expected * value
            expected = ((expected + 2**31) % 2**32) - 2**31  # int32 wrap
        module = compile_source(
            f"int main() {{ {body} return x; }}"
        )
        value, _ = run_module(module)
        assert value == expected

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_float_sum_oracle(self, values):
        from repro.frontend import compile_source
        from repro.interp import run_module

        n = len(values)
        inits = " ".join(
            f"A[{i}] = {v!r};" for i, v in enumerate(values)
        )
        module = compile_source(
            f"""
double A[{n}];
double out;
int main() {{
  int i;
  {inits}
  double s = 0.0;
  for (i = 0; i < {n}; i++) s += A[i];
  out = s;
  return 0;
}}
"""
        )
        _, interp = run_module(module)
        out_addr = interp.global_addr["out"]
        measured = interp.memory.load(out_addr, 0.0)
        expected = 0.0
        for v in values:
            expected += v
        assert measured == expected
