"""Algorithm 1 tests, including the paper's Listing 1/2 expectations,
Property 3.1 / 3.2 checks on small graphs, and batched-vs-scalar
equivalence on seeded-random DDGs."""

import random

import pytest

from repro.analysis.timestamps import (
    average_partition_size,
    batched_parallel_partitions,
    compute_all_timestamps,
    compute_timestamps,
    critical_path_length,
    parallel_partitions,
)
from repro.analysis.pipeline import windowed_loop_ddg
from repro.ddg import DDG
from repro.errors import AnalysisError
from repro.frontend import compile_source
from repro.ir.instructions import Opcode

from tests.conftest import listing1_source, listing2_source
from tests.trace_oracle import program_ddg

FMUL = int(Opcode.FMUL)
FADD = int(Opcode.FADD)


def chain_ddg(n, sid=1):
    """n instances of one instruction in a dependence chain."""
    return DDG([sid] * n, [FMUL] * n,
               [() if i == 0 else (i - 1,) for i in range(n)])


def independent_ddg(n, sid=1):
    return DDG([sid] * n, [FMUL] * n, [()] * n)


class TestSyntheticGraphs:
    def test_chain_gives_singletons(self):
        parts = parallel_partitions(chain_ddg(6), 1)
        assert len(parts) == 6
        assert all(len(p) == 1 for p in parts.values())
        assert critical_path_length(parts) == 6

    def test_independent_gives_one_partition(self):
        parts = parallel_partitions(independent_ddg(6), 1)
        assert len(parts) == 1
        assert len(parts[1]) == 6
        assert average_partition_size(parts) == 6.0

    def test_other_instructions_do_not_increment(self):
        # chain: s0 -> x -> s0  (x is a different instruction)
        ddg = DDG([1, 2, 1], [FMUL, FADD, FMUL], [(), (0,), (1,)])
        ts = compute_timestamps(ddg, 1)
        assert ts == [1, 1, 2]
        parts = parallel_partitions(ddg, 1)
        assert sorted(len(p) for p in parts.values()) == [1, 1]

    def test_diamond_joins_take_max(self):
        #   0
        #  / \
        # 1   2     (all same instruction)
        #  \ /
        #   3
        ddg = DDG([1] * 4, [FMUL] * 4, [(), (0,), (0,), (1, 2)])
        ts = compute_timestamps(ddg, 1)
        assert ts == [1, 2, 2, 3]

    def test_removed_edges_relax_timestamps(self):
        ddg = chain_ddg(4)
        parts = parallel_partitions(ddg, 1,
                                    removed_edges={(0, 1), (1, 2), (2, 3)})
        assert len(parts) == 1

    def test_empty_partitions_for_absent_sid(self):
        parts = parallel_partitions(chain_ddg(3), 999)
        assert parts == {}
        assert average_partition_size(parts) == 0.0
        assert critical_path_length(parts) == 0


def random_ddg(rng, max_nodes=60, max_sids=6):
    """A seeded-random topological DAG with a handful of static ids."""
    n = rng.randint(1, max_nodes)
    sids = [rng.randint(1, max_sids) for _ in range(n)]
    opcodes = [FMUL if s % 2 else FADD for s in sids]
    preds = []
    for i in range(n):
        k = rng.randint(0, min(3, i))
        preds.append(tuple(sorted(rng.sample(range(i), k))))
    return DDG(sids, opcodes, preds)


class TestBatchedEngine:
    """The batched K-lane engine must be bit-identical to K scalar
    Algorithm 1 passes — including under per-sid edge removal (the
    reduction-relaxation path)."""

    def test_equals_scalar_on_random_ddgs(self):
        for seed in range(30):
            rng = random.Random(seed)
            ddg = random_ddg(rng)
            targets = sorted(set(ddg.sids)) + [999]  # 999: absent sid
            all_ts = compute_all_timestamps(ddg, targets)
            all_parts = batched_parallel_partitions(ddg, targets)
            assert sorted(all_ts) == sorted(targets)
            for sid in targets:
                assert all_ts[sid] == compute_timestamps(ddg, sid), seed
                assert all_parts[sid] == parallel_partitions(ddg, sid), seed

    def test_equals_scalar_with_removed_edges(self):
        for seed in range(30):
            rng = random.Random(1000 + seed)
            ddg = random_ddg(rng)
            edges = [
                (p, i) for i, ps in enumerate(ddg.preds) for p in ps
            ]
            targets = sorted(set(ddg.sids))
            removed_by_sid = {}
            for sid in targets:
                if edges and rng.random() < 0.7:
                    removed_by_sid[sid] = set(
                        rng.sample(edges, rng.randint(1, len(edges)))
                    )
            all_ts = compute_all_timestamps(ddg, targets, removed_by_sid)
            all_parts = batched_parallel_partitions(
                ddg, targets, removed_by_sid
            )
            for sid in targets:
                removed = removed_by_sid.get(sid)
                assert all_ts[sid] == compute_timestamps(
                    ddg, sid, removed
                ), seed
                assert all_parts[sid] == parallel_partitions(
                    ddg, sid, removed_edges=removed
                ), seed

    def test_removing_all_edges_flattens_every_lane(self):
        ddg = chain_ddg(5)
        edges = {(i - 1, i) for i in range(1, 5)}
        parts = batched_parallel_partitions(ddg, [1], {1: edges})
        assert parts[1] == {1: [0, 1, 2, 3, 4]}

    def test_lanes_are_independent_under_removal(self):
        # Removal on sid 1's lane must not perturb sid 2's lane.
        ddg = DDG([1, 2, 1, 2], [FMUL, FADD, FMUL, FADD],
                  [(), (0,), (1,), (2,)])
        edges = {(0, 1), (1, 2), (2, 3)}
        parts = batched_parallel_partitions(ddg, [1, 2], {1: edges})
        assert parts[1] == parallel_partitions(ddg, 1, removed_edges=edges)
        assert parts[2] == parallel_partitions(ddg, 2)

    def test_empty_targets(self):
        assert compute_all_timestamps(chain_ddg(3), []) == {}
        assert batched_parallel_partitions(chain_ddg(3), []) == {}

    def test_empty_graph(self):
        ddg = DDG([], [], [])
        assert compute_all_timestamps(ddg, [1]) == {1: []}
        assert batched_parallel_partitions(ddg, [1]) == {1: {}}

    def test_duplicate_targets_raise(self):
        with pytest.raises(AnalysisError):
            compute_all_timestamps(chain_ddg(3), [1, 1])

    def test_wide_lane_count(self):
        # More lanes than machine-word bits still packs correctly.
        rng = random.Random(42)
        n = 80
        sids = [rng.randint(1, 70) for _ in range(n)]
        preds = [
            tuple(sorted(rng.sample(range(i), rng.randint(0, min(2, i)))))
            for i in range(n)
        ]
        ddg = DDG(sids, [FMUL] * n, preds)
        targets = sorted(set(sids))
        all_ts = compute_all_timestamps(ddg, targets)
        for sid in targets:
            assert all_ts[sid] == compute_timestamps(ddg, sid)


class TestProperties:
    """Property 3.1: same timestamp => no DDG path between the two
    instances; smaller timestamps come earlier on every path."""

    def check_property_31(self, ddg, sid):
        parts = parallel_partitions(ddg, sid)
        for members in parts.values():
            for a in members:
                for b in members:
                    if a < b:
                        assert not ddg.has_path(a, b)
        ts = compute_timestamps(ddg, sid)
        instances = ddg.instances_of(sid)
        for a in instances:
            for b in instances:
                if a < b and ddg.has_path(a, b):
                    assert ts[a] < ts[b]

    def test_property_31_on_mixed_graph(self):
        ddg = DDG(
            [1, 2, 1, 1, 2, 1],
            [FMUL, FADD, FMUL, FMUL, FADD, FMUL],
            [(), (0,), (1,), (), (3,), (2, 4)],
        )
        self.check_property_31(ddg, 1)

    def test_property_32_maximality_vs_kumar(self):
        """Per-instruction partitions are never smaller in count of
        parallelism than grouping by global timestamps (Fig. 1's point)."""
        from repro.analysis.kumar import kumar_partitions

        module = compile_source(listing1_source(6))
        ddg = program_ddg(module)
        for sid in set(ddg.sids):
            if ddg.opcodes[ddg.instances_of(sid)[0]] != FMUL:
                continue
            ours = parallel_partitions(ddg, sid)
            kumars = kumar_partitions(ddg, sid)
            assert average_partition_size(ours) >= (
                average_partition_size(kumars)
            )


class TestPaperListings:
    def _fmul_sids(self, module, ddg):
        return [
            sid for sid in set(ddg.sids)
            if module.instruction(sid).opcode is Opcode.FMUL
        ]

    def test_listing1_partitions(self):
        """Paper Fig. 1(b): S1 forms N-1 singleton partitions; S2 forms
        N-1 partitions of size N."""
        n = 8
        module = compile_source(listing1_source(n))
        ddg = program_ddg(module)
        sids = sorted(
            self._fmul_sids(module, ddg),
            key=lambda s: module.instruction(s).line,
        )
        s1, s2 = sids
        parts1 = parallel_partitions(ddg, s1)
        assert len(parts1) == n - 1
        assert all(len(p) == 1 for p in parts1.values())
        parts2 = parallel_partitions(ddg, s2)
        assert len(parts2) == n - 1
        assert all(len(p) == n for p in parts2.values())

    def test_listing1_average_parallelism(self):
        """Fig. 1 discussion: overall parallelism (N+1)/2 under Kumar."""
        from repro.analysis.kumar import kumar_profile

        n = 8
        module = compile_source(listing1_source(n))
        ddg = program_ddg(module)
        profile = kumar_profile(ddg, weights="candidates")
        assert profile.critical_path == 2 * (n - 1)
        assert profile.average_parallelism == pytest.approx((n + 1) / 2)

    def test_listing2_full_partitions(self):
        """Fig. 2(c): S1's and S2's instances each form one partition."""
        n = 8
        module = compile_source(listing2_source(n))
        loop = module.loop_by_name("L")
        ddg, _, _ = windowed_loop_ddg(module, loop.loop_id, loop.name)
        for sid in self._fmul_sids(module, ddg):
            parts = parallel_partitions(ddg, sid)
            assert len(parts) == 1
            assert len(next(iter(parts.values()))) == n - 1
