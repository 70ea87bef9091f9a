"""Tier-1 smoke for the Algorithm 1 micro-benchmark harness.

Runs the same scalar-vs-batched comparison as
``benchmarks/test_algorithm1_batch.py`` at a small N (fast enough for
every test run), so the batched engine, the synthetic CSR graph
generator, and the deterministic JSON artifact writer are all exercised
by ``python -m pytest -x -q``.  No timing assertion here — wall-clock
ratios at small N are noise.
"""

import json

from benchmarks.algorithm1_common import run_comparison, synthetic_ddg
from benchmarks.conftest import write_bench_json


def test_batch_harness_small_n(tmp_path):
    payload = run_comparison(num_nodes=2000, num_sids=6, repeats=1)
    assert payload["identical"] is True
    assert payload["nodes"] == 2000
    assert payload["candidates"] == 6
    assert payload["scalar_s"] > 0.0
    assert payload["batched_s"] > 0.0

    path = write_bench_json("BENCH_algorithm1.json", payload,
                            directory=tmp_path)
    assert json.loads(path.read_text()) == payload
    # Deterministic serialization: a rewrite is byte-identical.
    first = path.read_bytes()
    write_bench_json("BENCH_algorithm1.json", payload, directory=tmp_path)
    assert path.read_bytes() == first


def test_synthetic_ddg_is_seed_deterministic():
    a = synthetic_ddg(500, 5, seed=7)
    b = synthetic_ddg(500, 5, seed=7)
    c = synthetic_ddg(500, 5, seed=8)
    assert a.sids.tolist() == b.sids.tolist()
    assert a.pred_indices == b.pred_indices
    assert a.pred_offsets == b.pred_offsets
    assert (c.sids.tolist(), list(c.pred_indices)) != (
        a.sids.tolist(), list(a.pred_indices))
