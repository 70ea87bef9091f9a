"""The benchmark's exact counts repeat, and agree between workloads.

Runs traced passes of ``scaled`` under two seeds (two program orders) and
one of ``spilled``.  Run from the root of a checkout with::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from workloads import SHARED_PROGRAM  # noqa: E402

EXACT = ("interp.instructions", "trace.records", "ddg.nodes", "ddg.edges",
         "analysis.nonunit_compares")


def traced_counts(workload, seed, tmp_path):
    """Per-command exact counts of one traced pass."""
    out = tmp_path / f"{workload}-{seed}"
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0")
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "1",
         "--out-dir", str(out),
         "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))],
        env=env, cwd=ROOT, check=True, timeout=300)
    with open(out / "result.json") as fh:
        result = json.load(fh)
    assert result["failed"] == 0, result["problems"]
    return {label: {name: counts.get(name, 0) for name in EXACT}
            for label, counts in result["counts"].items()}


def test_exact_counts_repeat_and_match(tmp_path):
    first = traced_counts("scaled", 1, tmp_path)
    second = traced_counts("scaled", 2, tmp_path)
    spilled = traced_counts("spilled", 1, tmp_path)

    assert first == second
    shared = f"analyze:{SHARED_PROGRAM[0]}"
    assert spilled == {shared: first[shared]}
    # Every count is exercised somewhere, so a zero cannot pass unnoticed.
    for name in EXACT:
        assert any(counts[name] for counts in first.values()), name

    with open(os.path.join(BENCH, "reference.json")) as fh:
        reference = json.load(fh)["expected"]["scaled"]
    assert {label: counts["trace.records"]
            for label, counts in first.items()} == {
        label: entry["records"] for label, entry in reference.items()}
