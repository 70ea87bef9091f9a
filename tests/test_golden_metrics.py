"""Golden-corpus regression tests.

``golden_metrics.json`` pins the analysis output (candidate-op counts
and every Table-1 metric, Percent Cycles included) for all 54 analyzed
loops across the 41 registered workloads at their default parameters.
The full pipeline is deterministic — compilation order, interpreter
execution, partitioning, and stride scans have no randomness — so any
change here means an intentional semantic change (update the corpus with
``python tests/regenerate_golden.py``) or a regression.

``golden_metrics_int_relaxed.json`` pins the same figures for a few
programs analyzed with ``--integer --relax-reductions``: integer
candidates carry no operand addresses (their access tuple is the store
target alone), and relaxed lanes drop reduction edges, so this corpus
covers the stride scans and partitions the default corpus never reaches.
"""

import json
import pathlib

import pytest

from repro.workloads import get_workload, list_workloads

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_metrics.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
INT_RELAXED_PATH = (pathlib.Path(__file__).parent
                    / "golden_metrics_int_relaxed.json")
INT_RELAXED = json.loads(INT_RELAXED_PATH.read_text())

ALL_NAMES = sorted(GOLDEN)


def test_corpus_covers_every_workload():
    assert set(GOLDEN) == {w.name for w in list_workloads()}


def assert_report_matches(name, report, expected):
    measured = {loop.loop_name: loop for loop in report.loops}
    assert set(measured) == set(expected), name
    for loop_name, want in expected.items():
        loop = measured[loop_name]
        context = f"{name}/{loop_name}"
        assert loop.total_candidate_ops == want["ops"], context
        assert loop.percent_cycles == pytest.approx(
            want["cycles"], abs=0.01
        ), context
        assert loop.percent_packed == pytest.approx(
            want["packed"], abs=0.01
        ), context
        assert loop.avg_concurrency == pytest.approx(
            want["concur"], abs=0.01
        ), context
        assert loop.percent_vec_unit == pytest.approx(
            want["unit"], abs=0.01
        ), context
        assert loop.avg_vec_size_unit == pytest.approx(
            want["unit_sz"], abs=0.01
        ), context
        assert loop.percent_vec_nonunit == pytest.approx(
            want["nonunit"], abs=0.01
        ), context
        assert loop.avg_vec_size_nonunit == pytest.approx(
            want["nonunit_sz"], abs=0.01
        ), context


@pytest.mark.parametrize("name", ALL_NAMES)
def test_workload_metrics_match_golden(name):
    assert_report_matches(name, get_workload(name).analyze(), GOLDEN[name])


@pytest.mark.parametrize("name", sorted(INT_RELAXED))
def test_integer_relaxed_metrics_match_golden(name):
    report = get_workload(name).analyze(include_integer=True,
                                        relax_reductions=True)
    assert_report_matches(name, report, INT_RELAXED[name])
