"""Run-stats database, trends, MAD gate (:mod:`repro.obs.statsdb`)
and the ``vectra stats`` / ``compare --baseline`` CLI surfaces."""

import json

import pytest

from repro.errors import VectraError
from repro.obs.history import median_report, select_baseline
from repro.obs.statsdb import (
    STATS_SCHEMA,
    MetricTrend,
    format_trend_table,
    ingest_reports,
    metric_trends,
    open_db,
    sparkline,
    stats_json_doc,
)
from repro.tools.cli import main


def make_report(counters=None, spans=None, hists=None):
    report = {
        "schema": "vectra.run-report/4",
        "command": "analyze",
        "exit_code": 0,
        "spans": spans or {},
        "counters": counters or {},
        "gauges": {},
        "histograms": hists or {},
        "sections": {},
    }
    return report


def write_ledger(path, reports):
    with open(path, "w") as fh:
        for report in reports:
            fh.write(json.dumps(report) + "\n")
    return str(path)


def hist_snap(values):
    from repro.obs.telemetry import Histogram

    h = Histogram()
    for v in values:
        h.observe(v)
    return h.snapshot()


class TestIngest:
    def test_ingest_is_idempotent(self):
        conn = open_db()
        reports = [make_report({"c": 1}), make_report({"c": 2})]
        rows1 = ingest_reports(conn, reports, source="L")
        rows2 = ingest_reports(conn, reports, source="L")
        assert rows1 == rows2 > 0
        n_runs = conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
        n_rows = conn.execute("SELECT COUNT(*) FROM metrics").fetchone()[0]
        assert n_runs == 2
        assert n_rows == rows1
        conn.close()

    def test_histogram_stats_flatten_into_rows(self):
        conn = open_db()
        report = make_report(hists={"loop.analyze": hist_snap([0.5, 1.0])})
        ingest_reports(conn, [report], source="L")
        names = {row[0] for row in conn.execute(
            "SELECT name FROM metrics WHERE kind = 'hist'")}
        assert "loop.analyze.p95" in names
        assert "loop.analyze.count" in names
        conn.close()

    def test_persisted_db_reopens(self, tmp_path):
        path = str(tmp_path / "stats.sqlite")
        conn = open_db(path)
        ingest_reports(conn, [make_report({"c": 1})], source="L")
        conn.close()
        conn = open_db(path)
        trends, runs = metric_trends(conn, "L")
        assert runs == 1
        assert any(t.name == "c" for t in trends)
        conn.close()


class TestTrends:
    def make_db(self, series):
        conn = open_db()
        reports = [make_report({"c": v}) for v in series]
        ingest_reports(conn, reports, source="L")
        return conn

    def test_values_ordered_oldest_first(self):
        conn = self.make_db([1, 2, 3])
        trends, runs = metric_trends(conn, "L")
        trend = next(t for t in trends if t.name == "c")
        assert trend.values == [1.0, 2.0, 3.0]
        assert runs == 3
        conn.close()

    def test_last_n_window(self):
        conn = self.make_db([1, 2, 3, 4, 5])
        trends, runs = metric_trends(conn, "L", last_n=2)
        trend = next(t for t in trends if t.name == "c")
        assert trend.values == [4.0, 5.0]
        assert runs == 2
        conn.close()

    def test_missing_metric_pads_zero(self):
        conn = open_db()
        ingest_reports(conn, [make_report({"c": 5}), make_report({})],
                       source="L")
        trends, _ = metric_trends(conn, "L")
        trend = next(t for t in trends if t.name == "c")
        assert trend.values == [5.0, 0.0]
        conn.close()

    def test_patterns_filter_on_kind_and_name(self):
        conn = open_db()
        report = make_report({"c": 1},
                             spans={"s": {"total_s": 0.5, "calls": 1,
                                          "max_s": 0.5}})
        ingest_reports(conn, [report], source="L")
        trends, _ = metric_trends(conn, "L", patterns=["counter:*"])
        assert {t.kind for t in trends} == {"counter"}
        conn.close()

    def test_unknown_source_raises(self):
        conn = open_db()
        with pytest.raises(VectraError, match="no runs"):
            metric_trends(conn, "nope")
        conn.close()

    def test_bad_last_raises(self):
        conn = self.make_db([1])
        with pytest.raises(VectraError, match="--last"):
            metric_trends(conn, "L", last_n=0)
        conn.close()


class TestMadCheck:
    def test_spike_after_stable_history_trips(self):
        trend = MetricTrend("counter", "c", [100.0, 101.0, 99.0, 100.0,
                                            300.0])
        trend.check_mad()
        assert trend.regression is not None
        assert "counter:c" in trend.regression
        assert "300" in trend.regression

    def test_stable_series_passes(self):
        trend = MetricTrend("counter", "c", [100.0, 101.0, 99.0, 100.5])
        trend.check_mad()
        assert trend.regression is None

    def test_sub_percent_wiggle_with_zero_mad_passes(self):
        # perfectly flat history: MAD is 0, the 1%-of-median floor keeps
        # a 0.5% move from tripping
        trend = MetricTrend("counter", "c", [200.0, 200.0, 200.0, 201.0])
        trend.check_mad()
        assert trend.regression is None

    def test_too_few_runs_never_trips(self):
        trend = MetricTrend("counter", "c", [1.0, 500.0])
        trend.check_mad()
        assert trend.regression is None


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series_uses_mid_char(self):
        out = sparkline([5.0, 5.0, 5.0])
        assert len(out) == 3
        assert len(set(out)) == 1

    def test_monotone_series_rises(self):
        out = sparkline([0.0, 1.0, 2.0, 3.0])
        assert out == "".join(sorted(out))
        assert out[0] != out[-1]

    def test_window_clamps_to_width(self):
        assert len(sparkline(list(range(40)), width=16)) == 16

    def test_nan_renders_placeholder_not_crash(self):
        out = sparkline([float("nan"), 1.0, 2.0])
        assert out[0] == "?"
        assert len(out) == 3

    def test_infinities_clamp_to_extremes(self):
        out = sparkline([1.0, float("inf"), 2.0, float("-inf")])
        assert len(out) == 4
        # the scale comes from the finite values; infinities clamp
        assert out[1] == max(out)
        assert out[3] == min(out)

    def test_all_non_finite_is_flat_not_division_by_zero(self):
        out = sparkline([float("nan"), float("inf")])
        assert len(out) == 2

    def test_constant_window_with_one_nan(self):
        out = sparkline([5.0, float("nan"), 5.0])
        assert out[0] == out[2]
        assert out[1] == "?"


class TestFormatting:
    def test_table_has_flag_and_regressions_section(self):
        trend = MetricTrend("counter", "c",
                            [100.0, 100.0, 100.0, 900.0])
        trend.check_mad()
        table = format_trend_table([trend], runs=4)
        assert "MAD!" in table
        assert "-- regressions --" in table
        assert "(4 runs in window)" in table

    def test_changed_only_hides_flat_metrics(self):
        flat = MetricTrend("counter", "flat", [1.0, 1.0])
        moving = MetricTrend("counter", "moving", [1.0, 2.0])
        table = format_trend_table([flat, moving], runs=2,
                                   changed_only=True)
        assert "moving" in table
        assert "flat" not in table

    def test_json_doc_verdict(self):
        ok = MetricTrend("counter", "c", [1.0, 1.0])
        doc = stats_json_doc([ok], runs=2, source="L")
        assert doc["schema"] == STATS_SCHEMA
        assert doc["verdict"] == "OK"
        bad = MetricTrend("counter", "c", [1.0, 1.0, 1.0, 9.0])
        bad.check_mad()
        doc = stats_json_doc([bad], runs=4, source="L")
        assert doc["verdict"] == "FAIL"
        assert doc["regressions"]


class TestMedianBaseline:
    def test_median_report_takes_per_metric_median(self):
        reports = [make_report({"c": v}) for v in (1, 5, 100)]
        med = median_report(reports)
        assert med["counters"]["c"] == 5.0
        assert med["synthetic"] == "median-of-3"

    def test_median_flattens_histograms(self):
        reports = [make_report(hists={"h": hist_snap([v])})
                   for v in (1.0, 2.0, 3.0)]
        med = median_report(reports)
        assert med["hist_flat"]["h.p50"] == pytest.approx(2.0)
        assert med["histograms"] == {}

    def test_select_baseline_first_and_median(self):
        reports = [make_report({"c": v}) for v in (7, 1, 2, 3, 100)]
        assert select_baseline(reports, "first") is reports[0]
        # median:3 uses the 3 runs before the latest: 1, 2, 3
        med = select_baseline(reports, "median:3")
        assert med["counters"]["c"] == 2.0

    def test_select_baseline_bad_specs(self):
        reports = [make_report({"c": 1}), make_report({"c": 2})]
        with pytest.raises(VectraError, match="median:x"):
            select_baseline(reports, "median:x")
        with pytest.raises(VectraError, match=">= 1"):
            select_baseline(reports, "median:0")
        with pytest.raises(VectraError, match="nope"):
            select_baseline(reports, "nope")

    def test_select_baseline_short_ledger(self):
        with pytest.raises(VectraError, match="at least 2"):
            select_baseline([make_report()], "first")


class TestStatsCli:
    def ledger(self, tmp_path, series):
        return write_ledger(tmp_path / "ledger.jsonl",
                            [make_report({"c": v}) for v in series])

    def test_trend_table_over_three_runs(self, capsys, tmp_path):
        path = self.ledger(tmp_path, [1, 2, 3])
        code = main(["stats", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "counter" in out and " c " in out
        assert "(3 runs in window)" in out

    def test_mad_trip_exits_nonzero(self, capsys, tmp_path):
        path = self.ledger(tmp_path, [100, 100, 100, 100, 900])
        code = main(["stats", path])
        captured = capsys.readouterr()
        assert code == 1
        assert "MAD!" in captured.out
        assert "FAIL counter:c" in captured.err
        assert "verdict: FAIL" in captured.err

    def test_no_fail_reports_but_exits_zero(self, capsys, tmp_path):
        path = self.ledger(tmp_path, [100, 100, 100, 100, 900])
        code = main(["stats", path, "--no-fail"])
        captured = capsys.readouterr()
        assert code == 0
        assert "verdict: FAIL" in captured.err

    def test_json_dash_owns_stdout(self, capsys, tmp_path):
        path = self.ledger(tmp_path, [1, 2, 3])
        code = main(["stats", path, "--json", "-"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == STATS_SCHEMA
        assert doc["runs"] == 3

    def test_metric_filter_and_last(self, capsys, tmp_path):
        path = self.ledger(tmp_path, [1, 2, 3, 4])
        code = main(["stats", path, "--metric", "counter:c",
                     "--last", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(2 runs in window)" in out

    def test_missing_ledger_fails_cleanly(self, capsys, tmp_path):
        code = main(["stats", str(tmp_path / "nope.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert "cannot read ledger" in err

    def test_stats_json_flame_collision_names_both(self, capsys,
                                                   tmp_path):
        path = self.ledger(tmp_path, [1, 2, 3])
        code = main(["stats", path, "--json", "-", "--flame", "-"])
        err = capsys.readouterr().err
        assert code == 1
        assert "--flame and --json" in err
        assert "interleave" in err


class TestCompareBaselineCli:
    def test_median_baseline_absorbs_outlier_first_run(self, capsys,
                                                       tmp_path):
        # first run is a wild outlier; median:3 gates against the
        # stable middle runs instead
        reports = [make_report({"c": v}) for v in (1, 100, 100, 100, 100)]
        path = write_ledger(tmp_path / "ledger.jsonl", reports)
        code = main(["compare", "--ledger", path,
                     "--baseline", "median:3",
                     "--fail-on", "counter:c:+50%"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        code = main(["compare", "--ledger", path,
                     "--fail-on", "counter:c:+50%"])
        captured = capsys.readouterr()
        assert code == 1  # first-run baseline sees 1 -> 100

    def test_baseline_without_ledger_rejected(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(make_report({"c": 1})))
        b.write_text(json.dumps(make_report({"c": 2})))
        code = main(["compare", str(a), str(b),
                     "--baseline", "median:3"])
        err = capsys.readouterr().err
        assert code == 1
        assert "--baseline requires --ledger" in err

    def test_bad_baseline_spec_fails_cleanly(self, capsys, tmp_path):
        path = write_ledger(tmp_path / "l.jsonl",
                            [make_report({"c": 1}),
                             make_report({"c": 2})])
        code = main(["compare", "--ledger", path,
                     "--baseline", "median:zero"])
        err = capsys.readouterr().err
        assert code == 1
        assert "bad --baseline spec" in err
