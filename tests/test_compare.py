"""Report diffing, --fail-on thresholds, the run-report ledger, and the
``vectra compare`` subcommand."""

import json

import pytest

from repro.errors import VectraError
from repro.obs.compare import (
    Delta,
    diff_reports,
    evaluate_thresholds,
    format_diff_table,
    load_report,
    parse_fail_on,
)
from repro.obs.history import append_report, read_ledger, select_baseline
from repro.obs.telemetry import REPORT_SCHEMA
from repro.tools.cli import main


def make_report(spans=None, counters=None, gauges=None, sections=None):
    return {
        "schema": REPORT_SCHEMA,
        "spans": {
            name: {"total_s": total, "calls": 1, "max_s": total}
            for name, total in (spans or {}).items()
        },
        "counters": dict(counters or {}),
        "gauges": dict(gauges or {}),
        "sections": dict(sections or {}),
        "events": [],
    }


class TestParseFailOn:
    def test_relative_increase(self):
        t = parse_fail_on("span:analysis.total:+10%")
        assert (t.kind, t.name) == ("span", "analysis.total")
        assert t.relative and t.amount == 10.0 and t.direction == 1

    def test_absolute_decrease(self):
        t = parse_fail_on("counter:ddg.nodes:-100")
        assert not t.relative and t.amount == 100.0 and t.direction == -1

    def test_section_kind_with_dotted_name(self):
        t = parse_fail_on("section:loop.fir_n.candidate_ops:+0%")
        assert t.kind == "section"
        assert t.name == "loop.fir_n.candidate_ops"

    @pytest.mark.parametrize("spec", [
        "nope", "span:analysis.total", "span::+10%", "span:x:",
        "weird:x:+10%", "span:x:10%", "span:x:+ten%",
    ])
    def test_malformed_specs_raise_naming_the_spec(self, spec):
        with pytest.raises(VectraError) as err:
            parse_fail_on(spec)
        assert repr(spec)[1:-1] in str(err.value)


class TestThresholds:
    def run(self, base, head, spec):
        deltas = diff_reports(base, head)
        return evaluate_thresholds(deltas, [parse_fail_on(spec)])

    def test_relative_within_bound_passes(self):
        base = make_report(spans={"s": 1.0})
        head = make_report(spans={"s": 1.05})
        assert self.run(base, head, "span:s:+10%") == []

    def test_relative_exceeded_fails(self):
        base = make_report(spans={"s": 1.0})
        head = make_report(spans={"s": 1.2})
        violations = self.run(base, head, "span:s:+10%")
        assert len(violations) == 1
        assert "+20.0%" in violations[0] and "span:s:+10%" in violations[0]

    def test_downward_guard(self):
        base = make_report(counters={"c": 100})
        head = make_report(counters={"c": 50})
        assert self.run(base, head, "counter:c:+10%") == []
        assert len(self.run(base, head, "counter:c:-10%")) == 1

    def test_absolute_bound(self):
        base = make_report(counters={"c": 100})
        head = make_report(counters={"c": 130})
        assert self.run(base, head, "counter:c:+50") == []
        assert len(self.run(base, head, "counter:c:+20")) == 1

    def test_newly_appeared_metric_exceeds_relative_bound(self):
        base = make_report()
        head = make_report(counters={"fresh": 5})
        violations = self.run(base, head, "counter:fresh:+1000%")
        assert len(violations) == 1 and "new" in violations[0]

    def test_metric_absent_from_both_passes(self):
        base = make_report(counters={"c": 1})
        head = make_report(counters={"c": 1})
        assert self.run(base, head, "counter:ghost:+0%") == []

    def test_identical_reports_pass_everything(self):
        report = make_report(spans={"s": 1.0}, counters={"c": 3},
                             gauges={"g": 2.0},
                             sections={"loop.L": {"ops": 7}})
        violations = evaluate_thresholds(diff_reports(report, report), [
            parse_fail_on(spec) for spec in (
                "span:s:+0%", "counter:c:+0%", "gauge:g:+0%",
                "section:loop.L.ops:+0%")
        ])
        assert violations == []


class TestDiff:
    def test_union_of_keys_and_sections_flattened(self):
        base = make_report(counters={"a": 1},
                           sections={"loop.L": {"ops": 5, "name": "L"}})
        head = make_report(counters={"b": 2})
        deltas = {(d.kind, d.name): d for d in diff_reports(base, head)}
        assert deltas[("counter", "a")].head == 0
        assert deltas[("counter", "b")].base == 0
        # numeric section fields flatten; non-numeric are skipped
        assert deltas[("section", "loop.L.ops")].change == -5
        assert ("section", "loop.L.name") not in deltas

    def test_table_lists_and_filters(self):
        base = make_report(counters={"a": 1, "b": 2})
        head = make_report(counters={"a": 1, "b": 3})
        table = format_diff_table(diff_reports(base, head))
        assert "a" in table and "b" in table
        filtered = format_diff_table(diff_reports(base, head),
                                     changed_only=True)
        assert "b" in filtered
        assert "\na " not in filtered

    def test_table_on_no_differences(self):
        table = format_diff_table(diff_reports(make_report(),
                                               make_report()),
                                  changed_only=True)
        assert "(no differences)" in table

    def test_pct_none_when_base_zero(self):
        assert Delta("counter", "x", 0, 5).pct is None
        assert Delta("counter", "x", 4, 5).pct == 25.0


class TestLoadReport:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(make_report(counters={"c": 1})))
        assert load_report(str(path))["counters"] == {"c": 1}

    def test_missing_file(self, tmp_path):
        with pytest.raises(VectraError, match="cannot read report"):
            load_report(str(tmp_path / "nope.json"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{not json")
        with pytest.raises(VectraError, match="malformed report"):
            load_report(str(path))

    def test_non_object_report(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("[1, 2]")
        with pytest.raises(VectraError, match="not a JSON object"):
            load_report(str(path))

    def test_unknown_schema_named_in_error(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"schema": "vectra.run-report/99"}))
        with pytest.raises(VectraError, match="vectra.run-report/99"):
            load_report(str(path))

    def test_v1_reports_still_load(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"schema": "vectra.run-report/1",
                                    "spans": {}, "counters": {"c": 1},
                                    "gauges": {}}))
        assert load_report(str(path))["counters"] == {"c": 1}


class TestLedger:
    def test_append_read_roundtrip_strips_events(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        r1 = make_report(counters={"c": 1})
        r1["events"] = [{"ph": "i", "name": "x", "ts": 0, "pid": 1,
                         "tid": 1}]
        append_report(path, r1)
        append_report(path, make_report(counters={"c": 2}))
        reports = read_ledger(path)
        assert [r["counters"]["c"] for r in reports] == [1, 2]
        assert "events" not in reports[0]

    def test_baseline_and_latest(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        for n in (1, 2, 3):
            append_report(path, make_report(counters={"c": n}))
        reports = read_ledger(path)
        assert select_baseline(reports)["counters"]["c"] == 1
        assert reports[-1]["counters"]["c"] == 3

    def test_single_entry_cannot_compare(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        append_report(path, make_report())
        with pytest.raises(VectraError, match="at least 2"):
            select_baseline(read_ledger(path))

    def test_malformed_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        append_report(str(path), make_report())
        with path.open("a") as fh:
            fh.write("{truncated\n")
        with pytest.raises(VectraError, match=r"ledger\.jsonl:2"):
            read_ledger(str(path))

    def test_unknown_schema_line_rejected(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps({"schema": "other/1"}) + "\n")
        with pytest.raises(VectraError, match="'other/1'"):
            read_ledger(str(path))

    def test_missing_and_empty_ledgers(self, tmp_path):
        with pytest.raises(VectraError, match="cannot read ledger"):
            read_ledger(str(tmp_path / "nope.jsonl"))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n\n")
        with pytest.raises(VectraError, match="no reports"):
            read_ledger(str(empty))


class TestCompareCLI:
    def write(self, tmp_path, name, report):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        return str(path)

    def test_identical_reports_exit_zero(self, capsys, tmp_path):
        path = self.write(tmp_path, "r.json",
                          make_report(spans={"analysis.total": 1.0}))
        code = main(["compare", path, path,
                     "--fail-on", "span:analysis.total:+10%"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: OK" in out

    def test_injected_slowdown_exits_nonzero(self, capsys, tmp_path):
        base = self.write(tmp_path, "base.json",
                          make_report(spans={"analysis.total": 1.0}))
        head = self.write(tmp_path, "head.json",
                          make_report(spans={"analysis.total": 1.5}))
        code = main(["compare", base, head,
                     "--fail-on", "span:analysis.total:+10%"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL" in captured.err
        assert "analysis.total" in captured.err

    def test_no_thresholds_is_a_plain_diff(self, capsys, tmp_path):
        base = self.write(tmp_path, "base.json",
                          make_report(counters={"c": 1}))
        head = self.write(tmp_path, "head.json",
                          make_report(counters={"c": 2}))
        code = main(["compare", base, head])
        out = capsys.readouterr().out
        assert code == 0
        assert "counter" in out and "c" in out

    def test_bad_spec_fails_cleanly(self, capsys, tmp_path):
        path = self.write(tmp_path, "r.json", make_report())
        code = main(["compare", path, path, "--fail-on", "bogus"])
        err = capsys.readouterr().err
        assert code == 1
        assert "bad --fail-on spec" in err

    def test_missing_operands_fails_cleanly(self, capsys, tmp_path):
        code = main(["compare"])
        assert code == 1
        assert "compare needs BASE and HEAD" in capsys.readouterr().err

    def test_ledger_mode(self, capsys, tmp_path):
        ledger = str(tmp_path / "ledger.jsonl")
        append_report(ledger, make_report(counters={"c": 1}))
        append_report(ledger, make_report(counters={"c": 1}))
        code = main(["compare", "--ledger", ledger,
                     "--fail-on", "counter:c:+0%"])
        assert code == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_ledger_and_files_are_mutually_exclusive(self, capsys,
                                                     tmp_path):
        path = self.write(tmp_path, "r.json", make_report())
        code = main(["compare", path, path, "--ledger", path])
        assert code == 1
        assert "not both" in capsys.readouterr().err


class TestReportOutputsCLI:
    """--metrics-json -, --metrics-append, --trace-json end to end."""

    ARGS = ["analyze", "utdsp_fir_array", "-p", "nout=16", "-p", "ntap=4"]

    def test_metrics_json_to_stdout(self, capsys):
        code = main(self.ARGS + ["--metrics-json", "-"])
        out = capsys.readouterr().out
        assert code == 0
        # stdout = human table followed by the JSON object
        report = json.loads(out[out.index('{"'):]
                            if '{"' in out else out[out.index("{"):])
        assert report["schema"] == REPORT_SCHEMA
        assert report["counters"]["trace.records.kept"] > 0

    def test_trace_json_file_is_valid_chrome_trace(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        code = main(self.ARGS + ["--trace-json", str(path)])
        capsys.readouterr()
        assert code == 0
        trace = json.loads(path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"command.analyze", "analysis.total", "loop.rerun",
                "loop.analyze.start", "loop.analyze.finish"} <= names
        for event in trace["traceEvents"]:
            assert event["ph"] in ("M", "X", "i")
            assert "pid" in event and "tid" in event

    def test_trace_json_to_stdout(self, capsys):
        code = main(self.ARGS + ["--trace-json", "-"])
        out = capsys.readouterr().out
        assert code == 0
        trace = json.loads(out[out.index("{"):])
        assert any(e["name"] == "analysis.total"
                   for e in trace["traceEvents"])

    def test_trace_json_written_even_on_failure(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        code = main(["analyze", "utdsp_fir_array", "--fuel", "50",
                     "--trace-json", str(path)])
        capsys.readouterr()
        assert code == 1
        trace = json.loads(path.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "interp.fuel_exhausted" in names

    def test_metrics_append_accumulates(self, capsys, tmp_path):
        ledger = str(tmp_path / "ledger.jsonl")
        for _ in range(2):
            code = main(self.ARGS + ["--metrics-append", ledger])
            assert code == 0
        capsys.readouterr()
        reports = read_ledger(ledger)
        assert len(reports) == 2
        assert reports[0]["command"] == "analyze"
        c0 = reports[0]["counters"]
        c1 = reports[1]["counters"]
        assert c0 == c1  # deterministic workload → identical counters

    def test_workers_ship_event_tracks_home(self, capsys, tmp_path):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        code = main(["analyze", "gemsfdtd_update", "--jobs", "4",
                     "--trace-json", str(trace_path),
                     "--metrics-json", str(metrics_path)])
        capsys.readouterr()
        assert code == 0
        report = json.loads(metrics_path.read_text())
        trace = json.loads(trace_path.read_text())
        pids = {e["pid"] for e in trace["traceEvents"]
                if e["ph"] != "M"}
        if "pipeline.pool_fallbacks" not in report["counters"]:
            # the pool stood up: parent + one track per worker
            assert len(pids) >= 2
        rerun_pids = {e["pid"] for e in trace["traceEvents"]
                      if e["name"] == "loop.rerun"}
        assert rerun_pids  # loop work is on the timeline either way
