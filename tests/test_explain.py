"""Explain layer: witnesses, provenance, cross-examination, CLI."""

import json

import pytest

from repro.analysis.nonunit import NonunitGroup, nonunit_stride_subpartitions
from repro.analysis.stride import StrideBreak, unit_stride_subpartitions
from repro.analysis.timestamps import (
    batched_parallel_partitions,
    packed_timestamp_scan,
    parallel_partitions,
    partitions_from_scan,
)
from repro.ddg.graph import DDG
from repro.errors import VectraError
from repro.explain import (
    cross_examine,
    explain_loop,
    extract_dependence_witnesses,
    extract_stride_witnesses,
    render_explain,
)
from repro.ir.instructions import Opcode
from repro.obs import EventLog, Run, Telemetry, use_run
from repro.tools.cli import main

LOAD = int(Opcode.LOAD)
STORE = int(Opcode.STORE)
FADD = int(Opcode.FADD)
FMUL = int(Opcode.FMUL)


def chain_ddg():
    """load -> fadd -> store -> load -> fadd: a memory-carried dependence
    between two fadd instances (sids: load=1, fadd=2, store=3)."""
    return DDG(
        sids=[1, 2, 3, 1, 2],
        opcodes=[LOAD, FADD, STORE, LOAD, FADD],
        preds=[(), (0,), (1,), (2,), (3,)],
        addrs=[(64,), (0,), (0,), (64,), (0,)],
        store_addrs=[0, 0, 64, 0, 0],
        mem_addrs=[64, 0, 64, 64, 0],
    )


def independent_ddg():
    """Four independent fmul instances with regular addresses."""
    return DDG(
        sids=[7, 7, 7, 7],
        opcodes=[FMUL] * 4,
        preds=[(), (), (), ()],
        addrs=[(256,), (264,), (280,), (296,)],
        store_addrs=[0, 0, 0, 0],
    )


class TestScanReuse:
    def test_partitions_from_scan_matches_batched(self):
        ddg = chain_ddg()
        scan = packed_timestamp_scan(ddg, [2])
        assert partitions_from_scan(ddg, scan) == (
            batched_parallel_partitions(ddg, [2])
        )

    def test_packed_scan_timestamp_by_sid(self):
        ddg = chain_ddg()
        scan = packed_timestamp_scan(ddg, [2])
        parts = parallel_partitions(ddg, 2)
        for t, members in parts.items():
            for node in members:
                assert scan.timestamp(node, 2) == t


class TestDependenceWitnesses:
    def test_chain_extracted_with_memory_step(self):
        ddg = chain_ddg()
        scan = packed_timestamp_scan(ddg, [2])
        parts = partitions_from_scan(ddg, scan)
        witnesses = extract_dependence_witnesses(ddg, scan, parts)
        assert len(witnesses) == 1
        w = witnesses[0]
        assert w.sid == 2
        assert w.num_partitions == 2
        assert (w.timestamp_from, w.timestamp_to) == (1, 2)
        # fadd(1) -> store(2) -> load(3) -> fadd(4), memory at the
        # store->load hop.
        assert [s.node for s in w.steps] == [1, 2, 3, 4]
        assert [s.via_memory for s in w.steps] == [
            False, False, True, False
        ]
        assert w.via_memory

    def test_no_witness_for_single_partition(self):
        ddg = independent_ddg()
        scan = packed_timestamp_scan(ddg, [7])
        parts = partitions_from_scan(ddg, scan)
        assert extract_dependence_witnesses(ddg, scan, parts) == []

    def test_limit_respected(self):
        ddg = chain_ddg()
        scan = packed_timestamp_scan(ddg, [2])
        parts = partitions_from_scan(ddg, scan)
        assert extract_dependence_witnesses(ddg, scan, parts, limit=0) == []


class TestStrideProvenance:
    def test_unit_scan_breaks_are_optional_and_inert(self):
        ddg = independent_ddg()
        nodes = [0, 1, 2, 3]
        plain = unit_stride_subpartitions(ddg, nodes, 8)
        breaks = []
        with_breaks = unit_stride_subpartitions(ddg, nodes, 8, breaks=breaks)
        assert with_breaks == plain
        # 256 -> 264 is unit (8); 264 -> 280 (16) breaks; 280 -> 296 too.
        assert len(breaks) == len(plain) - 1
        first = breaks[0]
        assert isinstance(first, StrideBreak)
        assert first.stride[0] == 16

    def test_nonunit_groups_are_optional_and_inert(self):
        ddg = independent_ddg()
        singles = [1, 2, 3]  # 264, 280, 296: fixed 16-byte stride
        plain = nonunit_stride_subpartitions(ddg, singles)
        groups = []
        with_groups = nonunit_stride_subpartitions(ddg, singles,
                                                   groups=groups)
        assert with_groups == plain
        assert len(groups) == len(plain)
        g = groups[0]
        assert isinstance(g, NonunitGroup)
        assert g.size == 3
        assert g.stride[0] == 16
        assert g.second_node is not None

    def test_extract_stride_witnesses_without_module(self):
        ddg = independent_ddg()
        parts = batched_parallel_partitions(ddg, [7])
        witnesses = extract_stride_witnesses(ddg, parts, module=None)
        assert witnesses
        kinds = {w.kind for w in witnesses}
        assert "unit-break" in kinds
        byte_strides = {w.byte_stride for w in witnesses}
        assert 16 in byte_strides
        for w in witnesses:
            assert w.culprit is None  # no module: no layout inference


class TestCrossExamination:
    def test_alias_confirmed_by_memory_flow(self):
        ddg = chain_ddg()
        scan = packed_timestamp_scan(ddg, [2])
        parts = partitions_from_scan(ddg, scan)
        deps = extract_dependence_witnesses(ddg, scan, parts)
        findings = cross_examine(
            ddg, ["possible pointer aliasing: 'a' vs 'b'"], deps, [], parts
        )
        assert findings[0].verdict == "confirmed"
        assert "store→load" in findings[0].evidence

    def test_alias_contradicted_without_memory_flow(self):
        ddg = independent_ddg()
        parts = batched_parallel_partitions(ddg, [7])
        findings = cross_examine(
            ddg, ["possible pointer aliasing: 'a' vs 'b'"], [], [], parts
        )
        assert findings[0].verdict == "contradicted"
        assert "zero store→load" in findings[0].evidence

    def test_carried_dependence_confirmed_with_witness(self):
        ddg = chain_ddg()
        scan = packed_timestamp_scan(ddg, [2])
        parts = partitions_from_scan(ddg, scan)
        deps = extract_dependence_witnesses(ddg, scan, parts)
        findings = cross_examine(
            ddg, ["loop-carried dependence (distance 1) on 'A'"],
            deps, [], parts
        )
        assert findings[0].verdict == "confirmed"
        assert findings[0].witness_ids == [deps[0].witness_id]

    def test_carried_dependence_contradicted_when_all_parallel(self):
        ddg = independent_ddg()
        parts = batched_parallel_partitions(ddg, [7])
        findings = cross_examine(
            ddg, ["scalar recurrence on 's'"], [], [], parts
        )
        assert findings[0].verdict == "contradicted"

    def test_structural_reasons_are_marked(self):
        ddg = independent_ddg()
        parts = batched_parallel_partitions(ddg, [7])
        findings = cross_examine(
            ddg, ["control flow in loop body", "contains an inner loop"],
            [], [], parts
        )
        assert all(f.verdict == "structural" for f in findings)

    def test_nonunit_stride_verdicts(self):
        ddg = independent_ddg()
        parts = batched_parallel_partitions(ddg, [7])
        strides = extract_stride_witnesses(ddg, parts)
        confirmed = cross_examine(
            ddg, ["non-unit stride (16 bytes) on 'lattice'"],
            [], strides, parts
        )
        assert confirmed[0].verdict == "confirmed"
        assert confirmed[0].witness_ids
        contradicted = cross_examine(
            ddg, ["non-unit stride (16 bytes) on 'lattice'"], [], [], parts
        )
        assert contradicted[0].verdict == "contradicted"


class TestReasonCodes:
    def test_mappings(self):
        from repro.vectorizer.autovec import reason_code

        assert reason_code("possible pointer aliasing: 'a'") == "alias"
        assert reason_code("pointer 'p' modified inside loop") == (
            "pointer-mutation"
        )
        assert reason_code("data-dependent select in loop body") == (
            "control-flow"
        )
        assert reason_code(
            "irregular subscript (data-dependent) on 'A'"
        ) == "data-dependent-subscript"
        assert reason_code("non-unit stride (16 bytes) on 'x'") == (
            "nonunit-stride"
        )
        assert reason_code("loop-carried dependence (distance 1)") == (
            "carried-dependence"
        )
        assert reason_code("scalar recurrence on 's'") == "recurrence"
        assert reason_code("contains an inner loop") == "inner-loop"
        assert reason_code("call to 'f' in loop body") == "call"
        assert reason_code("something novel") == "other"


class TestLayoutProvenance:
    @pytest.fixture(scope="class")
    def milc_module(self):
        from repro.frontend.driver import compile_source
        from repro.workloads.casestudies import milc_source

        return compile_source(milc_source(), "milc_su3mv")

    def test_global_layout_matches_interpreter(self, milc_module):
        from repro.runtime.layout import global_layout, resolve_address

        layout = global_layout(milc_module)
        names = [name for name, _, _ in layout]
        assert "lattice" in names
        base = dict((n, b) for n, b, _ in layout)["lattice"]
        hit = resolve_address(layout, base + 16)
        assert hit is not None
        assert hit[0] == "lattice"

    def test_aos_culprit_for_struct_strides(self, milc_module):
        from repro.runtime.layout import global_layout, infer_stride_culprit

        layout = global_layout(milc_module)
        base = dict((n, b) for n, b, _ in layout)["lattice"]
        culprit = infer_stride_culprit(milc_module, base, base + 16)
        assert culprit["kind"] == "aos-field"
        assert culprit["struct"] == "complex"
        assert culprit["struct_size"] == 16
        big = infer_stride_culprit(milc_module, base, base + 144)
        assert big["kind"] == "aos-field"
        assert big["struct"] == "su3_matrix"
        assert big["struct_size"] == 144

    def test_unmapped_address_is_unknown(self, milc_module):
        from repro.runtime.layout import infer_stride_culprit

        culprit = infer_stride_culprit(milc_module, 8, 24)
        assert culprit["kind"] == "unknown"


class TestExplainDriver:
    @pytest.fixture(scope="class")
    def milc_report(self):
        from repro.frontend.driver import compile_source
        from repro.workloads.casestudies import milc_source

        module = compile_source(milc_source(), "milc_su3mv")
        return explain_loop(
            module, "sites_loop",
            ["non-unit stride (16 bytes) on 'lattice'"],
        )

    def test_dependence_witnesses_reference_source(self, milc_report):
        from repro.workloads.casestudies import milc_source

        assert milc_report.dependence_witnesses
        num_lines = milc_source().count("\n") + 1
        for w in milc_report.dependence_witnesses:
            assert 1 <= w.line <= num_lines
            for step in w.steps:
                assert 1 <= step.line <= num_lines
            # chain connects adjacent partitions of the same sid
            assert w.steps[0].sid == w.sid
            assert w.steps[-1].sid == w.sid
            assert w.timestamp_to == w.timestamp_from + 1

    def test_stride_witnesses_show_struct_stride(self, milc_report):
        assert milc_report.stride_witnesses
        struct_sizes = {16, 48, 144}
        aos = [w for w in milc_report.stride_witnesses
               if w.culprit and w.culprit.get("kind") == "aos-field"]
        assert aos, "milc AoS kernel must produce an aos-field witness"
        for w in aos:
            assert abs(w.addr_a - w.addr_b) % 16 == 0
            assert w.culprit["struct_size"] in struct_sizes

    def test_refusal_joined_against_witnesses(self, milc_report):
        assert len(milc_report.refusals) == 1
        finding = milc_report.refusals[0]
        assert finding.code == "nonunit-stride"
        assert finding.verdict == "confirmed"
        assert finding.witness_ids

    def test_render_mentions_all_sections(self, milc_report):
        text = render_explain(milc_report)
        assert "dependence witnesses" in text
        assert "stride-break provenance" in text
        assert "refusal cross-examination" in text
        assert "AoS" in text

    def test_unknown_loop_fails_cleanly(self):
        from repro.frontend.driver import compile_source
        from repro.workloads.casestudies import milc_source

        module = compile_source(milc_source(), "milc_su3mv")
        with pytest.raises(VectraError, match="no loop named"):
            explain_loop(module, "nope")

    def test_telemetry_sections_emitted(self):
        from repro.frontend.driver import compile_source
        from repro.workloads.casestudies import milc_source

        module = compile_source(milc_source(), "milc_su3mv")
        tel = Telemetry()
        with use_run(Run(tel=tel)):
            explain_loop(module, "sites_loop", [])
        snap = tel.snapshot()
        assert snap["counters"]["explain.loops"] == 1
        assert snap["counters"]["explain.dependence_witnesses"] >= 1
        assert snap["counters"]["explain.stride_witnesses"] >= 1
        assert "explain.sites_loop" in snap["sections"]
        payload = snap["explain"]["loop.sites_loop"]
        assert payload["dependence_witnesses"]
        assert payload["stride_witnesses"]
        # scan ran exactly once: the metrics reused the explain scan
        assert snap["counters"]["algorithm1.scans"] == 1
        spans = snap["spans"]
        assert "explain.witness.dependence" in spans
        assert "explain.witness.stride" in spans
        assert "explain.refusals" in spans


class TestOneRoute:
    """A library caller's run records what the CLI's does: the compiled
    kernels and the packed Algorithm 1 scan report into the current
    run, the same place ``explain_loop``'s own counters go."""

    #: what ``vectra explain utdsp_fir_array -p nout=32 -p ntap=8
    #: --metrics-json`` reports for the kernels and the packed scan.
    DEEP = {
        "interp.compile.kernels": 2,
        "interp.compile.batches": 31,
        "interp.compile.iterations": 261,
        "interp.compile.deopts": 31,
        "interp.compile.guard_exits": 31,
        "algorithm1.nodes_scanned": 7109,
        "algorithm1.edges_scanned": 7225,
    }

    def test_library_run_records_the_cli_counters(self, capsys, tmp_path):
        from repro.workloads import get_workload

        path = tmp_path / "explain.json"
        code = main(["explain", "utdsp_fir_array", "-p", "nout=32",
                     "-p", "ntap=8", "--metrics-json", str(path)])
        capsys.readouterr()
        assert code == 0
        cli = json.loads(path.read_text())["counters"]

        module = get_workload("utdsp_fir_array").compile(nout=32, ntap=8)
        tel = Telemetry()
        with use_run(Run(tel=tel)):
            explain_loop(module, "fir_n")
        mine = {name: tel.counters.get(name) for name in self.DEEP}
        assert mine == {name: cli.get(name) for name in self.DEEP}
        assert mine == self.DEEP


class TestExplainCLI:
    def test_explain_milc_end_to_end(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["explain", "milc_su3mv", "--loop", "sites_loop",
                     "--metrics-json", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "dependence witnesses" in out
        assert "@ line" in out
        assert "AoS" in out

        report = json.loads(path.read_text())
        assert report["schema"] == "vectra.run-report/4"
        payload = report["explain"]["loop.sites_loop"]
        deps = payload["dependence_witnesses"]
        assert len(deps) >= 1
        for w in deps:
            assert w["line"] >= 1
            assert all(s["line"] >= 1 for s in w["steps"])
        strides = payload["stride_witnesses"]
        assert len(strides) >= 1
        aos = [w for w in strides
               if w["culprit"] and w["culprit"]["kind"] == "aos-field"]
        assert aos
        for w in aos:
            diff = abs(w["addr_a"] - w["addr_b"])
            assert diff % w["culprit"]["struct_size"] == 0 or (
                diff % 16 == 0
            )

    def test_explain_unknown_loop_fails_cleanly(self, capsys):
        code = main(["explain", "milc_su3mv", "--loop", "nope"])
        err = capsys.readouterr().err
        assert code == 1
        assert "no loop named" in err

    def test_explain_report_round_trips_through_compare(self, capsys,
                                                        tmp_path):
        path = tmp_path / "r.json"
        code = main(["explain", "milc_su3mv", "--loop", "sites_loop",
                     "--metrics-json", str(path)])
        assert code == 0
        capsys.readouterr()
        code = main(["compare", str(path), str(path), "--fail-on",
                     "counter:explain.loops:+0%"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: OK" in out
        assert "explain.sites_loop.stride_witnesses" in out


class TestSchemaCompatibility:
    def test_older_schemas_still_merge(self):
        for tag in ("vectra.run-report/1", "vectra.run-report/2"):
            tel = Telemetry()
            tel.merge({"schema": tag, "counters": {"x": 2}})
            assert tel.counters["x"] == 2

    def test_unknown_schema_rejected(self):
        tel = Telemetry()
        with pytest.raises(VectraError, match="vectra.run-report/99"):
            tel.merge({"schema": "vectra.run-report/99"})

    def test_explain_mapping_merges(self):
        tel = Telemetry()
        tel.merge({"schema": "vectra.run-report/3",
                   "explain": {"loop.x": {"loop": "x"}}})
        assert tel.explain["loop.x"] == {"loop": "x"}
        snap = tel.snapshot()
        assert snap["explain"] == {"loop.x": {"loop": "x"}}

    def test_explain_key_absent_when_empty(self):
        assert "explain" not in Telemetry().snapshot()

    def test_older_reports_load_through_compare(self, capsys, tmp_path):
        old = tmp_path / "old.json"
        older = tmp_path / "older.json"
        older.write_text(json.dumps({
            "schema": "vectra.run-report/1",
            "spans": {}, "counters": {"c": 1}, "gauges": {},
            "sections": {},
        }))
        old.write_text(json.dumps({
            "schema": "vectra.run-report/2",
            "spans": {}, "counters": {"c": 2}, "gauges": {},
            "sections": {}, "events": [],
        }))
        code = main(["compare", str(older), str(old)])
        out = capsys.readouterr().out
        assert code == 0
        assert "c" in out


class TestTimelineDropped:
    def test_dropped_counter_in_snapshot(self):
        tel = Telemetry(events=EventLog(capacity=2))
        for i in range(5):
            tel.instant(f"e{i}")
        snap = tel.snapshot()
        assert snap["counters"]["timeline_dropped"] == 3
        # read-only computation: repeated snapshots don't accumulate
        assert tel.snapshot()["counters"]["timeline_dropped"] == 3

    def test_worker_drops_merge_without_double_count(self):
        worker = Telemetry(events=EventLog(capacity=1))
        worker.instant("a")
        worker.instant("b")  # drops one
        parent = Telemetry(events=EventLog(capacity=1000))
        parent.merge(worker.snapshot())
        parent.instant("c")
        snap = parent.snapshot()
        # worker shipped 1 drop in its counters; parent's own log
        # dropped nothing.
        assert snap["counters"]["timeline_dropped"] == 1

    def test_absent_when_nothing_dropped(self):
        tel = Telemetry(events=EventLog(capacity=100))
        tel.instant("a")
        assert "timeline_dropped" not in tel.snapshot()["counters"]

    def test_cli_warns_on_stderr_after_trace_export(self, capsys,
                                                    monkeypatch, tmp_path):
        import repro.obs as obs

        real = obs.EventLog
        monkeypatch.setattr(obs, "EventLog",
                            lambda *a, **kw: real(capacity=4))
        path = tmp_path / "t.json"
        code = main(["analyze", "utdsp_fir_array", "--trace-json",
                     str(path), "-p", "nout=16", "-p", "ntap=4"])
        err = capsys.readouterr().err
        assert code == 0
        assert "dropped" in err
        assert "capacity 4" in err
        # the counter also lands in the run report for compare gating
        assert path.exists()

    def test_cli_silent_when_capacity_sufficient(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        code = main(["analyze", "utdsp_fir_array", "--trace-json",
                     str(path), "-p", "nout=16", "-p", "ntap=4"])
        err = capsys.readouterr().err
        assert code == 0
        assert "dropped" not in err


def make_report(counters):
    return {
        "schema": "vectra.run-report/3",
        "spans": {}, "counters": dict(counters), "gauges": {},
        "sections": {}, "events": [],
    }


class TestCompareJson:
    def test_json_document_to_file(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        head = tmp_path / "head.json"
        base.write_text(json.dumps(make_report({"ops": 100})))
        head.write_text(json.dumps(make_report({"ops": 150})))
        out_path = tmp_path / "delta.json"
        code = main(["compare", str(base), str(head), "--json",
                     str(out_path), "--fail-on", "counter:ops:+10%"])
        capsys.readouterr()
        assert code == 1  # 50% > 10%
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "vectra.compare/1"
        assert doc["verdict"] == "FAIL"
        assert doc["thresholds"] == ["counter:ops:+10%"]
        (delta,) = [d for d in doc["deltas"] if d["name"] == "ops"]
        assert delta["base"] == 100
        assert delta["head"] == 150
        assert delta["change"] == 50
        assert delta["violated"] is True
        assert delta["violated_by"] == ["counter:ops:+10%"]

    def test_json_to_stdout_is_pure(self, capsys, tmp_path):
        # With --json - the document owns stdout: no human table mixed
        # in, and the OK verdict moves to stderr.
        base = tmp_path / "base.json"
        base.write_text(json.dumps(make_report({"ops": 7})))
        code = main(["compare", str(base), str(base), "--json", "-",
                     "--fail-on", "counter:ops:+50%"])
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["verdict"] == "OK"
        assert all(d["violated"] is False for d in doc["deltas"])
        assert "verdict: OK" in captured.err

    def test_json_unwritable_path_fails_cleanly(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(make_report({"ops": 7})))
        code = main(["compare", str(base), str(base), "--json",
                     str(tmp_path / "nope" / "d.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert "cannot write compare JSON" in err


class TestFailOnParsedEarly:
    def test_bad_spec_reported_before_missing_reports(self, capsys):
        code = main(["compare", "/no/such/base.json", "/no/such/head.json",
                     "--fail-on", "bogus:thing:+10%"])
        err = capsys.readouterr().err
        assert code == 1
        # the spec error wins over the unreadable report paths and names
        # the exact bad item
        assert "bogus:thing:+10%" in err
        assert "unknown kind" in err
        assert "cannot read report" not in err

    def test_bad_limit_named(self, capsys, tmp_path):
        base = tmp_path / "b.json"
        base.write_text(json.dumps(make_report({})))
        code = main(["compare", str(base), str(base), "--fail-on",
                     "counter:ops:ten"])
        err = capsys.readouterr().err
        assert code == 1
        assert "counter:ops:ten" in err


class TestLedgerErrorsViaCLI:
    def run_append(self, tmp_path, ledger):
        return main(["analyze", "utdsp_fir_array", "-p", "nout=16",
                     "-p", "ntap=4", "--metrics-append", str(ledger)])

    def test_malformed_line_names_file_and_lineno(self, capsys, tmp_path):
        ledger = tmp_path / "history.jsonl"
        ledger.write_text("{not json\n")
        # append itself never reads the ledger: accumulating onto a
        # corrupt file succeeds...
        code = self.run_append(tmp_path, ledger)
        assert code == 0
        capsys.readouterr()
        # ...and the corruption surfaces on the read path, naming the
        # exact file and line.
        code = main(["compare", "--ledger", str(ledger)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{ledger}:1" in err
        assert "malformed ledger entry" in err

    def test_unknown_schema_line_names_tag(self, capsys, tmp_path):
        ledger = tmp_path / "history.jsonl"
        ledger.write_text(
            json.dumps({"schema": "vectra.run-report/99"}) + "\n"
        )
        code = self.run_append(tmp_path, ledger)
        assert code == 0
        capsys.readouterr()
        code = main(["compare", "--ledger", str(ledger)])
        err = capsys.readouterr().err
        assert code == 1
        assert "vectra.run-report/99" in err
        assert f"{ledger}:1" in err


class TestOpportunityWitnessIds:
    def test_classify_loop_attaches_witness_ids(self):
        from repro.analysis.opportunities import classify_loop
        from repro.analysis.report import LoopReport
        from repro.frontend.driver import compile_source
        from repro.workloads.casestudies import milc_source

        module = compile_source(milc_source(), "milc_su3mv")
        explain = explain_loop(module, "sites_loop", [])
        report = LoopReport(loop_name="sites_loop")
        report.percent_vec_nonunit = 50.0
        opp = classify_loop(report, None, explain=explain)
        assert opp.witness_ids == explain.witness_ids()
        assert opp.witness_ids

    def test_classify_loop_without_explain_is_unchanged(self):
        from repro.analysis.opportunities import classify_loop
        from repro.analysis.report import LoopReport

        report = LoopReport(loop_name="l")
        opp = classify_loop(report, None)
        assert opp.witness_ids == []
