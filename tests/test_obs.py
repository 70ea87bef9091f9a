"""Telemetry core: spans, counters, gauges, merge, the current run."""

import itertools
import json
import logging
import math

import pytest

from repro.errors import VectraError
from repro.obs import (
    Run,
    Telemetry,
    configure_logging,
    current_run,
    get_logger,
    use_run,
)
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    REPORT_SCHEMA,
    Histogram,
    NullTelemetry,
    dump_report,
)


class TestTelemetry:
    def test_span_records_total_calls_max(self):
        tel = Telemetry()
        with tel.span("stage"):
            pass
        with tel.span("stage"):
            pass
        total, calls, mx = tel.spans["stage"]
        assert calls == 2
        assert total >= mx >= 0.0

    def test_spans_nest(self):
        tel = Telemetry()
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        assert set(tel.spans) == {"outer", "inner"}
        assert tel.spans["outer"][0] >= tel.spans["inner"][0]

    def test_span_records_on_exception(self):
        tel = Telemetry()
        with pytest.raises(RuntimeError):
            with tel.span("boom"):
                raise RuntimeError("x")
        assert tel.spans["boom"][1] == 1

    def test_counters_sum(self):
        tel = Telemetry()
        tel.count("n")
        tel.count("n", 41)
        assert tel.counters["n"] == 42

    def test_gauges_keep_max(self):
        tel = Telemetry()
        tel.gauge("g", 5.0)
        tel.gauge("g", 3.0)
        tel.gauge("g", 7.0)
        assert tel.gauges["g"] == 7.0

    def test_record_memory_sets_rss_gauge(self):
        tel = Telemetry()
        tel.record_memory()
        assert tel.gauges.get("mem.peak_rss_kb", 0) > 0

    def test_snapshot_shape_and_version(self):
        tel = Telemetry()
        with tel.span("s"):
            pass
        tel.count("c", 3)
        tel.gauge("g", 1.5)
        snap = tel.snapshot()
        assert snap["schema"] == REPORT_SCHEMA
        assert snap["spans"]["s"]["calls"] == 1
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 1.5}
        json.dumps(snap)  # must be JSON-serializable as-is

    def test_merge_sums_counters_and_spans_maxes_gauges(self):
        parent = Telemetry()
        parent.count("c", 1)
        parent.gauge("g", 10.0)
        with parent.span("s"):
            pass
        worker = Telemetry()
        worker.count("c", 2)
        worker.count("only_worker", 5)
        worker.gauge("g", 4.0)
        with worker.span("s"):
            pass
        parent.merge(worker.snapshot())
        assert parent.counters == {"c": 3, "only_worker": 5}
        assert parent.gauges["g"] == 10.0
        assert parent.spans["s"][1] == 2

    def test_merge_accepts_telemetry_and_none(self):
        parent = Telemetry()
        other = Telemetry()
        other.count("c")
        parent.merge(other)
        parent.merge(None)
        assert parent.counters == {"c": 1}

    def test_merged_counters_equal_serial_counters(self):
        """The serial/parallel identity in miniature: one object counting
        everything equals two halves merged."""
        serial = Telemetry()
        for _ in range(6):
            serial.count("work")
        a, b = Telemetry(), Telemetry()
        for _ in range(3):
            a.count("work")
            b.count("work")
        a.merge(b.snapshot())
        assert a.counters == serial.counters

    def test_write_json(self, tmp_path):
        tel = Telemetry()
        tel.count("c", 2)
        path = tmp_path / "report.json"
        dump_report(tel.report(command="analyze", exit_code=0), str(path))
        report = json.loads(path.read_text())
        assert report["schema"] == REPORT_SCHEMA
        assert report["command"] == "analyze"
        assert report["counters"]["c"] == 2

    def test_format_table_lists_stages_and_counters(self):
        tel = Telemetry()
        with tel.span("ddg.build"):
            pass
        tel.count("ddg.nodes", 7)
        table = tel.format_table()
        assert "ddg.build" in table
        assert "ddg.nodes" in table
        assert "-- counters --" in table

    def test_format_table_sorted_by_total_with_wall_percent(self):
        tel = Telemetry()
        tel._record_span("small", 0.0, 0.25)
        tel._record_span("command.run", 0.0, 2.0)
        tel._record_span("medium", 0.0, 0.5)
        table = tel.format_table()
        lines = [ln.split()[0] for ln in table.splitlines()[2:5]]
        assert lines == ["command.run", "medium", "small"]
        assert "%wall" in table
        assert "100.0%" in table  # the wall span itself
        assert "25.0%" in table   # medium / command.run
        assert "12.5%" in table   # small / command.run


class TestSections:
    def test_record_and_replace(self):
        tel = Telemetry()
        tel.section("loop.L", {"ops": 5})
        tel.section("loop.L", {"ops": 9})
        assert tel.sections == {"loop.L": {"ops": 9}}
        assert tel.snapshot()["sections"]["loop.L"] == {"ops": 9}

    def test_sections_survive_merge(self):
        parent = Telemetry()
        parent.section("loop.A", {"ops": 1})
        worker = Telemetry()
        worker.section("loop.B", {"ops": 2})
        parent.merge(worker.snapshot())
        assert set(parent.sections) == {"loop.A", "loop.B"}

    def test_null_telemetry_section_is_noop(self):
        tel = NullTelemetry()
        tel.section("loop.L", {"ops": 5})
        assert tel.snapshot()["sections"] == {}


class TestMergeSchema:
    def test_unknown_schema_rejected(self):
        tel = Telemetry()
        with pytest.raises(VectraError, match="vectra.run-report/99"):
            tel.merge({"schema": "vectra.run-report/99", "counters": {}})

    def test_missing_schema_rejected(self):
        tel = Telemetry()
        with pytest.raises(VectraError, match="None"):
            tel.merge({"counters": {"c": 1}})

    def test_v1_snapshot_accepted(self):
        tel = Telemetry()
        tel.merge({"schema": "vectra.run-report/1",
                   "spans": {"s": {"total_s": 0.5, "calls": 1,
                                   "max_s": 0.5}},
                   "counters": {"c": 2}, "gauges": {"g": 1.0}})
        assert tel.counters == {"c": 2}
        assert tel.spans["s"] == [0.5, 1, 0.5]

    def test_telemetry_objects_skip_schema_check(self):
        tel = Telemetry()
        other = Telemetry()
        other.count("c")
        tel.merge(other)  # live objects are trusted; only dicts carry tags
        assert tel.counters == {"c": 1}


class TestMergeAssociativity:
    """Acceptance: merging N worker snapshots in any order equals the
    serial aggregate — spans, counters, gauges, and sections."""

    @staticmethod
    def make_worker(i):
        tel = Telemetry()
        # exactly-representable span times so float sums are order-proof
        tel._record_span("loop.rerun", 0.0, 0.25 * (i + 1))
        tel._record_span(f"only.w{i}", 0.0, 0.5)
        tel.count("trace.records.kept", 10 * (i + 1))
        tel.count("shared", 1)
        tel.gauge("mem.peak_rss_kb", 100.0 * (i + 1))
        tel.section(f"loop.w{i}", {"ops": i})
        return tel

    def test_any_merge_order_matches_serial(self):
        workers = [self.make_worker(i) for i in range(3)]
        snaps = [w.snapshot() for w in workers]

        serial = Telemetry()
        for w in workers:
            for name, (total, calls, mx) in w.spans.items():
                serial.spans.setdefault(name, [0.0, 0, 0.0])
                serial.spans[name][0] += total
                serial.spans[name][1] += calls
                serial.spans[name][2] = max(serial.spans[name][2], mx)
            for name, n in w.counters.items():
                serial.count(name, n)
            for name, v in w.gauges.items():
                serial.gauge(name, v)
            for name, data in w.sections.items():
                serial.section(name, data)
        expected = serial.snapshot()

        for perm in itertools.permutations(range(3)):
            merged = Telemetry()
            for i in perm:
                merged.merge(snaps[i])
            assert merged.snapshot() == expected, perm

    def test_pairwise_grouping_matches_flat(self):
        snaps = [self.make_worker(i).snapshot() for i in range(4)]
        flat = Telemetry()
        for snap in snaps:
            flat.merge(snap)
        left, right = Telemetry(), Telemetry()
        left.merge(snaps[0])
        left.merge(snaps[1])
        right.merge(snaps[2])
        right.merge(snaps[3])
        left.merge(right.snapshot())
        assert left.snapshot() == flat.snapshot()


class TestHistogram:
    def test_observe_tracks_exact_stats(self):
        h = Histogram()
        for v in (0.25, 0.5, 1.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == 5.75
        assert h.vmin == 0.25
        assert h.vmax == 4.0
        assert h.mean == 5.75 / 4

    def test_empty_percentile_is_none(self):
        h = Histogram()
        assert h.percentile(0.5) is None
        assert h.mean is None

    def test_single_sample_exact_at_every_quantile(self):
        h = Histogram()
        h.observe(0.37)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert h.percentile(q) == 0.37

    def test_percentile_within_bucket_error(self):
        """Log bucketing at 4 buckets/doubling bounds relative error
        around 10%; check against the true empirical quantiles."""
        values = [0.001 * (i + 1) for i in range(1000)]
        h = Histogram()
        for v in values:
            h.observe(v)
        for q in (0.5, 0.9, 0.99):
            true = values[math.ceil(q * len(values)) - 1]
            est = h.percentile(q)
            assert abs(est - true) / true < 0.11, (q, est, true)

    def test_zeros_and_negatives_counted_separately(self):
        h = Histogram()
        h.observe(0.0, n=3)
        h.observe(-1.0)
        h.observe(2.0)
        assert h.count == 5
        assert h.zeros == 4
        assert sum(h.buckets.values()) == 1
        # over half the mass is at <= 0: the zeros bucket estimates 0.0
        assert h.percentile(0.5) == 0.0
        assert h.vmin == -1.0
        assert h.percentile(1.0) == 2.0

    def test_snapshot_roundtrip(self):
        h = Histogram()
        for v in (0.25, 0.5, 0.5, 3.0, 0.0):
            h.observe(v)
        snap = h.snapshot()
        json.dumps(snap)  # JSON-safe as-is (string bucket keys)
        back = Histogram.from_snapshot(snap)
        assert back.snapshot() == snap
        assert back.percentile(0.9) == h.percentile(0.9)

    def test_merge_is_commutative_and_associative(self):
        """Bucketing is a pure function of the value, so every merge
        order must produce the identical snapshot (values chosen
        exactly representable so float sums are order-proof)."""
        def make(i):
            h = Histogram()
            h.observe(0.25 * (i + 1), n=i + 1)
            h.observe(0.5)
            if i == 0:
                h.observe(0.0)
            return h

        parts = [make(i) for i in range(3)]
        serial = Histogram()
        for part in parts:
            serial.merge(part)
        expected = serial.snapshot()

        for perm in itertools.permutations(range(3)):
            merged = Histogram()
            for i in perm:
                merged.merge(parts[i].snapshot())
            assert merged.snapshot() == expected, perm

        # associativity: (a + b) + c == a + (b + c)
        left = Histogram()
        left.merge(parts[0])
        left.merge(parts[1])
        left.merge(parts[2])
        bc = Histogram()
        bc.merge(parts[1])
        bc.merge(parts[2])
        right = Histogram()
        right.merge(parts[0])
        right.merge(bc.snapshot())
        assert left.snapshot() == right.snapshot() == expected


class TestTelemetryHistograms:
    def test_observe_creates_and_accumulates(self):
        tel = Telemetry()
        tel.observe("chunk.nodes", 4.0)
        tel.observe("chunk.nodes", 16.0, n=2)
        hist = tel.histograms["chunk.nodes"]
        assert hist.count == 3
        assert hist.vmax == 16.0

    def test_hist_span_records_span_and_histogram(self):
        tel = Telemetry()
        with tel.span("loop.analyze", hist=True):
            pass
        with tel.span("loop.analyze", hist=True):
            pass
        assert tel.spans["loop.analyze"][1] == 2
        assert tel.histograms["loop.analyze"].count == 2

    def test_plain_span_records_no_histogram(self):
        tel = Telemetry()
        with tel.span("stage"):
            pass
        assert "stage" not in tel.histograms

    def test_snapshot_carries_histograms_and_schema_v4(self):
        tel = Telemetry()
        tel.observe("h", 1.0)
        snap = tel.snapshot()
        assert snap["schema"] == "vectra.run-report/4"
        assert snap["histograms"]["h"]["count"] == 1
        json.dumps(snap)

    def test_merge_histograms_any_order_matches_serial(self):
        def worker(i):
            tel = Telemetry()
            tel.observe("lat", 0.25 * (i + 1), n=i + 1)
            return tel

        workers = [worker(i) for i in range(3)]
        serial = Telemetry()
        for w in workers:
            serial.histograms.setdefault(
                "lat", type(w.histograms["lat"])()
            ).merge(w.histograms["lat"])
        expected = serial.snapshot()["histograms"]

        snaps = [w.snapshot() for w in workers]
        for perm in itertools.permutations(range(3)):
            merged = Telemetry()
            for i in perm:
                merged.merge(snaps[i])
            assert merged.snapshot()["histograms"] == expected, perm

    def test_merge_accepts_older_schemas_without_histograms(self):
        tel = Telemetry()
        tel.observe("h", 1.0)
        for version in ("1", "2", "3"):
            tel.merge({"schema": f"vectra.run-report/{version}",
                       "counters": {"c": 1}})
        assert tel.counters["c"] == 3
        assert tel.histograms["h"].count == 1

    def test_sample_tables_merge_by_sum(self):
        parent = Telemetry()
        parent.add_samples({"main;run": 2})
        worker = Telemetry()
        worker.add_samples({"main;run": 3, "main;spill": 1})
        snap = worker.snapshot()
        assert snap["samples"] == {"main;run": 3, "main;spill": 1}
        parent.merge(snap)
        assert parent.samples == {"main;run": 5, "main;spill": 1}

    def test_snapshot_omits_samples_key_when_empty(self):
        tel = Telemetry()
        tel.count("c")
        assert "samples" not in tel.snapshot()

    def test_format_table_hist_columns_and_section(self):
        tel = Telemetry()
        with tel.span("loop.analyze", hist=True):
            pass
        with tel.span("plain"):
            pass
        tel.observe("ddg.chunk_nodes", 64.0)
        table = tel.format_table()
        assert "p50_s" in table and "p95_s" in table
        assert "-- histograms --" in table
        assert "ddg.chunk_nodes" in table
        # non-hist spans show '-' placeholders in the new columns
        plain_line = next(ln for ln in table.splitlines()
                          if ln.startswith("plain"))
        assert "-" in plain_line.split()[-1]

    def test_format_table_tie_sort_is_stable_by_name(self):
        tel = Telemetry()
        tel._record_span("b.stage", 0.0, 0.5)
        tel._record_span("a.stage", 0.0, 0.5)
        tel._record_span("command.run", 0.0, 1.0)
        lines = [ln.split()[0]
                 for ln in tel.format_table().splitlines()[2:5]]
        assert lines == ["command.run", "a.stage", "b.stage"]

    def test_null_telemetry_histogram_noops(self):
        tel = NullTelemetry()
        tel.observe("h", 1.0)
        tel.add_samples({"x": 1})
        with tel.span("s", hist=True):
            pass
        snap = tel.snapshot()
        assert snap["histograms"] == {}
        assert "samples" not in snap or not snap.get("samples")


class TestNullTelemetry:
    def test_all_methods_are_noops(self):
        tel = NullTelemetry()
        with tel.span("s"):
            tel.count("c")
            tel.gauge("g", 1.0)
            tel.record_memory()
        tel.merge({"counters": {"c": 1}})
        snap = tel.snapshot()
        assert snap["counters"] == {} and snap["spans"] == {}
        assert not tel.enabled

    def test_null_span_is_reentrant(self):
        tel = NullTelemetry()
        s = tel.span("a")
        with s:
            with s:
                pass


class TestActiveTelemetry:
    def test_default_is_null(self):
        assert current_run().tel is NULL_TELEMETRY

    def test_set_and_restore(self):
        """Nested use_run scopes: the inner run is current inside, the
        outer one again after it, the default run after both."""
        outer = Run(tel=Telemetry())
        inner = Run(tel=Telemetry())
        with use_run(outer):
            with use_run(inner):
                assert current_run().tel is inner.tel
            assert current_run().tel is outer.tel
        assert current_run().tel is NULL_TELEMETRY

    def test_use_run_scopes(self):
        tel = Telemetry()
        with use_run(Run(tel=tel)) as run:
            assert current_run() is run
            assert current_run().tel is tel
        assert current_run().tel is NULL_TELEMETRY

    def test_set_none_resets_to_null(self):
        """A run without telemetry, scoped inside one with telemetry,
        records into the null telemetry."""
        with use_run(Run(tel=Telemetry())):
            with use_run(Run()):
                assert current_run().tel is NULL_TELEMETRY


class TestLogging:
    def test_logger_hierarchy(self):
        assert get_logger().name == "vectra"
        assert get_logger("pipeline").name == "vectra.pipeline"
        assert get_logger("pipeline").parent.name == "vectra"

    def test_configure_logging_idempotent(self):
        import io

        stream = io.StringIO()
        logger = configure_logging("info", stream=stream)
        configure_logging("info", stream=stream)
        ours = [h for h in logger.handlers
                if getattr(h, "_vectra_handler", False)]
        assert len(ours) == 1
        assert logger.level == logging.INFO
        get_logger("test").info("hello %s", "there")
        assert "hello there" in stream.getvalue()
        logger.removeHandler(ours[0])

    def test_unknown_level_raises_vectra_error(self):
        with pytest.raises(VectraError, match="unknown log level"):
            configure_logging("loud")


class TestPackageSurface:
    def test_cli_import_loads_no_optional_plane(self):
        """Only --monitor-port, --blackbox/autopsy and --flame need the
        HTTP monitor, the flight recorder and the flamegraph writer, so
        importing the CLI and listing the workloads loads none of them."""
        import os
        import subprocess
        import sys

        optional = ("http.server", "repro.obs.monitor",
                    "repro.obs.blackbox", "repro.obs.flamegraph")
        code = ("import sys\n"
                "import repro.tools.cli\n"
                "from repro.workloads import list_workloads\n"
                "list_workloads()\n"
                f"print([m for m in {optional!r} if m in sys.modules])\n")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
