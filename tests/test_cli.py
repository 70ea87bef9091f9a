"""CLI smoke tests (everything through main(argv))."""

import json

import pytest

from repro.tools.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCLI:
    def test_list(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        assert "gauss_seidel" in out
        assert "utdsp_fir_array" in out

    def test_list_category(self, capsys):
        code, out = run_cli(capsys, "list", "--category", "utdsp")
        assert code == 0
        assert "gauss_seidel" not in out
        assert "utdsp_iir_pointer" in out

    def test_analyze(self, capsys):
        code, out = run_cli(capsys, "analyze", "utdsp_fir_array",
                            "-p", "nout=16", "-p", "ntap=4")
        assert code == 0
        assert "fir_n" in out
        assert "Benchmark" in out

    def test_analyze_verbose_details(self, capsys):
        code, out = run_cli(capsys, "analyze", "utdsp_fir_array",
                            "-p", "nout=8", "-p", "ntap=4", "-v")
        assert code == 0
        assert "per-instruction detail" in out

    def test_decisions(self, capsys):
        code, out = run_cli(capsys, "decisions", "gauss_seidel")
        assert code == 0
        assert "refused" in out
        assert "loop-carried dependence" in out

    def test_speedup(self, capsys):
        code, out = run_cli(capsys, "speedup", "utdsp_mult_pointer",
                            "utdsp_mult_array")
        assert code == 0
        assert "speedup" in out

    def test_unknown_workload_fails_cleanly(self, capsys):
        code = main(["analyze", "no_such_kernel"])
        assert code == 1

    def test_trace_dump(self, capsys, tmp_path):
        out_path = str(tmp_path / "x.trace")
        code, out = run_cli(capsys, "trace", "utdsp_fir_array",
                            "--loop", "fir_n", "-o", out_path)
        assert code == 0
        assert "wrote" in out

    def test_trace_missing_instance_fails_without_writing(self, capsys,
                                                          tmp_path):
        out_path = tmp_path / "x.trace"
        code = main(["trace", "utdsp_fir_array", "--loop", "fir_n",
                     "--instance", "999", "-o", str(out_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert ("error: loop 'fir_n' instance 999 never executed"
                in captured.err)
        assert "wrote" not in captured.out
        assert not out_path.exists()

    def test_vlength(self, capsys):
        code, out = run_cli(capsys, "vlength", "utdsp_fir_array")
        assert code == 0
        assert "vector-length profile" in out
        assert "verdict" in out

    def test_opportunities(self, capsys):
        code, out = run_cli(capsys, "opportunities", "gauss_seidel")
        assert code == 0
        assert "static-transform" in out

    def test_opportunities_verbose_lists_reasons(self, capsys):
        code, out = run_cli(capsys, "opportunities", "gauss_seidel", "-v")
        assert code == 0
        assert "loop-carried" in out

    def test_analyze_relax_reductions(self, capsys):
        code, out = run_cli(capsys, "analyze", "sphinx3_subvq",
                            "--relax-reductions",
                            "-p", "codebook=8", "-p", "dim=8")
        assert code == 0
        assert "vq_c" in out

    def test_analyze_file(self, capsys, tmp_path):
        src = tmp_path / "k.c"
        src.write_text(
            "double A[8]; int main() { int i; "
            "L: for (i=0;i<8;i++) A[i] = (double)i * 2.0; return 0; }"
        )
        code, out = run_cli(capsys, "analyze-file", str(src), "--loop", "L")
        assert code == 0
        assert "L" in out

    @pytest.mark.parametrize("threshold", ["2", "10", "-0.5"])
    def test_analyze_file_threshold_outside_unit_range_fails(
            self, capsys, tmp_path, threshold):
        """``--threshold`` is a fraction of the cycles: ``10`` for 10%
        would print an empty table, a negative value every loop."""
        src = tmp_path / "k.c"
        src.write_text(
            "double A[8]; int main() { int i; "
            "L: for (i=0;i<8;i++) A[i] = (double)i * 2.0; return 0; }"
        )
        assert main(["analyze-file", str(src),
                     "--threshold", threshold]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[0, 1]" in captured.err


class TestRunOptions:
    """--jobs / --fuel plumbing through the analysis subcommands."""

    def test_analyze_jobs_output_identical(self, capsys):
        argv = ["analyze", "gemsfdtd_update"]
        code1, serial = run_cli(capsys, *argv, "--jobs", "1")
        code2, parallel = run_cli(capsys, *argv, "--jobs", "2")
        assert code1 == code2 == 0
        assert parallel == serial

    def test_analyze_file_jobs_output_identical(self, capsys, tmp_path):
        src = tmp_path / "k.c"
        src.write_text(
            "double A[16]; double B[16];\n"
            "int main() { int i;\n"
            "  P: for (i=0;i<16;i++) A[i] = (double)i * 2.0;\n"
            "  Q: for (i=0;i<16;i++) B[i] = A[i] + 1.0;\n"
            "  return 0; }\n"
        )
        code1, serial = run_cli(capsys, "analyze-file", str(src),
                                "--jobs", "1")
        code2, parallel = run_cli(capsys, "analyze-file", str(src),
                                  "--jobs", "2")
        assert code1 == code2 == 0
        assert parallel == serial

    def test_fuel_exhaustion_fails_cleanly(self, capsys):
        code = main(["analyze", "utdsp_fir_array", "--fuel", "50"])
        err = capsys.readouterr().err
        assert code == 1
        assert "instruction budget exhausted" in err
        assert "--fuel" in err

    def test_trace_fuel_exhaustion_fails_cleanly(self, capsys, tmp_path):
        out_path = str(tmp_path / "x.trace")
        code = main(["trace", "utdsp_fir_array", "--loop", "fir_n",
                     "-o", out_path, "--fuel", "50"])
        err = capsys.readouterr().err
        assert code == 1
        assert "instruction budget exhausted" in err

    def test_generous_fuel_unchanged_output(self, capsys):
        argv = ["analyze", "utdsp_mult_array"]
        code1, default = run_cli(capsys, *argv)
        code2, explicit = run_cli(capsys, *argv, "--fuel", "100000000")
        assert code1 == code2 == 0
        assert explicit == default

    def test_vlength_fuel_exhaustion_fails_cleanly(self, capsys):
        code = main(["vlength", "utdsp_fir_array", "--fuel", "50"])
        err = capsys.readouterr().err
        assert code == 1
        assert "instruction budget exhausted" in err

    def test_baselines_fuel_exhaustion_fails_cleanly(self, capsys):
        code = main(["baselines", "utdsp_fir_array", "--fuel", "50"])
        assert code == 1
        assert "instruction budget exhausted" in capsys.readouterr().err

    def test_dot_fuel_exhaustion_fails_cleanly(self, capsys, tmp_path):
        out = str(tmp_path / "g.dot")
        code = main(["dot", "utdsp_fir_array", "--loop", "fir_n",
                     "-o", out, "--fuel", "50"])
        assert code == 1
        assert "instruction budget exhausted" in capsys.readouterr().err

    def test_opportunities_fuel_exhaustion_fails_cleanly(self, capsys):
        code = main(["opportunities", "gauss_seidel", "--fuel", "50"])
        assert code == 1
        assert "instruction budget exhausted" in capsys.readouterr().err


class TestBadParams:
    def test_missing_equals_fails_cleanly(self, capsys):
        code = main(["analyze", "utdsp_fir_array", "-p", "nout"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: bad parameter 'nout'")
        assert "NAME=INT" in err

    def test_non_integer_value_fails_cleanly(self, capsys):
        code = main(["analyze", "utdsp_fir_array", "-p", "nout=abc"])
        err = capsys.readouterr().err
        assert code == 1
        assert "bad parameter 'nout=abc'" in err
        assert "Traceback" not in err

    def test_empty_name_fails_cleanly(self, capsys):
        code = main(["analyze", "utdsp_fir_array", "-p", "=4"])
        assert code == 1
        assert "bad parameter" in capsys.readouterr().err


class TestObservability:
    """--profile / --metrics-json / --log-level on the subcommands."""

    REQUIRED_STAGES = ["frontend.parse_lower", "profile.run",
                       "loop.rerun", "ddg.build", "algorithm1", "stride"]

    def test_profile_prints_stage_table(self, capsys):
        code = main(["analyze", "utdsp_fir_array", "--profile",
                     "-p", "nout=16", "-p", "ntap=4"])
        captured = capsys.readouterr()
        assert code == 0
        assert "fir_n" in captured.out  # report unchanged, on stdout
        for stage in self.REQUIRED_STAGES:
            assert stage in captured.err
        assert "trace.records.kept" in captured.err
        assert "mem.peak_rss_kb" in captured.err

    def test_profile_off_prints_no_table(self, capsys):
        code = main(["analyze", "utdsp_fir_array",
                     "-p", "nout=16", "-p", "ntap=4"])
        captured = capsys.readouterr()
        assert code == 0
        assert "-- stages --" not in captured.err

    def test_metrics_json_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["analyze", "utdsp_fir_array", "--metrics-json",
                     str(path), "-p", "nout=16", "-p", "ntap=4"])
        assert code == 0
        report = json.loads(path.read_text())
        assert report["schema"] == "vectra.run-report/4"
        assert report["command"] == "analyze"
        assert report["exit_code"] == 0
        counters = report["counters"]
        assert counters["trace.records.kept"] > 0
        assert counters["ddg.nodes"] > 0
        assert counters["ddg.edges"] > 0
        assert counters["algorithm1.partitions"] > 0
        for stage in self.REQUIRED_STAGES:
            assert stage in report["spans"]
        # v2: self-contained per-loop result sections.
        section = report["sections"]["loop.fir_n"]
        assert section["records_traced"] > 0
        assert section["candidate_ops"] > 0
        assert section["partitions"] > 0
        assert section["avg_vec_size_unit"] > 0

    def test_metrics_json_counters_identical_across_jobs(self, tmp_path,
                                                         capsys):
        """Acceptance: --jobs 1 and --jobs 4 produce identical counter
        totals (worker telemetry merged into the parent), the compile
        counters included: the program runs once, in the parent, either
        way."""
        paths = {}
        for jobs in ("1", "4"):
            path = tmp_path / f"j{jobs}.json"
            code = main(["analyze", "gemsfdtd_update", "--jobs", jobs,
                         "--metrics-json", str(path)])
            assert code == 0
            paths[jobs] = json.loads(path.read_text())
        capsys.readouterr()

        def counters(report):
            # The fallback event counter marks parent-side degradation,
            # not analysis work; everything else must match exactly.
            return {k: v for k, v in report["counters"].items()
                    if not k.startswith("pipeline.pool")}

        c1, c4 = counters(paths["1"]), counters(paths["4"])
        assert c1 == c4
        for key in ("trace.records.kept", "ddg.nodes", "ddg.edges",
                    "algorithm1.partitions", "interp.compile.kernels",
                    "interp.compile.batches"):
            assert c1[key] > 0
        assert c1["interp.runs"] == 1

        def loop_sections(report):
            return {k: v for k, v in report["sections"].items()
                    if k.startswith("loop.")}

        assert loop_sections(paths["1"]) == loop_sections(paths["4"])
        assert len(loop_sections(paths["1"])) == 2

    def test_metrics_json_on_error_still_written(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["analyze", "utdsp_fir_array", "--fuel", "50",
                     "--metrics-json", str(path)])
        assert code == 1
        report = json.loads(path.read_text())
        assert report["exit_code"] == 1

    def test_metrics_json_unwritable_path_fails_cleanly(self, capsys,
                                                        tmp_path):
        path = tmp_path / "nope" / "report.json"
        code = main(["analyze", "utdsp_fir_array", "--metrics-json",
                     str(path), "-p", "nout=16", "-p", "ntap=4"])
        assert code == 1
        assert "cannot write metrics report" in capsys.readouterr().err

    def test_profile_available_on_trace_subcommand(self, capsys,
                                                   tmp_path):
        out = str(tmp_path / "x.trace")
        code = main(["trace", "utdsp_fir_array", "--loop", "fir_n",
                     "-o", out, "--profile"])
        captured = capsys.readouterr()
        assert code == 0
        assert "command.trace" in captured.err
        assert "loop.rerun" in captured.err

    def test_bad_log_level_fails_cleanly(self, capsys):
        code = main(["analyze", "utdsp_fir_array", "--log-level", "loud"])
        err = capsys.readouterr().err
        assert code == 1
        assert "unknown log level" in err

    def test_log_level_enables_vectra_warnings(self, capsys):
        code = main(["analyze", "utdsp_fir_array", "--log-level", "debug",
                     "--fuel", "50"])
        err = capsys.readouterr().err
        assert code == 1
        assert "vectra.interp" in err
        assert "fuel exhausted" in err


class TestLiveStatus:
    """--status-json / --progress / watch and the stdout-collision rule."""

    ARGS = ["analyze", "utdsp_fir_array", "-p", "nout=16", "-p", "ntap=4"]

    def test_status_json_emits_valid_frames(self, capsys, tmp_path):
        from repro.obs.live import read_frames, validate_frames

        path = tmp_path / "st.jsonl"
        code = main(self.ARGS + ["--status-json", str(path),
                                 "--status-interval", "0.05"])
        capsys.readouterr()
        assert code == 0
        frames = read_frames(str(path))
        validate_frames(frames, source=str(path))
        final = frames[-1]
        assert final["event"] == "done"
        assert final["exit_code"] == 0
        assert final["progress"]["loops"] == {"done": 1, "total": 1}
        assert final["progress"]["records"]["done"] > 0

    def test_status_json_leaves_stdout_identical(self, capsys, tmp_path):
        code_off, plain = run_cli(capsys, *self.ARGS)
        code_on, live = run_cli(capsys, *self.ARGS, "--status-json",
                                str(tmp_path / "st.jsonl"), "--progress")
        assert code_off == code_on == 0
        assert live == plain

    def test_done_frame_records_failure_exit_code(self, capsys, tmp_path):
        from repro.obs.live import read_frames

        path = tmp_path / "st.jsonl"
        code = main(["analyze", "utdsp_fir_array", "--fuel", "50",
                     "--status-json", str(path)])
        capsys.readouterr()
        assert code == 1
        final = read_frames(str(path))[-1]
        assert final["event"] == "done"
        assert final["exit_code"] == 1

    def test_failing_pool_run_retires_every_worker(self, capsys, tmp_path,
                                                   monkeypatch):
        # A pool worker that raises must not leave its entry live: the
        # final frame lists every worker as done, whatever the exit.
        # The program runs in the parent before the pool starts, so the
        # workers fail where they work: in the windows' metrics, which
        # fork workers inherit patched.
        import repro.analysis.pipeline as pipeline_mod
        from repro.errors import AnalysisError
        from repro.obs.live import read_frames

        def failing_metrics(*args, **kwargs):
            raise AnalysisError("metrics failed in the worker")

        monkeypatch.setattr(pipeline_mod, "loop_metrics", failing_metrics)
        args = ["analyze", "gemsfdtd_update"]
        code_serial = main(args + ["-j", "1"])
        err_serial = capsys.readouterr().err
        path = tmp_path / "st.jsonl"
        code_pool = main(args + ["-j", "2", "--status-json", str(path)])
        err_pool = capsys.readouterr().err

        def errors(text):
            return [ln for ln in text.splitlines()
                    if ln.startswith("error:")]

        assert code_serial == code_pool == 1
        assert errors(err_pool) == errors(err_serial)
        assert "metrics failed in the worker" in errors(err_pool)[0]
        final = read_frames(str(path))[-1]
        assert final["event"] == "done"
        assert final["exit_code"] == 1
        assert final["workers"]
        assert all(w["state"] == "done" for w in final["workers"])

    def test_progress_paints_stderr(self, capsys):
        code = main(self.ARGS + ["--progress"])
        captured = capsys.readouterr()
        assert code == 0
        assert "[analyze]" in captured.err
        assert "rec " in captured.err

    def test_stdout_collision_names_both_flags(self, capsys):
        code = main(self.ARGS + ["--metrics-json", "-",
                                 "--status-json", "-"])
        err = capsys.readouterr().err
        assert code == 1
        assert "--metrics-json and --status-json" in err
        assert "interleave" in err

    def test_three_way_collision_names_all(self, capsys):
        code = main(self.ARGS + ["--metrics-json", "-", "--trace-json", "-",
                                 "--status-json", "-"])
        err = capsys.readouterr().err
        assert code == 1
        assert "--metrics-json and --trace-json and --status-json" in err

    def test_single_stdout_owner_allowed(self, capsys, tmp_path):
        code = main(self.ARGS + ["--metrics-json", "-",
                                 "--status-json", str(tmp_path / "s.jsonl")])
        out = capsys.readouterr().out
        assert code == 0
        assert '"schema": "vectra.run-report/4"' in out

    def test_bad_status_interval_fails_cleanly(self, capsys):
        code = main(self.ARGS + ["--progress", "--status-interval", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "--status-interval must be positive" in err


class TestSamplingCli:
    """--sample-hz / --flame wiring and their stdout-collision rule."""

    ARGS = ["analyze", "utdsp_fir_array", "-p", "nout=16", "-p", "ntap=4"]

    def test_flame_svg_written_with_confirmation(self, capsys, tmp_path):
        path = tmp_path / "flame.svg"
        code = main(self.ARGS + ["--sample-hz", "500",
                                 "--flame", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert path.read_text().startswith("<svg")
        assert "flamegraph (svg," in captured.err
        assert str(path) in captured.err

    def test_flame_dash_streams_folded_stdout(self, capsys):
        code = main(self.ARGS + ["--flame", "-", "--sample-hz", "500"])
        captured = capsys.readouterr()
        assert code == 0
        # folded lines land after the report text; no confirmation noise
        assert "flamegraph (" not in captured.err

    def test_flame_alone_enables_default_rate_sampling(self, capsys,
                                                       tmp_path):
        path = tmp_path / "flame.folded"
        code = main(self.ARGS + ["--flame", str(path), "--metrics-json",
                                 str(tmp_path / "m.json")])
        capsys.readouterr()
        assert code == 0
        import json as _json

        report = _json.loads((tmp_path / "m.json").read_text())
        assert "sampling.samples" in report["counters"]

    def test_pooled_sample_counts_match_folded_total(self, capsys,
                                                     tmp_path):
        """Loop-pool workers ship their sample counts home with their
        sample tables, so the run report counts every folded sample."""
        flame = tmp_path / "flame.folded"
        metrics = tmp_path / "m.json"
        code = main(["analyze", "gemsfdtd_update", "-j", "2",
                     "--sample-hz", "500", "--flame", str(flame),
                     "--metrics-json", str(metrics)])
        capsys.readouterr()
        assert code == 0
        import json as _json

        folded = [line.rsplit(" ", 1)
                  for line in flame.read_text().splitlines()]
        total = sum(int(n) for _, n in folded)
        ir = sum(int(n) for stack, n in folded if "[ir] " in stack)
        counters = _json.loads(metrics.read_text())["counters"]
        assert counters["sampling.samples"] == total > 0
        assert counters["sampling.ir_samples"] >= ir

    def test_done_frame_counts_samples(self, capsys, tmp_path):
        """The run's sampler is still attached when the final frame is
        cut, so the frame counts its samples."""
        from repro.obs.live import read_frames

        path = tmp_path / "st.jsonl"
        code = main(self.ARGS + ["--sample-hz", "500",
                                 "--status-json", str(path)])
        capsys.readouterr()
        assert code == 0
        final = read_frames(str(path))[-1]
        assert final["event"] == "done"
        samples = final["resources"]["profiler_samples"]
        assert isinstance(samples, int) and not isinstance(samples, bool)

    def test_bad_sample_hz_fails_cleanly(self, capsys):
        code = main(self.ARGS + ["--sample-hz", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "--sample-hz must be positive" in err

    def test_flame_metrics_collision_names_both(self, capsys):
        code = main(self.ARGS + ["--metrics-json", "-", "--flame", "-"])
        err = capsys.readouterr().err
        assert code == 1
        assert "--metrics-json and --flame" in err
        assert "interleave" in err

    def test_flame_dash_with_metrics_file_allowed(self, capsys, tmp_path):
        code = main(self.ARGS + ["--flame", "-", "--metrics-json",
                                 str(tmp_path / "m.json")])
        capsys.readouterr()
        assert code == 0

    def test_watch_validate(self, capsys, tmp_path):
        path = tmp_path / "st.jsonl"
        code = main(self.ARGS + ["--status-json", str(path)])
        capsys.readouterr()
        assert code == 0
        code, out = run_cli(capsys, "watch", str(path), "--validate")
        assert code == 0
        assert "valid vectra.live/2 frame(s)" in out

    def test_watch_validate_rejects_truncated_run(self, capsys, tmp_path):
        path = tmp_path / "st.jsonl"
        code = main(self.ARGS + ["--status-json", str(path)])
        capsys.readouterr()
        lines = path.read_text().strip().split("\n")
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop done frame
        code = main(["watch", str(path), "--validate"])
        err = capsys.readouterr().err
        assert code == 1
        assert "never finished" in err

    def test_watch_once_renders_dashboard(self, capsys, tmp_path):
        path = tmp_path / "st.jsonl"
        code = main(self.ARGS + ["--status-json", str(path)])
        capsys.readouterr()
        code, out = run_cli(capsys, "watch", str(path), "--once")
        assert code == 0
        assert "vectra analyze" in out
        assert "records" in out

    def test_watch_once_empty_file(self, capsys, tmp_path):
        path = tmp_path / "st.jsonl"
        path.write_text("")
        code, out = run_cli(capsys, "watch", str(path), "--once")
        assert code == 0
        assert "no complete status frames yet" in out

    def test_watch_malformed_file_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "st.jsonl"
        path.write_text('{"schema":"vectra.live/2","seq":0}\n{garbage\n'
                        '{"schema":"vectra.live/2","seq":1}\n')
        code = main(["watch", str(path), "--validate"])
        err = capsys.readouterr().err
        assert code == 1
        assert "malformed status frame" in err
