"""``vectra`` command-line interface.

Subcommands:

- ``list`` — registered workloads (optionally by category).
- ``analyze <workload>`` — run the dynamic analysis on a workload's
  configured loops and print the Table-1-style rows.
- ``analyze-file <path> [--loop NAME]`` — analyze a mini-C source file.
- ``decisions <workload>`` — print the static vectorizer's per-loop
  verdicts with reasons.
- ``speedup <orig> <transformed>`` — simulated Table-4-style speedups on
  the three machine models.
- ``trace <workload> --loop NAME [-o DIR]`` — write a loop subtrace to
  disk as a segment store, for ``analyze-trace <store> --source SRC``.
- ``explain <workload> [--loop NAME]`` — drill-down evidence report:
  dependence witnesses, stride-break provenance with layout culprits,
  and the static refusal reasons cross-examined against the trace.
- ``compare <base> <head>`` — diff two run reports, or gate the latest
  entry of a ``--ledger`` against the median and spread of the earlier
  ones; ``--fail-on`` thresholds (in percent, absolute units or
  spreads, over a metric name or an ``fnmatch`` pattern) make the exit
  code nonzero, and ``--json`` emits the ``vectra.compare/2`` delta
  document.
- ``watch <status.jsonl>`` — tail a ``--status-json`` file from another
  run into a live terminal dashboard (``--validate`` instead checks
  every frame against the ``vectra.live/2`` schema — the CI gate).

Every subcommand additionally accepts the observability options:
``--profile`` (stage/counter table on stderr after the run),
``--metrics-json PATH`` (versioned machine-readable run report; ``-``
writes to stdout), ``--metrics-append LEDGER.jsonl`` (accumulate run
reports across invocations), ``--trace-json PATH`` (Chrome trace-event
timeline for Perfetto/``chrome://tracing``; ``-`` writes to stdout),
``--log-level LEVEL`` (the ``vectra.*`` logger hierarchy — surfaces
e.g. pool-to-serial fallbacks and fuel exhaustion as warnings), and the
live-status options ``--status-json PATH`` (stream ``vectra.live/2``
status frames, one JSON line per ``--status-interval``; ``-`` for
stdout, ``fd:N`` for an inherited descriptor), ``--stall-timeout S``
(flag pool workers silent past S seconds), and ``--progress``
(single-line live progress on stderr).

Deep profiling rides the same options: ``--sample-hz N`` starts the
timer-thread sampling profiler (pool workers sample themselves and ship
their tables home), and ``--flame PATH`` exports the samples — with
workload-IR (loop, sid) leaf frames — as a flamegraph SVG/HTML or
collapsed-stack folded text, picked by suffix (``-`` streams folded
text to stdout).  ``--flame`` alone implies sampling at the default
rate.

At most one of ``--metrics-json`` / ``--trace-json`` /
``--status-json`` / ``--flame`` / ``compare --json`` may
target ``-``: two JSON documents interleaved on stdout are corrupt, so
the CLI refuses the combination up front, naming the colliding flags.

``analyze``, ``analyze-file``, ``explain`` and ``vlength`` run the
program once to record the windows of all of their loops (a profile run
comes first when ``analyze-file`` picks the hot loops itself);
``baselines``, ``dot`` and ``trace`` record their one loop's window the
same way.  ``analyze`` and
``analyze-file`` accept ``--jobs N``: the recorded windows are then
analyzed across N worker processes (byte-identical reports).  They
additionally accept ``--spill-dir DIR`` / ``--segment-rows N``: the
windows stream through the out-of-core segment store (bit-identical
reports, bounded trace memory; the windows are then analyzed one at a
time, so ``--jobs`` has no effect).
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import VectraError


def _cmd_list(args) -> int:
    from repro.workloads import list_workloads

    for w in list_workloads(args.category):
        print(f"{w.name:28} [{w.category:9}] {w.description}")
        if args.verbose and w.models:
            print(f"{'':28} models: {w.models}")
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis.report import LoopReport
    from repro.workloads import get_workload

    workload = get_workload(args.workload)
    params = _parse_params(args.param)
    report = workload.analyze(
        include_integer=args.integer,
        relax_reductions=args.relax_reductions,
        **_run_opts(args),
        **params,
    )
    print(LoopReport.header())
    for loop in report.loops:
        print(loop.row())
    if args.verbose:
        for loop in report.loops:
            print(f"\n-- {loop.loop_name}: per-instruction detail")
            for instr in loop.instructions:
                print(
                    f"   sid {instr.sid:5} {instr.mnemonic:5} line "
                    f"{instr.line:4}  inst {instr.num_instances:7} "
                    f"parts {instr.num_partitions:6} "
                    f"avg {instr.avg_partition_size:9.1f} "
                    f"unit {instr.unit_vec_ops:7} "
                    f"nonunit {instr.nonunit_vec_ops:7}"
                )
    return 0


def _cmd_analyze_file(args) -> int:
    from repro.analysis.pipeline import analyze_program

    with open(args.path) as fh:
        source = fh.read()
    report = analyze_program(source, args.path,
                             [args.loop] if args.loop else None,
                             threshold=args.threshold, **_run_opts(args))
    print(report.table())
    return 0


def _cmd_decisions(args) -> int:
    from repro.frontend import parse_source
    from repro.vectorizer import analyze_program_loops
    from repro.workloads import get_workload

    workload = get_workload(args.workload)
    program, analyzer = parse_source(workload.source())
    for decision in analyze_program_loops(program, analyzer):
        verdict = "VECTORIZED" if decision.vectorized else "refused"
        print(f"{decision.name:24} {verdict}")
        for reason in decision.reasons:
            print(f"{'':24}   - {reason}")
    return 0


def _cmd_speedup(args) -> int:
    from repro.simd import MACHINES
    from repro.simd.simulate import simulate_speedup
    from repro.workloads import get_workload

    orig = get_workload(args.original).source()
    new = get_workload(args.transformed).source()
    for name, machine in MACHINES.items():
        s = simulate_speedup(orig, new, machine)
        print(f"{machine.name:32} speedup {s:5.2f}x")
    return 0


def _cmd_vlength(args) -> int:
    from repro.analysis.pipeline import find_loop, record_windows
    from repro.analysis.vlength import vector_length_profile
    from repro.workloads import get_workload

    workload = get_workload(args.workload)
    module = workload.compile()
    loops = [args.loop] if args.loop else workload.analyze_loops
    windows, _ = record_windows(
        module, [(find_loop(module, name).loop_id, name) for name in loops],
        workload.entry, **_run_opts(args))
    for loop_name, window in zip(loops, windows):
        profile = vector_length_profile(window.ddg(), module, loop_name)
        print(profile.table())
        print()
    return 0


def _cmd_opportunities(args) -> int:
    from repro.analysis.opportunities import classify_program
    from repro.frontend import parse_source
    from repro.frontend.lower import lower
    from repro.interp import Interpreter
    from repro.ir.verifier import verify_module
    from repro.vectorizer import analyze_program_loops
    from repro.workloads import get_workload

    workload = get_workload(args.workload)
    source = workload.source()
    program, analyzer = parse_source(source)
    module = lower(analyzer, workload.name)
    verify_module(module)
    decisions = analyze_program_loops(program, analyzer)
    interp = Interpreter(module, **_run_opts(args))
    interp.run(workload.entry)
    # analyze() recompiles internally but fills percent_packed per loop.
    reports = workload.analyze(**_run_opts(args)).loops
    for opp in classify_program(reports, decisions, module,
                                interp.dyn_parent):
        print(opp.row())
        if args.verbose:
            for reason in opp.reasons:
                print(f"{'':22} - {reason}")
    return 0


def _cmd_trace(args) -> int:
    from repro.analysis.pipeline import find_loop, record_windows
    from repro.workloads import get_workload

    workload = get_workload(args.workload)
    module = workload.compile()
    info = find_loop(module, args.loop)
    [window], _ = record_windows(
        module, [(info.loop_id, args.loop)], workload.entry,
        instance=args.instance, spill_dir=args.output, **_run_opts(args))
    store = window.trace
    print(f"wrote {len(store)} records to {store.path}")
    return 0


def _cmd_analyze_trace(args) -> int:
    """Offline analysis of a previously written trace store (the paper's
    collect-then-analyze workflow)."""
    from repro.analysis.metrics import loop_metrics
    from repro.analysis.report import LoopReport
    from repro.frontend.driver import compile_source
    from repro.trace.store import open_store

    with open(args.source) as fh:
        module = compile_source(fh.read(), args.source)
    ddg = open_store(args.trace).to_ddg()
    report = loop_metrics(ddg, module, args.trace,
                          include_integer=args.integer)
    print(LoopReport.header())
    print(report.row())
    return 0


def _cmd_baselines(args) -> int:
    """Compare Algorithm 1 against the Kumar and Larus baselines on one
    loop — the paper's §2 argument, on demand."""
    from repro.analysis.kumar import kumar_profile
    from repro.analysis.larus import larus_loop_parallelism, node_iterations
    from repro.analysis.pipeline import find_loop, record_windows
    from repro.analysis.timestamps import (
        average_partition_size,
        batched_parallel_partitions,
    )
    from repro.analysis.candidates import candidate_sids
    from repro.workloads import get_workload

    workload = get_workload(args.workload)
    module = workload.compile()
    loop_name = args.loop or workload.analyze_loops[0]
    info = find_loop(module, loop_name)
    [window], _ = record_windows(module, [(info.loop_id, loop_name)],
                                 workload.entry, **_run_opts(args))
    # The markers are no DDG nodes: read the iterations off the window
    # before its DDG lets the columns go.
    iterations = node_iterations(window.trace, info.loop_id)
    ddg = window.ddg()

    profile = kumar_profile(ddg, weights="candidates")
    larus = larus_loop_parallelism(ddg, iterations, info.loop_id)
    print(f"loop {loop_name}: {len(ddg)} DDG nodes")
    print(f"  Kumar critical path (FP ops):   {profile.critical_path}")
    print(f"  Kumar average parallelism:      "
          f"{profile.average_parallelism:.2f}")
    print(f"  Larus loop-level parallelism:   {larus.parallelism:.2f}")
    sids = candidate_sids(ddg)
    partitions_by_sid = batched_parallel_partitions(ddg, sids)
    for sid in sids:
        parts = partitions_by_sid[sid]
        instr = module.instruction(sid)
        print(f"  Algorithm 1 [{instr.mnemonic} line {instr.line}]: "
              f"{len(parts)} partitions, avg size "
              f"{average_partition_size(parts):.1f}")
    return 0


def _cmd_dot(args) -> int:
    from repro.analysis.pipeline import find_loop, windowed_loop_ddg
    from repro.analysis.timestamps import compute_all_timestamps
    from repro.ddg.dot import ddg_to_dot
    from repro.workloads import get_workload

    workload = get_workload(args.workload)
    module = workload.compile(**_parse_params(args.param))
    info = find_loop(module, args.loop)
    ddg, _, _ = windowed_loop_ddg(module, info.loop_id, args.loop,
                                  workload.entry, **_run_opts(args))
    highlight = None
    timestamps = None
    if args.highlight_line is not None:
        from repro.analysis.candidates import candidate_sids

        for sid in candidate_sids(ddg):
            if module.instruction(sid).line == args.highlight_line:
                highlight = sid
                timestamps = compute_all_timestamps(ddg, [sid])[sid]
                break
        if highlight is None:
            raise VectraError(
                f"no candidate instruction at line {args.highlight_line}"
            )
    dot = ddg_to_dot(ddg, module, highlight, timestamps)
    with open(args.output, "w") as fh:
        fh.write(dot)
    print(f"wrote {len(ddg)}-node graph to {args.output}")
    return 0


def _cmd_explain(args) -> int:
    from repro.analysis.opportunities import subtree_reasons
    from repro.analysis.pipeline import find_loop, record_windows
    from repro.explain import explain_loop, render_explain
    from repro.frontend import parse_source
    from repro.frontend.lower import lower
    from repro.ir.verifier import verify_module
    from repro.vectorizer import analyze_program_loops
    from repro.workloads import get_workload

    workload = get_workload(args.workload)
    source = workload.source(**_parse_params(args.param))
    program, analyzer = parse_source(source)
    module = lower(analyzer, workload.name)
    verify_module(module)
    decisions = analyze_program_loops(program, analyzer)
    loops = [args.loop] if args.loop else workload.analyze_loops
    if not loops:
        raise VectraError(
            f"workload {workload.name!r} declares no analysis loops; "
            f"pass --loop NAME"
        )
    # One run records every loop's window, capturing every instruction.
    windows, _ = record_windows(
        module, [(find_loop(module, name).loop_id, name) for name in loops],
        workload.entry, instance=args.instance, **_run_opts(args))
    for idx, (loop_name, window) in enumerate(zip(loops, windows)):
        reasons = subtree_reasons(module, decisions, loop_name)
        report = explain_loop(module, loop_name, reasons,
                              entry=workload.entry,
                              instance=args.instance,
                              include_integer=args.integer, window=window)
        if idx:
            print()
        print(render_explain(report))
    return 0


def _cmd_compare(args) -> int:
    import json

    from repro.obs.compare import (
        compare_json_doc,
        diff_reports,
        evaluate_thresholds,
        format_diff_table,
        load_report,
        parse_fail_on,
    )
    from repro.obs.history import read_ledger

    # Parse the gate specs before touching any report: a malformed
    # --fail-on is CI misconfiguration and must fail naming the exact
    # bad KIND:NAME:LIMIT item even when the report paths are also bad.
    thresholds = [parse_fail_on(spec) for spec in (args.fail_on or [])]
    if args.ledger:
        if args.base or args.head:
            raise VectraError(
                "compare takes either BASE HEAD report paths or --ledger, "
                "not both"
            )
        reports = read_ledger(args.ledger)
        if len(reports) < 2:
            raise VectraError(
                f"ledger needs at least 2 reports to compare, "
                f"has {len(reports)}"
            )
        base_runs, head = reports[:-1], reports[-1]
    else:
        if not args.base or not args.head:
            raise VectraError(
                "compare needs BASE and HEAD report paths "
                "(or --ledger LEDGER.jsonl)"
            )
        base_runs, head = [load_report(args.base)], load_report(args.head)
    deltas = diff_reports(base_runs, head)
    violations = evaluate_thresholds(deltas, thresholds)
    # With --json - the delta document owns stdout; the human table and
    # the OK verdict move aside so the output stays machine-parseable.
    json_to_stdout = args.json == "-"
    if not json_to_stdout:
        print(format_diff_table(deltas, changed_only=args.changed_only))
    if args.json:
        doc = compare_json_doc(deltas, thresholds, violations,
                               len(base_runs))
        payload = json.dumps(doc, indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            try:
                with open(args.json, "w") as fh:
                    fh.write(payload + "\n")
            except OSError as exc:
                raise VectraError(
                    f"cannot write compare JSON to {args.json!r}: {exc}"
                ) from exc
    if violations:
        for violation in violations:
            print(f"FAIL {violation.line}", file=sys.stderr)
        print(f"verdict: FAIL ({len(violations)} threshold(s) exceeded)",
              file=sys.stderr)
        return 1
    if args.fail_on:
        print(f"verdict: OK ({len(args.fail_on)} threshold(s) satisfied)",
              file=sys.stderr if json_to_stdout else sys.stdout)
    return 0


def _cmd_autopsy(args) -> int:
    """Render a ``--blackbox`` crash bundle as a human post-mortem."""
    from repro.obs.blackbox import load_blackbox, render_autopsy

    try:
        print(render_autopsy(load_blackbox(args.path)))
    except BrokenPipeError:  # autopsy | head is fine
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _cmd_watch(args) -> int:
    """Tail a ``--status-json`` file into a terminal dashboard (or, with
    ``--validate``, check every frame against the live schema).  Exits
    with the watched run's own exit code, read from its final ``done``
    frame — so ``vectra watch`` in a script fails when the run did."""
    import time

    from repro.obs.live import (
        LIVE_SCHEMA,
        read_frames,
        render_dashboard,
        validate_frames,
    )

    if args.validate:
        frames = read_frames(args.path)
        validate_frames(frames, source=args.path)
        print(f"{args.path}: {len(frames)} valid {LIVE_SCHEMA} frame(s)")
        return 0
    last_seq = None
    clear = sys.stdout.isatty() and not args.once
    try:
        while True:
            frames = read_frames(args.path)
            if frames:
                frame = frames[-1]
                if frame.get("seq") != last_seq:
                    last_seq = frame.get("seq")
                    if clear:
                        print("\x1b[2J\x1b[H", end="")
                    print(render_dashboard(frame))
                if frame.get("event") == "done":
                    # Propagate the watched run's outcome: the done
                    # frame carries its exit code.
                    return int(frame.get("exit_code", 0) or 0)
            elif args.once:
                print(f"{args.path}: no complete status frames yet")
            if args.once:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:  # watch | head is fine
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _check_stdout_collisions(args) -> None:
    """Refuse flag combinations that would interleave multiple JSON
    documents on stdout."""
    owners = [
        flag
        for flag, attr in (("--metrics-json", "metrics_json"),
                           ("--trace-json", "trace_json"),
                           ("--status-json", "status_json"),
                           ("--flame", "flame"),
                           ("--json", "json"))
        if getattr(args, attr, None) == "-"
    ]
    if len(owners) > 1:
        raise VectraError(
            f"{' and '.join(owners)} would interleave multiple JSON "
            f"documents on stdout; pass '-' to at most one of them and "
            f"give the rest file paths"
        )


def _run_opts(args):
    """Interpreter/analysis options shared by several subcommands,
    forwarded only when set so library defaults stay authoritative."""
    opts = {}
    if getattr(args, "fuel", None) is not None:
        opts["fuel"] = args.fuel
    if getattr(args, "jobs", None) is not None:
        opts["jobs"] = args.jobs
    spill_dir = getattr(args, "spill_dir", None)
    segment_rows = getattr(args, "segment_rows", None)
    if segment_rows is not None and not spill_dir:
        raise VectraError("--segment-rows requires --spill-dir")
    if spill_dir:
        opts["spill_dir"] = spill_dir
        if segment_rows is not None:
            opts["segment_rows"] = segment_rows
    if getattr(args, "no_compile", False):
        opts["compile_loops"] = False
    if getattr(args, "compile_threshold", None) is not None:
        opts["compile_threshold"] = args.compile_threshold
    return opts


def _add_fuel_option(p):
    p.add_argument("--fuel", type=int, default=None, metavar="N",
                   help="interpreter instruction budget (default: "
                        "500,000,000); runs that exhaust it fail with a "
                        "clear error instead of looping forever")


def _add_compile_options(p):
    g = p.add_argument_group("trace-replay compilation")
    g.add_argument("--no-compile", action="store_true",
                   help="disable the trace-replay loop compiler and run "
                        "every instruction through the step interpreter "
                        "(output is bit-identical either way; mainly for "
                        "debugging and A/B timing)")
    g.add_argument("--compile-threshold", type=int, default=None,
                   metavar="N",
                   help="iterations before a loop is considered hot and "
                        "compiled to a batch kernel (default: 16, shared "
                        "with the profiler's hot-loop counter)")


def _add_jobs_option(p):
    p.add_argument("-j", "--jobs", type=int, default=None, metavar="N",
                   help="analyze hot loops across N worker processes "
                        "(0 or negative: one per CPU), once one run of "
                        "the program has recorded their windows; results "
                        "are byte-identical to --jobs 1; ignored with "
                        "--spill-dir")


def _add_spill_options(p):
    g = p.add_argument_group("out-of-core trace store")
    g.add_argument("--spill-dir", metavar="DIR", default=None,
                   help="spill windowed trace columns to segment files "
                        "under DIR instead of holding them in RAM; "
                        "reports are bit-identical, trace memory is "
                        "bounded by the segment budget, and loops are "
                        "analyzed one at a time")
    g.add_argument("--segment-rows", type=int, default=None, metavar="N",
                   help="rows per spilled segment (default: 1048576); "
                        "cuts align to loop-iteration markers; requires "
                        "--spill-dir")


def _parse_params(items):
    params = {}
    for item in items or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise VectraError(
                f"bad parameter {item!r}: expected NAME=INT, e.g. -p n=64"
            )
        try:
            params[key] = int(value)
        except ValueError:
            raise VectraError(
                f"bad parameter {item!r}: value {value!r} is not an integer"
            ) from None
    return params


def _obs_options() -> argparse.ArgumentParser:
    """Shared observability options, attached to every subcommand."""
    from repro.obs.live import (
        DEFAULT_STALL_TIMEOUT,
        DEFAULT_STATUS_INTERVAL,
        LIVE_SCHEMA,
    )
    from repro.obs.sampling import DEFAULT_SAMPLE_HZ
    from repro.obs.telemetry import REPORT_SCHEMA

    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("observability")
    g.add_argument("--profile", action="store_true",
                   help="print a stage/counter telemetry table to stderr "
                        "after the command")
    g.add_argument("--metrics-json", metavar="PATH", default=None,
                   help=f"write the machine-readable run report "
                        f"({REPORT_SCHEMA} JSON) to PATH ('-' for stdout)")
    g.add_argument("--metrics-append", metavar="LEDGER", default=None,
                   help="append the run report as one JSON line to "
                        "LEDGER (a .jsonl history usable with "
                        "'vectra compare --ledger')")
    g.add_argument("--trace-json", metavar="PATH", default=None,
                   help="write a Chrome trace-event timeline to PATH "
                        "('-' for stdout); open in Perfetto or "
                        "chrome://tracing")
    g.add_argument("--log-level", metavar="LEVEL", default=None,
                   help="enable vectra.* logging at LEVEL "
                        "(debug|info|warning|error)")
    prof = common.add_argument_group("sampling profiler")
    prof.add_argument("--sample-hz", type=float, default=None, metavar="N",
                      help="sample the run N times per second from a "
                           "timer thread, attributing wall time to "
                           "Python frames and workload IR (loop, sid); "
                           "pool workers sample themselves and ship "
                           "tables home")
    prof.add_argument("--flame", metavar="PATH", default=None,
                      help="write the profiler samples to PATH: a "
                           "self-contained flamegraph (.svg/.html) or "
                           "collapsed-stack folded text (any other "
                           "suffix; '-' for stdout); implies sampling "
                           f"at {DEFAULT_SAMPLE_HZ} Hz when --sample-hz "
                           f"is not given")
    live = common.add_argument_group("live status")
    live.add_argument("--status-json", metavar="PATH", default=None,
                      help=f"stream {LIVE_SCHEMA} status frames (one "
                           f"JSON line per interval: progress, rates/"
                           f"ETA, resource gauges, worker heartbeats) "
                           f"to PATH ('-' for stdout, 'fd:N' for an "
                           f"inherited descriptor); tail with "
                           f"'vectra watch PATH'")
    live.add_argument("--status-interval", type=float,
                      default=DEFAULT_STATUS_INTERVAL, metavar="S",
                      help="seconds between status frames (default: "
                           "%(default)s)")
    live.add_argument("--stall-timeout", type=float,
                      default=DEFAULT_STALL_TIMEOUT, metavar="S",
                      help="seconds of heartbeat silence before a pool "
                           "worker is reported stalled (default: "
                           "%(default)s; worker death is reported "
                           "separately)")
    live.add_argument("--progress", action="store_true",
                      help="single-line live progress updates on stderr")
    mon = common.add_argument_group("monitor / flight recorder")
    mon.add_argument("--monitor-port", type=int, default=None, metavar="N",
                     help="serve a loopback HTTP observability plane on "
                          "port N while the command runs: GET /metrics "
                          "(OpenMetrics text for Prometheus scrapes), "
                          "/status (latest vectra.live/2 frame as JSON), "
                          "/healthz (503 once the run stalls), /flame "
                          "(folded profiler samples, with --sample-hz); "
                          "0 binds an ephemeral port, printed to stderr "
                          "and recorded in status frames")
    mon.add_argument("--blackbox", metavar="PATH", default=None,
                     help="crash flight recorder: on an unhandled "
                          "exception, SIGTERM or Ctrl-C, atomically "
                          "write a vectra.blackbox/1 post-mortem bundle "
                          "(reason, active loop, worker heartbeats, "
                          "event-ring tail, last status frames, final "
                          "telemetry) to PATH; render it with "
                          "'vectra autopsy PATH'")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vectra",
        description="Dynamic trace-based analysis of vectorization "
                    "potential (PLDI 2012 reproduction).",
    )
    obs = _obs_options()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list registered workloads",
                       parents=[obs])
    p.add_argument("--category", choices=["spec", "utdsp", "kernel",
                                          "casestudy"], default=None)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("analyze", help="analyze a workload's loops",
                       parents=[obs])
    p.add_argument("workload")
    p.add_argument("-p", "--param", action="append",
                   help="override a workload parameter, e.g. -p n=64")
    p.add_argument("--integer", action="store_true",
                   help="also characterize integer arithmetic")
    p.add_argument("--relax-reductions", action="store_true",
                   help="ignore reduction dependences (the paper's "
                        "future-work extension)")
    p.add_argument("-v", "--verbose", action="store_true")
    _add_fuel_option(p)
    _add_compile_options(p)
    _add_jobs_option(p)
    _add_spill_options(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("vlength",
                       help="vector-length / GPU-suitability profile",
                       parents=[obs])
    p.add_argument("workload")
    p.add_argument("--loop", default=None)
    _add_fuel_option(p)
    _add_compile_options(p)
    p.set_defaults(func=_cmd_vlength)

    p = sub.add_parser("opportunities",
                       help="classify missed vectorization opportunities",
                       parents=[obs])
    p.add_argument("workload")
    p.add_argument("-v", "--verbose", action="store_true")
    _add_fuel_option(p)
    _add_compile_options(p)
    p.set_defaults(func=_cmd_opportunities)

    p = sub.add_parser("analyze-file", help="analyze a mini-C source file",
                       parents=[obs])
    p.add_argument("path")
    p.add_argument("--loop", default=None)
    p.add_argument("--threshold", type=float, default=0.10)
    _add_fuel_option(p)
    _add_compile_options(p)
    _add_jobs_option(p)
    _add_spill_options(p)
    p.set_defaults(func=_cmd_analyze_file)

    p = sub.add_parser("decisions",
                       help="static vectorizer verdicts for a workload",
                       parents=[obs])
    p.add_argument("workload")
    p.set_defaults(func=_cmd_decisions)

    p = sub.add_parser("speedup",
                       help="simulated speedup of a transformed workload",
                       parents=[obs])
    p.add_argument("original")
    p.add_argument("transformed")
    p.set_defaults(func=_cmd_speedup)

    p = sub.add_parser("trace",
                       help="write a loop subtrace as a segment store",
                       parents=[obs])
    p.add_argument("workload")
    p.add_argument("--loop", required=True)
    p.add_argument("--instance", type=int, default=0)
    p.add_argument("-o", "--output", default="loop.trace", metavar="DIR",
                   help="directory the store goes under, in a "
                        "subdirectory named after the loop and instance "
                        "(default: %(default)s)")
    _add_fuel_option(p)
    _add_compile_options(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("analyze-trace",
                       help="offline analysis of a trace store written "
                            "by 'trace'",
                       parents=[obs])
    p.add_argument("trace", help="the store directory 'trace' printed")
    p.add_argument("--source", required=True,
                   help="the mini-C source the trace was collected from")
    p.add_argument("--integer", action="store_true")
    p.set_defaults(func=_cmd_analyze_trace)

    p = sub.add_parser("baselines",
                       help="Kumar/Larus vs Algorithm 1 on one loop",
                       parents=[obs])
    p.add_argument("workload")
    p.add_argument("--loop", default=None)
    _add_fuel_option(p)
    _add_compile_options(p)
    p.set_defaults(func=_cmd_baselines)

    p = sub.add_parser("explain",
                       help="drill-down report: dependence witnesses, "
                            "stride-break provenance, refusal "
                            "cross-examination",
                       parents=[obs])
    p.add_argument("workload")
    p.add_argument("--loop", default=None,
                   help="explain one loop (default: the workload's "
                        "configured analysis loops)")
    p.add_argument("--instance", type=int, default=0,
                   help="which dynamic loop instance to trace")
    p.add_argument("--integer", action="store_true",
                   help="also treat integer arithmetic as candidates")
    p.add_argument("-p", "--param", action="append",
                   help="override a workload parameter, e.g. -p n=64")
    _add_fuel_option(p)
    _add_compile_options(p)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("compare",
                       help="diff two run reports; perf-regression gate",
                       parents=[obs])
    p.add_argument("base", nargs="?", default=None,
                   help="baseline run report (a --metrics-json file)")
    p.add_argument("head", nargs="?", default=None,
                   help="run report under test")
    p.add_argument("--ledger", metavar="PATH", default=None,
                   help="gate the latest entry of a --metrics-append "
                        "ledger against the median and spread of the "
                        "earlier entries instead of comparing two report "
                        "files")
    p.add_argument("--fail-on", action="append", metavar="SPEC",
                   help="threshold KIND:NAME:LIMIT (e.g. "
                        "\"span:analysis.total:+10%%\", "
                        "\"counter:interp.instructions:+0%%\" or "
                        "\"counter:*:+3.5mad\"); LIMIT is signed, in "
                        "percent, absolute units or spreads (mad), and "
                        "NAME may be an fnmatch pattern; repeatable; any "
                        "exceeded threshold makes the exit code nonzero")
    p.add_argument("--changed-only", action="store_true",
                   help="only print rows whose value moved")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write a machine-readable delta document "
                        "(vectra.compare/2 JSON) to PATH ('-' for "
                        "stdout), with per-metric violated flags")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("watch",
                       help="tail a --status-json file into a live "
                            "terminal dashboard",
                       parents=[obs])
    p.add_argument("path", help="status-frame JSONL file another run is "
                                "writing via --status-json")
    p.add_argument("--interval", type=float, default=1.0, metavar="S",
                   help="seconds between re-reads (default: %(default)s)")
    p.add_argument("--once", action="store_true",
                   help="render the latest frame once and exit")
    p.add_argument("--validate", action="store_true",
                   help="validate every frame against the vectra.live/2 "
                        "schema (monotonic progress, increasing seq, "
                        "final done frame) and exit nonzero on any "
                        "violation — the CI gate")
    p.set_defaults(func=_cmd_watch)

    p = sub.add_parser("autopsy",
                       help="render a --blackbox crash bundle as a "
                            "human-readable post-mortem",
                       parents=[obs])
    p.add_argument("path", help="a vectra.blackbox/1 bundle written by "
                                "a crashed --blackbox run")
    p.set_defaults(func=_cmd_autopsy)

    p = sub.add_parser("dot", help="Graphviz export of a loop's DDG",
                       parents=[obs])
    p.add_argument("workload")
    p.add_argument("--loop", required=True)
    _add_fuel_option(p)
    _add_compile_options(p)
    p.add_argument("--highlight-line", type=int, default=None,
                   help="color instances of the candidate instruction at "
                        "this source line by Algorithm-1 partition")
    p.add_argument("-p", "--param", action="append")
    p.add_argument("-o", "--output", default="ddg.dot")
    p.set_defaults(func=_cmd_dot)

    return parser


def _open_run(args, argv):
    """The run the command records into, built from its observability
    flags.  A construction error closes what was already opened and
    propagates."""
    from repro.obs import EventLog, Run, Telemetry

    sampling = args.sample_hz is not None or bool(args.flame)
    monitoring = args.monitor_port is not None
    run = Run(command=args.command)
    # The monitor serves /metrics and the blackbox snapshots telemetry
    # at death, so either one turns recording on; the blackbox also
    # wants the event ring for its bundle's tail.
    if (args.profile or args.metrics_json or args.metrics_append
            or args.trace_json or sampling or monitoring or args.blackbox):
        run.tel = Telemetry(
            events=EventLog() if (args.trace_json or args.blackbox)
            else None)
    try:
        if sampling:
            from repro.obs.sampling import DEFAULT_SAMPLE_HZ, SamplingProfiler

            run.sampler = SamplingProfiler(
                hz=args.sample_hz if args.sample_hz is not None
                else DEFAULT_SAMPLE_HZ)
        # The monitor's /status and /healthz and the blackbox's frame
        # ring both read the ticker, so either one brings the live plane
        # up even without a --status-json sink (a sink-less ticker just
        # retains frames in memory).
        if args.status_json or args.progress or monitoring or args.blackbox:
            from repro.obs.live import StatusBus, StatusTicker

            # Workers heartbeat a few times per stall window, and at
            # least as often as frames are cut, so stalls resolve within
            # one timeout and every frame sees fresh ages.
            run.bus = StatusBus(heartbeat_interval=max(
                0.05, min(args.status_interval, args.stall_timeout / 4.0)))
            run.ticker = StatusTicker(
                run, interval=args.status_interval,
                stall_timeout=args.stall_timeout, path=args.status_json,
                progress_stream=sys.stderr if args.progress else None)
            run.ticker.start()
        if monitoring:
            from repro.obs.monitor import MonitorServer

            run.monitor = MonitorServer(run, port=args.monitor_port,
                                        stall_timeout=args.stall_timeout)
            run.monitor.start()
            run.bus.monitor_port = run.monitor.port
            print(f"monitor: serving /metrics /status /healthz /flame on "
                  f"{run.monitor.url()}", file=sys.stderr)
        if args.blackbox:
            from repro.obs.blackbox import FlightRecorder

            run.recorder = FlightRecorder(
                args.blackbox, run,
                argv=list(argv) if argv is not None else sys.argv[1:],
            ).install()
    except VectraError:
        run.close(exit_code=1)
        raise
    return run


def _close_run(run, args, code: int) -> int:
    """End the run (:meth:`~repro.obs.run.Run.close`) and write the
    reports its flags ask for.  They are written even when the command
    failed — a truncated run's telemetry is exactly what debugging
    needs.  Returns the exit code, 1 once a report cannot be written."""
    # The final 'done' frame carries the exit code and lands even on
    # failure — a watcher sees how the run ended either way.
    run.close(exit_code=code)
    tel = run.tel
    if not tel.enabled:
        return code
    if args.flame:
        from repro.obs.flamegraph import write_flame

        try:
            fmt = write_flame(tel.samples, args.flame,
                              title=f"vectra {args.command}")
        except OSError as exc:
            print(f"error: cannot write flamegraph: {exc}", file=sys.stderr)
            code = 1
        else:
            if args.flame != "-":
                n = sum(tel.samples.values())
                print(f"flamegraph ({fmt}, {n} samples) written to "
                      f"{args.flame}", file=sys.stderr)
    if args.profile:
        print(tel.format_table(), file=sys.stderr)
    if args.metrics_json or args.metrics_append:
        from repro.obs.history import append_report
        from repro.obs.telemetry import dump_report

        report = tel.report(command=args.command, exit_code=code)
        if args.metrics_json:
            try:
                dump_report(report, args.metrics_json)
            except OSError as exc:
                print(f"error: cannot write metrics report: {exc}",
                      file=sys.stderr)
                code = 1
        if args.metrics_append:
            try:
                append_report(args.metrics_append, report)
            except OSError as exc:
                print(f"error: cannot append to ledger: {exc}",
                      file=sys.stderr)
                code = 1
    if args.trace_json:
        from repro.obs.timeline import write_chrome_trace

        try:
            write_chrome_trace(tel.events, args.trace_json)
        except OSError as exc:
            print(f"error: cannot write trace timeline: {exc}",
                  file=sys.stderr)
            code = 1
        else:
            if tel.events is not None and tel.events.dropped:
                print(f"warning: timeline ring buffer dropped "
                      f"{tel.events.dropped} event(s) (capacity "
                      f"{tel.events.capacity}); the exported trace is "
                      f"missing its oldest events", file=sys.stderr)
    return code


def main(argv=None) -> int:
    from repro.obs import configure_logging, use_run

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.log_level:
            configure_logging(args.log_level)
        _check_stdout_collisions(args)
        run = _open_run(args, argv)
    except VectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    code = 0
    try:
        with use_run(run), run.tel.span(f"command.{args.command}"):
            run.sampler.start()
            code = args.func(args)
    except VectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    except BaseException as exc:
        # The flight recorder must see the crash here: by the time the
        # exception reaches sys.excepthook the run is closed and the
        # recorder torn down.
        if run.recorder is not None:
            run.recorder.record_exception(exc)
        # The done frame should not claim success for a crashed run.
        code = 130 if isinstance(exc, KeyboardInterrupt) else 1
        raise
    finally:
        code = _close_run(run, args, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
