"""End-to-end drivers: source text in, Table-1-style reports out.

The flow mirrors the paper's methodology (§4.1):

1. compile and run the program, collecting a cycle profile;
2. select hot loops (>=10% of cycles, innermost-first selection rule);
3. for each hot loop, re-run with a loop-window sink to collect the
   subtrace of one representative dynamic instance;
4. build the DDG, run Algorithm 1 + the stride analyses, and attach the
   static-vectorizer Percent Packed for comparison.

Steps 1-2 run only where the loops are discovered
(:func:`analyze_program`, :func:`analyze_module`).  A driver handed its
loops by name (:func:`repro.workloads.base.analyze_workload`) skips the
separate profile run: every windowed re-run executes the whole program
and accumulates the same profile counters as a sink-less run, so the
profile of step 1 comes from the first loop's re-run
(:func:`run_loop_analyses` hands those counters back).

Step 3 uses the fused columnar path: the windowed re-run streams records
straight into DDG-shaped columns (:class:`ColumnarLoopSink`, or the
spilling :class:`~repro.trace.store.SegmentedLoopSink` under
``spill_dir``), and one numpy remap turns them into the DDG, so no
per-record objects exist between interpretation and analysis.  The
remap keeps only the window's candidate cone — the nodes a candidate
instruction reaches, the only ones Algorithm 1 can give a nonzero
timestamp — so step 4 builds and scans no node that cannot move a
partition (:class:`~repro.trace.columnar.CandidateCone`).

Because each hot loop's windowed re-run is independent, step 3 fans out
across a process pool when ``jobs > 1`` (each worker recompiles the
source — modules are cheap to rebuild and deterministic, so reports are
byte-identical to the serial path).  Pool failures fall back to serial,
with a ``vectra.pipeline`` warning so the degradation is visible.  An
out-of-core run (``spill_dir``) analyzes its loops serially.

Every driver takes an optional ``tel`` telemetry object (default: the
process-wide active telemetry, a no-op unless e.g. the CLI's
``--profile`` installed a live one) and records stage spans plus work
counters; pool workers collect their own telemetry and ship a snapshot
back with each report, which the parent merges — serial and parallel
runs report identical counter totals.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

from repro.analysis.candidates import candidate_opcodes
from repro.analysis.metrics import loop_metrics
from repro.analysis.report import BenchmarkReport, LoopReport
from repro.ddg.build import build_ddg
from repro.errors import AnalysisError
from repro.frontend import parse_source
from repro.frontend.driver import compile_source
from repro.frontend.lower import lower
from repro.interp.interpreter import (
    DEFAULT_FUEL,
    Interpreter,
    ProfileCounters,
    run_and_trace,
)
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.obs import (
    EventLog,
    SamplingProfiler,
    Telemetry,
    get_logger,
    get_sampler,
    get_status_bus,
    get_telemetry,
    pool_heartbeat,
    use_sampler,
    use_telemetry,
)
from repro.profiler.costmodel import CostModel
from repro.profiler.hotloops import hot_loops, profile_loops
from repro.trace.columnar import ColumnarLoopSink
from repro.vectorizer.autovec import VectorizerConfig, analyze_program_loops
from repro.vectorizer.packed import percent_packed

_log = get_logger("pipeline")

__all__ = [
    "compile_source",
    "run_and_trace",
    "analyze_loop",
    "analyze_module",
    "analyze_program",
    "analyze_kernel",
    "run_loop_analyses",
    "windowed_loop_ddg",
]


def windowed_loop_ddg(module: Module, loop_id: int, loop_name: str,
                      entry: str, args: Sequence, instance: int,
                      fuel: int, tel=None, spill_dir: Optional[str] = None,
                      segment_rows: Optional[int] = None,
                      compile_loops: bool = True,
                      compile_threshold: Optional[int] = None,
                      cone_ops=None):
    """Fused trace→DDG for one loop instance: the windowed re-run streams
    into columnar storage and the DDG drops out without materializing a
    record list.  The sink's span counter validates the instance: no
    recorded span means the requested instance never executed; more than
    one means the window filter misbehaved, and silently taking the
    first would analyze the wrong iteration.

    Returns ``(ddg, rows, counters)``.  The re-run executes the whole
    program to completion; the window only filters what the sink keeps.
    So its profile counters (``counters``, a
    :class:`~repro.interp.interpreter.ProfileCounters` snapshot) and its
    executed-instruction count equal a sink-less run's, and
    :func:`repro.workloads.base.analyze_workload` takes its §4.1 profile
    from them.

    With ``spill_dir`` set the window streams through a
    :class:`~repro.trace.store.SegmentedLoopSink` instead — full segments
    spill to a per-loop subdirectory under ``segment_rows``-row budgets
    and the DDG is reassembled by streaming segment windows through the
    same remap.  The resulting DDG is bit-identical to the in-RAM path.

    ``cone_ops`` (a set of candidate opcodes) cuts the DDG down to the
    window's candidate cone inside the remap
    (:class:`~repro.trace.columnar.CandidateCone`); ``ddg.nodes`` and
    ``ddg.edges`` still count the whole window, and ``ddg.cone_nodes``
    and ``ddg.cone_edges`` count the cone.
    """
    if tel is None:
        tel = get_telemetry()
    if spill_dir:
        from repro.trace.store import (
            DEFAULT_SEGMENT_ROWS,
            SegmentedLoopSink,
            spill_subdir,
        )

        sink = SegmentedLoopSink(
            loop_id, instances={instance},
            spill_dir=spill_subdir(spill_dir,
                                   f"{loop_name}-inst{instance}"),
            segment_rows=segment_rows or DEFAULT_SEGMENT_ROWS,
        )
    else:
        sink = ColumnarLoopSink(loop_id, instances={instance})
    with tel.span("loop.rerun", hist=True):
        interp = Interpreter(module, sink=sink, fuel=fuel,
                             compile_loops=compile_loops,
                             compile_threshold=compile_threshold)
        interp.run(entry, args)
    counters = interp.profile_counters()
    rows = 0
    if tel.enabled:
        stats = sink.stats()
        rows = stats["rows"]
        tel.count("interp.runs")
        tel.count("interp.instructions", interp.executed_instructions)
        tel.count("trace.records.kept", rows)
        tel.count("trace.records.filtered",
                  interp.executed_instructions - rows)
        tel.count("trace.markers", stats["markers"])
        tel.count("trace.backpatches", stats["backpatches"])
        tel.count("trace.spans_recorded", sink.spans_recorded)
    if sink.spans_recorded == 0:
        raise AnalysisError(
            f"loop {loop_name!r} instance {instance} never executed"
        )
    if sink.spans_recorded != 1:
        raise AnalysisError(
            f"loop {loop_name!r}: expected one recorded span for instance "
            f"{instance}, found {sink.spans_recorded}"
        )
    if spill_dir:
        store = sink.finish()
        with tel.span("ddg.build"):
            ddg = store.to_ddg(tel=tel, cone_ops=cone_ops)
    else:
        with tel.span("ddg.build"):
            ddg = sink.to_ddg(cone_ops)
    if tel.enabled:
        tel.count("ddg.nodes", ddg.window_nodes)
        tel.count("ddg.edges", ddg.window_edges)
        if cone_ops is not None:
            tel.count("ddg.cone_nodes", len(ddg.sids))
            tel.count("ddg.cone_edges", ddg.num_edges)
        tel.count("ddg.marker_segments", stats["marker_segments"])
    return ddg, rows, counters


def analyze_loop(
    module: Module,
    loop_name: str,
    entry: str = "main",
    args: Sequence = (),
    instance: int = 0,
    include_integer: bool = False,
    relax_reductions: bool = False,
    fuel: int = DEFAULT_FUEL,
    tel=None,
    spill_dir: Optional[str] = None,
    segment_rows: Optional[int] = None,
    compile_loops: bool = True,
    compile_threshold: Optional[int] = None,
) -> LoopReport:
    """Dynamic analysis of one loop: trace one instance, build the DDG,
    compute the paper's metrics.  ``loop_name`` is a label or
    ``function:line``.

    ``spill_dir``/``segment_rows`` switch the windowed trace to the
    out-of-core segment store (bit-identical report).
    ``compile_loops``/``compile_threshold`` control the trace-replay
    compiler (:mod:`repro.interp.compile`); output is bit-identical
    either way.
    """
    return _analyze_loop(module, loop_name, entry, args, instance,
                         include_integer, relax_reductions, fuel, tel,
                         spill_dir, segment_rows, compile_loops,
                         compile_threshold)[0]


def _analyze_loop(
    module, loop_name, entry, args, instance, include_integer,
    relax_reductions, fuel, tel, spill_dir, segment_rows, compile_loops,
    compile_threshold,
) -> Tuple[LoopReport, ProfileCounters]:
    """:func:`analyze_loop`, also returning the re-run's profile counters
    (see :func:`windowed_loop_ddg`)."""
    if tel is None:
        tel = get_telemetry()
    info = module.loop_by_name(loop_name)
    if info is None:
        known = ", ".join(li.name for li in module.loops.values())
        raise AnalysisError(
            f"no loop named {loop_name!r}; known loops: {known}"
        )
    # Make ``tel`` the process-active telemetry for the duration so that
    # deep instrumentation resolving the active object (e.g. the batched
    # Algorithm 1 scan) records into the same place whether this call is
    # serial with an explicit ``tel=`` or inside a pool worker.
    tel.instant("loop.analyze.start", {"loop": loop_name})
    get_status_bus().phase(f"loop.{loop_name}")
    # hist=True: one occurrence per analyzed loop, so --profile can
    # report p50/p95 per-loop analysis latency across the whole run.
    with use_telemetry(tel), tel.span("loop.analyze", hist=True):
        ddg, rows, counters = windowed_loop_ddg(
            module, info.loop_id, loop_name, entry, args, instance, fuel,
            tel, spill_dir=spill_dir, segment_rows=segment_rows,
            compile_loops=compile_loops,
            compile_threshold=compile_threshold,
            cone_ops=candidate_opcodes(include_integer))
        report = loop_metrics(ddg, module, loop_name, include_integer,
                              relax_reductions, tel=tel)
    tel.count("pipeline.loops_analyzed")
    if tel.enabled:
        tel.section(f"loop.{loop_name}", {
            "loop": loop_name,
            "records_traced": rows,
            "ddg_nodes": ddg.window_nodes,
            "cone_nodes": len(ddg.sids),
            "candidate_ops": report.total_candidate_ops,
            "avg_concurrency": report.avg_concurrency,
            "partitions": sum(ir.num_partitions
                              for ir in report.instructions),
            "unit_subpartitions": sum(len(ir.unit_subpartition_sizes)
                                      for ir in report.instructions),
            "nonunit_subpartitions": sum(
                len(ir.nonunit_subpartition_sizes)
                for ir in report.instructions),
            "percent_vec_unit": report.percent_vec_unit,
            "avg_vec_size_unit": report.avg_vec_size_unit,
            "percent_vec_nonunit": report.percent_vec_nonunit,
            "avg_vec_size_nonunit": report.avg_vec_size_nonunit,
        })
    tel.instant("loop.analyze.finish", {"loop": loop_name})
    get_status_bus().count("loops")
    return report, counters


def _loop_worker(payload):
    """Process-pool entry point: recompile the source and analyze one
    loop.  Compilation and interpretation are deterministic, so the
    result is identical to an in-process run on the parent's module.

    Returns ``(report, profile counters, telemetry snapshot or None)``.
    The counters are the re-run's (see :func:`windowed_loop_ddg`).  When
    the parent profiles, the worker collects its own telemetry and ships
    the snapshot home so the parent's merged counters match a serial run.
    When the parent additionally keeps a timeline, the worker records
    its own :class:`EventLog` (stamped with the worker pid) and the
    events ride home inside the snapshot — a ``--jobs N`` trace renders
    as N worker tracks.

    When the parent samples (``sample_hz > 0``), the worker runs its own
    :class:`SamplingProfiler` and folds the resolved sample table and its
    ``sampling.samples``/``sampling.ir_samples`` counts into its telemetry
    before snapshotting, so profiler samples ride home the same way
    counters do: the merged flamegraph covers all workers, and the merged
    counts equal its sample total."""
    (source, benchmark, loop_name, entry, args, instance,
     include_integer, relax_reductions, fuel, profiled, timeline,
     compile_loops, compile_threshold, sample_hz) = payload
    tel = None
    if profiled:
        tel = Telemetry(events=EventLog() if timeline else None)
    sampler = (SamplingProfiler(hz=sample_hz)
               if profiled and sample_hz else None)
    # Install the worker's telemetry as the process-active one too: with
    # a fork start method the child inherits the parent's (doomed) copy,
    # and any instrumentation that resolves the active telemetry would
    # otherwise record into it and be lost.
    with use_telemetry(tel), use_sampler(sampler):
        if sampler is not None:
            sampler.start()
        try:
            module = compile_source(source, benchmark or "module")
            report, counters = _analyze_loop(
                module, loop_name, entry, args, instance, include_integer,
                relax_reductions, fuel, tel, None, None, compile_loops,
                compile_threshold)
        finally:
            if sampler is not None:
                sampler.stop()
                tel.add_samples(sampler.folded_counts())
                tel.count("sampling.samples", sampler.total_samples)
                tel.count("sampling.ir_samples", sampler.ir_samples)
    return report, counters, (tel.snapshot() if profiled else None)


def run_loop_analyses(
    source: str,
    benchmark: str,
    module: Module,
    loop_names: Sequence[str],
    entry: str = "main",
    args: Sequence = (),
    instance: int = 0,
    include_integer: bool = False,
    relax_reductions: bool = False,
    fuel: int = DEFAULT_FUEL,
    jobs: int = 1,
    tel=None,
    spill_dir: Optional[str] = None,
    segment_rows: Optional[int] = None,
    compile_loops: bool = True,
    compile_threshold: Optional[int] = None,
) -> Tuple[List[LoopReport], Optional[ProfileCounters]]:
    """Per-loop windowed analyses, optionally across a process pool.

    Returns ``(reports, counters)``: the reports in ``loop_names`` order
    regardless of ``jobs``, so parallel runs produce byte-identical
    reports, and the :class:`~repro.interp.interpreter.ProfileCounters`
    of the first loop's re-run (``None`` without loops) — the whole
    program's profile, wherever that loop ran (see
    :func:`windowed_loop_ddg`).  ``jobs=None`` uses
    one worker per CPU; any failure to stand up the pool (restricted
    sandboxes, missing semaphores) falls back to the serial path with a
    ``vectra.pipeline`` warning.  Worker telemetry snapshots are merged
    into ``tel``, so counter totals match the serial path exactly.

    With ``spill_dir`` set, loops run serially whatever ``jobs`` says:
    an out-of-core run is memory-bound, so loop-level fan-out would
    multiply the working set.
    """
    if tel is None:
        tel = get_telemetry()
    names = list(loop_names)
    if jobs is None or int(jobs) <= 0:
        jobs = multiprocessing.cpu_count()
    jobs = 1 if spill_dir else max(1, min(int(jobs), len(names)))
    tel.gauge("pipeline.jobs", jobs)
    bus = get_status_bus()
    bus.set_total("loops", len(names))

    def serial() -> Tuple[List[LoopReport], Optional[ProfileCounters]]:
        analyses = [
            _analyze_loop(module, name, entry, args, instance,
                          include_integer, relax_reductions, fuel, tel,
                          spill_dir, segment_rows, compile_loops,
                          compile_threshold)
            for name in names
        ]
        return ([report for report, _ in analyses],
                analyses[0][1] if analyses else None)

    if jobs <= 1:
        return serial()
    sampler = get_sampler()
    sample_hz = sampler.hz if sampler.enabled else 0
    payloads = [
        (source, benchmark, name, entry, tuple(args), instance,
         include_integer, relax_reductions, fuel, tel.enabled,
         tel.events is not None, compile_loops, compile_threshold,
         sample_hz)
        for name in names
    ]
    # Workers set their phases on their own buses; this is the parent's.
    bus.phase("loops")
    initializer, initargs = pool_heartbeat(bus)
    try:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context()
        with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx,
                                 initializer=initializer,
                                 initargs=initargs) as pool:
            # pool.map yields in submission order as results land, so
            # loop progress advances while later loops are still running.
            results = []
            for result in pool.map(_loop_worker, payloads):
                results.append(result)
                bus.count("loops")
    except (OSError, PermissionError, ImportError, RuntimeError) as exc:
        _log.warning(
            "process pool startup failed (%s: %s); analyzing %d loop(s) "
            "serially — re-run with --jobs 1 to silence this warning",
            type(exc).__name__, exc, len(names),
        )
        tel.count("pipeline.pool_fallbacks")
        tel.instant("pipeline.pool_fallback",
                    {"loops": len(names), "error": type(exc).__name__})
        # Leave the worker forensics where a post-mortem can find them:
        # after the fallback the pool (and its pids) are gone.
        from repro.obs.blackbox import blackbox_note

        blackbox_note("pool_failure", {
            "error": type(exc).__name__,
            "detail": str(exc),
            "loops": list(names),
            "workers": bus.worker_rows() if bus.enabled else [],
        })
        bus.retire_workers()
        return serial()
    finally:
        # Every exit shuts the pool down, a worker's own exception
        # included, so no exited worker is left reported as live.
        bus.retire_workers()
    reports: List[LoopReport] = []
    for report, _, snapshot in results:
        reports.append(report)
        tel.merge(snapshot)
    return reports, results[0][1]


def analyze_program(
    source: str,
    benchmark: str = "",
    entry: str = "main",
    args: Sequence = (),
    threshold: float = 0.10,
    instance: int = 0,
    cost_model: Optional[CostModel] = None,
    vec_config: Optional[VectorizerConfig] = None,
    include_integer: bool = False,
    relax_reductions: bool = False,
    fuel: int = DEFAULT_FUEL,
    jobs: int = 1,
    tel=None,
    spill_dir: Optional[str] = None,
    segment_rows: Optional[int] = None,
    compile_loops: bool = True,
    compile_threshold: Optional[int] = None,
) -> BenchmarkReport:
    """The full §4.1 methodology for one program.

    ``jobs > 1`` analyzes the hot loops concurrently across a process
    pool (``None`` = one worker per CPU); reports are byte-identical to
    ``jobs=1``.  ``spill_dir``/``segment_rows`` run the windowed traces
    out-of-core (bit-identical report; loops then run serially).
    """
    if tel is None:
        tel = get_telemetry()
    bus = get_status_bus()
    with tel.span("analysis.total"):
        bus.phase("frontend")
        with tel.span("frontend.parse_lower"):
            program, analyzer = parse_source(source)
            module = lower(analyzer, benchmark or "module")
            verify_module(module)
            if vec_config is None:
                vec_config = VectorizerConfig()
            decisions = analyze_program_loops(program, analyzer, vec_config)

        bus.phase("profile")
        with tel.span("profile.run"):
            interp = Interpreter(module, fuel=fuel,
                                 compile_loops=compile_loops,
                                 compile_threshold=compile_threshold)
            interp.run(entry, args)
            profiles = profile_loops(module, interp, cost_model)
            hot = hot_loops(module, interp, threshold, cost_model)
        if tel.enabled:
            tel.count("interp.runs")
            tel.count("interp.instructions", interp.executed_instructions)
            tel.count("pipeline.hot_loops", len(hot))

        loop_reports, _ = run_loop_analyses(
            source, benchmark, module,
            [module.loops[prof.loop_id].name for prof in hot],
            entry, args, instance, include_integer, relax_reductions,
            fuel, jobs, tel=tel, spill_dir=spill_dir,
            segment_rows=segment_rows, compile_loops=compile_loops,
            compile_threshold=compile_threshold,
        )
        report = BenchmarkReport(benchmark=benchmark)
        for prof, loop_report in zip(hot, loop_reports):
            loop_report.benchmark = benchmark
            loop_report.percent_cycles = prof.percent_cycles
            loop_report.percent_packed = percent_packed(
                module, interp, decisions, prof.loop_id, vec_config,
                profiles
            )
            report.loops.append(loop_report)
        bus.phase("report")
        tel.record_memory()
    return report


def analyze_module(
    module: Module,
    entry: str = "main",
    args: Sequence = (),
    threshold: float = 0.10,
    instance: int = 0,
    include_integer: bool = False,
    relax_reductions: bool = False,
    fuel: int = DEFAULT_FUEL,
    tel=None,
    spill_dir: Optional[str] = None,
    segment_rows: Optional[int] = None,
    compile_loops: bool = True,
    compile_threshold: Optional[int] = None,
) -> BenchmarkReport:
    """Hot-loop analysis without a source AST (no Percent Packed column;
    serial — without source text there is nothing to ship to workers)."""
    if tel is None:
        tel = get_telemetry()
    bus = get_status_bus()
    with tel.span("analysis.total"):
        bus.phase("profile")
        with tel.span("profile.run"):
            interp = Interpreter(module, fuel=fuel,
                                 compile_loops=compile_loops,
                                 compile_threshold=compile_threshold)
            interp.run(entry, args)
            hot = hot_loops(module, interp, threshold)
        if tel.enabled:
            tel.count("interp.runs")
            tel.count("interp.instructions", interp.executed_instructions)
            tel.count("pipeline.hot_loops", len(hot))
        bus.set_total("loops", len(hot))
        report = BenchmarkReport(benchmark=module.name)
        for prof in hot:
            info = module.loops[prof.loop_id]
            loop_report = analyze_loop(
                module, info.name, entry, args, instance, include_integer,
                relax_reductions, fuel=fuel, tel=tel, spill_dir=spill_dir,
                segment_rows=segment_rows, compile_loops=compile_loops,
                compile_threshold=compile_threshold,
            )
            loop_report.benchmark = module.name
            loop_report.percent_cycles = prof.percent_cycles
            report.loops.append(loop_report)
        tel.record_memory()
    return report


def analyze_kernel(name: str, **params) -> BenchmarkReport:
    """Analyze a registered workload kernel by name (see
    :mod:`repro.workloads`)."""
    from repro.workloads.loader import get_workload

    workload = get_workload(name)
    return workload.analyze(**params)
