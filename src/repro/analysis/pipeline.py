"""End-to-end driver: source text in, Table-1-style reports out.

:func:`analyze_program` is the one driver of the paper's methodology
(§4.1):

1. compile and run the program, collecting a cycle profile;
2. select hot loops (>=10% of cycles, innermost-first selection rule);
3. for each hot loop, re-run with a loop-window sink to collect the
   subtrace of one representative dynamic instance;
4. build the DDG, run Algorithm 1 + the stride analyses, and attach the
   static-vectorizer Percent Packed for comparison.

Steps 1-2 run only where the loops are discovered.  Handed its loops by
name (``loops=[...]``, as :meth:`repro.workloads.base.Workload.analyze`
and ``analyze-file --loop`` do), the driver skips the separate profile
run: every windowed re-run executes the whole program and accumulates
the same profile counters as a sink-less run, so the profile of step 1
comes from the first loop's re-run (:func:`run_loop_analyses` hands
those counters back).

Step 3 uses the fused columnar path: the windowed re-run streams records
straight into DDG-shaped columns (:class:`ColumnarLoopSink`, or the
spilling :class:`~repro.trace.store.SegmentedLoopSink` under
``spill_dir``), and one numpy remap turns them into the DDG, so no
per-record objects exist between interpretation and analysis.  The
remap keeps only the window's candidate cone — the nodes a candidate
instruction reaches, the only ones Algorithm 1 can give a nonzero
timestamp — so step 4 builds and scans no node that cannot move a
partition (:class:`~repro.trace.columnar.CandidateCone`).  The re-run
itself records only the instructions a candidate can reach statically
(:func:`~repro.analysis.candidates.capture_sids`, DESIGN.md §18).

Because each hot loop's windowed re-run is independent, step 3 fans out
across a process pool when ``jobs > 1`` (each worker recompiles the
source — modules are cheap to rebuild and deterministic, so reports are
byte-identical to the serial path).  Pool failures fall back to serial,
with a ``vectra.pipeline`` warning so the degradation is visible.  An
out-of-core run (``spill_dir``) analyzes its loops serially.

The driver records stage spans plus work counters into the current
run's telemetry (:func:`repro.obs.run.current_run`; a no-op unless e.g.
the CLI's ``--profile`` installed a run that records).  Pool workers
record each loop into a fresh telemetry and ship a snapshot back with
its report, which the parent merges — serial and parallel runs report
identical counter totals, except for the trace-replay compiler's: the
driver shares one kernel table across its module's serial runs, which
pool workers cannot.
"""

from __future__ import annotations

import multiprocessing
import shutil
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

from repro.analysis.candidates import candidate_opcodes, capture_sids
from repro.analysis.metrics import loop_metrics
from repro.analysis.report import BenchmarkReport, LoopReport
from repro.errors import AnalysisError, WorkloadError
from repro.frontend import parse_source
from repro.frontend.driver import compile_source
from repro.frontend.lower import lower
from repro.interp.compile import KernelTable
from repro.interp.interpreter import (
    DEFAULT_FUEL,
    Interpreter,
    ProfileCounters,
    count_traced_run,
    run_and_trace,
)
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.obs import current_run, get_logger
from repro.obs.run import init_worker
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
    "analyze_program",
    "analyze_kernel",
    "run_loop_analyses",
    "windowed_loop_ddg",
]


def windowed_loop_ddg(module: Module, loop_id: int, loop_name: str,
                      entry: str, args: Sequence, instance: int,
                      fuel: int, spill_dir: Optional[str] = None,
                      segment_rows: Optional[int] = None,
                      compile_loops: bool = True,
                      compile_threshold: Optional[int] = None,
                      cone_ops=None, kernels: Optional[KernelTable] = None):
    """Fused trace→DDG for one loop instance: the windowed re-run streams
    into columnar storage and the DDG drops out without materializing a
    record list.  The sink's span counter validates the instance: no
    recorded span means the requested instance never executed; more than
    one means the window filter misbehaved, and silently taking the
    first would analyze the wrong iteration.

    Returns ``(ddg, stats, counters)``.  ``stats`` are the window sink's
    (:meth:`~repro.trace.columnar.ColumnarSink.stats`).  The re-run
    executes the whole program to completion; the window only filters
    what the sink keeps.  So its profile counters (``counters``, a
    :class:`~repro.interp.interpreter.ProfileCounters` snapshot) and its
    executed-instruction count equal a sink-less run's, and
    :func:`analyze_program`, handed its loops by name, takes its §4.1
    profile from them.

    With ``spill_dir`` set the window streams through a
    :class:`~repro.trace.store.SegmentedLoopSink` instead — full segments
    spill to a per-loop subdirectory under ``segment_rows``-row budgets
    and the DDG is reassembled by streaming segment windows through the
    same remap.  The resulting DDG is bit-identical to the in-RAM path.

    ``cone_ops`` (a set of candidate opcodes) cuts the DDG down to the
    window's candidate cone inside the remap
    (:class:`~repro.trace.columnar.CandidateCone`), and the re-run
    records only the instructions of the capture set
    (:func:`~repro.analysis.candidates.capture_sids`): ``kernels``, the
    caller's :class:`~repro.interp.compile.KernelTable` for ``module``,
    carries that set (a fresh table for ``cone_ops`` when none is
    given).  The re-run dispatches the kernels earlier runs of the same
    analysis built and adds its own.  ``trace.records.kept`` and
    ``ddg.nodes`` still count the whole window, ``trace.records
    .captured`` the rows held; ``ddg.edges`` counts the edges among
    them, and ``ddg.cone_nodes``/``ddg.cone_edges`` the cone.

    The static capture set misses a memory dependence only where two
    base objects share an address at run time (a stack slot reused by
    another frame and read as an uninitialized local, a subscript past
    an array's end).  The re-run catches that: an
    uncaptured load inside the window that read a captured store is a
    *capture miss*.  On a miss the window (and its spill subdirectory)
    is discarded and run again capturing every instruction, which counts
    ``trace.capture_fallbacks`` and logs a ``vectra.pipeline`` warning;
    ``kernels`` then captures every instruction for the rest of the
    analysis.  If the capture set holds every sid of the window's
    dynamic candidate cone, the cone cut from the captured rows equals
    the one cut from all rows (DESIGN.md §18), so the DDG never depends
    on the capture set.
    """
    tel = current_run().tel
    if kernels is None:
        kernels = KernelTable(None if cone_ops is None
                              else capture_sids(module, cone_ops))
    if spill_dir:
        from repro.trace.store import (
            DEFAULT_SEGMENT_ROWS,
            SegmentedLoopSink,
            spill_subdir,
        )

        window_dir = spill_subdir(spill_dir, f"{loop_name}-inst{instance}")

    def rerun():
        if spill_dir:
            sink = SegmentedLoopSink(
                loop_id, instances={instance}, spill_dir=window_dir,
                segment_rows=(DEFAULT_SEGMENT_ROWS if segment_rows is None
                              else segment_rows),
            )
        else:
            sink = ColumnarLoopSink(loop_id, instances={instance})
        with tel.span("loop.rerun", hist=True):
            interp = Interpreter(module, sink=sink, fuel=fuel,
                                 compile_loops=compile_loops,
                                 compile_threshold=compile_threshold,
                                 kernels=kernels)
            interp.run(entry, args)
        return sink, interp

    sink, interp = rerun()
    if sink.capture_misses:
        _log.warning(
            "loop %r: %d load(s) outside the capture set read a captured "
            "store; re-running the window with every instruction "
            "captured", loop_name, sink.capture_misses,
        )
        tel.count("trace.capture_fallbacks")
        tel.instant("trace.capture_fallback",
                    {"loop": loop_name, "misses": sink.capture_misses})
        if spill_dir:
            shutil.rmtree(window_dir, ignore_errors=True)
        kernels.reset(None)
        sink, interp = rerun()
    counters = interp.profile_counters()
    stats = sink.stats()
    if tel.enabled:
        count_traced_run(tel, interp, stats)
        tel.count("trace.records.captured", stats["captured"])
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
            ddg = store.to_ddg(cone_ops=cone_ops)
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
    return ddg, stats, counters


def analyze_loop(
    module: Module,
    loop_name: str,
    entry: str = "main",
    args: Sequence = (),
    instance: int = 0,
    include_integer: bool = False,
    relax_reductions: bool = False,
    fuel: int = DEFAULT_FUEL,
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
                         include_integer, relax_reductions, fuel,
                         spill_dir, segment_rows, compile_loops,
                         compile_threshold)[0]


def _analyze_loop(
    module, loop_name, entry, args, instance, include_integer,
    relax_reductions, fuel, spill_dir, segment_rows, compile_loops,
    compile_threshold, kernels=None,
) -> Tuple[LoopReport, ProfileCounters]:
    """:func:`analyze_loop`, also returning the re-run's profile counters
    (see :func:`windowed_loop_ddg`).  ``kernels`` is the caller's kernel
    table for ``module``, with the capture set of this ``include_integer``
    (a fresh table per re-run when ``None``)."""
    run = current_run()
    tel = run.tel
    info = module.loop_by_name(loop_name)
    if info is None:
        known = ", ".join(li.name for li in module.loops.values())
        raise AnalysisError(
            f"no loop named {loop_name!r}; known loops: {known}"
        )
    tel.instant("loop.analyze.start", {"loop": loop_name})
    run.bus.phase(f"loop.{loop_name}")
    # hist=True: one occurrence per analyzed loop, so --profile can
    # report p50/p95 per-loop analysis latency across the whole run.
    with tel.span("loop.analyze", hist=True):
        ddg, stats, counters = windowed_loop_ddg(
            module, info.loop_id, loop_name, entry, args, instance, fuel,
            spill_dir=spill_dir, segment_rows=segment_rows,
            compile_loops=compile_loops,
            compile_threshold=compile_threshold,
            cone_ops=candidate_opcodes(include_integer), kernels=kernels)
        report = loop_metrics(ddg, module, loop_name, include_integer,
                              relax_reductions)
    tel.count("pipeline.loops_analyzed")
    if tel.enabled:
        tel.section(f"loop.{loop_name}", {
            "loop": loop_name,
            "records_traced": stats["rows"],
            "captured_rows": stats["captured"],
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
    run.bus.count("loops")
    return report, counters


def _loop_worker(payload):
    """Process-pool entry point: recompile the source and analyze one
    loop.  Compilation and interpretation are deterministic, so the
    result is identical to an in-process run on the parent's module.

    Returns ``(report, profile counters, telemetry snapshot or None)``.
    The counters are the re-run's (see :func:`windowed_loop_ddg`).  The
    loop runs in a fresh task run built from the parent's worker spec
    (:meth:`repro.obs.run.Run.task`).  When the parent records, the
    task's telemetry snapshot rides home so the parent's merged counters
    match a serial run.  A parent timeline makes each worker record its
    own :class:`~repro.obs.timeline.EventLog` (stamped with the worker
    pid), so a ``--jobs N`` trace renders as N worker tracks; a parent
    sampler makes each task sample itself and fold its resolved sample
    table and ``sampling.samples``/``sampling.ir_samples`` counts into
    the snapshot, so the merged flamegraph covers all workers and the
    merged counts equal its sample total."""
    (source, benchmark, loop_name, entry, args, instance,
     include_integer, relax_reductions, fuel, compile_loops,
     compile_threshold) = payload
    with current_run().task() as run:
        module = compile_source(source, benchmark or "module")
        report, counters = _analyze_loop(
            module, loop_name, entry, args, instance, include_integer,
            relax_reductions, fuel, None, None, compile_loops,
            compile_threshold)
    return report, counters, (run.tel.snapshot() if run.tel.enabled
                              else None)


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
    spill_dir: Optional[str] = None,
    segment_rows: Optional[int] = None,
    compile_loops: bool = True,
    compile_threshold: Optional[int] = None,
    kernels: Optional[dict] = None,
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
    into the current run's telemetry, so counter totals match the serial
    path exactly.

    With ``spill_dir`` set, loops run serially whatever ``jobs`` says:
    an out-of-core run is memory-bound, so loop-level fan-out would
    multiply the working set.

    ``kernels`` is a :class:`~repro.interp.compile.KernelTable` for
    ``module`` that the caller owns, with the capture set of this
    ``include_integer``, or ``None`` for a fresh table per re-run.  The
    serial re-runs share it: a later loop's re-run dispatches the
    kernels an earlier run built from its first iteration on, instead of
    stepping to the hotness threshold and recording and compiling them
    again.  Pool workers compile a module
    of their own, so each keeps its own table, and the ``interp.compile``
    counters of a pooled run then count the kernel work each worker
    repeats.
    """
    run = current_run()
    tel = run.tel
    bus = run.bus
    names = list(loop_names)
    if jobs is None or int(jobs) <= 0:
        jobs = multiprocessing.cpu_count()
    jobs = 1 if spill_dir else max(1, min(int(jobs), len(names)))
    tel.gauge("pipeline.jobs", jobs)
    bus.set_total("loops", len(names))

    def serial() -> Tuple[List[LoopReport], Optional[ProfileCounters]]:
        analyses = [
            _analyze_loop(module, name, entry, args, instance,
                          include_integer, relax_reductions, fuel,
                          spill_dir, segment_rows, compile_loops,
                          compile_threshold, kernels)
            for name in names
        ]
        return ([report for report, _ in analyses],
                analyses[0][1] if analyses else None)

    if jobs <= 1:
        return serial()
    payloads = [
        (source, benchmark, name, entry, tuple(args), instance,
         include_integer, relax_reductions, fuel, compile_loops,
         compile_threshold)
        for name in names
    ]
    # Workers set their phases on their own buses; this is the parent's.
    bus.phase("loops")
    try:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context()
        with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx,
                                 initializer=init_worker,
                                 initargs=(run.worker_spec(),)) as pool:
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
        run.note("pool_failure", {
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
    loops: Optional[Sequence[str]] = None,
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
    spill_dir: Optional[str] = None,
    segment_rows: Optional[int] = None,
    compile_loops: bool = True,
    compile_threshold: Optional[int] = None,
) -> BenchmarkReport:
    """The full §4.1 methodology for one program.

    With ``loops=None`` a profile run picks the hot loops: those that
    take at least ``threshold`` of the cycles (a fraction in [0, 1]),
    innermost first.  A list of loop names (labels or ``function:line``)
    skips that run: the names are checked before anything is
    interpreted, an empty list interprets nothing, and Percent Cycles
    and Percent Packed come from the profile counters of the first
    loop's re-run, wherever it ran (see :func:`windowed_loop_ddg`).

    ``jobs > 1`` analyzes the loops concurrently across a process pool
    (``None`` = one worker per CPU); reports are byte-identical to
    ``jobs=1``.  ``spill_dir``/``segment_rows`` run the windowed traces
    out-of-core (bit-identical report; loops then run serially).  The
    profile run and the serial re-runs share one kernel table.
    """
    if not 0.0 <= threshold <= 1.0:
        raise AnalysisError(
            f"threshold is a fraction of the cycles in [0, 1], "
            f"got {threshold}"
        )
    run = current_run()
    tel = run.tel
    bus = run.bus
    with tel.span("analysis.total"):
        bus.phase("frontend")
        with tel.span("frontend.parse_lower"):
            program, analyzer = parse_source(source)
            module = lower(analyzer, benchmark or "module")
            verify_module(module)
            if vec_config is None:
                vec_config = VectorizerConfig()
            decisions = analyze_program_loops(program, analyzer, vec_config)

        kernels = KernelTable(
            capture_sids(module, candidate_opcodes(include_integer)))
        if loops is None:
            bus.phase("profile")
            with tel.span("profile.run"):
                profile = Interpreter(module, fuel=fuel,
                                      compile_loops=compile_loops,
                                      compile_threshold=compile_threshold,
                                      kernels=kernels)
                profile.run(entry, args)
                profiles = profile_loops(module, profile, cost_model)
                hot = hot_loops(module, profile, threshold, cost_model)
            if tel.enabled:
                tel.count("interp.runs")
                tel.count("interp.instructions",
                          profile.executed_instructions)
                tel.count("pipeline.hot_loops", len(hot))
            loop_ids = [prof.loop_id for prof in hot]
            names = [module.loops[lid].name for lid in loop_ids]
        else:
            names = list(loops)
            loop_ids = []
            for name in names:
                info = module.loop_by_name(name)
                if info is None:
                    known = ", ".join(li.name for li in module.loops.values())
                    raise WorkloadError(
                        f"{benchmark}: no loop named {name!r} "
                        f"(known: {known})"
                    )
                loop_ids.append(info.loop_id)

        loop_reports, counters = run_loop_analyses(
            source, benchmark, module, names, entry, args, instance,
            include_integer, relax_reductions, fuel, jobs,
            spill_dir=spill_dir, segment_rows=segment_rows,
            compile_loops=compile_loops,
            compile_threshold=compile_threshold, kernels=kernels,
        )
        if loops is not None and names:
            # The first re-run ran the whole program: its counters are
            # the profile a sink-less run would have taken.
            profile = counters
            bus.phase("profile")
            with tel.span("profile.run"):
                profiles = profile_loops(module, profile, cost_model)
        report = BenchmarkReport(benchmark=benchmark)
        for loop_id, loop_report in zip(loop_ids, loop_reports):
            loop_report.benchmark = benchmark
            prof = profiles.get(loop_id)
            if prof is not None:
                loop_report.percent_cycles = prof.percent_cycles
            loop_report.percent_packed = percent_packed(
                module, profile, decisions, loop_id, vec_config, profiles
            )
            report.loops.append(loop_report)
        bus.phase("report")
        tel.record_memory()
    return report


def analyze_kernel(name: str, **params) -> BenchmarkReport:
    """Analyze a registered workload kernel by name (see
    :mod:`repro.workloads`)."""
    from repro.workloads.loader import get_workload

    workload = get_workload(name)
    return workload.analyze(**params)
