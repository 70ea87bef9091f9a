"""End-to-end driver: source text in, Table-1-style reports out.

:func:`analyze_program` is the one driver of the paper's methodology
(§4.1):

1. compile and run the program, collecting a cycle profile;
2. select hot loops (>=10% of cycles, innermost-first selection rule);
3. run the program once more, recording the subtrace of one
   representative dynamic instance of every hot loop — each loop's
   *window* — in that one run (:func:`record_windows`);
4. for each window, build the DDG, run Algorithm 1 + the stride
   analyses, and attach the static-vectorizer Percent Packed for
   comparison.

Steps 1-2 run only where the loops are discovered.  Handed its loops by
name (``loops=[...]``, as :meth:`repro.workloads.base.Workload.analyze`
and ``analyze-file --loop`` do), the driver skips the separate profile
run: the windowed run executes the whole program and accumulates the
same profile counters as a sink-less run, so the profile of step 1
comes from it (:func:`run_loop_analyses` hands those counters back).

Step 3 uses the fused columnar path: the windowed run streams records
straight into DDG-shaped columns, one window sink per loop
(:class:`ColumnarLoopSink`, or the spilling
:class:`~repro.trace.store.SegmentedLoopSink` under ``spill_dir``)
behind one :class:`~repro.trace.columnar.WindowFanout` when there are
several (DESIGN.md §20), and one numpy remap per window turns them into
the DDG, so no per-record objects exist between interpretation and
analysis.  The remap keeps only the window's candidate cone — the nodes
a candidate instruction reaches, the only ones Algorithm 1 can give a
nonzero timestamp — so step 4 builds and scans no node that cannot move
a partition (:class:`~repro.trace.columnar.CandidateCone`).  The run
itself records only the instructions a candidate can reach statically
(:func:`~repro.analysis.candidates.capture_sids`, DESIGN.md §18).

Step 4 fans out across a process pool when ``jobs > 1``: a fork pool
starts after the run and its workers inherit the recorded windows, so
they only build DDGs and metrics — none recompiles the source or
interprets — and reports are byte-identical to the serial path.  Pool
failures fall back to serial, with a ``vectra.pipeline`` warning so the
degradation is visible.  Without a fork start method, and in an
out-of-core run (``spill_dir``), the windows are analyzed serially.

The driver records stage spans plus work counters into the current
run's telemetry (:func:`repro.obs.run.current_run`; a no-op unless e.g.
the CLI's ``--profile`` installed a run that records).  Pool workers
record each window's analysis into a fresh telemetry and ship a
snapshot back with its report, which the parent merges; the run itself
happens in the parent.  So serial and pooled analyses report identical
counter totals.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
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
)
from repro.ir.module import LoopInfo, Module
from repro.ir.verifier import verify_module
from repro.obs import current_run, get_logger
from repro.obs.run import init_worker
from repro.profiler.costmodel import CostModel
from repro.profiler.hotloops import hot_loops, profile_loops
from repro.trace.columnar import ColumnarLoopSink, WindowFanout
from repro.vectorizer.autovec import VectorizerConfig, analyze_program_loops
from repro.vectorizer.packed import percent_packed

_log = get_logger("pipeline")

__all__ = [
    "compile_source",
    "analyze_loop",
    "analyze_program",
    "analyze_kernel",
    "find_loop",
    "LoopWindow",
    "record_windows",
    "run_loop_analyses",
    "windowed_loop_ddg",
]


def find_loop(module: Module, loop_name: str) -> LoopInfo:
    """The loop named ``loop_name`` (a label or ``function:line``);
    :class:`AnalysisError`, listing the module's loops, if there is
    none."""
    info = module.loop_by_name(loop_name)
    if info is None:
        known = ", ".join(li.name for li in module.loops.values())
        raise AnalysisError(
            f"no loop named {loop_name!r}; known loops: {known}"
        )
    return info


def record_windows(module: Module, loops: Sequence[Tuple[int, str]],
                   entry: str = "main", args: Sequence = (),
                   instance: int = 0, fuel: int = DEFAULT_FUEL,
                   spill_dir: Optional[str] = None,
                   segment_rows: Optional[int] = None,
                   compile_loops: bool = True,
                   compile_threshold: Optional[int] = None,
                   kernels: Optional[KernelTable] = None):
    """Record instance ``instance`` of each of ``loops`` (``(loop id,
    name)`` pairs) in one run of the program.

    Each loop's window streams into a window sink of its own: a
    :class:`ColumnarLoopSink`, or with ``spill_dir`` a
    :class:`~repro.trace.store.SegmentedLoopSink` that spills full
    segments to a per-loop subdirectory under ``segment_rows``-row
    budgets.  One window's sink is the interpreter's sink; several sit
    behind a :class:`~repro.trace.columnar.WindowFanout`, which hands
    each the calls a run of its own would, so every window's columns
    equal those of a run of that loop alone (DESIGN.md §20).  Loops
    named twice share one window.

    Returns ``(windows, counters)``.  ``windows`` holds one
    :class:`LoopWindow` per loop, in order.  The run
    executes the whole program to completion; the windows only filter
    what the sinks keep.  So its profile counters (``counters``, a
    :class:`~repro.interp.interpreter.ProfileCounters` snapshot) and its
    executed-instruction count equal a sink-less run's, and
    :func:`analyze_program`, handed its loops by name, takes its §4.1
    profile from them.  The run counts ``interp.runs`` and
    ``interp.instructions`` once and the ``loop.rerun`` span; each
    window counts its ``trace.records.*`` and ``trace.spans_recorded``.
    Each window's span counter validates the instance: no recorded span
    means the requested instance never executed; more than one means the
    window filter misbehaved, and silently taking the first would
    analyze the wrong iteration.  Whatever makes the recording fail, it
    removes the windows' spill subdirectories (and the spill root, if it
    made it), so a failed run leaves no store behind.

    ``kernels``, the caller's :class:`~repro.interp.compile.KernelTable`
    for ``module``, carries the run's capture set
    (:func:`~repro.analysis.candidates.capture_sids`; a fresh table,
    capturing every instruction, when none is given).  The run
    dispatches the kernels earlier runs of the same analysis built and
    adds its own.  The static capture set misses a memory dependence
    only where two base objects share an address at run time (a stack
    slot reused by another frame and read as an uninitialized local, a
    subscript past an array's end).  The run catches that: an uncaptured
    load inside a window that read a captured store is a *capture miss*.
    A miss in any window discards every window (and its spill
    subdirectory) and runs the program once more capturing every
    instruction, which counts one ``trace.capture_fallbacks`` and logs
    one ``vectra.pipeline`` warning; ``kernels`` then captures every
    instruction for the rest of the analysis.  If the capture set holds
    every sid of a window's dynamic candidate cone, the cone cut from
    the captured rows equals the one cut from all rows (DESIGN.md §18),
    so no DDG depends on the capture set.
    """
    tel = current_run().tel
    if kernels is None:
        kernels = KernelTable()
    names = {}
    for loop_id, loop_name in loops:
        names.setdefault(loop_id, loop_name)
    if spill_dir:
        from repro.trace.store import (
            DEFAULT_SEGMENT_ROWS,
            SegmentedLoopSink,
            spill_subdir,
        )

        dirs = {loop_id: spill_subdir(spill_dir, f"{name}-inst{instance}")
                for loop_id, name in names.items()}
        made_root = not os.path.isdir(spill_dir)

    def discard(root: bool = False) -> None:
        """Remove the windows' spill subdirectories; with ``root``, also
        the spill root if this call made it and it is left empty."""
        if spill_dir:
            for window_dir in dirs.values():
                shutil.rmtree(window_dir, ignore_errors=True)
            if root and made_root:
                with contextlib.suppress(OSError):
                    os.rmdir(spill_dir)

    def record():
        if spill_dir:
            sinks = {
                loop_id: SegmentedLoopSink(
                    loop_id, instances={instance}, spill_dir=dirs[loop_id],
                    segment_rows=(DEFAULT_SEGMENT_ROWS if segment_rows is None
                                  else segment_rows))
                for loop_id in names
            }
        else:
            sinks = {loop_id: ColumnarLoopSink(loop_id, instances={instance})
                     for loop_id in names}
        sink = (WindowFanout(sinks.values()) if len(sinks) > 1
                else next(iter(sinks.values())))
        with tel.span("loop.rerun", hist=True):
            interp = Interpreter(module, sink=sink, fuel=fuel,
                                 compile_loops=compile_loops,
                                 compile_threshold=compile_threshold,
                                 kernels=kernels)
            interp.run(entry, args)
        if isinstance(sink, WindowFanout):
            sink.settle()
        return sinks, interp

    try:
        sinks, interp = record()
        missed = {loop_id: sink.capture_misses
                  for loop_id, sink in sinks.items() if sink.capture_misses}
        if missed:
            _log.warning(
                "loop %s: %d load(s) outside the capture set read a "
                "captured store; re-running the program with every "
                "instruction captured",
                ", ".join(repr(names[lid]) for lid in missed),
                sum(missed.values()),
            )
            tel.count("trace.capture_fallbacks")
            tel.instant("trace.capture_fallback",
                        {"loops": [names[lid] for lid in missed],
                         "misses": sum(missed.values())})
            discard()
            kernels.reset(None)
            sinks = interp = None
            sinks, interp = record()
        counters = interp.profile_counters()
        stats = {loop_id: sink.stats() for loop_id, sink in sinks.items()}
        if tel.enabled:
            executed = interp.executed_instructions
            tel.count("interp.runs")
            tel.count("interp.instructions", executed)
            for loop_id, _ in loops:
                window = stats[loop_id]
                tel.count("trace.records.kept", window["rows"])
                tel.count("trace.records.filtered", executed - window["rows"])
                tel.count("trace.records.captured", window["captured"])
                tel.count("trace.markers", window["markers"])
                tel.count("trace.backpatches", window["backpatches"])
                tel.count("trace.spans_recorded",
                          sinks[loop_id].spans_recorded)
        for loop_id, loop_name in loops:
            spans = sinks[loop_id].spans_recorded
            if spans == 0:
                raise AnalysisError(
                    f"loop {loop_name!r} instance {instance} never executed"
                )
            if spans != 1:
                raise AnalysisError(
                    f"loop {loop_name!r}: expected one recorded span for "
                    f"instance {instance}, found {spans}"
                )
        traces = {loop_id: sink.finish() if spill_dir else sink
                  for loop_id, sink in sinks.items()}
    except BaseException:
        discard(root=True)
        raise
    return ([LoopWindow(traces[lid], stats[lid]) for lid, _ in loops],
            counters)


class LoopWindow:
    """One loop's window as :func:`record_windows` recorded it: its
    ``stats`` (the window sink's
    :meth:`~repro.trace.columnar.ColumnarSink.stats`) and its ``trace``
    — the window sink itself in RAM, the finished
    :class:`~repro.trace.store.SegmentStore` when spilled — until
    :meth:`ddg` turns it into the window's DDG (``trace`` is ``None``
    from then on)."""

    __slots__ = ("stats", "trace")

    def __init__(self, trace, stats: dict):
        self.stats = stats
        self.trace = trace

    def ddg(self, cone_ops=None):
        """The window's DDG.  The window lets go of its columns here, so
        they are freed once the DDG exists: call it once.

        ``cone_ops`` (a set of candidate opcodes) cuts the DDG down to
        the window's candidate cone inside the remap
        (:class:`~repro.trace.columnar.CandidateCone`).  A spilled
        window's DDG is reassembled by streaming its segments through the
        same remap, bit-identical to the in-RAM one.  ``ddg.nodes``
        counts the whole window, captured or not, ``ddg.edges`` the edges
        among the captured rows, and ``ddg.cone_nodes``/``ddg
        .cone_edges`` the cone.
        """
        trace, self.trace = self.trace, None
        tel = current_run().tel
        with tel.span("ddg.build"):
            ddg = trace.to_ddg(cone_ops=cone_ops)
        if tel.enabled:
            tel.count("ddg.nodes", ddg.window_nodes)
            tel.count("ddg.edges", ddg.window_edges)
            if cone_ops is not None:
                tel.count("ddg.cone_nodes", len(ddg.sids))
                tel.count("ddg.cone_edges", ddg.num_edges)
            tel.count("ddg.marker_segments",
                      self.stats["marker_segments"])
        return ddg


def windowed_loop_ddg(module: Module, loop_id: int, loop_name: str,
                      entry: str = "main", args: Sequence = (),
                      instance: int = 0, fuel: int = DEFAULT_FUEL,
                      spill_dir: Optional[str] = None,
                      segment_rows: Optional[int] = None,
                      compile_loops: bool = True,
                      compile_threshold: Optional[int] = None,
                      cone_ops=None, kernels: Optional[KernelTable] = None):
    """Fused trace→DDG for one loop instance: the one-loop case of
    :func:`record_windows`, and the window's :meth:`LoopWindow.ddg`.

    Returns ``(ddg, stats, counters)``: the window's DDG (its candidate
    cone with ``cone_ops``), the window sink's stats and the run's
    profile counters.  ``kernels`` defaults to a fresh table with the
    capture set of ``cone_ops`` (every instruction without one).
    """
    if kernels is None:
        kernels = KernelTable(None if cone_ops is None
                              else capture_sids(module, cone_ops))
    [window], counters = record_windows(
        module, [(loop_id, loop_name)], entry, args, instance, fuel,
        spill_dir, segment_rows, compile_loops, compile_threshold, kernels)
    return window.ddg(cone_ops), window.stats, counters


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
    return run_loop_analyses(
        module, [loop_name], entry, args, instance, include_integer,
        relax_reductions, fuel, spill_dir=spill_dir,
        segment_rows=segment_rows, compile_loops=compile_loops,
        compile_threshold=compile_threshold)[0][0]


def _analyze_window(module, loop_name, window: LoopWindow,
                    include_integer, relax_reductions) -> LoopReport:
    """The metrics of ``loop_name`` from its recorded ``window``, whose
    columns are freed once its DDG exists, before Algorithm 1 and the
    stride scans run."""
    run = current_run()
    tel = run.tel
    tel.instant("loop.analyze.start", {"loop": loop_name})
    run.bus.phase(f"loop.{loop_name}")
    # hist=True: one occurrence per analyzed loop, so --profile can
    # report p50/p95 per-loop analysis latency across the whole run.
    with tel.span("loop.analyze", hist=True):
        ddg = window.ddg(candidate_opcodes(include_integer))
        report = loop_metrics(ddg, module, loop_name, include_integer,
                              relax_reductions)
    tel.count("pipeline.loops_analyzed")
    if tel.enabled:
        tel.section(f"loop.{loop_name}", {
            "loop": loop_name,
            "records_traced": window.stats["rows"],
            "captured_rows": window.stats["captured"],
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
    return report


#: A pool worker's job: ``(module, loop names, recorded windows,
#: include_integer, relax_reductions)``, set by :func:`_init_worker`.
_worker_job = None


def _init_worker(spec, job) -> None:
    """Process-pool initializer: the worker's run
    (:func:`repro.obs.run.init_worker`) and the job its tasks read.  A
    fork worker inherits ``job`` with the parent's memory; nothing is
    pickled."""
    global _worker_job
    init_worker(spec)
    _worker_job = job


def _window_worker(index: int):
    """Process-pool entry point: analyze recorded window ``index``.

    Returns ``(report, telemetry snapshot or None)``.  The window is
    analyzed in a fresh task run built from the parent's worker spec
    (:meth:`repro.obs.run.Run.task`).  When the parent records, the
    task's telemetry snapshot rides home so the parent's merged counters
    match a serial analysis.  A parent timeline makes each worker record
    its own :class:`~repro.obs.timeline.EventLog` (stamped with the
    worker pid), so a ``--jobs N`` trace renders as N worker tracks; a
    parent sampler makes each task sample itself and fold its resolved
    sample table and ``sampling.samples``/``sampling.ir_samples`` counts
    into the snapshot, so the merged flamegraph covers all workers and
    the merged counts equal its sample total."""
    module, names, windows, include_integer, relax_reductions = _worker_job
    with current_run().task() as run:
        report = _analyze_window(module, names[index], windows[index],
                                 include_integer, relax_reductions)
    return report, (run.tel.snapshot() if run.tel.enabled else None)


def run_loop_analyses(
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
    kernels: Optional[KernelTable] = None,
) -> Tuple[List[LoopReport], Optional[ProfileCounters]]:
    """The windowed analyses of ``loop_names``: one run of the program
    records every loop's window (:func:`record_windows`), in the calling
    process; then each window's DDG and metrics are built in loop order,
    and each window's columns are freed once its DDG exists.

    Returns ``(reports, counters)``: the reports in ``loop_names`` order
    regardless of ``jobs``, so pooled analyses produce byte-identical
    reports, and the run's
    :class:`~repro.interp.interpreter.ProfileCounters` — the whole
    program's profile (``None`` without loops, which interprets
    nothing).

    ``jobs > 1`` analyzes the recorded windows across a fork process
    pool whose workers inherit them (``None`` or below 1: one worker per
    CPU).  Any failure to stand up the pool (restricted sandboxes,
    missing semaphores) falls back to the serial path with a
    ``vectra.pipeline`` warning.  Worker telemetry snapshots are merged
    into the current run's telemetry, so counter totals match the serial
    path exactly.  Without a fork start method the windows are analyzed
    serially, and so they are with ``spill_dir`` set: an out-of-core run
    is memory-bound, so fanning the windows out would multiply the
    working set.

    ``kernels`` is a :class:`~repro.interp.compile.KernelTable` for
    ``module`` that the caller owns, with the capture set of this
    ``include_integer``, or ``None`` for a fresh one: the run dispatches
    the kernels an earlier run of the same analysis (a profile run)
    built from its first iteration on, instead of stepping to the
    hotness threshold and recording and compiling them again.
    """
    run = current_run()
    tel = run.tel
    bus = run.bus
    names = list(loop_names)
    loops = [(find_loop(module, name).loop_id, name) for name in names]
    if jobs is None or int(jobs) <= 0:
        jobs = multiprocessing.cpu_count()
    if spill_dir or "fork" not in multiprocessing.get_all_start_methods():
        jobs = 1
    jobs = max(1, min(int(jobs), len(names)))
    tel.gauge("pipeline.jobs", jobs)
    bus.set_total("loops", len(names))
    if not names:
        return [], None
    if kernels is None:
        kernels = KernelTable(
            capture_sids(module, candidate_opcodes(include_integer)))
    windows, counters = record_windows(
        module, loops, entry, args, instance, fuel, spill_dir, segment_rows,
        compile_loops, compile_threshold, kernels)

    def serial() -> List[LoopReport]:
        return [_analyze_window(module, name, window, include_integer,
                                relax_reductions)
                for name, window in zip(names, windows)]

    if jobs <= 1:
        return serial(), counters
    # Workers set their phases on their own buses; this is the parent's.
    bus.phase("loops")
    job = (module, names, windows, include_integer, relax_reductions)
    try:
        with ProcessPoolExecutor(max_workers=jobs,
                                 mp_context=multiprocessing.get_context(
                                     "fork"),
                                 initializer=_init_worker,
                                 initargs=(run.worker_spec(), job)) as pool:
            # pool.map yields in submission order as results land, so
            # loop progress advances while later loops are still running.
            results = []
            for result in pool.map(_window_worker, range(len(names))):
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
        return serial(), counters
    finally:
        # Every exit shuts the pool down, a worker's own exception
        # included, so no exited worker is left reported as live.
        bus.retire_workers()
    reports: List[LoopReport] = []
    for report, snapshot in results:
        reports.append(report)
        tel.merge(snapshot)
    return reports, counters


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
    and Percent Packed come from the profile counters of the windowed
    run (see :func:`record_windows`).  Either way, one windowed run
    records every loop's window.

    ``jobs > 1`` analyzes the recorded windows concurrently across a
    process pool (``None`` = one worker per CPU); reports are
    byte-identical to ``jobs=1``.  ``spill_dir``/``segment_rows`` record
    the windows out-of-core (bit-identical report; the windows are then
    analyzed serially).  The profile run and the windowed run share one
    kernel table.
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
            module, names, entry, args, instance,
            include_integer, relax_reductions, fuel, jobs,
            spill_dir=spill_dir, segment_rows=segment_rows,
            compile_loops=compile_loops,
            compile_threshold=compile_threshold, kernels=kernels,
        )
        if loops is not None and names:
            # The windowed run ran the whole program: its counters are
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
