"""Spans around each layer's public entry points, recorded from outside.

The program under test is not instrumented: :func:`install` replaces the
layer entry points (functions everywhere they are bound, methods on their
class) with wrappers that record one span per call — name, start, end and
the span that was open when the call began — plus counts read from the
arguments and return values.  Spans stay in memory and are written out
once, when the process ends.

Fork pool workers inherit the wrappers.  After the fork a worker drops the
parent's spans, keeps the parent's open span as the parent of its own top
spans, and writes its spans to ``spans-<pid>.json`` when it exits, so
:func:`load` can merge every process of the run.

A layer's self time is its span's duration minus the part of that interval
its child spans (from any process) cover.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import logging
import multiprocessing.util
import os
import resource
import sys
import threading
import weakref
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Layer time metrics: every one is the summed self time of its spans.
TIME_LAYERS = (
    "frontend.parse_s", "frontend.lower_s", "vectorizer.autovec_s",
    "vectorizer.packed_s", "profiler.hot_loops_s", "interp.profile_run_s",
    "interp.rerun_s", "trace.to_ddg_s", "trace.finish_s",
    "analysis.algorithm1_s", "analysis.unit_stride_s", "analysis.nonunit_s",
    "explain.loop_s", "pipeline.loop_analyses_s", "obs.report_s",
)
#: Layers that not every workload enters.
PARTIAL_LAYERS = ("analysis.nonunit_s", "explain.loop_s", "trace.finish_s",
                  "obs.report_s")
UNATTRIBUTED = "(unattributed)"

# Span record: (pid, id, parent, name, label, t0, t1); parent is a
# (pid, id) pair or None.
Span = Tuple[int, int, Optional[Tuple[int, int]], str, str, float, float]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Per-process span and count store (one per benchmark child)."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.root_pid = self.pid
        #: command label the spans and counts are attributed to.
        self.label = ""
        self.spans: List[Span] = []
        self.counts: Dict[str, Dict[str, float]] = {}
        self.maxima: Dict[str, float] = {}
        #: hot counters, folded into ``counts`` when the label changes.
        self._cells: Dict[str, List[int]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_label(self, label: str) -> None:
        self._fold()
        self.label = label

    def cell(self, name: str) -> List[int]:
        """A one-element counter for call sites too hot for :meth:`count`."""
        return self._cells.setdefault(name, [0])

    def _fold(self) -> None:
        for name, cell in self._cells.items():
            if cell[0]:
                self.count(name, cell[0])
                cell[0] = 0

    def count(self, name: str, value: float = 1) -> None:
        per_label = self.counts.setdefault(self.label, {})
        per_label[name] = per_label.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def wrap(self, fn: Callable, name, after: Optional[Callable] = None):
        """``fn`` recording one span per call.  ``name`` is the span name
        or a callable mapping the call's arguments to it; ``after(args,
        result)`` records counts once the call returned."""
        tracer = self
        name_of = name if callable(name) else (lambda args: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append((tracer.pid, span_id))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((tracer.pid, span_id, parent,
                                     name_of(args), tracer.label, t0, t1))
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- fork workers ------------------------------------------------------

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.counts = {}
        self.maxima = {}
        for cell in self._cells.values():
            cell[0] = 0
        multiprocessing.util.Finalize(self, self.flush, exitpriority=10)

    def flush(self) -> None:
        """Write this process's spans and counts to the output directory."""
        self._fold()
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w") as fh:
            json.dump({"pid": self.pid, "spans": self.spans,
                       "counts": self.counts, "maxima": self.maxima}, fh)


# -- installing the wrappers -------------------------------------------------

def _rebind(old, new) -> None:
    """Replace every module-level binding of function ``old`` by ``new``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or not getattr(module, "__name__", "").startswith(
                "repro"):
            continue
        for key, value in list(namespace.items()):
            if value is old:
                namespace[key] = new


def patch_function(module, attr: str, wrapper_of: Callable) -> None:
    old = getattr(module, attr)
    _rebind(old, wrapper_of(old))


def patch_method(cls, attr: str, wrapper_of: Callable) -> None:
    setattr(cls, attr, wrapper_of(cls.__dict__[attr]))


class _PoolFallbackCounter(logging.Handler):
    """Counts the pipeline's and trace store's pool-to-serial fallback
    warnings (the ``vectra.*`` loggers report each one)."""

    def __init__(self, tracer: Tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if "pool startup failed" in record.getMessage():
            self.tracer.count("pipeline.pool_fallbacks")


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics need."""
    import repro.analysis.nonunit as nonunit
    import repro.analysis.pipeline as pipeline
    import repro.analysis.stride as stride
    import repro.analysis.timestamps as timestamps
    import repro.explain.driver as explain
    import repro.frontend.driver as frontend
    import repro.frontend.lower as lower
    import repro.interp.compile as compile_
    import repro.ir.verifier as verifier
    import repro.obs.telemetry as telemetry
    import repro.profiler.hotloops as hotloops
    import repro.trace.columnar as columnar
    import repro.trace.store as store
    import repro.vectorizer.autovec as autovec
    import repro.vectorizer.packed as packed
    from repro.interp.interpreter import Interpreter

    span = tracer.wrap

    def as_span(name, after=None):
        return lambda fn: span(fn, name, after)

    patch_function(frontend, "parse_source", as_span("frontend.parse_s"))
    patch_function(lower, "lower", as_span("frontend.lower_s"))
    patch_function(verifier, "verify_module", as_span("frontend.lower_s"))
    patch_function(autovec, "analyze_program_loops",
                   as_span("vectorizer.autovec_s"))
    patch_function(packed, "percent_packed", as_span("vectorizer.packed_s"))
    patch_function(hotloops, "profile_loops",
                   as_span("profiler.hot_loops_s"))
    patch_function(hotloops, "hot_loops", as_span("profiler.hot_loops_s"))

    # Interpreter.run: a run without a sink is the profile pass, a run
    # into a loop-window sink is the windowed re-run.
    def interp_name(args):
        return ("interp.profile_run_s" if args[0].sink is None
                else "interp.rerun_s")

    executed = weakref.WeakKeyDictionary()

    def after_run(args, _result):
        interp = args[0]
        now = interp.executed_instructions
        tracer.count("interp.instructions", now - executed.get(interp, 0))
        executed[interp] = now
        sink = interp.sink
        if sink is not None and hasattr(sink, "stats"):
            tracer.count("trace.records", sink.stats()["rows"])

    patch_method(Interpreter, "run", as_span(interp_name, after_run))

    # Compiled batches: LoopKernel.fn hands out the kernel function once
    # per dispatch; wrapping what it returns counts batches and the loop
    # iterations each one completed.
    batches = tracer.cell("interp.compile.batches")
    iterations = tracer.cell("interp.compile.iterations")

    def counting_kernel(fn):
        @functools.wraps(fn)
        def kernel_fn(self, recording):
            kernel = fn(self, recording)

            def counted(*args):
                result = kernel(*args)
                batches[0] += 1
                iterations[0] += result[0]
                return result
            return counted
        return kernel_fn

    patch_method(compile_.LoopKernel, "fn", counting_kernel)

    def after_to_ddg(_args, ddg):
        tracer.count("ddg.nodes", len(ddg.sids))
        tracer.count("ddg.edges", len(ddg.pred_indices))
        tracer.maximum("trace.to_ddg_peak_rss_mb", _maxrss_mb())

    patch_method(columnar.ColumnarSink, "to_ddg",
                 as_span("trace.to_ddg_s", after_to_ddg))
    patch_method(store.SegmentStore, "to_ddg",
                 as_span("trace.to_ddg_s", after_to_ddg))
    # The per-segment remap, which pool workers run for SegmentStore.to_ddg.
    patch_method(store.SegmentStore, "_chunk", as_span("trace.to_ddg_s"))

    def after_finish(_args, seg_store):
        tracer.count("trace.segments", len(seg_store.segments))
        tracer.count("trace.spill_bytes",
                     seg_store.manifest.get("segment_bytes", 0))

    patch_method(store.SegmentedSink, "finish",
                 as_span("trace.finish_s", after_finish))

    def after_algorithm1(args, _result):
        tracer.count("analysis.algorithm1_nodes", len(args[0].sids))

    patch_function(timestamps, "batched_parallel_partitions",
                   as_span("analysis.algorithm1_s", after_algorithm1))
    patch_function(timestamps, "packed_timestamp_scan",
                   as_span("analysis.algorithm1_s", after_algorithm1))
    patch_function(stride, "unit_stride_subpartitions",
                   as_span("analysis.unit_stride_s"))

    def after_nonunit(_args, subs):
        tracer.count("analysis.nonunit_leftovers",
                     sum(len(s) for s in subs))
        tracer.count("analysis.nonunit_grouped",
                     sum(len(s) for s in subs if len(s) >= 2))

    patch_function(nonunit, "nonunit_stride_subpartitions",
                   as_span("analysis.nonunit_s", after_nonunit))

    # Stride comparisons of the waitlist scan, counted only where
    # repro.analysis.nonunit imported the helper.
    compare = nonunit._tuple_stride
    compares = tracer.cell("analysis.nonunit_compares")

    def counted_compare(prev, cur):
        compares[0] += 1
        return compare(prev, cur)

    nonunit._tuple_stride = counted_compare

    patch_function(explain, "explain_loop", as_span("explain.loop_s"))
    patch_function(pipeline, "run_loop_analyses",
                   as_span("pipeline.loop_analyses_s"))
    patch_method(telemetry.Telemetry, "report", as_span("obs.report_s"))
    patch_function(telemetry, "dump_report", as_span("obs.report_s"))

    logging.getLogger("vectra").addHandler(_PoolFallbackCounter(tracer))


# -- reading the spans back ----------------------------------------------------

def load(out_dir: str) -> Tuple[List[Span], Dict[str, Dict[str, float]],
                                Dict[str, float]]:
    """Every process's spans, per-label counts and maxima, merged."""
    spans: List[Span] = []
    counts: Dict[str, Dict[str, float]] = {}
    maxima: Dict[str, float] = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        for pid, span_id, parent, name, label, t0, t1 in doc["spans"]:
            spans.append((pid, span_id, tuple(parent) if parent else None,
                          name, label, t0, t1))
        for label, values in doc["counts"].items():
            mine = counts.setdefault(label, {})
            for name, value in values.items():
                mine[name] = mine.get(name, 0) + value
        for name, value in doc["maxima"].items():
            maxima[name] = max(value, maxima.get(name, value))
    return spans, counts, maxima


def _covered(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: List[Span]) -> Dict[Tuple[int, int], float]:
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for pid, _sid, parent, _name, _label, t0, t1 in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for pid, span_id, _parent, _name, _label, t0, t1 in spans:
        key = (pid, span_id)
        out[key] = (t1 - t0) - _covered(children.get(key, []), t0, t1)
    return out


def layer_table(spans: List[Span], root_pid: int,
                windows: List[Tuple[float, float]]) -> List[dict]:
    """Self time per layer, ranked, plus the unattributed remainder: the
    part of the commands' wall time (``windows``, one per command) that no
    span of the root process covers."""
    own = self_times(spans)
    rows: Dict[str, dict] = {}
    for pid, span_id, _parent, name, _label, _t0, _t1 in spans:
        row = rows.setdefault(name, {"layer": name, "self_s": 0.0,
                                     "calls": 0, "pids": set()})
        row["self_s"] += own[(pid, span_id)]
        row["calls"] += 1
        row["pids"].add(pid)
    top = [(t0, t1) for pid, _sid, parent, _n, _l, t0, t1 in spans
           if pid == root_pid and parent is None]
    ranked = sorted(rows.values(), key=lambda r: (-r["self_s"], r["layer"]))
    for row in ranked:
        row["procs"] = len(row.pop("pids"))
    ranked.append({"layer": UNATTRIBUTED, "calls": 0, "procs": 1,
                   "self_s": sum(b - a - _covered(top, a, b)
                                 for a, b in windows)})
    return ranked


def layer_metrics(spans: List[Span], counts: Dict[str, Dict[str, float]],
                  maxima: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (times are self times)."""
    own = self_times(spans)
    times = dict.fromkeys(TIME_LAYERS, 0.0)
    inclusive: Dict[str, float] = {}
    for pid, span_id, _parent, name, _label, t0, t1 in spans:
        times[name] = times.get(name, 0.0) + own[(pid, span_id)]
        inclusive[name] = inclusive.get(name, 0.0) + (t1 - t0)
    total: Dict[str, float] = {}
    for values in counts.values():
        for name, value in values.items():
            total[name] = total.get(name, 0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    interp_s = (inclusive.get("interp.profile_run_s", 0.0)
                + inclusive.get("interp.rerun_s", 0.0))
    out = dict(times)
    out.update({
        "interp.instructions": total.get("interp.instructions", 0),
        "interp.instr_per_s": ratio(total.get("interp.instructions", 0),
                                    interp_s),
        "interp.compile.iterations_per_batch": ratio(
            total.get("interp.compile.iterations", 0),
            total.get("interp.compile.batches", 0)),
        "trace.records": total.get("trace.records", 0),
        "trace.segments": total.get("trace.segments", 0),
        "trace.spill_bytes": total.get("trace.spill_bytes", 0),
        "trace.to_ddg_peak_rss_mb": maxima.get("trace.to_ddg_peak_rss_mb",
                                               0.0),
        "ddg.nodes": total.get("ddg.nodes", 0),
        "ddg.edges": total.get("ddg.edges", 0),
        "analysis.algorithm1_nodes_per_s": ratio(
            total.get("analysis.algorithm1_nodes", 0),
            inclusive.get("analysis.algorithm1_s", 0.0)),
        "analysis.nonunit_compares": total.get("analysis.nonunit_compares",
                                               0),
        "analysis.nonunit_yield": ratio(
            total.get("analysis.nonunit_grouped", 0),
            total.get("analysis.nonunit_leftovers", 0)),
        "pipeline.pool_fallbacks": total.get("pipeline.pool_fallbacks", 0),
    })
    return out
