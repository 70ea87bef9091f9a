"""One pass of one workload, in a fresh process.

``run.py`` starts this script once per pass.  It imports ``repro`` and
loads the workload registry (set-up), then drives every command of the
pass through ``repro.tools.cli.main`` in-process, with the program's own
observability off except where the workload's command line turns it on.
Untraced, it samples the machine's speed all along (``calibrate.py``),
so that the parent can report every time at the reference speed.  It
checks every per-loop report against the reference digests and writes
one JSON result document, ``result.json``, to ``--out-dir``.

With ``--trace 1`` the layer entry points are wrapped first (see
``tracer.py``) and the result also carries the per-layer metrics, the
ranked self-time table and per-command counts.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
sys.path.insert(0, HERE)

from calibrate import SpeedSampler  # noqa: E402


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _peak_rss_mb() -> float:
    """High-water RSS of this process and of its reaped pool workers."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


class Capture:
    """Keeps the reports the CLI computes, so each loop can be checked.

    ``Workload.analyze`` returns the per-loop reports of ``analyze``;
    ``explain_loop`` returns one report per explained loop."""

    def __init__(self):
        self.loops = {}
        self.values = {}

    def install(self) -> None:
        import repro.explain.driver as explain
        from repro.workloads.base import Workload

        from tracer import patch_function, patch_method

        def capture_analyze(fn):
            def analyze(workload, *args, **kwargs):
                report = fn(workload, *args, **kwargs)
                for loop in report.loops:
                    self.loops[loop.loop_name] = digest(
                        dataclasses.asdict(loop))
                    self.values[loop.loop_name] = [
                        loop.percent_packed, loop.avg_concurrency,
                        loop.percent_vec_unit, loop.avg_vec_size_unit,
                        loop.percent_vec_nonunit, loop.avg_vec_size_nonunit]
                return report
            return analyze

        def capture_explain(fn):
            def explain_loop(*args, **kwargs):
                report = fn(*args, **kwargs)
                self.loops[report.loop_name] = digest(report.to_dict())
                return report
            return explain_loop

        patch_method(Workload, "analyze", capture_analyze)
        patch_function(explain, "explain_loop", capture_explain)

    def take(self):
        loops, values = self.loops, self.values
        self.loops, self.values = {}, {}
        return loops, values


# -- cross-check against the checked-in paper tables --------------------------

@functools.lru_cache(maxsize=1)
def _table_rows():
    """``{(program, loop): [(source, measured values as printed)]}`` for
    every row of ``results/table1.txt`` and ``results/table3.txt``."""
    import re

    from repro.workloads.spec import TABLE1_ROWS
    from repro.workloads.utdsp import TABLE3_ROWS

    cell = re.compile(r"(-?\d+\.\d) \(")
    rows = {}
    with open(os.path.join(ROOT, "results", "table1.txt")) as fh:
        table1 = {line[:44].rstrip(): cell.findall(line[44:])
                  for line in fh}
    for key, row in TABLE1_ROWS.items():
        rows.setdefault((row.workload, row.loop), []).append(
            (f"table1 {key}", table1.get(key)))
    # table3 prints packed, concur, unit, unit size, nonunit (no n.size).
    with open(os.path.join(ROOT, "results", "table3.txt")) as fh:
        table3 = {}
        for line in fh:
            parts = line.split()
            if len(parts) > 2:
                table3[f"{parts[0]}/{parts[1]}"] = re.findall(
                    r"(-?\d+\.\d)\s*\(", line)
    for key, row in TABLE3_ROWS.items():
        rows.setdefault((row.workload, row.loop), []).append(
            (f"table3 {key}", table3.get(key)))
    return rows


def cross_check(program: str, values) -> list:
    """Mismatches between this pass's reports and the checked-in tables."""
    problems = []
    table = _table_rows()
    for loop, measured in values.items():
        for source, printed in table.get((program, loop), ()):
            want = [f"{v:.1f}" for v in measured][:len(printed or ())]
            if not printed or printed != want:
                problems.append(f"{source}: measured {want} but the table "
                                f"reads {printed}")
    return problems


# -- the pass -------------------------------------------------------------------

def run_pass(args, sampler: SpeedSampler) -> dict:
    """One pass; ``sampler`` was started at the top of the child unless
    the pass is traced.  Every time it reports excludes the samples."""
    import repro.tools.cli as cli
    from repro.workloads import list_workloads

    list_workloads()
    setup = {"setup_s": _monotonic() - args.spawned_at
             - sampler.spent_since(sampler.START)}
    if args.setup_only:
        setup["speed"] = sampler.speed_since(sampler.START)
        return setup

    import tracer as tracing
    import workloads

    reference = {}
    if os.path.exists(REFERENCE):  # absent only while it is first recorded
        with open(REFERENCE) as fh:
            reference = json.load(fh)["expected"]
    workload = workloads.WORKLOADS[args.workload]
    expected = reference.get(workload.reference, {})
    if "registry" in reference:
        programs = [label.split(":", 1)[1] for label in reference["registry"]]
    else:
        programs = [w.name for w in list_workloads()]
    cmds = workloads.commands(args.workload, args.seed, programs,
                              args.out_dir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(args.out_dir)
        tracing.install(tracer)
    capture = Capture()
    capture.install()

    results = []
    times = {}
    windows = []
    pass_mark = sampler.mark()
    for cmd in cmds:
        mark = sampler.mark()
        if tracer is not None:
            tracer.set_label(cmd.label)
        out = io.StringIO()
        error = None
        began = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(list(cmd.argv))
        except Exception:  # a crashed command fails its loops, not the pass
            rc, error = 1, traceback.format_exc(limit=5)
        windows.append((began, time.perf_counter()))
        times[cmd.label] = (windows[-1][1] - began
                            - sampler.spent_since(mark))
        loops, values = capture.take()
        results.append((cmd, rc, error, loops, values))
        # Users run one command per process; without this, garbage left
        # by earlier commands would make the peak RSS depend on the order.
        gc.collect()
    speed = None if args.trace else sampler.speed_since(pass_mark)
    peak_rss_mb = _peak_rss_mb()

    attempted = failed = 0
    problems = []
    for cmd, rc, error, loops, values in results:
        want = expected.get(cmd.label, {}).get("loops")
        if want is None:
            problems.append(f"{cmd.label}: no reference digests")
            want = loops or {"?": None}
            bad = set(want)
        else:
            bad = {name for name, dig in want.items()
                   if rc != 0 or loops.get(name) != dig}
        attempted += len(want)
        if args.workload == "registry" and rc == 0:
            program = cmd.label.split(":", 1)[1]
            mismatches = cross_check(program, values)
            problems += [f"{cmd.label}: {m}" for m in mismatches]
            if mismatches:
                bad |= set(values)
        failed += len(bad)
        if rc != 0:
            problems.append(f"{cmd.label}: exit code {rc}"
                            + (f"\n{error}" if error else ""))
        elif bad:
            problems.append(f"{cmd.label}: report differs from the "
                            f"reference for loop(s) {sorted(bad)}")

    result = {
        **setup,
        "wall_s": sum(times.values()),
        "times": times,
        "speed": speed,
        "peak_rss_mb": peak_rss_mb,
        "records": sum(expected.get(cmd.label, {}).get("records", 0)
                       for cmd in cmds),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": {cmd.label: loops for cmd, _rc, _e, loops, _v in results},
    }
    if tracer is not None:
        tracer.set_label("")
        tracer.flush()
        spans, counts, maxima = tracing.load(args.out_dir)
        layers = tracing.layer_metrics(spans, counts, maxima)
        status = os.path.join(args.out_dir, "status.jsonl")
        frames = 0
        if os.path.exists(status):
            with open(status) as fh:
                frames = sum(1 for _ in fh)
        layers["obs.status_frames"] = frames
        wall = sum(times.values())
        for layer in tracing.PARTIAL_LAYERS:
            share = layer[:-len("_s")] + "_share"
            layers[share] = layers[layer] / wall if wall else 0.0
        result["layers"] = layers
        result["table"] = tracing.layer_table(spans, tracer.root_pid,
                                              windows)
        result["counts"] = counts
        with open(os.path.join(args.out_dir, "spans.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "root_pid": tracer.root_pid, "commands": windows,
                       "spans": spans, "counts": counts, "maxima": maxima},
                      fh)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC when the parent started us")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    sampler = SpeedSampler()
    if not args.trace:
        sampler.start()
    try:
        result = run_pass(args, sampler)
    finally:
        sampler.stop()
    with open(os.path.join(args.out_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
