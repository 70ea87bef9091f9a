"""End-to-end benchmark of ``vectra analyze`` with per-layer attribution.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload scaled --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload

Each pass of a workload is a fresh child process (``child.py``).  With
``--trace 0`` the run measures untraced passes for ``--seconds`` seconds
and reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced passes, prints the ranked "where the time goes" table
and reports the per-layer metrics.  Set-up time is also sampled by a few
children that only set up.  Every loop report is checked against
``reference.json``; the last line of standard output is one JSON object,
and the exit code is nonzero when any check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: set-up-only children per run (after one unmeasured warm-up).
SETUP_SAMPLES = 8
#: a run kills any child still running this long after it started, so
#: that it ends within three minutes whatever happens.
RUN_DEADLINE_S = 165.0


def metric_units(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    declared in BENCHMARK.json, in their declared order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts the children of one workload run and collects their results."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = os.path.join(WORK, f"run-{os.getpid()}-{workload}")
        tmp = os.path.join(self.dir, "tmp")
        os.makedirs(tmp)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        PYTHONHASHSEED="0", TMPDIR=tmp)
        self.deadline = _monotonic() + RUN_DEADLINE_S
        self.n = 0

    def child(self, trace: int = 0, setup_only: bool = False) -> dict:
        self.n += 1
        out_dir = os.path.join(self.dir, f"pass-{self.n}")
        os.makedirs(out_dir)
        argv = [sys.executable, os.path.join(HERE, "child.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--trace", str(trace), "--out-dir", out_dir]
        if setup_only:
            argv.append("--setup-only")
        spawned_at = _monotonic()
        argv += ["--spawned-at", repr(spawned_at)]
        # A session of its own, so a hung pass is killed with its workers.
        proc = subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                stdout=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            rc = proc.wait(timeout=max(0.0, self.deadline - _monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            rc = "timeout"
        path = os.path.join(out_dir, "result.json")
        if rc != 0 or not os.path.exists(path):
            return {"error": f"pass child exited with {rc}"}
        with open(path) as fh:
            result = json.load(fh)
        result["dir"] = out_dir
        return result

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    runner = Runner(workload, seed)
    try:
        runner.child(setup_only=True)  # warm the bytecode cache; not timed
        setups = [runner.child(setup_only=True)
                  for _ in range(SETUP_SAMPLES)]
        plain, traced = [], []
        start = _monotonic()
        while _monotonic() < runner.deadline:
            began = _monotonic()
            plain.append(runner.child())
            if trace:
                traced.append(runner.child(trace=1))
            # Stop once another pass would overrun by more than half.
            if _monotonic() - start > seconds - (_monotonic() - began) / 2:
                break
        return summarize(workload, seed, setups, plain, traced)
    finally:
        runner.close()


def _median(values):
    return statistics.median(values) if values else 0.0


def at_reference_s(p) -> float:
    """The commands' summed time in pass ``p``, at the reference speed.

    Other tenants slow the machine for seconds to minutes at a time, so
    the same pass can take 30% longer in one run than in the next.  The
    child samples the machine's speed all through the pass; scaling by
    the mean speed cancels the machine's and keeps the program's."""
    return sum(p["times"].values()) * p["speed"]


def summarize(workload, seed, setups, plain, traced) -> dict:
    passes = plain + traced
    problems = [p["error"] for p in passes + setups if "error" in p]
    ok_plain = [p for p in plain if "error" not in p]
    ok_traced = [p for p in traced if "error" not in p]
    attempted = sum(p.get("attempted", 0) for p in passes)
    failed = sum(p.get("failed", 0) for p in passes)
    # A pass that crashed outright attempted the loops a good pass does.
    per_pass = max((p["attempted"] for p in ok_plain + ok_traced), default=1)
    crashed = sum(1 for p in passes if "error" in p)
    attempted += crashed * per_pass
    failed += crashed * per_pass
    for p in ok_plain + ok_traced:
        problems += p["problems"]
    out = {
        "workload": workload, "seed": seed,
        "passes": len(plain), "traced_passes": len(traced),
        "attempted": max(attempted, 1), "failed": failed,
        "problems": problems,
        "correct": not problems and failed == 0,
        "wall_samples": [p["wall_s"] for p in ok_plain],
        "speed_samples": [p["speed"] for p in ok_plain],
        "reference_samples": [at_reference_s(p) for p in ok_plain],
    }
    wall = _median([at_reference_s(p) for p in ok_plain])
    out["end_to_end"] = {
        "wall_s": wall,
        "records_per_s": (ok_plain[0]["records"] / wall) if wall else 0.0,
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in ok_plain]),
        "setup_s": _median([s["setup_s"] * s["speed"]
                            for s in setups if "error" not in s]),
    }
    out["failed_frac"] = failed / out["attempted"]
    if ok_traced:
        layers = {}
        for name in ok_traced[0]["layers"]:
            layers[name] = _median([p["layers"][name] for p in ok_traced])
        # Traced passes do not sample (it would add to the layers' times),
        # but they alternate with untraced ones, so the two raw medians
        # saw the same machine.
        raw = _median([p["wall_s"] for p in ok_plain])
        layers["bench.trace_overhead_frac"] = (
            _median([p["wall_s"] for p in ok_traced]) / raw - 1.0
            if raw else 0.0)
        out["per_layer"] = layers
        # The table of the traced pass with the median wall time.
        ranked = sorted(ok_traced, key=lambda p: p["wall_s"])
        shown = ranked[(len(ranked) - 1) // 2]
        out["table"] = shown["table"]
        out["traced_wall_s"] = shown["wall_s"]
        os.makedirs(WORK, exist_ok=True)
        spans_path = os.path.join(WORK, f"spans-{workload}.json")
        shutil.copyfile(os.path.join(shown["dir"], "spans.json"), spans_path)
        out["spans_file"] = os.path.relpath(spans_path, ROOT)
    return out


# -- printing ------------------------------------------------------------------

def print_run(res: dict, trace: int) -> None:
    print(f"== workload {res['workload']}  seed {res['seed']}  "
          f"passes {res['passes']} untraced, {res['traced_passes']} traced")
    for name, unit in metric_units("end_to_end").items():
        print(f"  {name:<16} {res['end_to_end'][name]:14.4f} {unit}")
    print(f"  {'failed_frac':<16} {res['failed_frac']:14.4f} ratio  "
          f"({res['failed']} of {res['attempted']} loops)")
    print(f"  measured wall_s per pass: "
          + ", ".join(f"{w:.3f}" for w in res["wall_samples"]))
    print(f"  machine speed per pass (reference = 1): "
          + ", ".join(f"{v:.3f}" for v in res["speed_samples"]))
    print(f"  wall_s at the reference speed per pass: "
          + ", ".join(f"{w:.3f}" for w in res["reference_samples"]))
    for problem in res["problems"][:20]:
        print(f"  FAIL {problem}")
    if trace and "table" in res:
        wall = res["traced_wall_s"]
        print(f"-- where the time goes ({res['workload']}): traced wall "
              f"{wall:.3f} s, tracing overhead "
              f"{100 * res['per_layer']['bench.trace_overhead_frac']:+.1f}%")
        print(f"  {'rank':>4}  {'layer':<28} {'self_s':>9} {'%wall':>7} "
              f"{'calls':>8} {'procs':>5}")
        for rank, row in enumerate(res["table"], 1):
            print(f"  {rank:>4}  {row['layer']:<28} {row['self_s']:9.3f} "
                  f"{100 * row['self_s'] / wall:6.1f}% {row['calls']:>8} "
                  f"{row['procs']:>5}")
        print(f"  spans: {res['spans_file']}")
        for name, unit in metric_units("per_layer").items():
            print(f"  {name:<36} {res['per_layer'][name]:16.4f} {unit}")


def metrics_of(res: dict, trace: int) -> dict:
    kind, values = (("per_layer", res.get("per_layer", {})) if trace
                    else ("end_to_end", res["end_to_end"]))
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in metric_units(kind).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no src/repro next to perfbench/; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, args.trace)
               for name in names]
    for res in results:
        print_run(res, args.trace)
    if len(results) == 1:
        metrics = metrics_of(results[0], args.trace)
    else:
        metrics = {f"{res['workload']}.{name}": value
                   for res in results
                   for name, value in metrics_of(res, args.trace).items()}
    summary = {
        "correct": all(res["correct"] for res in results),
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
