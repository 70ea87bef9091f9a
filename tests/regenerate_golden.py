"""Regenerate tests/golden_metrics.json, golden_metrics_int_relaxed.json,
golden_cli.json (and golden_trace.json) after an intentional analysis or
trace-format change.
Run: python tests/regenerate_golden.py"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

from repro.workloads import get_workload, list_workloads

#: Programs pinned under ``--integer --relax-reductions`` as well: a
#: filter, a stencil, an AoS kernel, a strided case study and a
#: reduction.
INT_RELAXED_PROGRAMS = ("utdsp_fir_array", "gauss_seidel", "milc_su3mv",
                        "bwaves_jacobian", "dealii_assembly")


def regenerate_trace_golden() -> None:
    from test_timeline import GOLDEN_PATH, build_golden_log

    build_golden_log().write_chrome_trace(str(GOLDEN_PATH))
    print(f"wrote Chrome trace golden to {GOLDEN_PATH}")


def golden_entry(report) -> dict:
    return {
        loop.loop_name: {
            "ops": loop.total_candidate_ops,
            "cycles": round(loop.percent_cycles, 2),
            "packed": round(loop.percent_packed, 2),
            "concur": round(loop.avg_concurrency, 2),
            "unit": round(loop.percent_vec_unit, 2),
            "unit_sz": round(loop.avg_vec_size_unit, 2),
            "nonunit": round(loop.percent_vec_nonunit, 2),
            "nonunit_sz": round(loop.avg_vec_size_nonunit, 2),
        }
        for loop in report.loops
    }


def cli_stdout(argv) -> str:
    """The stdout of one in-process ``vectra`` command, which must
    succeed."""
    from repro.tools.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"vectra {' '.join(argv)} exited {code}")
    return out.getvalue()


def dot_output(workload: str, loop: str, workdir: str):
    """``vectra dot WORKLOAD --loop LOOP`` run in ``workdir``: its
    stdout and the ``ddg.dot`` it wrote there."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        stdout = cli_stdout(["dot", workload, "--loop", loop])
        with open("ddg.dot", "rb") as fh:
            data = fh.read()
        os.unlink("ddg.dot")
    finally:
        os.chdir(cwd)
    return stdout, data


def dot_entry(stdout: str, data: bytes) -> dict:
    """A ``dot`` run as pinned: its stdout, and the written file by
    SHA-256 and size (the ten files hold ~700 KB of DOT text)."""
    return {"stdout": stdout, "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data)}


def dot_loops():
    """``(workload, loop)`` for every analyzed loop whose full DDG is
    small enough for ``vectra dot`` to render."""
    from repro.analysis.pipeline import windowed_loop_ddg
    from repro.ddg.dot import MAX_NODES

    out = []
    for workload in list_workloads():
        module = workload.compile()
        for name in workload.analyze_loops:
            info = module.loop_by_name(name)
            ddg, _, _ = windowed_loop_ddg(module, info.loop_id, name,
                                          workload.entry, (), 0,
                                          500_000_000)
            if len(ddg) <= MAX_NODES:
                out.append((workload.name, name))
    return out


def cli_golden() -> dict:
    """The stdout of ``vlength`` and ``baselines`` on every registry
    program, and ``dot`` on every analyzed loop it can render."""
    names = [w.name for w in list_workloads()]
    golden = {
        "vlength": {name: cli_stdout(["vlength", name]) for name in names},
        "baselines": {name: cli_stdout(["baselines", name])
                      for name in names},
        "dot": {},
    }
    with tempfile.TemporaryDirectory() as workdir:
        for workload, loop in dot_loops():
            golden["dot"][f"{workload}/{loop}"] = dot_entry(
                *dot_output(workload, loop, workdir))
    return golden


def write_golden(name: str, golden: dict) -> None:
    path = pathlib.Path(__file__).parent / name
    path.write_text(json.dumps(golden, indent=1, sort_keys=True))
    entries = sum(len(v) for v in golden.values())
    print(f"wrote {entries} loop entries to {path}")


def main() -> None:
    write_golden("golden_metrics.json", {
        workload.name: golden_entry(workload.analyze())
        for workload in list_workloads()
    })
    write_golden("golden_metrics_int_relaxed.json", {
        name: golden_entry(get_workload(name).analyze(
            include_integer=True, relax_reductions=True))
        for name in INT_RELAXED_PROGRAMS
    })
    golden = cli_golden()
    path = pathlib.Path(__file__).parent / "golden_cli.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, golden.values()))} command outputs to "
          f"{path}")
    regenerate_trace_golden()


if __name__ == "__main__":
    main()
