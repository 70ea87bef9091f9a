"""Regenerate tests/golden_metrics.json, golden_metrics_int_relaxed.json
(and golden_trace.json) after an intentional analysis or trace-format
change.
Run: python tests/regenerate_golden.py"""

import json
import pathlib

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
    regenerate_trace_golden()


if __name__ == "__main__":
    main()
