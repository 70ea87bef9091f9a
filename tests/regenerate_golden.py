"""Regenerate tests/golden_metrics.json (and golden_trace.json) after an
intentional analysis or trace-format change.
Run: python tests/regenerate_golden.py"""

import json
import pathlib

from repro.workloads import list_workloads


def regenerate_trace_golden() -> None:
    from test_timeline import GOLDEN_PATH, build_golden_log

    build_golden_log().write_chrome_trace(str(GOLDEN_PATH))
    print(f"wrote Chrome trace golden to {GOLDEN_PATH}")


def main() -> None:
    golden = {}
    for workload in list_workloads():
        report = workload.analyze()
        golden[workload.name] = {
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
    path = pathlib.Path(__file__).parent / "golden_metrics.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True))
    entries = sum(len(v) for v in golden.values())
    print(f"wrote {entries} loop entries to {path}")
    regenerate_trace_golden()


if __name__ == "__main__":
    main()
