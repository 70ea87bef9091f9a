"""GPU-migration assessment (paper §1, use case 1).

"The quantitative information on average vector lengths can be useful in
assessing the potential benefit of converting the code to use GPUs
(where much higher degree of SIMD parallelism is needed than with
short-vector SIMD ISAs)."

This example profiles the vectorizable-group-size distribution of three
contrasting kernels and renders the width-coverage table: who saturates
a 2-4 lane SSE register, who fills a 32-lane warp, who fills nothing.

Run:  python examples/gpu_assessment.py
"""

from repro.analysis.pipeline import windowed_loop_ddg
from repro.analysis.vlength import vector_length_profile
from repro.workloads import get_workload

CANDIDATES = [
    ("lbm_stream_collide", "collide", {"cells": 192},
     "streaming lattice update"),
    ("utdsp_iir_array", "iir_n", {},
     "recurrent biquad cascade"),
    ("milc_su3mv", "sites_loop", {"sites": 64},
     "AoS complex mat-vec (layout-limited)"),
    ("povray_bbox", "walk", {},
     "irregular tree traversal"),
]


def main() -> None:
    for name, loop_label, params, blurb in CANDIDATES:
        workload = get_workload(name)
        module = workload.compile(**params)
        info = module.loop_by_name(loop_label)
        ddg, _, _ = windowed_loop_ddg(module, info.loop_id, loop_label,
                                      workload.entry)
        profile = vector_length_profile(ddg, module,
                                        f"{name}/{loop_label}")
        print(f"--- {name} ({blurb})")
        print(profile.table())
        print()


if __name__ == "__main__":
    main()
