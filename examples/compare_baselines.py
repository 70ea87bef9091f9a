"""Why prior dynamic analyses miss vectorization potential (paper §2).

Reproduces the Figure 1 / Figure 2 narratives: Kumar's global critical-
path timestamps interleave statements, and Larus's loop-level model is
chained to the original statement order — both under-expose the
partitions Algorithm 1 finds.

Run:  python examples/compare_baselines.py
"""

from collections import Counter

from repro.analysis.kumar import kumar_partitions, kumar_profile
from repro.analysis.larus import (
    larus_loop_parallelism,
    larus_partitions,
    node_iterations,
)
from repro.analysis.pipeline import record_windows
from repro.analysis.timestamps import parallel_partitions
from repro.frontend import compile_source
from repro.interp import Interpreter
from repro.ir.instructions import Opcode
from repro.trace import ColumnarSink

N = 8

LISTING1 = f"""
double A[{N}];
double B[{N}][{N}];
int main() {{
  int i, j;
  for (i = 1; i < {N}; ++i) A[i] = 2.0 * A[i-1];          // S1
  for (i = 0; i < {N}; ++i)
    for (j = 1; j < {N}; ++j)
      B[j][i] = B[j-1][i] * A[i];                          // S2
  return 0;
}}
"""

LISTING2 = f"""
double A[{N}]; double B[{N}]; double C[{N}];
int main() {{
  int i;
  L: for (i = 1; i < {N}; ++i) {{
    A[i] = 2.0 * B[i-1];   // S1
    B[i] = 0.5 * C[i];     // S2
  }}
  return 0;
}}
"""


def sizes(partitions):
    return dict(sorted(Counter(len(p) for p in partitions.values()).items()))


def fmul_sids(module, ddg):
    return sorted(
        (s for s in set(ddg.sids)
         if module.instruction(s).opcode is Opcode.FMUL),
        key=lambda s: module.instruction(s).line,
    )


def figure1() -> None:
    print(f"== Figure 1 (Listing 1, N={N}) ==")
    module = compile_source(LISTING1)
    sink = ColumnarSink()
    Interpreter(module, sink=sink).run("main")
    ddg = sink.to_ddg()
    s1, s2 = fmul_sids(module, ddg)
    profile = kumar_profile(ddg, weights="candidates")
    print(f"Kumar critical path: {profile.critical_path} "
          f"(paper: 2(N-1) = {2 * (N - 1)}); "
          f"avg parallelism {profile.average_parallelism:.1f} "
          f"(paper: (N+1)/2 = {(N + 1) / 2})")
    print(f"Kumar's partitions of S2 {{size: count}}: "
          f"{sizes(kumar_partitions(ddg, s2, 'candidates'))}")
    print(f"Algorithm 1 partitions of S2:              "
          f"{sizes(parallel_partitions(ddg, s2))}"
          f"   <- N-1 partitions of size N (Fig. 1(b))")
    print(f"Algorithm 1 partitions of S1 (the chain):  "
          f"{sizes(parallel_partitions(ddg, s1))}")
    print()


def figure2() -> None:
    print(f"== Figure 2 (Listing 2, N={N}) ==")
    module = compile_source(LISTING2)
    loop = module.loop_by_name("L")
    [window], _ = record_windows(module, [(loop.loop_id, "L")])
    iterations = node_iterations(window.trace, loop.loop_id)
    ddg = window.ddg()
    result = larus_loop_parallelism(ddg, iterations, loop.loop_id)
    print(f"Larus loop-level parallelism: {result.parallelism:.2f} "
          "(iterations chained by the S2 -> S1 dependence)")
    for sid in fmul_sids(module, ddg):
        line = module.instruction(sid).line
        larus = larus_partitions(ddg, iterations, loop.loop_id, sid)
        ours = parallel_partitions(ddg, sid)
        print(f"  stmt at line {line}: Larus groups {sizes(larus)} vs "
              f"Algorithm 1 {sizes(ours)}")
    print("Algorithm 1 recovers the loop-distributed view of Fig. 2(c):")
    print("one full-width partition per statement.")


if __name__ == "__main__":
    figure1()
    figure2()
