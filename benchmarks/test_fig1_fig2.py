"""Figures 1 and 2: the motivating DDG analyses of paper §2.

Regenerates the timestamp/partition structure for Listing 1 (Kumar's
global timestamps vs Algorithm 1) and Listing 2 (Larus's loop-level
model vs Algorithm 1), asserting the exact counts the figures show.
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

from benchmarks.conftest import write_result

N = 16

LISTING1 = """
double A[{n}];
double B[{n}][{n}];
int main() {{
  int i, j;
  for (i = 1; i < {n}; ++i) A[i] = 2.0 * A[i-1];
  for (i = 0; i < {n}; ++i)
    for (j = 1; j < {n}; ++j)
      B[j][i] = B[j-1][i] * A[i];
  return 0;
}}
"""

LISTING2 = """
double A[{n}]; double B[{n}]; double C[{n}];
int main() {{
  int i;
  L: for (i = 1; i < {n}; ++i) {{
    A[i] = 2.0 * B[i-1];
    B[i] = 0.5 * C[i];
  }}
  return 0;
}}
"""


def _fmul_sids(module, ddg):
    return sorted(
        (s for s in set(ddg.sids)
         if module.instruction(s).opcode is Opcode.FMUL),
        key=lambda s: module.instruction(s).line,
    )


def _sizes(parts):
    return dict(sorted(Counter(len(p) for p in parts.values()).items()))


def run_figure1(n):
    module = compile_source(LISTING1.format(n=n))
    sink = ColumnarSink()
    Interpreter(module, sink=sink).run("main")
    ddg = sink.to_ddg()
    s1, s2 = _fmul_sids(module, ddg)
    return {
        "profile": kumar_profile(ddg, weights="candidates"),
        "kumar_s2": kumar_partitions(ddg, s2, "candidates"),
        "ours_s2": parallel_partitions(ddg, s2),
        "ours_s1": parallel_partitions(ddg, s1),
    }


def run_figure2(n):
    module = compile_source(LISTING2.format(n=n))
    loop = module.loop_by_name("L")
    [window], _ = record_windows(module, [(loop.loop_id, "L")])
    iterations = node_iterations(window.trace, loop.loop_id)
    ddg = window.ddg()
    out = {"larus": larus_loop_parallelism(ddg, iterations, loop.loop_id)}
    for idx, sid in enumerate(_fmul_sids(module, ddg)):
        out[f"larus_s{idx + 1}"] = larus_partitions(
            ddg, iterations, loop.loop_id, sid
        )
        out[f"ours_s{idx + 1}"] = parallel_partitions(ddg, sid)
    return out


def test_figure1(benchmark, results_dir):
    data = benchmark.pedantic(run_figure1, args=(N,), rounds=1,
                              iterations=1)
    profile = data["profile"]
    # Paper Fig. 1: critical path 2(N-1); average parallelism (N+1)/2.
    assert profile.critical_path == 2 * (N - 1)
    assert abs(profile.average_parallelism - (N + 1) / 2) < 1e-9
    # Fig. 1(b): Algorithm 1 gives N-1 partitions of size N for S2.
    assert _sizes(data["ours_s2"]) == {N: N - 1}
    assert _sizes(data["ours_s1"]) == {1: N - 1}
    # Fig. 1(a): Kumar splits S2 into 2(N-1) smaller partitions.
    assert len(data["kumar_s2"]) == 2 * (N - 1)
    assert max(len(p) for p in data["kumar_s2"].values()) < N

    lines = [
        f"Figure 1 reproduction (Listing 1, N={N})",
        f"paper: Kumar critical path = 2(N-1) = {2 * (N - 1)}; "
        f"measured = {profile.critical_path}",
        f"paper: average parallelism = (N+1)/2 = {(N + 1) / 2}; "
        f"measured = {profile.average_parallelism:.2f}",
        f"paper Fig 1(a): Kumar partitions of S2 interleave with S1 -> "
        f"{len(data['kumar_s2'])} partitions {_sizes(data['kumar_s2'])}",
        f"paper Fig 1(b): Algorithm 1 partitions of S2 -> "
        f"{_sizes(data['ours_s2'])} (N-1 partitions of size N)",
    ]
    write_result(results_dir, "fig1.txt", "\n".join(lines) + "\n")


def test_figure2(benchmark, results_dir):
    data = benchmark.pedantic(run_figure2, args=(N,), rounds=1,
                              iterations=1)
    # Fig. 2(b): Larus groups are singletons (iteration-chained).
    assert max(len(p) for p in data["larus_s1"].values()) == 1
    assert max(len(p) for p in data["larus_s2"].values()) == 1
    # Fig. 2(c): Algorithm 1 puts each statement in one full partition.
    assert _sizes(data["ours_s1"]) == {N - 1: 1}
    assert _sizes(data["ours_s2"]) == {N - 1: 1}
    larus = data["larus"]
    assert larus.parallelism < 2.0

    lines = [
        f"Figure 2 reproduction (Listing 2, N={N})",
        f"Larus loop-level parallelism: {larus.parallelism:.2f} "
        "(constrained by the S2->S1 loop-carried dependence)",
        f"Larus partitions of S1: {_sizes(data['larus_s1'])}; of S2: "
        f"{_sizes(data['larus_s2'])}   (paper Fig 2(b))",
        f"Algorithm 1 partitions of S1: {_sizes(data['ours_s1'])}; "
        f"of S2: {_sizes(data['ours_s2'])}   (paper Fig 2(c): full-width)",
    ]
    write_result(results_dir, "fig2.txt", "\n".join(lines) + "\n")
