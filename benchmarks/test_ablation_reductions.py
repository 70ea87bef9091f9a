"""Ablation 1: reduction-dependence relaxation (the paper's stated
future work, §3 / §4.1).

The paper observes that Percent Packed can *exceed* the dynamic
Percent Vec. Ops on reduction-heavy loops (454.calculix, 482.sphinx3)
because icc vectorizes reductions while the analysis treats accumulation
chains as serial.  This bench quantifies how much of that gap the
relaxation closes on the sphinx3-style kernel.
"""

from repro.analysis.reductions import reduction_relaxed_partitions
from repro.analysis.timestamps import (
    average_partition_size,
    parallel_partitions,
)
from repro.analysis.candidates import candidate_sids
from repro.analysis.pipeline import windowed_loop_ddg
from repro.frontend import compile_source
from repro.workloads.spec.sphinx3 import subvq_source

from benchmarks.conftest import write_result


def run_ablation(codebook=32, dim=16):
    module = compile_source(subvq_source(codebook=codebook, dim=dim))
    loop = module.loop_by_name("vq_c")
    ddg, _, _ = windowed_loop_ddg(module, loop.loop_id, "vq_c")
    rows = []
    for sid in candidate_sids(ddg):
        strict = parallel_partitions(ddg, sid)
        relaxed = reduction_relaxed_partitions(ddg, sid)
        rows.append((
            module.instruction(sid).mnemonic,
            module.instruction(sid).line,
            average_partition_size(strict),
            average_partition_size(relaxed),
        ))
    return rows


def test_reduction_relaxation(benchmark, results_dir):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    lines = [
        "Ablation 1: per-instruction average partition size, strict vs "
        "reduction-relaxed (sphinx3 subvq model)",
        f"{'instr':8} {'line':>5} {'strict':>10} {'relaxed':>10}",
    ]
    improved = 0
    for mnemonic, line, strict, relaxed in rows:
        lines.append(
            f"{mnemonic:8} {line:5} {strict:10.2f} {relaxed:10.2f}"
        )
        assert relaxed >= strict - 1e-9  # relaxation never hurts
        if relaxed > strict * 1.5:
            improved += 1
    write_result(results_dir, "ablation_reductions.txt",
                 "\n".join(lines) + "\n")
    # The dist accumulation chain must open up substantially.
    assert improved >= 1
