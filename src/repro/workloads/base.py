"""Workload descriptors and the analysis driver they share."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.candidates import candidate_opcodes, capture_sids
from repro.analysis.pipeline import run_loop_analyses
from repro.analysis.report import BenchmarkReport
from repro.errors import WorkloadError
from repro.frontend import parse_source
from repro.frontend.lower import lower
from repro.interp.compile import KernelTable
from repro.interp.interpreter import DEFAULT_FUEL
from repro.ir.verifier import verify_module
from repro.obs import current_run
from repro.profiler.hotloops import profile_loops
from repro.vectorizer.autovec import VectorizerConfig, analyze_program_loops
from repro.vectorizer.packed import percent_packed

__all__ = ["Workload", "analyze_workload"]


def analyze_workload(
    source: str,
    benchmark: str,
    loops: Sequence[str],
    entry: str = "main",
    args: Sequence = (),
    instance: int = 0,
    vec_config: Optional[VectorizerConfig] = None,
    include_integer: bool = False,
    relax_reductions: bool = False,
    fuel: int = DEFAULT_FUEL,
    jobs: int = 1,
    spill_dir: Optional[str] = None,
    segment_rows: Optional[int] = None,
    compile_loops: bool = True,
    compile_threshold: Optional[int] = None,
) -> BenchmarkReport:
    """Analyze the named ``loops`` of one program (compile once, then
    per-loop fused windowed analysis — the §4.1 methodology with an
    explicit loop list instead of hot-loop discovery).

    There is no separate profile run: each windowed re-run executes the
    whole program, so Percent Cycles and Percent Packed come from the
    profile counters of the first loop's re-run, wherever it ran (see
    :func:`repro.analysis.pipeline.windowed_loop_ddg`).  Loop names are
    checked before anything is interpreted, and an empty ``loops``
    interprets nothing.  The serial re-runs share one kernel table, so
    a later loop's re-run dispatches the kernels the earlier ones built.

    ``jobs > 1`` fans the per-loop re-runs across a process pool with
    byte-identical results (see
    :func:`repro.analysis.pipeline.run_loop_analyses`).
    ``spill_dir``/``segment_rows`` run the windowed traces out-of-core
    through the segment store, one loop at a time — reports stay
    bit-identical."""
    run = current_run()
    tel = run.tel
    bus = run.bus
    with tel.span("analysis.total"):
        bus.phase("frontend")
        with tel.span("frontend.parse_lower"):
            program, analyzer = parse_source(source)
            module = lower(analyzer, benchmark)
            verify_module(module)
            if vec_config is None:
                vec_config = VectorizerConfig()
            decisions = analyze_program_loops(program, analyzer, vec_config)

        infos = []
        for loop_name in loops:
            info = module.loop_by_name(loop_name)
            if info is None:
                known = ", ".join(li.name for li in module.loops.values())
                raise WorkloadError(
                    f"{benchmark}: no loop named {loop_name!r} "
                    f"(known: {known})"
                )
            infos.append(info)

        loop_reports, counters = run_loop_analyses(
            source, benchmark, module, list(loops), entry, args, instance,
            include_integer, relax_reductions, fuel, jobs,
            spill_dir=spill_dir, segment_rows=segment_rows,
            compile_loops=compile_loops,
            compile_threshold=compile_threshold,
            kernels=KernelTable(
                capture_sids(module, candidate_opcodes(include_integer))),
        )
        report = BenchmarkReport(benchmark=benchmark)
        if infos:
            bus.phase("profile")
            with tel.span("profile.run"):
                profiles = profile_loops(module, counters)
            for info, loop_report in zip(infos, loop_reports):
                loop_report.benchmark = benchmark
                prof = profiles.get(info.loop_id)
                if prof is not None:
                    loop_report.percent_cycles = prof.percent_cycles
                loop_report.percent_packed = percent_packed(
                    module, counters, decisions, info.loop_id, vec_config,
                    profiles
                )
                report.loops.append(loop_report)
        bus.phase("report")
        tel.record_memory()
    return report


@dataclass
class Workload:
    """A registered kernel: source generator plus analysis targets.

    ``models`` documents which paper benchmark/loop the kernel stands in
    for (the substitution record DESIGN.md requires).
    """

    name: str
    category: str  # "spec" | "utdsp" | "kernel" | "casestudy"
    source_fn: Callable[..., str]
    default_params: Dict = field(default_factory=dict)
    analyze_loops: List[str] = field(default_factory=list)
    entry: str = "main"
    description: str = ""
    models: str = ""

    def params(self, **overrides) -> Dict:
        merged = dict(self.default_params)
        for key, value in overrides.items():
            if key not in self.default_params:
                raise WorkloadError(
                    f"{self.name}: unknown parameter {key!r} "
                    f"(accepts {sorted(self.default_params)})"
                )
            merged[key] = value
        return merged

    def source(self, **overrides) -> str:
        return self.source_fn(**self.params(**overrides))

    def compile(self, **overrides):
        from repro.frontend.driver import compile_source

        return compile_source(self.source(**overrides), self.name)

    def analyze(self, instance: int = 0,
                vec_config: Optional[VectorizerConfig] = None,
                include_integer: bool = False,
                relax_reductions: bool = False,
                fuel: int = DEFAULT_FUEL,
                jobs: int = 1,
                spill_dir: Optional[str] = None,
                segment_rows: Optional[int] = None,
                compile_loops: bool = True,
                compile_threshold: Optional[int] = None,
                **overrides) -> BenchmarkReport:
        return analyze_workload(
            self.source(**overrides),
            self.name,
            self.analyze_loops,
            entry=self.entry,
            instance=instance,
            vec_config=vec_config,
            include_integer=include_integer,
            relax_reductions=relax_reductions,
            fuel=fuel,
            jobs=jobs,
            spill_dir=spill_dir,
            segment_rows=segment_rows,
            compile_loops=compile_loops,
            compile_threshold=compile_threshold,
        )
