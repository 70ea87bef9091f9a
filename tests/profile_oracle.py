"""Reference oracle for the §4.1 profile of named loops.

The original two-pass driver for a list of loop names, kept as the
oracle that ``tests/test_profile_differential.py`` checks
:func:`repro.analysis.pipeline.analyze_program` (``loops=[...]``)
against.  It runs the whole program once without a trace sink to fill
Percent Cycles and Percent Packed, then analyzes every requested loop
through its windowed run.  The production driver takes the profile
from the windowed run instead.  The body is verbatim except for three
edits: ``run_loop_analyses`` now returns ``(reports, counters)``, and
the oracle drops the counters; it no longer takes the source and the
benchmark name, since no pool worker recompiles the source; and the
telemetry and status bus come from the current run instead of a
``tel`` parameter and the old process-global registries.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.pipeline import run_loop_analyses
from repro.analysis.report import BenchmarkReport
from repro.errors import WorkloadError
from repro.frontend import parse_source
from repro.frontend.lower import lower
from repro.interp.interpreter import DEFAULT_FUEL, Interpreter
from repro.ir.verifier import verify_module
from repro.obs import current_run
from repro.profiler.hotloops import profile_loops
from repro.vectorizer.autovec import VectorizerConfig, analyze_program_loops
from repro.vectorizer.packed import percent_packed


def analyze_named_loops(
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

        bus.phase("profile")
        with tel.span("profile.run"):
            interp = Interpreter(module, fuel=fuel,
                                 compile_loops=compile_loops,
                                 compile_threshold=compile_threshold)
            interp.run(entry, args)
            profiles = profile_loops(module, interp)
        if tel.enabled:
            tel.count("interp.runs")
            tel.count("interp.instructions", interp.executed_instructions)

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

        loop_reports, _ = run_loop_analyses(
            module, list(loops), entry, args, instance,
            include_integer, relax_reductions, fuel, jobs,
            spill_dir=spill_dir, segment_rows=segment_rows,
            compile_loops=compile_loops,
            compile_threshold=compile_threshold,
        )
        report = BenchmarkReport(benchmark=benchmark)
        for info, loop_report in zip(infos, loop_reports):
            loop_report.benchmark = benchmark
            prof = profiles.get(info.loop_id)
            if prof is not None:
                loop_report.percent_cycles = prof.percent_cycles
            loop_report.percent_packed = percent_packed(
                module, interp, decisions, info.loop_id, vec_config,
                profiles
            )
            report.loops.append(loop_report)
        bus.phase("report")
        tel.record_memory()
    return report
