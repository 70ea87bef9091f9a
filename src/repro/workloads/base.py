"""Workload descriptors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.pipeline import analyze_program
from repro.analysis.report import BenchmarkReport
from repro.errors import WorkloadError
from repro.interp.interpreter import DEFAULT_FUEL
from repro.vectorizer.autovec import VectorizerConfig

__all__ = ["Workload"]


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
        """The §4.1 analysis of :attr:`analyze_loops` (see
        :func:`~repro.analysis.pipeline.analyze_program`); ``overrides``
        are source parameters (:meth:`params`)."""
        return analyze_program(
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
