"""vectra — dynamic trace-based analysis of vectorization potential.

A from-scratch Python reproduction of Holewinski et al., *Dynamic
Trace-Based Analysis of Vectorization Potential of Applications*,
PLDI 2012.

High-level entry points (each re-exported from :mod:`repro.analysis.pipeline`
once the full pipeline is importable):

- :func:`compile_source` — mini-C source text to an IR :class:`~repro.ir.Module`.
- :func:`analyze_loop` — the paper's analysis of one loop:
  per-static-instruction parallel partitions, stride subpartitions, and the
  Table-1 metrics.
- :func:`analyze_program` — the §4.1 methodology for a whole program:
  profile, pick the hot loops (or take them by name), analyze each.
- :func:`analyze_kernel` — the same for a registered workload, by name.
"""

__version__ = "1.0.0"

from repro.errors import VectraError

__all__ = ["VectraError", "__version__"]

_PIPELINE_NAMES = frozenset(
    {
        "compile_source",
        "analyze_loop",
        "analyze_program",
        "analyze_kernel",
        "LoopReport",
    }
)


def __getattr__(name):
    # Lazy re-exports so `import repro` stays cheap and avoids import cycles.
    if name in _PIPELINE_NAMES:
        from repro.analysis import pipeline, report

        if name == "LoopReport":
            return report.LoopReport
        return getattr(pipeline, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
