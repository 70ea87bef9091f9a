"""Dynamic data-dependence graphs."""

from repro.ddg.graph import DDG

__all__ = ["DDG"]
