"""IR interpreter with dynamic-trace instrumentation."""

from repro.interp.interpreter import DEFAULT_FUEL, Interpreter, run_module

__all__ = ["DEFAULT_FUEL", "Interpreter", "run_module"]
