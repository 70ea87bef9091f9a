"""Workload kernels: the programs the experiments run.

The paper evaluates on SPEC CFP2006 hot loops, the UTDSP suite, and two
standalone kernels.  SPEC sources and inputs cannot be shipped, so each
SPEC benchmark is modeled by a *pattern-faithful* mini-C kernel that
reproduces the dependence structure, memory layout, and control flow the
paper describes for its hot loops (see each module's docstring for the
mapping).  UTDSP kernels and the standalone kernels are implemented
directly, in both array and pointer styles where the paper compares them.
"""

from repro.workloads.base import Workload
from repro.workloads.loader import (
    get_workload,
    list_workloads,
    register,
)

__all__ = [
    "Workload",
    "get_workload",
    "list_workloads",
    "register",
]
