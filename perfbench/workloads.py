"""The benchmark's four workloads: which CLI commands one pass runs.

A pass is a list of ``vectra`` argument vectors, each driven in-process
through ``repro.tools.cli.main``.  Every command has a label
(``analyze:<program>`` / ``explain:<program>``) that keys its reference
digests and its per-program counts.  The seed only shuffles the order of
the commands in ``registry`` and ``scaled``; it never changes what is run,
so the reference digests do not depend on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: The dense two-loop stencil models of ``scaled``, each at 8x its default
#: grid (default nx=20 or 18, ny=6, nz=4).
_STENCILS = (
    ("gemsfdtd_update", ("nx=40", "ny=12", "nz=8")),
    ("cactus_leapfrog", ("nx=40", "ny=12", "nz=8")),
    ("wrf_solve_em", ("nx=36", "ny=12", "nz=8")),
    ("leslie3d_flux", ("nx=36", "ny=12", "nz=8")),
)
_GAUSS_SEIDEL = ("gauss_seidel", ("n=48",))
#: The program ``scaled`` and ``spilled`` share (one loop, ~0.9M records).
SHARED_PROGRAM = ("utdsp_mult_array", ("n=28",))
_MILC_SITES = "sites=192"


@dataclass(frozen=True)
class Command:
    label: str
    argv: Tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in README.md and in
    BENCHMARK.json's ``why`` lines."""

    name: str
    #: which reference section holds this workload's expected digests.
    reference: str
    shuffled: bool


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("registry", "registry", True),
        Workload("scaled", "scaled", True),
        Workload("strided", "strided", False),
        # Same program and size as in ``scaled``: the spilled report must
        # equal the in-RAM one, so it is checked against that reference.
        Workload("spilled", "scaled", False),
    )
}


def _params(values) -> List[str]:
    out: List[str] = []
    for value in values:
        out += ["-p", value]
    return out


def commands(workload: str, seed: int, registry_programs: List[str],
             work_dir: str) -> List[Command]:
    """The commands of one pass of ``workload``.

    ``registry_programs`` lists the programs ``registry`` analyzes (the
    reference's keys); ``work_dir`` receives the spill directory, run
    report and status frames of ``spilled``.
    """
    if workload == "registry":
        cmds = [Command(f"analyze:{name}", ("analyze", name))
                for name in sorted(registry_programs)]
    elif workload == "scaled":
        programs = _STENCILS + (_GAUSS_SEIDEL, SHARED_PROGRAM)
        cmds = [Command(f"analyze:{name}",
                        ("analyze", name, *_params(values), "-j", "2"))
                for name, values in programs]
    elif workload == "strided":
        sites = _params([_MILC_SITES])
        cmds = [
            Command("analyze:milc_su3mv", ("analyze", "milc_su3mv", *sites)),
            Command("explain:milc_su3mv", ("explain", "milc_su3mv", *sites)),
            Command("analyze:milc_transformed",
                    ("analyze", "milc_transformed", *sites)),
        ]
    elif workload == "spilled":
        name, values = SHARED_PROGRAM
        cmds = [Command(f"analyze:{name}", (
            "analyze", name, *_params(values),
            "--spill-dir", f"{work_dir}/spill",
            "--segment-rows", "262144", "-j", "2",
            "--metrics-json", f"{work_dir}/run-report.json",
            "--status-json", f"{work_dir}/status.jsonl",
        ))]
    else:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"known: {', '.join(WORKLOADS)}")
    if WORKLOADS[workload].shuffled:
        random.Random(seed).shuffle(cmds)
    if workload == "scaled":
        # The shared program peaks the pass's memory.  Run first, it peaks
        # the same whatever the order of the rest: later, the freed but
        # fragmented heap of earlier programs adds up to ~20 MB on top.
        cmds.sort(key=lambda cmd: cmd.label != f"analyze:{SHARED_PROGRAM[0]}")
    return cmds
