"""The speed of the machine, sampled while the program runs.

Other tenants of a shared machine change its speed by up to 2x, for
anything from a fraction of a second to minutes, and they slow CPU time
as much as wall time.  So while a child sets up and runs its commands, a
``SpeedSampler`` interrupts it every ``INTERVAL_S`` seconds and times a
small fixed kernel.  The benchmark reports each time at the machine's
reference speed: the measured time, less the time the samples took, times
the mean of the samples' speeds (``REFERENCE_S / kernel time``).

The kernel is the benchmark's own code, so no change under ``src/`` moves
it.  It exercises what the analysis spends its time on: the bytecode
loop, small objects, tuples as dict keys, list appends and a sort.  Its
time is CPU time of the sampling thread, so pool workers that hold both
cores while the parent waits do not count as a slower machine.
"""

from __future__ import annotations

import gc
import signal
import time

#: the kernel's CPU time at the reference speed: its usual time on a
#: 2-core Intel Xeon virtual machine under CPython 3.
REFERENCE_S = 0.0013
#: wall seconds between two samples.
INTERVAL_S = 0.05

_ITERATIONS = 1000


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _kernel() -> int:
    table = {}
    values = []
    acc = 0
    for i in range(_ITERATIONS):
        p = _Point(i, i * 7 % 13)
        table[(i, p.b)] = p
        values.append(p.a + p.b)
        acc += table.get((i - 3, (i - 3) * 7 % 13), p).a
    values.sort(key=lambda v: -v)
    return acc + values[0]


def kernel_s() -> float:
    """CPU seconds one run of the kernel takes now (garbage collection
    off)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.thread_time()
        _kernel()
        return time.thread_time() - began
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Samples the machine's speed on SIGALRM while started.

    ``speeds`` holds one ``REFERENCE_S / kernel time`` per sample, in
    order; ``spent_s`` is the wall time all samples took.  Fork children
    inherit the handler but not the timer, so they never sample."""

    #: the mark of the sampler's start.
    START = (0, 0.0)

    def __init__(self):
        self.speeds = []
        self.spent_s = 0.0
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        """A point in time to measure from: ``(samples so far, spent_s)``."""
        return len(self.speeds), self.spent_s

    def spent_since(self, mark) -> float:
        """Wall seconds the samples took since ``mark``."""
        return self.spent_s - mark[1]

    def speed_since(self, mark) -> float:
        """The mean speed since ``mark`` (reference = 1)."""
        speeds = self.speeds[mark[0]:] or [REFERENCE_S / kernel_s()]
        return sum(speeds) / len(speeds)

    def _sample(self, signum, frame) -> None:
        began = time.perf_counter()
        self.speeds.append(REFERENCE_S / kernel_s())
        self.spent_s += time.perf_counter() - began
