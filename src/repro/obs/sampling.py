"""Low-overhead sampling profiler with workload-IR attribution.

``--sample-hz N`` starts one daemon timer thread that, N times a second,
snapshots the *target* thread's Python stack via
``sys._current_frames()`` — the instrumented code runs completely
unmodified, so the sampler's cost is bounded by the sampling rate, not
by the workload's record count.  Each sample is the interned tuple of
frame labels plus, when the walk crosses one of the two interpreter
dispatch frames, an **IR attribution**:

- a sample inside :meth:`Interpreter._exec_function` reads the frame's
  ``instr`` / ``cur_loop`` locals, so the leaf frames name the exact
  workload loop and static instruction (sid) being executed — the
  paper's "file.c : line" loop naming, recovered from wall-clock
  samples instead of trace records;
- a sample inside :meth:`TraceCompiler.dispatch` (or a generated batch
  kernel it called) reads ``kern.loop_id`` and attributes to the
  compiled batch body of that loop — individual sids are fused there,
  so the batch is the attribution unit.

Samples accumulate as ``{raw stack key: count}``; :meth:`folded_counts`
resolves loop ids/sids against the module the interpreter attached
(:meth:`attach_module`) and returns the classic collapsed-stack
``frame;frame;frame -> count`` table that flamegraph tools consume
(:mod:`repro.obs.flamegraph`).  Pool workers run their own profiler and
ship the folded table home inside their telemetry snapshot
(``Telemetry.samples``), merged by sum exactly like counters.

A run without sampling holds the no-op :class:`NullSampler` singleton
(mirroring ``NullTelemetry``): the interpreter then pays a single
attribute check at construction time and the hot paths are untouched.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Dict, Optional, Tuple

from repro.errors import VectraError

__all__ = [
    "DEFAULT_SAMPLE_HZ",
    "SamplingProfiler",
    "NullSampler",
    "NULL_SAMPLER",
]

#: Default sampling rate for ``--flame`` without an explicit
#: ``--sample-hz``.  Prime, so the sampler cannot phase-lock with
#: periodic pipeline work (segment spills, batch dispatches) and
#: silently over- or under-count one stage.
DEFAULT_SAMPLE_HZ = 97

#: Frames below this depth are truncated (the IR attribution still
#: applies — it comes from the innermost dispatch frame).
MAX_STACK_DEPTH = 64

_IR_CODES = None


def _ir_codes():
    """The interpreter dispatch code objects samples attribute against.

    Resolved lazily: the interpreter imports ``repro.obs``, so importing
    it back at module load would cycle.  By the time a sample is taken
    the interpreter module is always loaded.
    """
    global _IR_CODES
    if _IR_CODES is None:
        from repro.interp.compile import TraceCompiler
        from repro.interp.interpreter import Interpreter

        _IR_CODES = (
            Interpreter._exec_function.__code__,
            TraceCompiler.dispatch.__code__,
        )
    return _IR_CODES


def _frame_label(code) -> str:
    """``file:function`` display label for one Python frame."""
    fname = code.co_filename
    if fname.startswith("<vectra-kernel"):
        # Generated batch-kernel code objects carry the loop/tag in the
        # synthetic filename; the function name is uninformative.
        return f"kernel:{fname[1:-1]}"
    base = os.path.basename(fname)
    if base.endswith(".py"):
        base = base[:-3]
    return f"{base}:{code.co_name}"


class SamplingProfiler:
    """Samples one target thread's stack from a timer thread.

    ``sample_once()`` is the public single-shot primitive (the timer
    thread calls it in a loop) so tests can drive attribution
    deterministically without real-time sleeps.
    """

    enabled = True

    def __init__(self, hz: float = DEFAULT_SAMPLE_HZ,
                 max_depth: int = MAX_STACK_DEPTH):
        if hz <= 0:
            raise VectraError(f"--sample-hz must be positive, got {hz}")
        self.hz = float(hz)
        self.max_depth = max_depth
        #: (python stack tuple, ir attribution) -> sample count
        self._counts: Dict[Tuple, int] = {}
        self._labels: Dict[object, str] = {}
        self._module = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._target_ident: Optional[int] = None
        self.total_samples = 0
        self.ir_samples = 0

    # -- wiring ------------------------------------------------------------

    def attach_module(self, module) -> None:
        """Register the workload IR module used to resolve loop ids and
        sids into names at fold time.  The interpreter calls this at
        construction when a sampler is active; the last module wins
        (re-runs of the same program resolve identically)."""
        self._module = module

    def start(self, target_ident: Optional[int] = None) -> None:
        """Start the timer thread sampling ``target_ident`` (defaults to
        the calling thread)."""
        if self._thread is not None:
            return
        self._target_ident = (target_ident if target_ident is not None
                              else threading.get_ident())
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="vectra-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None

    def _run(self) -> None:
        period = 1.0 / self.hz
        while not self._stop.wait(period):
            self.sample_once()

    # -- sampling ----------------------------------------------------------

    def sample_once(self, target_ident: Optional[int] = None) -> bool:
        """Take one sample of the target thread; returns whether a stack
        was captured (False if the thread is gone)."""
        ident = (target_ident if target_ident is not None
                 else self._target_ident)
        if ident is None:
            ident = threading.get_ident()
        frame = sys._current_frames().get(ident)
        if frame is None:
            return False
        exec_code, dispatch_code = _ir_codes()
        labels = self._labels
        stack = []
        ir = None
        depth = 0
        while frame is not None and depth < self.max_depth:
            code = frame.f_code
            if ir is None:
                # Innermost dispatch frame wins: it is the instruction
                # the interpreter is executing *right now*.
                if code is exec_code:
                    loc = frame.f_locals
                    instr = loc.get("instr")
                    ir = ("step", loc.get("cur_loop", -1),
                          getattr(instr, "sid", None))
                elif code is dispatch_code:
                    kern = frame.f_locals.get("kern")
                    ir = ("batch", getattr(kern, "loop_id", -1), None)
            label = labels.get(code)
            if label is None:
                label = labels[code] = _frame_label(code)
            stack.append(label)
            frame = frame.f_back
            depth += 1
        stack.reverse()
        key = (tuple(stack), ir)
        self._counts[key] = self._counts.get(key, 0) + 1
        self.total_samples += 1
        if ir is not None:
            self.ir_samples += 1
        return True

    # -- reporting ---------------------------------------------------------

    def _loop_label(self, loop_id) -> Optional[str]:
        if loop_id is None or loop_id < 0:
            return None
        info = self._module.loops.get(loop_id) if self._module else None
        if info is not None:
            return f"[ir] loop {info.name} (L{loop_id})"
        return f"[ir] loop L{loop_id}"

    def _sid_label(self, sid: int) -> str:
        instr = None
        if self._module is not None:
            try:
                instr = self._module.instruction(sid)
            except Exception:
                instr = None
        if instr is None:
            return f"[ir] sid {sid}"
        op = getattr(instr.opcode, "name", str(instr.opcode)).lower()
        return f"[ir] {op} sid {sid} line {instr.line}"

    def _ir_frames(self, ir) -> Tuple[str, ...]:
        if ir is None:
            return ()
        kind, loop_id, sid = ir
        frames = []
        loop = self._loop_label(loop_id)
        if loop is not None:
            frames.append(loop)
        if kind == "batch":
            frames.append(f"[ir] compiled batch (L{loop_id})")
        elif sid is not None:
            frames.append(self._sid_label(sid))
        return tuple(frames)

    def folded_counts(self) -> Dict[str, int]:
        """The collapsed-stack sample table: ``"f1;f2;[ir] ..." -> n``.
        IR attribution frames are appended below the Python stack with
        an ``[ir]`` prefix, resolved against the attached module."""
        out: Dict[str, int] = {}
        for (stack, ir), n in self._counts.items():
            key = ";".join(stack + self._ir_frames(ir))
            out[key] = out.get(key, 0) + n
        return out


class NullSampler:
    """Sampler that does nothing — a run's default, so workloads
    without ``--sample-hz`` never see a timer thread."""

    __slots__ = ()
    enabled = False
    hz = 0.0
    total_samples = 0
    ir_samples = 0

    def attach_module(self, module) -> None:
        pass

    def start(self, target_ident: Optional[int] = None) -> None:
        pass

    def stop(self) -> None:
        pass

    def sample_once(self, target_ident: Optional[int] = None) -> bool:
        return False

    def folded_counts(self) -> Dict[str, int]:
        return {}


#: The sampler of a run without sampling (see :mod:`repro.obs.run`).
NULL_SAMPLER = NullSampler()
