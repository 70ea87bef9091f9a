"""Loop-marker opcodes of the dynamic trace.

A run emits one record per executed IR instruction (the paper's unit of
analysis: a run-time instance of a static instruction).  Loop entry,
iteration and exit are records too: marker rows, whose opcodes are
these, and which are no DDG nodes.
"""

from __future__ import annotations

from repro.ir.instructions import Opcode

#: Marker kinds re-exported as ints for cheap comparison in scans.
MARKER_ENTER = int(Opcode.LOOP_ENTER)
MARKER_NEXT = int(Opcode.LOOP_NEXT)
MARKER_EXIT = int(Opcode.LOOP_EXIT)
