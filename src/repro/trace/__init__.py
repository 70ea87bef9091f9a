"""Dynamic execution traces: records, containers, sinks, serialization."""

from repro.trace.events import DynInstr, MARKER_ENTER, MARKER_NEXT, MARKER_EXIT
from repro.trace.trace import Trace, LoopSpan
from repro.trace.columnar import ColumnarLoopSink, ColumnarSink, ColumnarTrace
from repro.trace.store import (
    DEFAULT_SEGMENT_ROWS,
    SegmentedLoopSink,
    SegmentedSink,
    SegmentStore,
    open_store,
)

__all__ = [
    "DynInstr",
    "MARKER_ENTER",
    "MARKER_NEXT",
    "MARKER_EXIT",
    "Trace",
    "LoopSpan",
    "ColumnarSink",
    "ColumnarLoopSink",
    "ColumnarTrace",
    "DEFAULT_SEGMENT_ROWS",
    "SegmentedSink",
    "SegmentedLoopSink",
    "SegmentStore",
    "open_store",
]
