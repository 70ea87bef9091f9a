"""Dynamic execution traces: columnar sinks and the segment store."""

from repro.trace.events import MARKER_ENTER, MARKER_NEXT, MARKER_EXIT
from repro.trace.columnar import ColumnarLoopSink, ColumnarSink
from repro.trace.store import (
    DEFAULT_SEGMENT_ROWS,
    SegmentedLoopSink,
    SegmentedSink,
    SegmentStore,
    open_store,
)

__all__ = [
    "MARKER_ENTER",
    "MARKER_NEXT",
    "MARKER_EXIT",
    "ColumnarSink",
    "ColumnarLoopSink",
    "DEFAULT_SEGMENT_ROWS",
    "SegmentedSink",
    "SegmentedLoopSink",
    "SegmentStore",
    "open_store",
]
