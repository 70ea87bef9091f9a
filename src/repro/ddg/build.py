"""DDG construction from a dynamic trace.

One linear pass: every non-marker record becomes a node; its recorded
producer node ids become predecessor edges when the producer is inside the
trace window (dependences on values produced before the window — e.g. data
initialized outside the analyzed loop — simply have no edge, matching the
paper's per-loop subtrace analysis).

Every trace goes through the one columnar remap,
:meth:`~repro.trace.columnar.ColumnarSink.to_ddg`: a
:class:`~repro.trace.columnar.ColumnarTrace` hands over the columns it was
recorded into, and a record :class:`~repro.trace.trace.Trace` (a
``subtrace``, or a file read back by :mod:`repro.trace.serialize`) is
packed into columns first (:func:`~repro.trace.columnar.pack_records`).
A spilled trace builds its DDG with
:meth:`~repro.trace.store.SegmentStore.to_ddg`."""

from __future__ import annotations

from repro.obs import current_run
from repro.trace.columnar import pack_records
from repro.trace.trace import Trace
from repro.ddg.graph import DDG


def build_ddg(trace: Trace) -> DDG:
    tel = current_run().tel
    sink = getattr(trace, "columnar_sink", None)
    with tel.span("ddg.build"):
        ddg = (pack_records(trace.records) if sink is None
               else sink).to_ddg()
    if tel.enabled:
        tel.count("ddg.nodes", len(ddg.sids))
        tel.count("ddg.edges", len(ddg.pred_indices))
        if sink is not None:
            tel.count("ddg.marker_segments",
                      sink.stats()["marker_segments"])
    return ddg
