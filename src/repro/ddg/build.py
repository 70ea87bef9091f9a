"""DDG construction from a dynamic trace.

One linear pass: every non-marker record becomes a node; its recorded
producer node ids become predecessor edges when the producer is inside the
trace window (dependences on values produced before the window — e.g. data
initialized outside the analyzed loop — simply have no edge, matching the
paper's per-loop subtrace analysis).

Every trace goes through the one columnar remap,
:meth:`~repro.trace.columnar.ColumnarSink.to_ddg`: a
:class:`~repro.trace.columnar.ColumnarTrace` hands over the columns it was
recorded into, a :class:`~repro.trace.store.StoredTrace` streams its
spilled segments through the same remap, and a record
:class:`~repro.trace.trace.Trace` (a ``subtrace``, or a file read back by
:mod:`repro.trace.serialize`) is packed into columns first
(:func:`~repro.trace.columnar.pack_records`)."""

from __future__ import annotations

from repro.obs import current_run
from repro.trace.columnar import pack_records
from repro.trace.trace import Trace
from repro.ddg.graph import DDG


def build_ddg(trace: Trace) -> DDG:
    tel = current_run().tel
    store = getattr(trace, "segment_store", None)
    sink = getattr(trace, "columnar_sink", None)
    if store is not None:
        ddg = store.to_ddg()
    else:
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
