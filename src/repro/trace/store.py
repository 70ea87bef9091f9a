"""Out-of-core segmented trace store.

The paper's methodology is explicitly offline — write the dynamic trace
to disk, analyze it later — but the columnar pipeline kept every column
in RAM, capping runs at whatever the machine holds.  This module spills
:class:`~repro.trace.columnar.ColumnarSink` columns to a chunked on-disk
format while tracing and streams the analysis back segment by segment:

- **Segment files** (``segment-NNNNN.vseg``): one binary blob per spilled
  chunk holding the typed columns (sids, opcodes, CSR dependences, loop
  markers, runs, loop-id change points, and the sparse address columns),
  each section 8-byte aligned so readers can map them as typed arrays
  without copying.
- **Manifest** (``MANIFEST.json``): the segment directory — per-segment
  row/node offsets, marker and dependence cursors, section byte offsets,
  whether the cut was loop-iteration-aligned, and any late store
  backpatches that arrived after their segment had already been spilled.
- :class:`SegmentedSink` / :class:`SegmentedLoopSink`: drop-in columnar
  sinks that cut a segment whenever the in-memory chunk exceeds the
  ``segment_rows`` budget.  Cuts prefer loop-marker rows (iteration
  boundaries are the natural analysis windows); a chunk that doubles the
  budget without seeing a marker is cut anyway and flagged
  ``aligned: false`` in the manifest.
- :class:`SegmentStore`: the reader.  Columns come back as typed views
  of a read-only mmap of each segment file; :meth:`SegmentStore.to_ddg`
  rebuilds the CSR DDG by walking segment windows — never holding more
  than one segment's columns plus the (much smaller) marker/run context
  and the DDG it builds.  Asked for the candidate cone, it first walks
  every segment once to fix the cone, since edges cross segments.

Everything is gated on bit-identity: ``SegmentStore.to_ddg()`` equals
``ColumnarSink.to_ddg()`` on the same run, column for column (tested on
the randomized kernel suite), so spilling is purely a memory-ceiling
decision.

Store semantics note: ``note_store`` backpatches the producer's row,
which may already live in a spilled segment.  Spilled store columns are
immutable, so such *late* patches accumulate in memory (first-wins, like
the in-RAM sink) and are recorded in the manifest at finalize.  A row
whose segment section already holds a store entry takes no late patch:
that entry predates the spill and so wins, as the first store does in
RAM.  The sink finds out by reading the segment's ``store_rows`` section
back, once per distinct late-noted row.
"""

from __future__ import annotations

import json
import mmap
import os
import re
import struct
import time
from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import TraceError
from repro.obs import current_run
from repro.trace.columnar import (
    COLUMN_DTYPES,
    CandidateCone,
    ColumnarLoopSink,
    ColumnarSink,
    TraceColumns,
    concat_columns,
    csr_arrays,
    scatter_ints,
    scatter_sparse,
    unique_deps,
)
from repro.trace.events import MARKER_ENTER

MANIFEST_NAME = "MANIFEST.json"
STORE_SCHEMA = "vectra.trace-store/1"
SEGMENT_MAGIC = b"VSG1"
SEGMENT_VERSION = 1

#: Default in-memory chunk budget (rows) before a segment spills.
DEFAULT_SEGMENT_ROWS = 1 << 20

#: Column sections of one segment file, with their array typecodes.
#: ``_rows`` sections are row indices relative to the segment start.
SECTION_TYPECODES: Dict[str, str] = {
    "sids": "q",
    "opcodes": "b",
    "dep_counts": "i",
    "dep_flat": "q",
    "marker_rows": "q",
    "run_nodes": "q",
    "run_rows": "q",
    "loop_rows": "q",
    "loop_vals": "q",
    "addr_rows": "q",
    "addr_counts": "i",
    "addr_flat": "q",
    "mem_rows": "q",
    "mem_vals": "q",
    "store_rows": "q",
    "store_vals": "q",
}

_HEADER = struct.Struct("<4sII")  # magic, format version, segment index

_SEGMENT_RE = re.compile(r"^segment-\d{5}\.vseg$")


def _pad(offset: int) -> int:
    return (-offset) % 8


# ---------------------------------------------------------------------------
# writer


class SegmentedSink(ColumnarSink):
    """A :class:`ColumnarSink` that spills full segments to disk.

    The hot :meth:`emit` path is the parent's; this class only adds the
    cut check (two comparisons per record, on the sink's rows), and a
    compiled batch that reaches a cut is derived at once
    (:meth:`reserve`).  Rows inside the in-memory columns are relative to
    :attr:`base_row`, which advances at every spill — ``emit`` itself
    never sees absolute rows, so the parent's bookkeeping (runs, loop
    RLE, sparse columns, store backpatches) works unchanged on the open
    chunk, and a spill writes the sections straight from
    :meth:`~repro.trace.columnar.ColumnarSink.columns`.
    """

    __slots__ = (
        "spill_dir", "segment_rows", "base_row", "segments",
        "_force_rows", "_late_stores", "_settled_rows", "_node_at_base",
        "_loop_at_base", "_totals", "_open_span", "_finished",
    )

    def __init__(self, spill_dir: str,
                 segment_rows: int = DEFAULT_SEGMENT_ROWS):
        super().__init__()
        if segment_rows < 1:
            raise TraceError(
                f"segment_rows must be positive, got {segment_rows}"
            )
        self.spill_dir = spill_dir
        self.segment_rows = segment_rows
        #: Hard cap: a chunk that doubles the budget without passing a
        #: loop marker is cut unaligned rather than growing unboundedly.
        self._force_rows = segment_rows * 2
        self.base_row = 0
        self.segments: List[dict] = []
        self._late_stores: Dict[int, int] = {}
        #: spilled rows a late note found with a section store entry.
        self._settled_rows: set = set()
        self._node_at_base = 0
        self._loop_at_base: Optional[int] = None
        self._totals = {
            "rows": 0, "markers": 0, "marker_segments": 0,
            "backpatches": 0, "runs": 0, "deps": 0, "bytes": 0,
        }
        self._open_span = False
        self._finished = False
        current_run().bus.note_spill_dir(spill_dir)
        os.makedirs(spill_dir, exist_ok=True)
        # A fresh run owns the directory: drop any stale store so a
        # rerun with fewer segments cannot leave orphans behind the new
        # manifest.
        for name in os.listdir(spill_dir):
            if name == MANIFEST_NAME or _SEGMENT_RE.match(name):
                os.unlink(os.path.join(spill_dir, name))

    # -- the streaming write path (hot) ------------------------------------

    def emit(self, node, sid, opcode, loop_id, deps=(), addrs=(), addr=0):
        ColumnarSink.emit(self, node, sid, opcode, loop_id, deps, addrs,
                          addr)
        rows = self._sealed + len(self._sids)
        if rows >= self.segment_rows and (
                opcode >= MARKER_ENTER or rows >= self._force_rows):
            self._spill(aligned=opcode >= MARKER_ENTER)

    def note_store(self, producer_node: int, addr: int) -> None:
        # Same run-bounded, first-wins semantics as the parent; rows in
        # [_cur_row0, 0) were already spilled and become late patches,
        # unless their section already holds the first store.
        row = producer_node - self._cur_node0 + self._cur_row0
        if row >= self._cur_row0:
            if row >= 0:
                if row not in self._stores:
                    self._stores[row] = addr
                return
            row += self.base_row
            if row in self._late_stores or row in self._settled_rows:
                return
            if self._spilled_store_entry(row):
                self._settled_rows.add(row)
            else:
                self._late_stores[row] = addr

    def _spilled_store_entry(self, row: int) -> bool:
        """Whether spilled absolute ``row`` has a store section entry: a
        read of one segment's sorted ``store_rows`` section.  It runs
        once per distinct late-noted row, so nothing is cached."""
        seg = self.segments[bisect_right(
            [meta["row0"] for meta in self.segments], row) - 1]
        off, count = seg["sections"]["store_rows"]
        rows = np.fromfile(os.path.join(self.spill_dir, seg["file"]),
                           dtype=np.int64, count=count, offset=off)
        rel = row - seg["row0"]
        i = int(np.searchsorted(rows, rel))
        return i < len(rows) and int(rows[i]) == rel

    def reserve(self, kern, node0, loop_id, n, *batch):
        """Reserve a compiled batch's rows, or, when the batch reaches a
        segment cut, derive it at once and cut it at exactly the rows
        where per-record :meth:`emit` would have cut.

        A batch that cannot reach the cut threshold stays pending, as in
        :class:`ColumnarSink`.  One that can is derived alone, as a group of one
        batch, and its columns are sliced at each spill trigger — the
        first loop-marker row that lands at or past ``segment_rows``, or
        the unconditional ``2x``-budget row, whichever per-record
        emission would hit first.  Each slice takes the rows it covers,
        becomes a chunk (after the pending batches before it are
        derived) and is spilled with the same ``aligned`` flag.  Its
        store backpatches, those whose producer lies before the batch and
        the batch-internal ones alike, go through :meth:`note_store` with
        their own slice, so the section-entry vs late-patch
        classification (which depends on what had spilled when the note
        arrived) also matches step-mode tracing row for row.
        """
        if not n or len(self) + n < self.segment_rows:
            ColumnarSink.reserve(self, kern, node0, loop_id, n, *batch)
            return
        alone = kern.pending()
        items = alone.add(0, node0, *batch)
        markers = alone.markers(batch[0])
        cols = self._derive([alone.derivation()], 0, n, items=items)
        items.sort()
        dep_ends = np.cumsum(cols.dep_counts)
        nmark = len(markers)
        mk = si = a0 = m0 = 0
        i = 0
        while i < n:
            chunk_len = len(self)
            # First batch offset >= i whose emission triggers a cut.
            # A marker at offset m cuts once the chunk holds
            # ``segment_rows`` rows (aligned); any row cuts at the
            # ``_force_rows`` hard cap (unaligned).  A marker at the
            # force offset would already have qualified for the aligned
            # cut, so the force branch never lands on a marker.
            need = max(i, i + self.segment_rows - chunk_len - 1)
            force = i + self._force_rows - chunk_len - 1
            j = bisect_left(markers, need)
            cut_marker = markers[j] if j < nmark else -1
            if 0 <= cut_marker <= force and cut_marker < n:
                end = cut_marker + 1
                spill, aligned = True, True
            elif force < n:
                end = force + 1
                spill, aligned = True, False
            else:
                end = n
                spill = aligned = False
            d0 = int(dep_ends[i - 1]) if i else 0
            d1 = int(dep_ends[end - 1])
            mk1 = bisect_left(markers, end, mk)
            a1 = int(np.searchsorted(cols.addr_rows, end))
            m1 = int(np.searchsorted(cols.mem_rows, end))
            # Emitting row ``end - 1`` cuts before that row's store (an
            # unaligned cut's row can be one) notes its producer.
            last = end - 1 if spill else end
            s1 = si
            while s1 < len(items) and items[s1][0] < last:
                s1 += 1
            self._merge()
            shift = len(self) - i
            slice_markers = markers[mk:mk1]
            self._take(node0 + i, loop_id, end - i,
                       range(slice_markers.start - i, slice_markers.stop - i,
                             slice_markers.step))
            # Batch rows carry operand-address pairs.
            self._chunks.append(TraceColumns(
                cols.sids[i:end], cols.opcodes[i:end],
                cols.dep_counts[i:end], cols.dep_flat[d0:d1],
                cols.addr_rows[a0:a1] + shift, cols.addr_counts[a0:a1],
                cols.addr_flat[2 * a0:2 * a1],
                cols.mem_rows[m0:m1] + shift, cols.mem_vals[m0:m1]))
            self._merged = self._sealed
            for _row, producer, addr in items[si:s1]:
                self.note_store(producer, addr)
            i, mk, a0, m0, si = end, mk1, a1, m1, s1
            if spill:
                self._spill(aligned=aligned)
                while si < len(items) and items[si][0] < end:
                    _row, producer, addr = items[si]
                    self.note_store(producer, addr)
                    si += 1

    # -- spilling ----------------------------------------------------------

    def _count_marker_free_spans(self, marker_rows, n_rows,
                                 open_span: bool) -> Tuple[int, bool]:
        """Number of marker-free row spans *started* in this chunk, given
        whether the previous chunk ended inside one (they merge across
        the cut).  Matches :meth:`ColumnarSink.stats` over the whole."""
        spans = 0
        pos = 0
        for m in marker_rows:
            if m > pos and not open_span:
                spans += 1
            open_span = False
            pos = m + 1
        if pos < n_rows:
            if not open_span:
                spans += 1
            open_span = True
        return spans, open_span

    def _spill(self, aligned: bool) -> None:
        n = len(self)
        if n == 0:
            return
        if self._finished:
            raise TraceError("segmented sink already finalized")
        run = current_run()
        tel = run.tel
        # hist=True: one occurrence per spilled segment, so --profile
        # reports the p50/p95 per-segment spill latency distribution.
        with tel.span("trace_store.spill", hist=True):
            runs = self.runs
            breaks = self.loop_breaks
            if runs and runs[0][1] == 0:
                node0 = runs[0][0]
            else:
                node0 = self._node_at_base
            if breaks and breaks[0][0] == 0:
                loop0 = breaks[0][1]
            else:
                loop0 = self._loop_at_base
            cols = self.columns()
            store_rows = sorted(self._stores)
            sections = dict(zip(TraceColumns._fields, cols))
            sections.update({
                "marker_rows": array("q", self.marker_rows),
                "run_nodes": array("q", [r[0] for r in runs]),
                "run_rows": array("q", [r[1] for r in runs]),
                "loop_rows": array("q", [b[0] for b in breaks]),
                "loop_vals": array("q", [b[1] for b in breaks]),
                "store_rows": array("q", store_rows),
                "store_vals": array("q", [self._stores[r]
                                          for r in store_rows]),
            })
            index = len(self.segments)
            filename = f"segment-{index:05d}.vseg"
            section_meta, nbytes = _write_segment_file(
                os.path.join(self.spill_dir, filename), index, sections
            )
            spans, self._open_span = self._count_marker_free_spans(
                self.marker_rows, n, self._open_span
            )
            totals = self._totals
            n_deps = len(cols.dep_flat)
            self.segments.append({
                "file": filename,
                "row0": self.base_row,
                "rows": n,
                "node0": node0,
                "loop0": loop0,
                "markers": len(self.marker_rows),
                "markers_before": totals["markers"],
                "deps": n_deps,
                "dep0": totals["deps"],
                "aligned": bool(aligned),
                "bytes": nbytes,
                "sections": section_meta,
                "store_patches": [],
            })
            totals["rows"] += n
            totals["markers"] += len(self.marker_rows)
            totals["marker_segments"] += spans
            totals["backpatches"] += len(store_rows)
            totals["runs"] += len(runs)
            totals["deps"] += n_deps
            totals["bytes"] += nbytes
        if tel.enabled:
            tel.count("trace_store.segments_spilled")
            tel.count("trace_store.rows_spilled", n)
            tel.count("trace_store.bytes_written", nbytes)
            if not aligned:
                tel.count("trace_store.unaligned_cuts")
        bus = run.bus
        if bus.enabled:
            bus.count("segments")
            bus.count("spill_bytes", nbytes)
        # Reset the chunk (the emit buffer is already empty and no batch
        # is pending: columns() merged them) and rebase.
        self.base_row += n
        self._node_at_base = self._next_node
        self._loop_at_base = self._last_loop
        self._cur_row0 -= n
        self._chunks = []
        self._sealed = self._merged = 0
        self._stores.clear()
        del self.runs[:]
        del self.loop_breaks[:]
        del self.marker_rows[:]
        self._records = None

    # -- finalize ----------------------------------------------------------

    def finish(self) -> "SegmentStore":
        """Spill the open chunk, write the manifest, and hand back the
        reader.  Idempotent."""
        if not self._finished:
            tel = current_run().tel
            with tel.span("trace_store.finalize"):
                tail_aligned = bool(
                    self.marker_rows
                    and self.marker_rows[-1] == len(self) - 1
                )
                self._spill(aligned=tail_aligned)
                self._finished = True
                row0s = [seg["row0"] for seg in self.segments]
                for row, addr in sorted(self._late_stores.items()):
                    seg = self.segments[bisect_right(row0s, row) - 1]
                    seg["store_patches"].append([row - seg["row0"], addr])
                totals = self._totals
                manifest = {
                    "schema": STORE_SCHEMA,
                    "version": SEGMENT_VERSION,
                    "segment_rows": self.segment_rows,
                    "rows": totals["rows"],
                    "markers": totals["markers"],
                    "marker_segments": totals["marker_segments"],
                    "runs": totals["runs"],
                    "deps": totals["deps"],
                    "backpatches": (totals["backpatches"]
                                    + len(self._late_stores)),
                    "late_patches": len(self._late_stores),
                    "uncaptured": self.uncaptured,
                    "segment_bytes": totals["bytes"],
                    "segments": self.segments,
                }
                path = os.path.join(self.spill_dir, MANIFEST_NAME)
                with open(path, "w") as fh:
                    json.dump(manifest, fh, indent=1, sort_keys=True)
                    fh.write("\n")
            if tel.enabled:
                tel.count("trace_store.finalized")
                tel.count("trace_store.late_store_patches",
                          len(self._late_stores))
                tel.gauge("trace_store.segment_bytes", totals["bytes"])
        return SegmentStore(self.spill_dir)

    # -- telemetry ---------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Spilled totals plus the open in-memory chunk — the same
        counters :meth:`ColumnarSink.stats` reports for an in-RAM run."""
        self._merge()
        totals = self._totals
        n = len(self)
        spans, _ = self._count_marker_free_spans(
            self.marker_rows, n, self._open_span
        )
        return {
            "rows": totals["rows"] + n + self.uncaptured,
            "captured": totals["rows"] + n,
            "markers": totals["markers"] + len(self.marker_rows),
            "marker_segments": totals["marker_segments"] + spans,
            "backpatches": (totals["backpatches"] + len(self._stores)
                            + len(self._late_stores)),
            "runs": totals["runs"] + len(self.runs),
        }

    # -- disabled in-RAM conveniences --------------------------------------

    def to_ddg(self, cone_ops=None):
        raise TraceError(
            "SegmentedSink spills columns to disk; call finish() and use "
            "SegmentStore.to_ddg() instead"
        )

    @property
    def records(self):
        raise TraceError(
            "SegmentedSink spills columns to disk; call finish() and use "
            "SegmentStore.to_sink().records instead"
        )


class SegmentedLoopSink(SegmentedSink):
    """Spilling variant of :class:`ColumnarLoopSink`: retains records
    only inside chosen instances of one loop, segments on disk."""

    __slots__ = ("loop_id", "instances", "spans_recorded", "_depth")

    def __init__(self, loop_id: int, instances: Optional[set] = None, *,
                 spill_dir: str, segment_rows: int = DEFAULT_SEGMENT_ROWS):
        super().__init__(spill_dir, segment_rows)
        self.loop_id = loop_id
        self.instances = instances
        self.active = False
        self.spans_recorded = 0
        self._depth = 0

    # The window logic is byte-for-byte the columnar sink's.
    _wanted = ColumnarLoopSink._wanted
    on_marker = ColumnarLoopSink.on_marker


def _write_segment_file(path: str, index: int,
                        sections: Dict[str, array]) -> Tuple[dict, int]:
    """Write one segment file; returns ({name: [offset, count]}, bytes)."""
    meta: Dict[str, List[int]] = {}
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION, index))
        offset = _HEADER.size
        for name in SECTION_TYPECODES:
            arr = sections[name]
            pad = _pad(offset)
            if pad:
                fh.write(b"\x00" * pad)
                offset += pad
            data = arr.tobytes()
            meta[name] = [offset, len(arr)]
            fh.write(data)
            offset += len(data)
    return meta, offset


# ---------------------------------------------------------------------------
# reader


class SegmentData:
    """One loaded segment: manifest metadata plus typed column views
    (memoryview casts over a read-only mmap of the file, zero-copy)."""

    __slots__ = ["index", "meta"] + list(SECTION_TYPECODES) + ["_mm"]

    def __init__(self, index: int, meta: dict):
        self.index = index
        self.meta = meta
        self._mm = None

    @property
    def row0(self) -> int:
        return self.meta["row0"]

    @property
    def n_rows(self) -> int:
        return self.meta["rows"]

    def columns(self) -> TraceColumns:
        """The segment's trace columns as numpy views of its sections
        (rows relative to the segment start)."""
        return TraceColumns(*(
            np.frombuffer(getattr(self, name), dtype=dt)
            for name, dt in zip(TraceColumns._fields, COLUMN_DTYPES)))


class DDGChunk(NamedTuple):
    """One segment's worth of assembled-DDG columns.

    ``pred_indices`` holds *global* DDG node ids; ``pred_offsets`` is
    chunk-local (``pred_offsets[0] == 0``), so chunks concatenate by
    rebasing offsets.  ``node0`` is the global DDG index of the chunk's
    first node.
    """

    node0: int
    sids: List[int]
    opcodes: List[int]
    addrs: List[tuple]
    store_addrs: List[int]
    mem_addrs: List[int]
    pred_indices: array
    pred_offsets: array
    #: the segment's edge count before any cone cut.
    window_edges: int


class _StoreContext(NamedTuple):
    """Global remap context: tiny next to the columns (markers + runs)."""

    marker_rows: array  # absolute rows of all marker records, ascending
    run_nodes: array
    run_rows: array  # absolute first row of each run
    run_ends: array  # absolute end row (exclusive) of each run


class SegmentStore:
    """Reader over a spilled segment directory."""

    def __init__(self, path: str):
        self.path = path
        manifest_path = os.path.join(path, MANIFEST_NAME)
        try:
            with open(manifest_path) as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise TraceError(
                f"{path!r} is not a trace store (no {MANIFEST_NAME})"
            ) from None
        except (OSError, ValueError) as exc:
            raise TraceError(
                f"cannot read trace-store manifest {manifest_path!r}: "
                f"{exc}"
            ) from None
        if manifest.get("schema") != STORE_SCHEMA:
            raise TraceError(
                f"{manifest_path!r}: unknown trace-store schema "
                f"{manifest.get('schema')!r} (expected {STORE_SCHEMA!r})"
            )
        self.manifest = manifest
        self.segments: List[dict] = manifest["segments"]
        self.total_rows: int = manifest["rows"]
        self.total_markers: int = manifest["markers"]
        #: DDG nodes the full reassembly produces.
        self.n_nodes: int = self.total_rows - self.total_markers
        self._ctx: Optional[_StoreContext] = None

    def __len__(self) -> int:
        return self.total_rows

    def __repr__(self) -> str:
        return (f"<segment store: {len(self.segments)} segment(s), "
                f"{self.total_rows} rows>")

    # -- segment loading ---------------------------------------------------

    def load(self, index: int) -> SegmentData:
        meta = self.segments[index]
        path = os.path.join(self.path, meta["file"])
        seg = SegmentData(index, meta)
        sections = meta["sections"]
        try:
            with open(path, "rb") as fh:
                header = fh.read(_HEADER.size)
                if len(header) != _HEADER.size:
                    raise TraceError(f"{path!r}: truncated segment header")
                magic, version, idx = _HEADER.unpack(header)
                if magic != SEGMENT_MAGIC:
                    raise TraceError(f"{path!r}: not a segment file")
                if version != SEGMENT_VERSION or idx != index:
                    raise TraceError(
                        f"{path!r}: segment header mismatch (version "
                        f"{version}, index {idx}; manifest says {index})"
                    )
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                seg._mm = mm
                view = memoryview(mm)
                for name, tc in SECTION_TYPECODES.items():
                    off, count = sections[name]
                    nbytes = count * struct.calcsize(tc)
                    if off + nbytes > len(mm):
                        raise TraceError(
                            f"{path!r}: truncated section {name!r}")
                    setattr(seg, name, view[off:off + nbytes].cast(tc))
        except OSError as exc:
            raise TraceError(f"cannot read segment {path!r}: {exc}") from None
        return seg

    def iter_segments(self) -> Iterator[SegmentData]:
        for i in range(len(self.segments)):
            yield self.load(i)

    def _read_section(self, meta: dict, name: str) -> array:
        """One section of one segment, read without loading the rest."""
        tc = SECTION_TYPECODES[name]
        off, count = meta["sections"][name]
        arr = array(tc)
        if not count:
            return arr
        path = os.path.join(self.path, meta["file"])
        with open(path, "rb") as fh:
            fh.seek(off)
            arr.frombytes(fh.read(count * arr.itemsize))
        return arr

    def context(self) -> _StoreContext:
        """The global remap context (absolute marker rows + runs),
        assembled from the small sections of every segment."""
        if self._ctx is None:
            markers = array("q")
            run_nodes = array("q")
            run_rows = array("q")
            for meta in self.segments:
                row0 = meta["row0"]
                for m in self._read_section(meta, "marker_rows"):
                    markers.append(row0 + m)
                nodes = self._read_section(meta, "run_nodes")
                rows = self._read_section(meta, "run_rows")
                run_nodes.extend(nodes)
                for r in rows:
                    run_rows.append(row0 + r)
            run_ends = array("q", run_rows[1:])
            run_ends.append(self.total_rows)
            self._ctx = _StoreContext(markers, run_nodes, run_rows,
                                      run_ends)
        return self._ctx

    # -- full materialization (compat / validation) ------------------------

    def to_sink(self) -> ColumnarSink:
        """Reassemble the full in-RAM :class:`ColumnarSink` — the exact
        columns an unspilled run would hold.  This is the compat and
        validation path; it deliberately pays the full-RAM cost."""
        parts: List[TraceColumns] = []
        markers: List[int] = []
        runs: List[Tuple[int, int]] = []
        breaks: List[Tuple[int, int]] = []
        stores: Dict[int, int] = {}
        for seg in self.iter_segments():
            row0 = seg.row0
            cols = seg.columns()
            parts.append(cols._replace(addr_rows=cols.addr_rows + row0,
                                       mem_rows=cols.mem_rows + row0))
            markers += [row0 + m for m in seg.marker_rows]
            runs += [(node, row0 + row)
                     for node, row in zip(seg.run_nodes, seg.run_rows)]
            breaks += [(row0 + row, val)
                       for row, val in zip(seg.loop_rows, seg.loop_vals)]
            for row, val in zip(seg.store_rows, seg.store_vals):
                stores[row0 + row] = val
            for row, val in seg.meta["store_patches"]:
                stores.setdefault(row0 + row, val)
        # Concatenating copies the columns out of the segment mappings.
        return ColumnarSink.from_columns(concat_columns(parts), runs,
                                         breaks, markers, stores,
                                         self.manifest.get("uncaptured", 0))

    # -- streaming DDG assembly --------------------------------------------

    def _map_deps(self, cols: TraceColumns, ctx: _StoreContext):
        """Every dependence of one segment (its columns ``cols``) as a
        window-wide DDG node index: node id -> absolute row (via runs) ->
        node index (subtract preceding markers), -1 when out of window or
        at a marker."""
        df = cols.dep_flat
        if not df.size:
            return df
        rn = np.frombuffer(ctx.run_nodes, dtype=np.int64)
        rr = np.frombuffer(ctx.run_rows, dtype=np.int64)
        rend = np.frombuffer(ctx.run_ends, dtype=np.int64)
        mk = np.frombuffer(ctx.marker_rows, dtype=np.int64)
        j = np.searchsorted(rn, df, side="right") - 1
        jc = np.maximum(j, 0)
        rows = df - rn[jc] + rr[jc]
        valid = (j >= 0) & (rows < rend[jc])
        k = np.searchsorted(mk, rows, side="right")
        at_marker = np.zeros(df.shape, dtype=bool)
        has_before = k > 0
        at_marker[has_before] = mk[k[has_before] - 1] == rows[has_before]
        return np.where(valid & ~at_marker, rows - k, -1)

    @staticmethod
    def _node_rows(seg: SegmentData):
        """Segment-relative rows of the segment's DDG nodes (its
        non-marker rows), ascending."""
        is_node = np.ones(seg.n_rows, dtype=bool)
        is_node[np.frombuffer(seg.marker_rows, dtype=np.int64)] = False
        return np.flatnonzero(is_node)

    def _cone(self, ctx: _StoreContext, cone_ops) -> CandidateCone:
        """First pass of the cone remap: the window's sid graph, one
        segment at a time, then the cone over every node.

        Producers lie in earlier segments too, so the pass keeps one
        node->sid array for the whole window.  Duplicate dependences add
        no sid edge, so this pass skips the dependence sort.
        """
        cone = CandidateCone(cone_ops)
        node_sids = np.empty(self.n_nodes, dtype=np.int64)
        for seg in self.iter_segments():
            cols = seg.columns()
            node_rows = self._node_rows(seg)
            node0 = seg.row0 - seg.meta["markers_before"]
            seg_sids = cols.sids[node_rows]
            node_sids[node0:node0 + len(node_rows)] = seg_sids
            mapped = self._map_deps(cols, ctx)
            consumer_sids = np.repeat(cols.sids, cols.dep_counts)
            valid = mapped >= 0
            cone.add(seg_sids, cols.opcodes[node_rows],
                     node_sids[mapped[valid]], consumer_sids[valid])
        cone.finish(node_sids)
        return cone

    def _chunk(self, seg: SegmentData, ctx: _StoreContext,
               cone: Optional[CandidateCone] = None) -> DDGChunk:
        """One segment's DDG columns — the per-window unit of work.

        Value-identical to the corresponding slice of
        :meth:`ColumnarSink.to_ddg` on the reassembled columns: same
        marker filtering, same out-of-window dependence drops, same
        sorted-unique predecessor lists — and, given the window's
        ``cone``, the same cut to it.
        """
        meta = seg.meta
        n_rows = meta["rows"]
        first = node0 = meta["row0"] - meta["markers_before"]
        cols = seg.columns()
        node_rows = self._node_rows(seg)
        rows, preds = unique_deps(self._map_deps(cols, ctx),
                                  cols.dep_counts, n_rows, self.n_nodes)
        window_edges = len(preds)
        if cone is not None:
            node_rows, rows, preds = cone.select(first, node_rows, rows,
                                                 preds)
            node0 = int(cone.new_index[first - 1]) + 1 if first else 0
        indices_arr, offsets_arr = csr_arrays(rows, preds, node_rows,
                                              n_rows)
        # Segment row -> chunk-local output index, -1 for markers and
        # rows outside the cone.
        ri = np.full(n_rows, -1, dtype=np.int64)
        ri[node_rows] = np.arange(len(node_rows), dtype=np.int64)
        out_addrs, out_mem = scatter_sparse(ri, len(node_rows), cols)
        return DDGChunk(
            node0,
            cols.sids[node_rows].tolist(),
            cols.opcodes[node_rows].tolist(),
            out_addrs,
            self._store_addrs(seg, ri, len(node_rows)).tolist(),
            out_mem.tolist(), indices_arr, offsets_arr, window_edges)

    @staticmethod
    def _store_addrs(seg: SegmentData, ri, n_out: int):
        """The dense store-address column of one segment's output: its
        store sections, then its late ``store_patches``, scattered
        through the row->output map ``ri`` (rows mapping to -1 are
        skipped).  A section entry predates any late patch for its row,
        so it wins."""
        out_store = np.zeros(n_out, dtype=np.int64)
        scatter_ints(out_store, ri,
                     np.frombuffer(seg.store_rows, dtype=np.int64),
                     np.frombuffer(seg.store_vals, dtype=np.int64))
        patches = seg.meta["store_patches"]
        if patches:
            prow, pval = np.asarray(patches, dtype=np.int64).T
            p = ri[prow]
            hit = p >= 0
            p, pval = p[hit], pval[hit]
            free = out_store[p] == 0
            out_store[p[free]] = pval[free]
        return out_store

    def _ddg_chunks(self, cone_ops=None) -> Iterator[DDGChunk]:
        """The DDG, one segment window at a time, for :meth:`to_ddg`.

        With ``cone_ops`` the chunks hold the window's candidate cone
        (see :meth:`ColumnarSink.to_ddg`): a first pass over every
        segment fixes the cone (:meth:`_cone`), since edges cross
        segments, and the chunks then cut each segment down to it.

        Under telemetry, each segment's load+remap latency feeds the
        ``trace_store.segment_read`` histogram and each chunk's node
        count feeds ``ddg.chunk_nodes`` — the distributions that show
        whether out-of-core reads are uniform or one segment dominates.
        """
        ctx = self.context()
        cone = None if cone_ops is None else self._cone(ctx, cone_ops)
        tel = current_run().tel
        if not tel.enabled:
            for seg in self.iter_segments():
                yield self._chunk(seg, ctx, cone)
            return
        for seg in self.iter_segments():
            t0 = time.perf_counter()
            chunk = self._chunk(seg, ctx, cone)
            tel.observe("trace_store.segment_read",
                        time.perf_counter() - t0)
            tel.observe("ddg.chunk_nodes", len(chunk.sids))
            yield chunk

    def to_ddg(self, cone_ops=None):
        """Assemble the CSR DDG by streaming segment windows.

        Bit-identical to ``self.to_sink().to_ddg(cone_ops)`` (and
        therefore to the unspilled in-RAM pipeline), but never holds more
        than one segment's columns — the peak-memory term is the DDG
        itself plus the marker/run context (and, with ``cone_ops``, the
        cone's per-node arrays).
        """
        from repro.ddg.graph import DDG

        tel = current_run().tel
        out_sids: List[int] = []
        out_ops: List[int] = []
        out_addrs: List[tuple] = []
        out_store: List[int] = []
        out_mem: List[int] = []
        indices = array("q")
        offsets = array("q", [0])
        window_edges = 0
        with tel.span("trace_store.to_ddg"):
            for chunk in self._ddg_chunks(cone_ops):
                out_sids += chunk.sids
                out_ops += chunk.opcodes
                out_addrs += chunk.addrs
                out_store += chunk.store_addrs
                out_mem += chunk.mem_addrs
                indices.extend(chunk.pred_indices)
                rebased = np.frombuffer(chunk.pred_offsets,
                                        dtype=np.int64)[1:] + offsets[-1]
                offsets.frombytes(rebased.tobytes())
                window_edges += chunk.window_edges
        if tel.enabled:
            tel.count("trace_store.segments_read", len(self.segments))
            tel.count("trace_store.bytes_read",
                      self.manifest.get("segment_bytes", 0))
        return DDG(
            out_sids,
            out_ops,
            addrs=out_addrs,
            store_addrs=out_store,
            mem_addrs=out_mem,
            pred_indices=indices,
            pred_offsets=offsets,
            validate=False,
            window_nodes=self.n_nodes + self.manifest.get("uncaptured", 0),
            window_edges=window_edges,
        )


def open_store(path: str) -> SegmentStore:
    """Open a spilled segment directory for reading."""
    return SegmentStore(path)


def spill_subdir(spill_dir: str, label: str) -> str:
    """A per-analysis subdirectory inside the user's spill root, with
    the label sanitized to a safe path component."""
    safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", label) or "trace"
    return os.path.join(spill_dir, safe)
