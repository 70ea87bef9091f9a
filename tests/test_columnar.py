"""Columnar streaming pipeline: equivalence with the record oracle.

The fused columnar sinks must be *bit-identical* to the record-object
reference path of ``tests/trace_oracle.py`` — same DDG columns, same CSR
adjacency, same reports — on arbitrary programs, or every downstream
metric silently drifts.  A seeded-random kernel generator (nested loops,
cross-iteration offsets, reduction accumulators) drives the comparison;
each seed is one deterministic tier-1 case.
"""

import random

import pytest

from repro.analysis.metrics import loop_metrics
from repro.analysis.pipeline import analyze_loop
from repro.frontend import compile_source
from repro.interp.interpreter import Interpreter
from repro.trace.columnar import ColumnarLoopSink, ColumnarSink
from repro.trace.store import SegmentedLoopSink, open_store

from tests.trace_oracle import (
    LoopWindowSink,
    Trace,
    assert_ddgs_identical,
    record_trace,
    records_equal,
    sink_records,
    walk_records,
)


def random_kernel(seed: int) -> str:
    """A small random mini-C program with a labelled loop nest.

    Covers the record shapes the sinks must agree on: FP arithmetic,
    loads with cross-iteration offsets, stores, integer index math,
    nested loops, and (odd seeds) a scalar reduction chain.
    """
    rng = random.Random(seed)
    n = rng.randint(6, 14)
    inner = rng.randint(2, 5)
    off = rng.randint(0, 2)
    c1 = round(rng.uniform(0.5, 3.0), 2)
    c2 = round(rng.uniform(-2.0, 2.0), 2)
    op = rng.choice(["+", "*", "-"])
    reduction = seed % 2 == 1
    if reduction:
        body = f"""
  double s = 0.0;
  red: for (i = 0; i < {n}; i++) {{
    s += A[i] {op} B[(i + {off}) % {n}];
  }}
  total = s;
"""
    else:
        body = f"""
  outer: for (i = 0; i < {n}; i++) {{
    innr: for (j = 0; j < {inner}; j++) {{
      C[i] = C[i] + A[(i + j + {off}) % {n}] {op} B[j % {n}] * {c1};
    }}
  }}
"""
    return f"""
double A[{n}];
double B[{n}];
double C[{n}];
double total;

int main() {{
  int i, j;
  for (i = 0; i < {n}; i++) {{
    A[i] = {c1} * (double)i;
    B[i] = {c2} + 0.5 * (double)i;
    C[i] = 0.0;
  }}
{body}
  return 0;
}}
"""


SEEDS = list(range(10))


def oracle_subtrace(module, loop_id):
    """The oracle's subtrace of instance 0 of ``loop_id``: the window
    must hold exactly one span of it."""
    trace = record_trace(module, loop=loop_id, instances={0})
    assert len(trace.loop_instances(loop_id)) == 1
    return trace.subtrace(loop_id, 0)


def _run(module, sink):
    Interpreter(module, sink=sink).run("main", ())
    return sink


@pytest.mark.parametrize("seed", SEEDS)
def test_full_trace_ddg_bit_identical(seed):
    module = compile_source(random_kernel(seed))
    legacy = record_trace(module)
    sink = _run(module, ColumnarSink())
    assert len(sink) == len(legacy)
    assert_ddgs_identical(sink.to_ddg(), walk_records(legacy))


@pytest.mark.parametrize("seed", SEEDS)
def test_full_trace_records_compat_view(seed):
    """The columns, read back as records (the oracle's
    :func:`sink_records`), equal the oracle's records field for field:
    node ids, loop ids, raw dependences and store addresses included."""
    module = compile_source(random_kernel(seed))
    legacy = record_trace(module)
    records = sink_records(_run(module, ColumnarSink()))
    assert len(records) == len(legacy)
    assert all(map(records_equal, records, legacy.records))


@pytest.mark.parametrize("seed", SEEDS)
def test_windowed_fused_ddg_matches_legacy_subtrace(seed):
    module = compile_source(random_kernel(seed))
    loop_name = "red" if seed % 2 == 1 else "outer"
    info = module.loop_by_name(loop_name)
    legacy_ddg = walk_records(oracle_subtrace(module, info.loop_id))

    sink = ColumnarLoopSink(info.loop_id, instances={0})
    Interpreter(module, sink=sink).run("main", ())
    assert sink.spans_recorded == 1
    assert_ddgs_identical(sink.to_ddg(), legacy_ddg)


@pytest.mark.parametrize("seed", [1, 3, 5])
@pytest.mark.parametrize("relax", [False, True])
def test_loop_metrics_unchanged_on_reductions(seed, relax):
    """End to end: the report off the fused path equals the report off
    the oracle's subtrace, with and without reduction relaxation."""
    module = compile_source(random_kernel(seed))
    info = module.loop_by_name("red")
    fused = analyze_loop(module, "red", relax_reductions=relax)

    sub = oracle_subtrace(module, info.loop_id)
    expected = loop_metrics(walk_records(sub), module, "red",
                            include_integer=False, relax_reductions=relax)
    assert fused == expected


def test_windowed_multi_instance_spans():
    """A window over the inner loop of a nest records one span per outer
    iteration; runs bookkeeping must keep them separate and the record
    view must still index them."""
    module = compile_source(random_kernel(0))
    info = module.loop_by_name("innr")
    sink = _run(module, ColumnarLoopSink(info.loop_id, instances=None))
    legacy = record_trace(module, loop=info.loop_id, instances=None)
    spans_c = Trace(module, sink_records(sink)).loop_instances(info.loop_id)
    spans_l = legacy.loop_instances(info.loop_id)
    assert len(spans_c) == len(spans_l) == sink.spans_recorded > 1
    assert len(sink.runs) >= len(spans_c)
    assert_ddgs_identical(sink.to_ddg(), walk_records(legacy))


def test_store_backpatch_is_bounded_to_open_run():
    """note_store for a node before the current run is a no-op (matches
    the oracle's window sink, whose index is cleared at span close)."""
    sink = ColumnarSink()
    sink.emit(10, 1, 1, -1)
    sink.emit(11, 2, 1, -1)
    sink.emit(20, 3, 1, -1)  # gap: new run
    sink.note_store(11, 0xBEEF)  # prior run — ignored
    sink.note_store(20, 0xF00D)  # open run — patched
    sink.note_store(20, 0xDEAD)  # second write — first wins
    assert sink.store_map == {2: 0xF00D}
    assert [r.store_addr for r in sink_records(sink)] == [0, 0, 0xF00D]


def test_loop_window_sink_by_node_is_bounded():
    """Regression (memory hazard): the oracle window sink's backpatch
    index must not accumulate across the whole run — it holds at most
    the open span and is emptied once the span closes."""
    module = compile_source(random_kernel(2))
    info = module.loop_by_name("innr")
    sink = LoopWindowSink(info.loop_id, instances={1})
    interp = Interpreter(module, sink=sink)
    interp.run("main", ())
    assert sink._by_node == {}
    window = len(sink.records)
    assert 0 < window < interp.executed_instructions


def test_columnar_trace_serializes_like_legacy(tmp_path):
    """A window written to a segment store and read back holds the
    oracle's records of that window, field for field."""
    module = compile_source(random_kernel(4))
    info = module.loop_by_name("outer")
    sink = _run(module, SegmentedLoopSink(
        info.loop_id, instances={0}, spill_dir=str(tmp_path / "outer"),
        segment_rows=16))
    back = open_store(sink.finish().path).to_sink()
    legacy = record_trace(module, loop=info.loop_id, instances={0})
    records = sink_records(back)
    assert len(records) == len(legacy)
    assert all(map(records_equal, records, legacy.records))
