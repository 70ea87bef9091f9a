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
from repro.ddg.build import build_ddg
from repro.frontend import compile_source
from repro.interp import run_and_trace
from repro.interp.interpreter import Interpreter
from repro.trace.columnar import ColumnarLoopSink, ColumnarSink, ColumnarTrace

from tests.trace_oracle import (
    LoopWindowSink,
    assert_ddgs_identical,
    record_trace,
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


@pytest.mark.parametrize("seed", SEEDS)
def test_full_trace_ddg_bit_identical(seed):
    module = compile_source(random_kernel(seed))
    legacy = record_trace(module)
    columnar = run_and_trace(module)
    assert isinstance(columnar, ColumnarTrace)
    assert len(columnar) == len(legacy)
    assert_ddgs_identical(build_ddg(columnar), walk_records(legacy))


@pytest.mark.parametrize("seed", SEEDS)
def test_full_trace_records_compat_view(seed):
    module = compile_source(random_kernel(seed))
    legacy = record_trace(module)
    columnar = run_and_trace(module)
    for a, b in zip(columnar.records, legacy.records):
        assert a.node == b.node
        assert a.sid == b.sid
        assert int(a.opcode) == int(b.opcode)
        assert a.loop_id == b.loop_id
        assert tuple(a.deps) == tuple(b.deps)
        assert tuple(a.addrs) == tuple(b.addrs)
        assert a.addr == b.addr
        assert a.store_addr == b.store_addr


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
    iteration; runs bookkeeping must keep them separate and the compat
    Trace must still index them."""
    module = compile_source(random_kernel(0))
    info = module.loop_by_name("innr")
    columnar = run_and_trace(module, loop=info.loop_id, instances=None)
    legacy = record_trace(module, loop=info.loop_id, instances=None)
    spans_c = columnar.loop_instances(info.loop_id)
    spans_l = legacy.loop_instances(info.loop_id)
    assert len(spans_c) == len(spans_l) > 1
    assert len(columnar.columnar_sink.runs) >= len(spans_c)
    assert_ddgs_identical(build_ddg(columnar), walk_records(legacy))


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
    assert [r.store_addr for r in sink.records] == [0, 0, 0xF00D]


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


def test_columnar_trace_serializes_like_legacy():
    module = compile_source(random_kernel(4))
    info = module.loop_by_name("outer")
    columnar = run_and_trace(module, loop=info.loop_id, instances={0})
    legacy = record_trace(module, loop=info.loop_id, instances={0})
    import io

    from repro.trace.serialize import write_trace

    buf_c, buf_l = io.BytesIO(), io.BytesIO()
    write_trace(columnar, buf_c)
    write_trace(legacy, buf_l)
    assert buf_c.getvalue() == buf_l.getvalue()
