"""Randomized differential testing.

A hypothesis strategy generates small, well-defined mini-C programs
(bounded loops, in-bounds subscripts, no division) together with a
Python *oracle* evaluation of the same program.  Besides array
assignments, a loop body may call a helper that takes ``double *``
parameters (on two different arrays), write through a pointer local
chosen by a condition, subscript through an ``int`` array, and
accumulate a scalar reduction local.  Each program is then:

1. compiled and interpreted — final global memory must match the oracle
   exactly (frontend + interpreter correctness);
2. optimized (copy-prop / const-fold / DCE) and re-interpreted — the
   optimized module must produce identical memory with no more executed
   instructions (pass soundness);
3. traced — the DDG must respect the topological-order invariant;
4. analyzed — the candidate cone of the loop window that ``analyze``
   records through its capture set must equal the one of a run that
   captures every instruction, and the capture set must hold the
   dynamic cone unless the run fell back to full capture.
"""

from typing import NamedTuple, Optional

from hypothesis import given, settings, strategies as st

from repro.analysis.candidates import candidate_opcodes, capture_sids
from repro.analysis.pipeline import windowed_loop_ddg
from repro.ddg import build_ddg
from repro.frontend import compile_source
from repro.interp import run_and_trace, run_module
from repro.interp.interpreter import DEFAULT_FUEL, Interpreter
from repro.ir.passes import optimize_module
from repro.obs import Run, Telemetry, use_run
from repro.trace.columnar import ColumnarLoopSink

from tests.test_candidate_cone import oracle_cone
from tests.trace_oracle import assert_ddgs_identical

N = 12  # array extent
ARRAYS = "ABC"
#: ``K[i] = (5 * i + 3) % N``: a permutation of the subscripts.
K_INIT = [(5 * i + 3) % N for i in range(N)]


class Assign:
    """target[idx] = reduce(op, terms); all arithmetic in doubles."""

    def __init__(self, target, idx_coeffs, terms, op):
        self.target = target          # "A" | "B" | "C"
        self.idx_coeffs = idx_coeffs  # (ci, cj, c0) -> (ci*i + cj*j + c0) % N
        self.terms = terms            # list of ("lit", float) | ("arr", name, coeffs)
        self.op = op                  # "+" | "*" | "-"


class Extras(NamedTuple):
    """The optional statements that end a generated loop body, in
    order; ``None`` where not drawn.

    - ``helper``: ``(off, lit, calls)`` — ``helper(dst, src, k)`` does
      ``dst[k] = dst[k] + src[(k + off) % N] * lit``, and ``calls`` are
      two ``(dst, src, coeffs)`` with different ``dst``;
    - ``select``: ``(m, (x, y), coeffs, lit, term)`` — ``p = i % m == 0
      ? x : y`` (an if/else on a pointer local), then ``p[idx] =
      p[idx] * lit + term``;
    - ``indirect``: ``(target, coeffs, src, kcoeffs, lit)`` —
      ``target[idx] = src[K[kidx]] * lit``;
    - ``reduce``: ``(src, coeffs, lit)`` — ``s = s + src[idx] * lit``,
      with ``R[0] = s`` after the loop nest.
    """

    helper: Optional[tuple]
    select: Optional[tuple]
    indirect: Optional[tuple]
    reduce: Optional[tuple]


@st.composite
def programs(draw):
    depth = draw(st.integers(min_value=1, max_value=2))
    bounds = [draw(st.integers(min_value=1, max_value=6))
              for _ in range(depth)]
    coeff = st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=N - 1),
    )
    lits = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False,
                     width=32)
    array = st.sampled_from(ARRAYS)
    term = st.one_of(
        st.tuples(st.just("lit"), lits),
        st.tuples(st.just("arr"), array, coeff),
    )
    n_assigns = draw(st.integers(min_value=1, max_value=4))
    assigns = []
    for _ in range(n_assigns):
        assigns.append(Assign(
            target=draw(array),
            idx_coeffs=draw(coeff),
            terms=draw(st.lists(term, min_size=1, max_size=3)),
            op=draw(st.sampled_from("+*-")),
        ))
    maybe = st.booleans()
    helper = select = indirect = reduce = None
    if draw(maybe):
        first = (draw(array), draw(array), draw(coeff))
        second_dst = draw(st.sampled_from(
            [a for a in ARRAYS if a != first[0]]))
        second = (second_dst, draw(array), draw(coeff))
        helper = (draw(st.integers(min_value=0, max_value=N - 1)),
                  draw(lits), (first, second))
    if draw(maybe):
        pair = draw(st.lists(array, min_size=2, max_size=2, unique=True))
        select = (draw(st.integers(min_value=2, max_value=3)),
                  tuple(pair), draw(coeff), draw(lits), draw(term))
    if draw(maybe):
        indirect = (draw(array), draw(coeff), draw(array), draw(coeff),
                    draw(lits))
    if draw(maybe):
        reduce = (draw(array), draw(coeff), draw(lits))
    return depth, bounds, assigns, Extras(helper, select, indirect, reduce)


def _idx_src(coeffs, depth):
    ci, cj, c0 = coeffs
    parts = [f"{ci} * i"]
    if depth > 1:
        parts.append(f"{cj} * j")
    parts.append(str(c0))
    return f"({' + '.join(parts)}) % {N}"


def _term_src(t, depth):
    if t[0] == "lit":
        return repr(float(t[1]))
    _, name, coeffs = t
    return f"{name}[{_idx_src(coeffs, depth)}]"


def _extra_lines(extras, depth):
    """Source lines of the drawn extras, in body order."""
    lines = []
    if extras.helper is not None:
        for dst, src, coeffs in extras.helper[2]:
            lines.append(f"helper({dst}, {src}, {_idx_src(coeffs, depth)});")
    if extras.select is not None:
        m, (x, y), coeffs, lit, term = extras.select
        idx = _idx_src(coeffs, depth)
        lines.append(f"if (i % {m} == 0) p = {x}; else p = {y};")
        lines.append(f"p[{idx}] = p[{idx}] * {float(lit)!r}"
                     f" + {_term_src(term, depth)};")
    if extras.indirect is not None:
        target, coeffs, src, kcoeffs, lit = extras.indirect
        lines.append(f"{target}[{_idx_src(coeffs, depth)}] = "
                     f"{src}[K[{_idx_src(kcoeffs, depth)}]] * {float(lit)!r};")
    if extras.reduce is not None:
        src, coeffs, lit = extras.reduce
        lines.append(f"s = s + {src}[{_idx_src(coeffs, depth)}]"
                     f" * {float(lit)!r};")
    return lines


def to_source(program):
    depth, bounds, assigns, extras = program
    body_lines = []
    for a in assigns:
        expr = f" {a.op} ".join(_term_src(t, depth) for t in a.terms)
        body_lines.append(
            f"{a.target}[{_idx_src(a.idx_coeffs, depth)}] = {expr};"
        )
    body_lines += _extra_lines(extras, depth)
    body = "\n      ".join(body_lines)
    inner = f"""
    L0: for (i = 0; i < {bounds[0]}; i++) {{
      {"Lj: for (j = 0; j < %d; j++) {" % bounds[1] if depth > 1 else ""}
      {body}
      {"}" if depth > 1 else ""}
    }}
"""
    helper = ""
    if extras.helper is not None:
        off, lit = extras.helper[:2]
        helper = f"""
void helper(double *dst, double *src, int k) {{
  dst[k] = dst[k] + src[(k + {off}) % {N}] * {float(lit)!r};
}}
"""
    return f"""
double A[{N}];
double B[{N}];
double C[{N}];
int K[{N}];
double R[1];
{helper}
int main() {{
  int i, j;
  double s;
  double *p;
  for (i = 0; i < {N}; i++) {{
    A[i] = 0.25 * (double)i;
    B[i] = 1.0 - 0.125 * (double)i;
    C[i] = 0.0;
    K[i] = (5 * i + 3) % {N};
  }}
  s = 0.0;
{inner}
  R[0] = s;
  return 0;
}}
"""


def oracle(program):
    depth, bounds, assigns, extras = program
    mem = {
        "A": [0.25 * i for i in range(N)],
        "B": [1.0 - 0.125 * i for i in range(N)],
        "C": [0.0] * N,
        "K": list(K_INIT),
        "R": [0.0],
    }
    acc = 0.0

    def idx(coeffs, i, j):
        ci, cj, c0 = coeffs
        return (ci * i + (cj * j if depth > 1 else 0) + c0) % N

    def term_value(t, i, j):
        if t[0] == "lit":
            return float(t[1])
        _, name, coeffs = t
        return mem[name][idx(coeffs, i, j)]

    def run_body(i, j):
        nonlocal acc
        for a in assigns:
            value = term_value(a.terms[0], i, j)
            for t in a.terms[1:]:
                other = term_value(t, i, j)
                if a.op == "+":
                    value = value + other
                elif a.op == "-":
                    value = value - other
                else:
                    value = value * other
            mem[a.target][idx(a.idx_coeffs, i, j)] = value
        if extras.helper is not None:
            off, lit, calls = extras.helper
            for dst, src, coeffs in calls:
                k = idx(coeffs, i, j)
                mem[dst][k] = mem[dst][k] + mem[src][(k + off) % N] * lit
        if extras.select is not None:
            m, (x, y), coeffs, lit, term = extras.select
            p = mem[x if i % m == 0 else y]
            k = idx(coeffs, i, j)
            p[k] = p[k] * lit + term_value(term, i, j)
        if extras.indirect is not None:
            target, coeffs, src, kcoeffs, lit = extras.indirect
            value = mem[src][mem["K"][idx(kcoeffs, i, j)]] * lit
            mem[target][idx(coeffs, i, j)] = value
        if extras.reduce is not None:
            src, coeffs, lit = extras.reduce
            acc = acc + mem[src][idx(coeffs, i, j)] * lit

    for i in range(bounds[0]):
        if depth > 1:
            for j in range(bounds[1]):
                run_body(i, j)
        else:
            run_body(i, 0)
    mem["R"][0] = acc
    return mem


def read_globals(module, interp):
    out = {}
    for name in ("A", "B", "C", "K", "R"):
        gv = module.globals[name]
        out[name] = interp.memory.read_flat(
            interp.global_addr[name], gv.type
        )
    return out


@given(programs())
@settings(max_examples=60, deadline=None)
def test_interpreter_matches_python_oracle(program):
    source = to_source(program)
    module = compile_source(source)
    _, interp = run_module(module)
    measured = read_globals(module, interp)
    expected = oracle(program)
    assert measured == expected


@given(programs())
@settings(max_examples=40, deadline=None)
def test_optimizer_preserves_generated_programs(program):
    source = to_source(program)
    plain = compile_source(source)
    _, interp1 = run_module(plain)

    optimized = compile_source(source)
    optimize_module(optimized)
    _, interp2 = run_module(optimized)

    assert read_globals(plain, interp1) == read_globals(optimized, interp2)
    assert interp2.executed_instructions <= interp1.executed_instructions


@given(programs())
@settings(max_examples=25, deadline=None)
def test_traces_of_generated_programs_are_well_formed(program):
    source = to_source(program)
    module = compile_source(source)
    trace = run_and_trace(module)
    ddg = build_ddg(trace)  # raises if edges violate topological order
    # Loop markers must balance.
    depth = 0
    for rec in trace.records:
        if rec.opcode == 70:
            depth += 1
        elif rec.opcode == 72:
            depth -= 1
        assert depth >= 0
    assert depth == 0
    assert len(ddg) > 0


@given(programs())
@settings(max_examples=30, deadline=None)
def test_capture_keeps_the_cone_of_generated_programs(program):
    module = compile_source(to_source(program))
    loop_id = module.loop_by_name("L0").loop_id
    sink = ColumnarLoopSink(loop_id, instances={0})
    Interpreter(module, sink=sink).run("main", ())
    full = sink.to_ddg()
    for include_integer in (False, True):
        ops = candidate_opcodes(include_integer)
        tel = Telemetry()
        with use_run(Run(tel=tel)):
            ddg, stats, _ = windowed_loop_ddg(
                module, loop_id, "L0", "main", (), 0, DEFAULT_FUEL,
                compile_threshold=2, cone_ops=ops)
        assert_ddgs_identical(ddg, sink.to_ddg(ops))
        assert stats["rows"] == sink.stats()["rows"]
        cone = {full.sids[j] for j in oracle_cone(full, ops)}
        assert (cone <= capture_sids(module, ops)
                or tel.counters.get("trace.capture_fallbacks"))
