"""Listings 3/4 (paper §3.3): layout transformations exposed by the
non-unit-stride analysis.

Listing 3 has two loops: a column-walking stencil (stride N) and an
array-of-structures sweep (stride 2 elements).  The dynamic analysis
must classify both as 0% unit / 100% non-unit; after the paper's
Listing-4 rewrite (transpose + AoS->SoA) both become 100% unit and the
static vectorizer accepts them.
"""

from repro.analysis.pipeline import analyze_program
from repro.frontend import parse_source
from repro.vectorizer import analyze_program_loops
from repro.vectorizer.autovec import decisions_by_name

from benchmarks.conftest import write_result

N = 12

LISTING3 = f"""
double A[{N}][{N}];
struct pt {{ double x; double y; }};
struct pt B[{N}];
struct pt C[{N}];

int main() {{
  int i, j;
  for (i = 0; i < {N}; i++) {{
    B[i].x = 0.01 * (double)i;
    B[i].y = 0.5;
    for (j = 0; j < {N}; j++)
      A[i][j] = 0.001 * (double)(i * {N} + j);
  }}
  // S1: column access after the paper's permutation discussion — the
  // inner i loop is parallel but walks the outer dimension.
  s1_outer: for (j = 2; j < {N}; j++)
    s1: for (i = 0; i < {N}; i++)
      A[i][j] = 2.0 * A[i][j-1] - A[i][j-2];
  // S2/S3: array-of-structures accesses at stride 2 elements.
  s23: for (i = 0; i < {N}; i++) {{
    C[i].x = B[i].x + B[i].y;
    C[i].y = B[i].x - B[i].y;
  }}
  return 0;
}}
"""

LISTING4 = f"""
// Transformed declarations: A transposed, B/C as structure-of-arrays.
double At[{N}][{N}];
struct pts {{ double x[{N}]; double y[{N}]; }};
struct pts B;
struct pts C;

int main() {{
  int i, j;
  for (j = 0; j < {N}; j++) {{
    B.x[j] = 0.01 * (double)j;
    B.y[j] = 0.5;
    for (i = 0; i < {N}; i++)
      At[j][i] = 0.001 * (double)(i * {N} + j);
  }}
  s1_outer: for (j = 2; j < {N}; j++)
    s1: for (i = 0; i < {N}; i++)
      At[j][i] = 2.0 * At[j-1][i] - At[j-2][i];
  s23: for (i = 0; i < {N}; i++) {{
    C.x[i] = B.x[i] + B.y[i];
    C.y[i] = B.x[i] - B.y[i];
  }}
  return 0;
}}
"""


def regenerate():
    out = {}
    for name, src in (("listing3", LISTING3), ("listing4", LISTING4)):
        report = analyze_program(src, name, ["s1", "s23"])
        program, analyzer = parse_source(src)
        decisions = decisions_by_name(
            analyze_program_loops(program, analyzer)
        )
        out[name] = (report, decisions)
    return out


def test_listing3_listing4(benchmark, results_dir):
    data = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    lines = ["Listings 3/4 (§3.3): layout transformations"]
    for name, (report, decisions) in data.items():
        for loop in report.loops:
            verdict = (
                "VEC" if decisions[loop.loop_name].vectorized else "refused"
            )
            lines.append(
                f"{name:10} {loop.loop_name:5} static={verdict:8} "
                f"unit {loop.percent_vec_unit:5.1f}% "
                f"nonunit {loop.percent_vec_nonunit:5.1f}%"
            )
    write_result(results_dir, "listing3_layout.txt", "\n".join(lines) + "\n")

    orig_report, orig_dec = data["listing3"]
    new_report, new_dec = data["listing4"]
    orig = {l.loop_name: l for l in orig_report.loops}
    new = {l.loop_name: l for l in new_report.loops}

    # Original: independent operations, wrong strides, compiler refuses.
    for name in ("s1", "s23"):
        assert not orig_dec[name].vectorized
        assert orig[name].percent_vec_unit < 5.0
        assert orig[name].percent_vec_nonunit > 90.0
    # Transformed: unit stride, compiler accepts both loops.
    for name in ("s1", "s23"):
        assert new_dec[name].vectorized, new_dec[name]
        assert new[name].percent_vec_unit > 95.0
