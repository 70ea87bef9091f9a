"""Edge cases across subsystem boundaries."""

import pytest

from repro.analysis.pipeline import windowed_loop_ddg
from repro.errors import FrontendError
from repro.frontend import compile_source
from repro.interp import run_module

from tests.trace_oracle import columnar_trace


class TestRecursiveLoopReentry:
    """A loop re-entered through recursion: the window sink's depth
    counter must treat the nested dynamic activation as part of the
    outer window, and spans must stay balanced."""

    SRC = """
double acc[16];

void walk(int depth, int base) {
  int i;
  L: for (i = 0; i < 2; i++) {
    acc[base + depth * 2 + i] = (double)(depth + i);
    if (i == 0 && depth < 2) {
      walk(depth + 1, base);
    }
  }
}

int main() {
  walk(0, 0);
  walk(0, 8);
  return 0;
}
"""

    def test_full_trace_spans_balanced(self):
        module = compile_source(self.SRC)
        trace = columnar_trace(module)
        info = module.loop_by_name("L")
        spans = trace.loop_instances(info.loop_id)
        # 3 nested activations per top-level call, 2 calls.
        assert len(spans) == 6
        for span in spans:
            assert trace.records[span.start].opcode == 70
            assert trace.records[span.end].opcode == 72

    def test_window_covers_nested_activations(self):
        module = compile_source(self.SRC)
        info = module.loop_by_name("L")
        trace = columnar_trace(module, loop=info.loop_id, instances={0})
        # Instance 0 is the outermost activation of the first call; the
        # recursive activations happen inside it and are recorded.
        spans = trace.loop_instances(info.loop_id)
        assert len(spans) == 3
        ddg, stats, _ = windowed_loop_ddg(module, info.loop_id, "L")
        assert len(ddg) > 0
        assert stats["rows"] == len(trace)

    def test_later_instance_selectable(self):
        module = compile_source(self.SRC)
        info = module.loop_by_name("L")
        trace = columnar_trace(module, loop=info.loop_id, instances={3})
        # Instance 3 = the outermost activation of the second call.
        assert trace.loop_instances(info.loop_id)


class TestDiagnostics:
    """Frontend errors must carry usable source locations."""

    @pytest.mark.parametrize(
        "source,fragment,line",
        [
            ("int main() { retur 0; }", "expected", 1),
            ("int main() {\n  x = 1;\n}", "undeclared", 2),
            ("int main() {\n\n  double d = *3;\n  return 0;\n}",
             "dereference", 3),
        ],
    )
    def test_error_messages_carry_line(self, source, fragment, line):
        with pytest.raises(FrontendError) as exc:
            compile_source(source)
        message = str(exc.value)
        assert fragment in message
        assert f"{line}:" in message


class TestLazyAPI:
    def test_top_level_exports_resolve(self):
        import repro

        assert callable(repro.compile_source)
        assert callable(repro.analyze_loop)
        assert callable(repro.analyze_kernel)
        assert repro.LoopReport is not None

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.not_a_thing


class TestCrossFunctionHotLoop:
    """analyze_program must find and analyze a hot loop that lives in a
    helper function, with its cycles attributed through the call."""

    SRC = """
double data[48];

void smooth(int n) {
  int i, r;
  inner: for (r = 0; r < 10; r++)
    for (i = 1; i < n - 1; i++)
      data[i] = 0.25 * data[i-1] + 0.5 * data[i] + 0.25 * data[i+1];
}

int main() {
  int i;
  for (i = 0; i < 48; i++) data[i] = (double)(i % 5);
  smooth(48);
  return 0;
}
"""

    def test_helper_loop_discovered(self):
        from repro.analysis.pipeline import analyze_program

        report = analyze_program(self.SRC, benchmark="x")
        names = [loop.loop_name for loop in report.loops]
        assert any(n.startswith("smooth:") for n in names)

    def test_smoothing_is_a_chain(self):
        """In-place smoothing carries a dependence; the dynamic analysis
        must not report unit-stride potential for the serial update."""
        from repro.analysis.pipeline import analyze_program

        report = analyze_program(self.SRC, benchmark="x")
        rows = [l for l in report.loops
                if l.loop_name.startswith("smooth:")]
        assert rows
        assert all(row.percent_packed == 0.0 for row in rows)


class TestZeroTripAndTinyLoops:
    def test_zero_trip_loop_analysis(self):
        from repro.analysis.pipeline import analyze_loop
        from repro.errors import AnalysisError

        module = compile_source(
            "double A[4];\n"
            "int main() { int i; "
            "L: for (i = 0; i < 0; i++) A[i] = 1.0; return 0; }"
        )
        # The loop runs zero iterations: analysis succeeds with zero
        # candidates (the subtrace holds only markers + the bound check).
        report = analyze_loop(module, "L")
        assert report.total_candidate_ops == 0
        assert report.avg_concurrency == 0.0

    def test_single_iteration_loop(self):
        from repro.analysis.pipeline import analyze_loop

        module = compile_source(
            "double A[4];\n"
            "int main() { int i; "
            "L: for (i = 0; i < 1; i++) A[i] = 2.0 * 3.0; return 0; }"
        )
        report = analyze_loop(module, "L")
        assert report.total_candidate_ops == 1
        assert report.percent_vec_unit == 0.0  # singleton partition
