"""DDG Graphviz export tests."""

import pytest

from repro.analysis.pipeline import windowed_loop_ddg
from repro.analysis.timestamps import compute_timestamps, parallel_partitions
from repro.ddg import DDG
from repro.ddg.dot import MAX_NODES, ddg_to_dot, partition_legend
from repro.errors import AnalysisError
from repro.frontend import compile_source
from repro.ir.instructions import Opcode

FMUL = int(Opcode.FMUL)


def small_ddg():
    return DDG([1, 1, 1], [FMUL] * 3, [(), (0,), (1,)])


class TestDot:
    def test_renders_nodes_and_edges(self):
        dot = ddg_to_dot(small_ddg())
        assert dot.startswith("digraph")
        assert "n0" in dot and "n2" in dot
        assert "n0 -> n1" in dot
        assert "n1 -> n2" in dot

    def test_highlight_colors_partition_members(self):
        ddg = small_ddg()
        ts = compute_timestamps(ddg, 1)
        dot = ddg_to_dot(ddg, highlight_sid=1, timestamps=ts)
        assert dot.count("fillcolor") == 3

    def test_module_labels_carry_lines(self):
        src = """
double A[4];
int main() {
  int i;
  L: for (i = 0; i < 4; i++) A[i] = (double)i * 2.0;
  return 0;
}
"""
        module = compile_source(src)
        info = module.loop_by_name("L")
        ddg, _, _ = windowed_loop_ddg(module, info.loop_id, "L")
        dot = ddg_to_dot(ddg, module)
        assert "fmul@5" in dot

    def test_size_limit(self):
        n = MAX_NODES + 1
        big = DDG([1] * n, [FMUL] * n, [()] * n)
        with pytest.raises(AnalysisError, match="too large"):
            ddg_to_dot(big)

    def test_legend(self):
        ddg = small_ddg()
        parts = parallel_partitions(ddg, 1)
        legend = partition_legend(parts)
        assert "t=1" in legend and "t=3" in legend


class TestDotCLI:
    def test_dot_command(self, capsys, tmp_path):
        from repro.tools.cli import main

        out = str(tmp_path / "g.dot")
        code = main(["dot", "utdsp_fir_array", "--loop", "fir_n",
                     "-p", "ntap=4", "-p", "nout=4",
                     "--highlight-line", "19", "-o", out])
        assert code == 0
        text = open(out).read()
        assert "digraph" in text
        assert "fillcolor" in text

    def test_baselines_command(self, capsys):
        from repro.tools.cli import main

        code = main(["baselines", "utdsp_fir_array", "--loop", "fir_n"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "Kumar" in captured
        assert "Algorithm 1" in captured

    def test_oversize_loop_is_a_clean_error(self, capsys, tmp_path,
                                            monkeypatch):
        """A loop whose DDG is past ``MAX_NODES`` exits 1 with an
        ``error:`` line instead of raising, and writes no file."""
        from repro.tools.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["dot", "gauss_seidel", "--loop", "time_loop"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"error: graph too large to render (79705 nodes > {MAX_NODES})")
        assert not (tmp_path / "ddg.dot").exists()

    def test_analyze_trace_roundtrip(self, capsys, tmp_path):
        from repro.tools.cli import main
        from repro.workloads import get_workload

        trace_dir = tmp_path / "t.trace"
        src_path = str(tmp_path / "k.c")
        with open(src_path, "w") as fh:
            fh.write(get_workload("utdsp_fir_array").source())
        assert main(["trace", "utdsp_fir_array", "--loop", "fir_n",
                     "-o", str(trace_dir)]) == 0
        store = trace_dir / "fir_n-inst0"
        assert capsys.readouterr().out.endswith(f" records to {store}\n")
        assert main(["analyze-trace", str(store), "--source",
                     src_path]) == 0
        out = capsys.readouterr().out
        assert "100.0%" in out
