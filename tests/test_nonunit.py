"""§3.3 non-unit constant-stride waitlist-scan tests."""

from repro.analysis.nonunit import NonunitGroup, nonunit_stride_subpartitions
from repro.ddg import DDG
from repro.ir.instructions import Opcode

FMUL = int(Opcode.FMUL)


def ddg_with_tuples(tuples):
    n = len(tuples)
    return DDG(
        [1] * n,
        [FMUL] * n,
        [()] * n,
        addrs=[t[:-1] for t in tuples],
        store_addrs=[t[-1] for t in tuples],
    )


class TestWaitlistScan:
    def test_fixed_non_unit_stride_groups(self):
        """Stride-144 accesses (the milc AoS case) form one subpartition."""
        tuples = [(100 + 144 * i, 0, 500 + 144 * i) for i in range(6)]
        ddg = ddg_with_tuples(tuples)
        subs = nonunit_stride_subpartitions(ddg, list(range(6)))
        assert len(subs) == 1
        assert len(subs[0]) == 6

    def test_two_interleaved_strides_need_two_passes(self):
        """Items at two different fixed strides: the first pass collects
        one stride family, the waitlist pass the other."""
        family_a = [(100 + 32 * i, 0, 0) for i in range(4)]
        family_b = [(1000 + 48 * i, 0, 0) for i in range(4)]
        tuples = family_a + family_b
        ddg = ddg_with_tuples(tuples)
        groups = []
        subs = nonunit_stride_subpartitions(ddg, list(range(8)),
                                            groups=groups)
        # Family A's first pair sets stride 32; the jump to family B
        # mismatches it, so family B waits for the second pass.
        assert subs == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert groups == [
            NonunitGroup(4, (32, 0, 0), 0, 1, (100, 0, 0), (132, 0, 0)),
            NonunitGroup(4, (48, 0, 0), 4, 5, (1000, 0, 0), (1048, 0, 0)),
        ]

    def test_irregular_addresses_stay_singletons(self):
        tuples = [(x, 0, 0) for x in (100, 107, 121, 150, 151)]
        ddg = ddg_with_tuples(tuples)
        subs = nonunit_stride_subpartitions(ddg, list(range(5)))
        assert sum(len(s) for s in subs) == 5
        # The scan always terminates and covers everything exactly once.
        flat = sorted(x for s in subs for x in s)
        assert flat == list(range(5))

    def test_single_item(self):
        ddg = ddg_with_tuples([(100, 0, 0)])
        subs = nonunit_stride_subpartitions(ddg, [0])
        assert subs == [[0]]

    def test_empty_input(self):
        ddg = ddg_with_tuples([(0, 0, 0)])
        assert nonunit_stride_subpartitions(ddg, []) == []

    def test_unit_stride_also_accepted(self):
        """§3.3 relaxes the stride test: unit strides are a special case
        of a fixed stride and still group."""
        tuples = [(100 + 8 * i, 0, 0) for i in range(4)]
        ddg = ddg_with_tuples(tuples)
        subs = nonunit_stride_subpartitions(ddg, list(range(4)))
        assert len(subs) == 1

    def test_tuple_strides_must_match_componentwise(self):
        tuples = [
            (100, 200, 0),
            (116, 216, 0),   # stride (16, 16)
            (132, 240, 0),   # stride (16, 24) — mismatch, waitlisted
            (148, 248, 0),
        ]
        ddg = ddg_with_tuples(tuples)
        groups = []
        subs = nonunit_stride_subpartitions(ddg, list(range(4)),
                                            groups=groups)
        assert subs == [[0, 1], [2, 3]]
        assert groups == [
            NonunitGroup(2, (16, 16, 0), 0, 1, (100, 200, 0), (116, 216, 0)),
            NonunitGroup(2, (16, 8, 0), 2, 3, (132, 240, 0), (148, 248, 0)),
        ]

    def test_repeated_tuples_form_a_zero_stride_round(self):
        """Copies of one tuple pair at stride zero, and that round takes
        every copy, in input order."""
        tuples = [(300, 0, 0), (200, 0, 0), (200, 0, 0), (264, 0, 0),
                  (200, 0, 0)]
        ddg = ddg_with_tuples(tuples)
        groups = []
        subs = nonunit_stride_subpartitions(ddg, list(range(5)),
                                            groups=groups)
        assert subs == [[1, 2, 4], [3, 0]]
        assert groups == [
            NonunitGroup(3, (0, 0, 0), 1, 2, (200, 0, 0), (200, 0, 0)),
            NonunitGroup(2, (36, 0, 0), 3, 0, (264, 0, 0), (300, 0, 0)),
        ]

    def test_broken_chain_restarts_at_smallest_remaining(self):
        """A chain stops at its first missing link even when a later item
        (164 = 100 + 4 * 16) is on its stride; the next round starts at
        the smallest instance left, in the middle of the list."""
        tuples = [(100, 0), (116, 0), (132, 0), (150, 0), (164, 0),
                  (178, 0), (180, 0)]
        ddg = ddg_with_tuples(tuples)
        groups = []
        subs = nonunit_stride_subpartitions(ddg, list(range(7)),
                                            groups=groups)
        assert subs == [[0, 1, 2], [3, 4, 5], [6]]
        assert groups == [
            NonunitGroup(3, (16, 0), 0, 1, (100, 0), (116, 0)),
            NonunitGroup(3, (14, 0), 3, 4, (150, 0), (164, 0)),
            NonunitGroup(1, None, 6, None, (180, 0), None),
        ]

    def test_termination_on_adversarial_input(self):
        """Every pass removes at least the head item, so the scan
        terminates even when no two items share a stride."""
        tuples = [(100 + i * i * 8, 0, 0) for i in range(12)]
        ddg = ddg_with_tuples(tuples)
        subs = nonunit_stride_subpartitions(ddg, list(range(12)))
        assert sum(len(s) for s in subs) == 12


class TestEndToEndNonUnit:
    def test_aos_loop_reports_nonunit(self):
        """Array-of-structures traversal (paper Listing 3, S2/S3)."""
        from repro.analysis.metrics import loop_metrics
        from repro.analysis.pipeline import windowed_loop_ddg
        from repro.frontend import compile_source

        src = """
struct pt { double x; double y; };
struct pt B[16];
struct pt C[16];
int main() {
  int i;
  for (i = 0; i < 16; i++) { B[i].x = (double)i; B[i].y = 0.5; }
  L: for (i = 0; i < 16; i++) {
    C[i].x = B[i].x + B[i].y;
    C[i].y = B[i].x - B[i].y;
  }
  return 0;
}
"""
        module = compile_source(src)
        loop = module.loop_by_name("L")
        ddg, _, _ = windowed_loop_ddg(module, loop.loop_id, "L")
        report = loop_metrics(ddg, module, "L")
        # Stride-16 (2 doubles) accesses: zero unit, all non-unit.
        assert report.percent_vec_unit == 0.0
        assert report.percent_vec_nonunit == 100.0
        assert report.avg_vec_size_nonunit == 16.0

    def test_transposed_soa_loop_reports_unit(self):
        """After the paper's Listing 4 transformation the same computation
        is unit-stride."""
        from repro.analysis.metrics import loop_metrics
        from repro.analysis.pipeline import windowed_loop_ddg
        from repro.frontend import compile_source

        src = """
struct pts { double x[16]; double y[16]; };
struct pts B;
struct pts C;
int main() {
  int i;
  for (i = 0; i < 16; i++) { B.x[i] = (double)i; B.y[i] = 0.5; }
  L: for (i = 0; i < 16; i++) {
    C.x[i] = B.x[i] + B.y[i];
    C.y[i] = B.x[i] - B.y[i];
  }
  return 0;
}
"""
        module = compile_source(src)
        loop = module.loop_by_name("L")
        ddg, _, _ = windowed_loop_ddg(module, loop.loop_id, "L")
        report = loop_metrics(ddg, module, "L")
        assert report.percent_vec_unit == 100.0
        assert report.percent_vec_nonunit == 0.0
