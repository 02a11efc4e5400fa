"""Tests for the BinaryAnalysis facade and its stripped-binary boundary."""

from repro.analysis import LoopCategory, analyze_image
from repro.isa import Imm, Mem, Opcode as O, Reg
from repro.isa.operands import Label
from repro.isa.registers import R
from repro.jcc import CompileOptions, compile_source
from repro.workloads import compile_workload

from tests.analysis.conftest import assemble


SOURCE = """
int n = 64;
double a[64];
int main() {
    int i;
    for (i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
    return 0;
}
"""


class TestStrippedBoundary:
    def test_analysis_identical_with_and_without_symbols(self):
        """The analyser may not use symbol tables: results must match."""
        image = compile_source(SOURCE, CompileOptions(opt_level=3,
                                                      strip=False))
        assert not image.stripped
        with_symbols = analyze_image(image)
        without_symbols = analyze_image(image.strip())
        assert len(with_symbols.loops) == len(without_symbols.loops)
        for a, b in zip(with_symbols.loops, without_symbols.loops):
            assert a.category == b.category
            assert a.loop.header == b.loop.header
            assert a.reasons == b.reasons

    def test_comment_not_consulted(self):
        image = compile_source(SOURCE, CompileOptions(opt_level=3))
        modified = image.strip()
        modified.comment = "totally different compiler -O0"
        a = analyze_image(image)
        b = analyze_image(modified)
        assert [l.category for l in a.loops] == \
            [l.category for l in b.loops]


class TestFacadeQueries:
    def _analysis(self):
        def build(a):
            arr = a.space("arr", 16)
            a.label("_start")
            a.emit(O.MOV, Reg(R.rcx), Imm(0))
            a.label("loop")
            a.emit(O.MOV, Mem(index=R.rcx, scale=8, disp=arr), Reg(R.rcx))
            a.emit(O.INC, Reg(R.rcx))
            a.emit(O.CMP, Reg(R.rcx), Imm(16))
            a.emit(O.JL, Label("loop"))
            a.emit(O.RET)

        return analyze_image(assemble(build))

    def test_loop_lookup_by_id(self):
        analysis = self._analysis()
        for result in analysis.loops:
            assert analysis.loop(result.loop_id) is result

    def test_loops_in_category(self):
        analysis = self._analysis()
        doall = analysis.loops_in_category(LoopCategory.STATIC_DOALL)
        assert len(doall) == 1
        assert not analysis.loops_in_category(LoopCategory.INCOMPATIBLE)

    def test_category_histogram_sums_to_total(self):
        analysis = self._analysis()
        histogram = analysis.category_histogram()
        assert sum(histogram.values()) == len(analysis.loops)

    def test_function_of_loop(self):
        analysis = self._analysis()
        result = analysis.loops[0]
        fa = analysis.function_of_loop(result)
        assert result.loop in fa.loops


def test_loop_ids_stay_stable_and_dense():
    analysis = analyze_image(compile_workload("464.h264ref"))
    assert [r.loop_id for r in analysis.loops] \
        == list(range(len(analysis.loops)))
    headers = [r.loop.header for r in analysis.loops]
    assert headers == sorted(headers)
    # Each result's loop object carries its own id.
    assert all(r.loop.loop_id == r.loop_id for r in analysis.loops)
