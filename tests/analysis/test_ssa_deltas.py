"""Per-function facts the analyser computes once and memoises on the SSA."""

import pytest

from repro.analysis import analyze_image
from repro.analysis.analyzer import analyse_front_end
from repro.analysis.cfg import build_cfgs
from repro.analysis.disasm import disassemble
from repro.analysis.induction import analyse_induction
from repro.analysis.stack import rsp_effect
from repro.isa import Imm, Opcode as O, Reg
from repro.isa.operands import Label
from repro.isa.registers import R
from repro.jcc import CompileOptions
from repro.workloads import compile_workload

from tests.analysis.conftest import assemble


def naive_delta(ssa, block, index):
    """rsp delta before instruction ``index``, re-scanning the block."""
    delta = ssa.rsp_deltas[block]
    for ins in ssa.cfg.blocks[block].instructions[:index]:
        effect = rsp_effect(ins)
        delta += effect if effect is not None else 0
    return delta


@pytest.mark.parametrize("name,options", [
    ("403.gcc", CompileOptions()),
    ("470.lbm", CompileOptions(opt_level=2, mavx=True)),
    ("453.povray", CompileOptions(personality="icc")),
], ids=["gcc-O3", "gcc-O2-mavx", "icc-O3"])
def test_prefix_deltas_match_naive_scan(name, options):
    analysis = analyze_image(compile_workload(name, options))
    checked = 0
    for fa in analysis.functions.values():
        if fa.ssa is None:
            continue
        for start in fa.ssa.rsp_deltas:
            n = len(fa.cfg.blocks[start].instructions)
            for index in range(n + 1):
                assert fa.ssa.delta_at(start, index) \
                    == naive_delta(fa.ssa, start, index), (start, index)
                checked += 1
    assert checked > 0


def loop_ssa(image):
    fa = analyse_front_end(build_cfgs(disassemble(image))[image.entry])
    return fa.ssa, fa.loops


@pytest.fixture
def argument_bound_image():
    """for (rcx = 0; rcx < rdi; rcx++) rax += rcx; — bound is a live-in."""

    def build(a):
        a.label("_start")
        a.emit(O.MOV, Reg(R.rax), Imm(0))
        a.emit(O.MOV, Reg(R.rcx), Imm(0))
        a.label("loop")
        a.emit(O.ADD, Reg(R.rax), Reg(R.rcx))
        a.emit(O.INC, Reg(R.rcx))
        a.emit(O.CMP, Reg(R.rcx), Reg(R.rdi))
        a.emit(O.JL, Label("loop"))
        a.emit(O.RET)

    return assemble(build)


def test_induction_is_memoised_per_loop(argument_bound_image):
    ssa, (loop,) = loop_ssa(argument_bound_image)
    first = analyse_induction(ssa, loop)
    assert analyse_induction(ssa, loop) is first
    assert analyse_induction(ssa, loop, known_liveins={}) is first


def test_known_liveins_give_a_distinct_induction(argument_bound_image):
    ssa, (loop,) = loop_ssa(argument_bound_image)
    unknown = analyse_induction(ssa, loop)
    known = analyse_induction(ssa, loop, known_liveins={R.rdi: 10})
    assert known is not unknown
    assert unknown.iterator.static_trip_count is None
    assert known.iterator.static_trip_count == 10
    assert analyse_induction(ssa, loop, known_liveins={R.rdi: 10}) is known
