"""Loop-iteration brackets called in line from superblocks.

The profiler registers ``PROF_LOOP_ITER`` inline
(``JanusDBM.register_rtcall(..., inline=True)``), so a profiled hot loop
runs as a superblock that calls the bracket in line.  Profiles and the
runs' cycles and instructions must be exactly those of the block tier
alone (``superblock_threshold = 0``).  The DOALL oracle's bracket toggles
its replay window, so it stays non-inline and keeps such loops off the
superblock tier.
"""

from contextlib import contextmanager

import pytest

from repro.analysis import LoopCategory
from repro.dbm.blocks import discover_block
from repro.dbm.editor import BlockEditor
from repro.dbm.interp import Interpreter
from repro.dbm.machine import Machine, make_main_context
from repro.dbm.modifier import JanusDBM
from repro.dbm.rtcalls import RTCallID
from repro.dbm.superblock import _walk
from repro.isa import Imm, Opcode as O, Reg
from repro.isa.operands import Label
from repro.isa.registers import R
from repro.jbin.asm import Assembler
from repro.jbin.loader import load
from repro.pipeline import Janus, JanusConfig
from repro.profiling import Profiler, run_profiling
from repro.rewrite import generate_profile_schedule
from repro.rewrite.gen_profile import DEPENDENCE_STAGE
from repro.verify.oracle import DOALLOracle
from repro.workloads import compile_workload, get_workload

BINARIES = ("470.lbm", "433.milc", "459.GemsFDTD")


@contextmanager
def superblock_threshold(value):
    """Every JanusDBM built inside uses this superblock threshold."""
    original = JanusDBM.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.interp.superblock_threshold = value

    JanusDBM.__init__ = init
    try:
        yield
    finally:
        JanusDBM.__init__ = original


def _schedules(name):
    """The training's coverage and dependence schedules, as Janus builds
    them, without letting training reclassify the analysis."""
    workload = get_workload(name)
    janus = Janus(compile_workload(name), JanusConfig())
    coverage = janus.coverage_schedule()
    profile, _ = run_profiling(load(janus.image,
                                    inputs=list(workload.train_inputs)),
                               coverage)
    needs = [loop_id for loop_id in profile.loops_above_coverage(
                 janus.config.coverage_threshold)
             if janus.analysis.loop(loop_id).category
             is LoopCategory.DYNAMIC_DOALL]
    schedules = {"coverage": coverage}
    if needs:
        schedules["dependence"] = generate_profile_schedule(
            janus.analysis, stage=DEPENDENCE_STAGE, loop_ids=needs)
    return janus.image, list(workload.train_inputs), schedules


@pytest.mark.parametrize("name", BINARIES)
def test_superblock_profiles_match_block_tier(name):
    image, inputs, schedules = _schedules(name)
    for stage, schedule in schedules.items():
        profile, execution = run_profiling(load(image, inputs=inputs),
                                           schedule)
        with superblock_threshold(0):
            block_profile, block_execution = run_profiling(
                load(image, inputs=inputs), schedule)
        assert profile == block_profile, stage
        assert execution.cycles == block_execution.cycles, stage
        assert execution.instructions == block_execution.instructions, \
            stage
        assert block_execution.stats["superblock_entries"] == 0


def test_lbm_coverage_run_reaches_superblocks():
    image, inputs, schedules = _schedules("470.lbm")
    _, execution = run_profiling(load(image, inputs=inputs),
                                 schedules["coverage"])
    assert execution.stats["superblock_entries"] > 0
    assert execution.stats["blocks_translated"] \
        < execution.stats["translated_blocks"]


def test_only_the_profiler_registers_the_bracket_inline():
    image = compile_workload("470.lbm")
    profiler_dbm = JanusDBM(load(image))
    Profiler(profiler_dbm)
    assert profiler_dbm.interp.inline_rtcalls == {RTCallID.PROF_LOOP_ITER}
    oracle_dbm = JanusDBM(load(image))
    DOALLOracle(oracle_dbm, [])
    assert not oracle_dbm.interp.inline_rtcalls


def _bracketed_self_loop(inline):
    """A one-block loop headed by a PROF_LOOP_ITER bracket, walked."""
    a = Assembler()
    a.label("_start")
    a.emit(O.MOV, Reg(R.rcx), Imm(0))
    a.label("loop")
    a.emit(O.INC, Reg(R.rcx))
    a.emit(O.CMP, Reg(R.rcx), Imm(100))
    a.emit(O.JL, Label("loop"))
    a.emit(O.HLT)
    image = a.assemble(entry="_start", strip=False)
    process = load(image)
    head = discover_block(process, image.symbols["loop"])
    editor = BlockEditor(head)
    editor.insert_at_start(editor.rtcall(RTCallID.PROF_LOOP_ITER, 1))
    head = editor.finish()
    machine = Machine()
    interp = Interpreter(machine, process)
    interp.inline_rtcalls = inline
    ctx = make_main_context(process.entry, machine.memory)
    return _walk(head, interp, lambda pc, _ctx: head, ctx, {})


def test_walk_admits_only_inline_rtcalls():
    assert _bracketed_self_loop(set()) is None
    segments = _bracketed_self_loop({int(RTCallID.PROF_LOOP_ITER)})
    assert segments is not None and len(segments) == 1
