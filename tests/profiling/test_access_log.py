"""Coverage attribution at the bracket RTCALLs, and recording windows.

Coverage counts every executed block, whole, for the loops active when
the block *ends*.  The profiler realises that by attributing
instruction-count deltas at the RTCALLs that change the loop stack.  These
tests pin the edge cases of that bookkeeping against hand-counted numbers
and against an independent per-block listener over the reference
interpreter, and check that an access right after a window-opening RTCALL
in the same block is recorded.
"""

from collections import defaultdict
from types import SimpleNamespace

import pytest

from repro.analysis import LoopCategory
from repro.dbm.modifier import JanusDBM
from repro.isa import Imm, Mem, Opcode as O, Reg
from repro.isa.operands import Label
from repro.isa.registers import R
from repro.jbin.asm import Assembler
from repro.jbin.loader import load
from repro.profiling import Profiler, run_profiling
from repro.rewrite.rules import RuleID
from repro.rewrite.schedule import RewriteSchedule
from repro.verify.oracle import DOALLOracle

from tests.integration.test_training_oracle_golden import forced_reference

RAX, RBX, RCX, RDI = Reg(R.rax), Reg(R.rbx), Reg(R.rcx), Reg(R.rdi)


def assemble(build):
    a = Assembler()
    build(a)
    return a.assemble(entry="_start", strip=False)


def schedule_for(image, rules) -> RewriteSchedule:
    """``rules``: (label, RuleID, data) triples; data may be a record."""
    schedule = RewriteSchedule.for_image(image)
    for label, rule_id, data in rules:
        if isinstance(data, tuple):
            data = schedule.add_record(data)
        schedule.add_rule(image.symbols[label], rule_id, data)
    return schedule


def per_block_coverage(image, schedule) -> dict:
    """Per-block attribution: each block to the loops active at its end.

    Runs on the reference interpreter, so it shares nothing with the
    bracket-delta attribution but the loop stack itself.
    """
    dbm = JanusDBM(load(image), schedule=schedule)
    profiler = Profiler(dbm)
    interp = dbm.interp
    interp.force_reference = True
    counts = defaultdict(lambda: [0, 0])
    execute = interp.execute_block_reference

    def listener(ctx, block, lookup=None):
        nxt = execute(ctx, block, lookup)
        frames = profiler.frames
        if frames:
            for loop_id in {frame.loop_id for frame in frames}:
                counts[loop_id][0] += len(block.instructions)
            counts[frames[-1].loop_id][1] += len(block.instructions)
        return nxt

    interp.execute_block_reference = listener
    dbm.run()
    return {loop_id: tuple(pair) for loop_id, pair in counts.items()}


def coverage(profile) -> dict:
    return {loop_id: (p.instructions, p.instructions_exclusive)
            for loop_id, p in profile.loops.items()
            if p.instructions or p.instructions_exclusive}


def profile_both_tiers(image, schedule):
    """The fast-tier and the reference-interpreter profile (must agree)."""
    fast, _ = run_profiling(load(image), schedule)
    with forced_reference():
        reference, _ = run_profiling(load(image), schedule)
    assert fast == reference
    return fast


def two_loops_image():
    """Loop 1 exits straight into loop 2's preheader: one block holds
    loop 1's LOOP_FINISH and loop 2's LOOP_START."""

    def build(a):
        a.label("_start")
        a.emit(O.MOV, RAX, Imm(0))
        a.label("pre1")
        a.emit(O.MOV, RCX, Imm(0))
        a.label("loop1")
        a.emit(O.INC, RAX)
        a.emit(O.INC, RCX)
        a.emit(O.CMP, RCX, Imm(3))
        a.emit(O.JL, Label("loop1"))
        a.label("exit1")
        a.emit(O.MOV, RCX, Imm(0))
        a.label("loop2")
        a.emit(O.INC, RCX)
        a.emit(O.CMP, RCX, Imm(2))
        a.emit(O.JL, Label("loop2"))
        a.label("exit2")
        a.emit(O.RET)

    return assemble(build)


TWO_LOOP_RULES = [
    ("pre1", RuleID.PROF_LOOP_START, 1),
    ("loop1", RuleID.PROF_LOOP_ITER, 1),
    ("exit1", RuleID.PROF_LOOP_FINISH, 1),
    ("exit1", RuleID.PROF_LOOP_START, 2),
    ("loop2", RuleID.PROF_LOOP_ITER, 2),
    ("exit2", RuleID.PROF_LOOP_FINISH, 2),
]


def test_start_and_finish_in_one_block():
    image = two_loops_image()
    schedule = schedule_for(image, TWO_LOOP_RULES)
    profile = profile_both_tiers(image, schedule)
    # Blocks: [mov] [mov, START1] 3x[ITER1, inc, inc, cmp, jl]
    # [FINISH1, mov, START2] 2x[ITER2, inc, cmp, jl] [FINISH2, ret].
    # The block holding FINISH1 and START2 ends inside loop 2.
    assert profile.total_instructions == 1 + 2 + 15 + 3 + 8 + 2
    assert coverage(profile) == {1: (17, 17), 2: (11, 11)}
    assert coverage(profile) == per_block_coverage(image, schedule)
    assert profile.loops[1].invocations == profile.loops[2].invocations == 1
    assert (profile.loops[1].iterations, profile.loops[2].iterations) == (3, 2)


def recursive_image():
    """f(depth) runs a two-iteration loop that calls f(depth-1) inside."""

    def build(a):
        a.label("_start")
        a.emit(O.MOV, RDI, Imm(2))
        a.emit(O.CALL, Label("f"))
        a.emit(O.RET)
        a.label("f")
        a.emit(O.PUSH, RCX)
        a.label("pre")
        a.emit(O.MOV, RCX, Imm(0))
        a.label("head")
        a.emit(O.CMP, RDI, Imm(0))
        a.emit(O.JE, Label("skip"))
        a.emit(O.DEC, RDI)
        a.emit(O.CALL, Label("f"))
        a.label("back")
        a.emit(O.INC, RDI)
        a.label("skip")
        a.emit(O.INC, RCX)
        a.emit(O.CMP, RCX, Imm(2))
        a.emit(O.JL, Label("head"))
        a.label("done")
        a.emit(O.POP, RCX)
        a.emit(O.RET)

    return assemble(build)


def test_recursion_counts_a_loop_once_inclusively():
    image = recursive_image()
    schedule = schedule_for(image, [
        ("pre", RuleID.PROF_LOOP_START, 7),
        ("head", RuleID.PROF_LOOP_ITER, 7),
        ("done", RuleID.PROF_LOOP_FINISH, 7),
    ])
    profile = profile_both_tiers(image, schedule)
    loop = profile.loops[7]
    assert loop.invocations == 1 + 2 + 4
    # Re-activated frames never double count: the loop covers exactly the
    # instructions from its first start to its last finish, once.
    assert coverage(profile) == per_block_coverage(image, schedule)
    assert loop.instructions == loop.instructions_exclusive
    assert loop.instructions < profile.total_instructions


def test_recursion_under_an_outer_loop_counts_both():
    """An outer loop around the recursive one keeps inclusive counts."""
    image = recursive_image()
    schedule = schedule_for(image, [
        ("_start", RuleID.PROF_LOOP_START, 1),
        ("pre", RuleID.PROF_LOOP_START, 7),
        ("head", RuleID.PROF_LOOP_ITER, 7),
        ("done", RuleID.PROF_LOOP_FINISH, 7),
    ])
    profile = profile_both_tiers(image, schedule)
    counts = coverage(profile)
    assert counts == per_block_coverage(image, schedule)
    outer, inner = counts[1], counts[7]
    assert outer[0] > inner[0] == inner[1]
    assert outer[0] == outer[1] + inner[1]


def halting_image():
    """The loop body halts on its third iteration: no LOOP_FINISH runs."""

    def build(a):
        a.label("_start")
        a.emit(O.MOV, RAX, Imm(0))
        a.label("pre")
        a.emit(O.MOV, RCX, Imm(0))
        a.label("head")
        a.emit(O.INC, RCX)
        a.emit(O.CMP, RCX, Imm(3))
        a.emit(O.JE, Label("stop"))
        a.emit(O.JMP, Label("head"))
        a.label("stop")
        a.emit(O.HLT)

    return assemble(build)


def test_halt_inside_a_loop_attributes_the_tail():
    image = halting_image()
    schedule = schedule_for(image, [
        ("pre", RuleID.PROF_LOOP_START, 3),
        ("head", RuleID.PROF_LOOP_ITER, 3),
    ])
    profile = profile_both_tiers(image, schedule)
    # [mov] [mov, START] then 3x[ITER, inc, cmp, je] with two [jmp]s
    # between, then the halting [hlt]: everything after the first block.
    assert profile.total_instructions == 1 + 2 + 12 + 2 + 1
    assert coverage(profile) == {3: (17, 17)}
    assert coverage(profile) == per_block_coverage(image, schedule)


def test_loop_finish_with_no_active_frame():
    """Exit targets are reachable from outside: a stray FINISH is inert."""
    image = two_loops_image()
    schedule = schedule_for(image, TWO_LOOP_RULES + [
        # Loop 2's finish runs before loop 2 ever starts (and loop 3's
        # never starts at all).
        ("loop1", RuleID.PROF_LOOP_FINISH, 2),
        ("exit1", RuleID.PROF_LOOP_FINISH, 3),
    ])
    profile = profile_both_tiers(image, schedule)
    # The stray RTCALLs only lengthen their blocks: loop 1's body block
    # (now 6 instructions) stays loop 1's, the exit block (now 4) goes
    # to loop 2 as before.
    assert profile.total_instructions == 1 + 2 + 18 + 4 + 8 + 2
    assert coverage(profile) == {1: (20, 20), 2: (12, 12)}
    assert coverage(profile) == per_block_coverage(image, schedule)
    assert profile.loops[1].invocations == 1
    assert 3 not in profile.loops


def window_image():
    """An external-call window around ``calli [table]`` inside a loop.

    The call's target is read from memory right after the window-opening
    RTCALL, in the same block.  ``f`` reads ``cell`` and writes it back
    incremented, so every iteration after the first depends on the one
    before.
    """

    def build(a):
        a.word("table", 0)  # patched to f's address at run time
        a.word("cell", 0)
        a.label("_start")
        a.emit(O.MOV, RBX, Label("f"))
        a.emit(O.MOV, Mem(disp=Label("table")), RBX)
        a.label("pre")
        a.emit(O.MOV, RCX, Imm(0))
        a.label("head")
        a.emit(O.INC, RCX)
        a.label("site")
        a.emit(O.CALLI, Mem(disp=Label("table")))
        a.label("ret_site")
        a.emit(O.CMP, RCX, Imm(3))
        a.emit(O.JL, Label("head"))
        a.label("exit")
        a.emit(O.RET)
        a.label("f")
        a.emit(O.MOV, RAX, Mem(disp=Label("cell")))
        a.emit(O.INC, RAX)
        a.emit(O.MOV, Mem(disp=Label("cell")), RAX)
        a.emit(O.RET)

    return assemble(build)


WINDOW_RULES = [
    ("pre", RuleID.PROF_LOOP_START, 5),
    ("head", RuleID.PROF_LOOP_ITER, 5),
    ("exit", RuleID.PROF_LOOP_FINISH, 5),
    ("site", RuleID.PROF_EXCALL_START, ("pe", 5, "f")),
    ("ret_site", RuleID.PROF_EXCALL_FINISH, ("pe", 5, "f")),
]


def test_window_records_the_access_right_after_its_rtcall():
    image = window_image()
    schedule = schedule_for(image, WINDOW_RULES)
    profile = profile_both_tiers(image, schedule)
    (excall,) = profile.loops[5].excalls.values()
    assert excall.invocations == 3
    # Per call: the calli's table read (same block as the window's
    # RTCALL) and f's read of cell; f's write.  The CALL's and RET's
    # stack words are never recorded.
    assert (excall.heap_reads, excall.heap_writes) == (6, 3)
    cell = image.symbols["cell"]
    assert profile.loops[5].has_dependence
    assert profile.loops[5].dependence_samples[0] == (cell, 1, 2)


def _claim(loop_id):
    return SimpleNamespace(loop_id=loop_id, category=LoopCategory.STATIC_DOALL,
                           alias=None)


def oracle_stats(image, schedule, reference: bool):
    dbm = JanusDBM(load(image), schedule=schedule)
    dbm.interp.force_reference = reference
    oracle = DOALLOracle(dbm, [_claim(5)])
    oracle.run(1_000_000)
    return oracle.result


@pytest.mark.parametrize("reference", [False, True])
def test_oracle_window_opens_mid_block(reference):
    """LOOP_START opens the oracle's window in the middle of its block:
    the store after it in the same block is replayed."""

    def build(a):
        a.space("arr", 4)
        a.label("_start")
        a.emit(O.MOV, RCX, Imm(0))
        a.label("pre")
        a.emit(O.MOV, RAX, Imm(9))
        a.emit(O.MOV, Mem(disp=Label("arr")), RAX)  # after LOOP_START
        a.label("head")
        a.emit(O.MOV, RBX, Mem(disp=Label("arr")))
        a.emit(O.MOV, Mem(disp=Label("arr")), RCX)
        a.emit(O.INC, RCX)
        a.emit(O.CMP, RCX, Imm(3))
        a.emit(O.JL, Label("head"))
        a.label("exit")
        a.emit(O.RET)

    image = assemble(build)
    schedule = schedule_for(image, [
        ("pre", RuleID.PROF_LOOP_START, 5),
        ("head", RuleID.PROF_LOOP_ITER, 5),
        ("exit", RuleID.PROF_LOOP_FINISH, 5),
    ])
    result = oracle_stats(image, schedule, reference)
    stats = result.loops[5]
    assert stats.iterations == 3
    # The preheader store (iteration 0) plus two accesses per iteration.
    assert stats.shadowed_accesses == 1 + 2 * 3
    arr = image.symbols["arr"]
    # Iteration 1 reads the word iteration 0 (the preheader) wrote.
    first = result.conflicts[0]
    assert (first.kind, first.word, first.from_iteration,
            first.to_iteration) == ("W->R", arr, 0, 1)
    assert result.confirmed_totals == {5: stats.confirmed}
