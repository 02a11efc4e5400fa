"""Tier 2: the schedule linter against generated and corrupted schedules."""

import pytest

from repro.analysis import analyze_image
from repro.isa import Imm, Mem, Opcode as O, Reg
from repro.isa.operands import Label
from repro.isa.registers import R
from repro.rewrite import (
    generate_parallel_schedule,
    generate_prefetch_schedule,
    generate_profile_schedule,
    generate_vector_schedule,
)
from repro.rewrite.gen_profile import COVERAGE_STAGE, DEPENDENCE_STAGE
from repro.rewrite.rules import RewriteRule, RuleID
from repro.verify import lint_schedule

from tests.analysis.conftest import assemble

RCX = Reg(R.rcx)


def doall_image():
    def build(a):
        a.space("arr", 64)
        a.label("_start")
        a.emit(O.MOV, RCX, Imm(0))
        a.label("loop")
        a.emit(O.MOV, Mem(index=R.rcx, scale=8, disp=Label("arr")), RCX)
        a.emit(O.INC, RCX)
        a.emit(O.CMP, RCX, Imm(64))
        a.emit(O.JL, Label("loop"))
        a.emit(O.RET)

    return assemble(build)


def fp_doall_image():
    """A floating-point DOALL body the vector legality whitelist accepts."""
    def build(a):
        a.space("src", 64 * 8)
        a.space("dst", 64 * 8)
        a.label("_start")
        a.emit(O.MOV, RCX, Imm(0))
        a.label("init")
        a.emit(O.CVTSI2SD, Reg(R.xmm0), RCX)
        a.emit(O.MOVSD, Mem(index=R.rcx, scale=8, disp=Label("src")),
               Reg(R.xmm0))
        a.emit(O.INC, RCX)
        a.emit(O.CMP, RCX, Imm(64))
        a.emit(O.JL, Label("init"))
        a.emit(O.MOV, Reg(R.rax), Imm(3))
        a.emit(O.CVTSI2SD, Reg(R.xmm1), Reg(R.rax))
        a.emit(O.MOV, RCX, Imm(0))
        a.label("loop")
        a.emit(O.MOVSD, Reg(R.xmm0),
               Mem(index=R.rcx, scale=8, disp=Label("src")))
        a.emit(O.MULSD, Reg(R.xmm0), Reg(R.xmm1))
        a.emit(O.MOVSD, Mem(index=R.rcx, scale=8, disp=Label("dst")),
               Reg(R.xmm0))
        a.emit(O.INC, RCX)
        a.emit(O.CMP, RCX, Imm(64))
        a.emit(O.JL, Label("loop"))
        a.emit(O.RET)

    return assemble(build)


def checks(findings):
    return {f.check for f in findings}


class TestCleanSchedules:
    def test_coverage_schedule_lints_clean(self):
        analysis = analyze_image(doall_image())
        schedule = generate_profile_schedule(analysis, stage=COVERAGE_STAGE)
        assert lint_schedule(analysis, schedule) == []

    def test_dependence_schedule_lints_clean(self):
        analysis = analyze_image(doall_image())
        schedule = generate_profile_schedule(analysis,
                                             stage=DEPENDENCE_STAGE)
        assert lint_schedule(analysis, schedule) == []

    def test_parallel_schedule_lints_clean(self):
        analysis = analyze_image(doall_image())
        schedule = generate_parallel_schedule(analysis, [0])
        assert lint_schedule(analysis, schedule) == []

    def test_vector_schedule_lints_clean(self):
        analysis = analyze_image(fp_doall_image())
        schedule = generate_vector_schedule(analysis)
        assert len(schedule)  # the compute loop is vectorisable
        assert lint_schedule(analysis, schedule) == []

    def test_prefetch_schedule_lints_clean(self):
        analysis = analyze_image(fp_doall_image())
        schedule = generate_prefetch_schedule(analysis)
        assert len(schedule)
        assert lint_schedule(analysis, schedule) == []


class TestCorruptedSchedules:
    def test_off_boundary_address(self):
        analysis = analyze_image(doall_image())
        schedule = generate_profile_schedule(analysis, stage=COVERAGE_STAGE)
        schedule.rules.append(RewriteRule(
            address=0xDEAD01, rule_id=RuleID.PROF_LOOP_ITER, data=0))
        assert "rule.address-boundary" in checks(
            lint_schedule(analysis, schedule))

    def test_unknown_rule_id(self):
        analysis = analyze_image(doall_image())
        schedule = generate_profile_schedule(analysis, stage=COVERAGE_STAGE)
        schedule.rules.append(RewriteRule(
            address=schedule.rules[0].address, rule_id=99, data=0))
        assert "rule.unknown-id" in checks(lint_schedule(analysis, schedule))

    def test_exact_duplicate_rule(self):
        analysis = analyze_image(doall_image())
        schedule = generate_profile_schedule(analysis, stage=COVERAGE_STAGE)
        schedule.rules.append(schedule.rules[0])
        assert "rule.duplicate" in checks(lint_schedule(analysis, schedule))

    def test_pool_index_out_of_range(self):
        analysis = analyze_image(doall_image())
        schedule = generate_parallel_schedule(analysis, [0])
        bad = len(schedule.pool) + 5
        schedule.rules.append(RewriteRule(
            address=schedule.rules[0].address,
            rule_id=RuleID.THREAD_SCHEDULE, data=bad))
        assert "rule.operand-range" in checks(
            lint_schedule(analysis, schedule))

    def test_missing_loop_finish(self):
        analysis = analyze_image(doall_image())
        schedule = generate_profile_schedule(analysis, stage=COVERAGE_STAGE)
        schedule.rules = [r for r in schedule.rules
                          if r.rule_id is not RuleID.PROF_LOOP_FINISH]
        assert "rule.prof-bracket" in checks(
            lint_schedule(analysis, schedule))

    def test_misplaced_loop_init(self):
        analysis = analyze_image(doall_image())
        schedule = generate_parallel_schedule(analysis, [0])
        moved = []
        for rule in schedule.rules:
            if rule.rule_id is RuleID.LOOP_INIT:
                # Shift LOOP_INIT onto another real instruction boundary.
                target = next(a for a in analysis.disassembly.instructions
                              if a != rule.address)
                rule = RewriteRule(address=target, rule_id=rule.rule_id,
                                   data=rule.data)
            moved.append(rule)
        schedule.rules = moved
        assert "rule.init-placement" in checks(
            lint_schedule(analysis, schedule))

    def test_checksum_mismatch(self):
        analysis = analyze_image(doall_image())
        schedule = generate_profile_schedule(analysis, stage=COVERAGE_STAGE)
        schedule.text_checksum ^= 0xFFFF
        assert "schedule.checksum" in checks(
            lint_schedule(analysis, schedule))

    def test_missing_vect_finish(self):
        analysis = analyze_image(fp_doall_image())
        schedule = generate_vector_schedule(analysis)
        schedule.rules = [r for r in schedule.rules
                          if r.rule_id is not RuleID.VECT_FINISH]
        assert "rule.vect-pairing" in checks(
            lint_schedule(analysis, schedule))

    def test_misplaced_vect_init(self):
        analysis = analyze_image(fp_doall_image())
        schedule = generate_vector_schedule(analysis)
        moved = []
        for rule in schedule.rules:
            if rule.rule_id is RuleID.VECT_INIT:
                target = next(a for a in analysis.disassembly.instructions
                              if a != rule.address)
                rule = RewriteRule(address=target, rule_id=rule.rule_id,
                                   data=rule.data)
            moved.append(rule)
        schedule.rules = moved
        assert "rule.vect-init-placement" in checks(
            lint_schedule(analysis, schedule))

    def test_vect_lane_count_out_of_range(self):
        analysis = analyze_image(fp_doall_image())
        schedule = generate_vector_schedule(analysis)
        schedule.rules = [
            RewriteRule(address=r.address, rule_id=r.rule_id, data=3)
            if r.rule_id is RuleID.VECT_CONVERT else r
            for r in schedule.rules]
        assert "rule.operand-range" in checks(
            lint_schedule(analysis, schedule))

    def test_linter_never_raises_on_garbage(self):
        analysis = analyze_image(doall_image())
        schedule = generate_profile_schedule(analysis, stage=COVERAGE_STAGE)
        schedule.rules.append(RewriteRule(address=2**63, rule_id=7, data=-1))
        findings = lint_schedule(analysis, schedule)
        assert findings  # reported, not raised


# A metadata record with the wrong tag, or one field short.
_BREAKAGES = {
    "wrong-tag": lambda record: ("bogus",) + tuple(record[1:]),
    "wrong-arity": lambda record: tuple(record[:-1]),
}


@pytest.mark.parametrize("breakage", sorted(_BREAKAGES))
@pytest.mark.parametrize("family", ["loop", "vector"])
def test_undecodable_metadata_record(family, breakage):
    if family == "loop":
        analysis = analyze_image(doall_image())
        schedule = generate_parallel_schedule(analysis, [0])
        init, check = RuleID.LOOP_INIT, "rule.loop-meta"
    else:
        analysis = analyze_image(fp_doall_image())
        schedule = generate_vector_schedule(analysis)
        init, check = RuleID.VECT_INIT, "rule.vect-meta"
    (rule,) = schedule.rules_of_kind(init)
    schedule.pool[rule.data] = _BREAKAGES[breakage](schedule.pool[rule.data])
    messages = [f.message for f in lint_schedule(analysis, schedule)
                if f.check == check]
    assert len(messages) == 1
    assert "does not decode" in messages[0]
