"""Tests for the rewrite-schedule container and rule structures."""

import pytest

from repro.jbin.image import JELF, Section
from repro.rewrite.rules import RULE_SIZE, RewriteRule, RuleID
from repro.rewrite.schedule import RewriteSchedule, ScheduleError


def make_image(text=b"\x01\x02\x03"):
    return JELF(entry=0x400000,
                text=Section(".text", 0x400000, text),
                data=Section(".data", 0x10000000, b""))


def test_rule_pack_unpack():
    rule = RewriteRule(address=0x400900, rule_id=RuleID.MEM_PRIVATISE,
                       data=42)
    raw = rule.pack()
    assert len(raw) == RULE_SIZE
    assert RewriteRule.unpack(raw) == rule


def test_rule_ids_match_paper_count():
    from repro.rewrite.rules import PARALLEL_RULES, PROFILING_RULES

    assert len(PROFILING_RULES) == 6   # six major profiling rules
    assert len(PARALLEL_RULES) == 12   # twelve parallel transformation rules


def test_schedule_round_trip():
    image = make_image()
    schedule = RewriteSchedule.for_image(image)
    meta_index = schedule.add_record({"k": "loop", "id": 0})
    schedule.add_rule(0x400900, RuleID.LOOP_INIT, meta_index)
    schedule.add_rule(0x400905, RuleID.MEM_PRIVATISE, 7)
    clone = RewriteSchedule.deserialize(schedule.serialize())
    assert clone.rules == schedule.rules
    assert clone.pool == schedule.pool
    assert clone.verify_against(image)


def test_schedule_checksum_detects_wrong_binary():
    schedule = RewriteSchedule.for_image(make_image())
    other = make_image(text=b"\xAA\xBB")
    assert not schedule.verify_against(other)


def test_rule_order_preserved_per_address():
    schedule = RewriteSchedule.for_image(make_image())
    schedule.add_rule(0x400900, RuleID.MEM_BOUNDS_CHECK, 1)
    schedule.add_rule(0x400900, RuleID.MEM_BOUNDS_CHECK, 2)
    schedule.add_rule(0x400900, RuleID.LOOP_INIT, 0)
    index = schedule.build_index()
    kinds = [r.rule_id for r in index[0x400900]]
    assert kinds == [RuleID.MEM_BOUNDS_CHECK, RuleID.MEM_BOUNDS_CHECK,
                     RuleID.LOOP_INIT]
    datas = [r.data for r in index[0x400900][:2]]
    assert datas == [1, 2]


def test_bad_magic_and_truncation():
    with pytest.raises(ScheduleError):
        RewriteSchedule.deserialize(b"XXXX" + b"\x00" * 32)
    raw = RewriteSchedule.for_image(make_image()).serialize()
    with pytest.raises(ScheduleError):
        RewriteSchedule.deserialize(raw[:6])


def test_size_bytes_counts_everything():
    schedule = RewriteSchedule.for_image(make_image())
    empty_size = schedule.size_bytes
    schedule.add_rule(0x400900, RuleID.LOOP_INIT, 0)
    assert schedule.size_bytes == empty_size + RULE_SIZE


def test_identical_records_share_a_pool_slot():
    schedule = RewriteSchedule.for_image(make_image())
    first = schedule.add_record(("ms", 8))
    second = schedule.add_record(("ms", 8))
    third = schedule.add_record(("ms", 16))
    assert first == second
    assert third != first
    assert len(schedule.pool) == 2


def test_rule_families_cover_new_modes():
    from repro.rewrite.rules import (
        PARALLEL_RULES,
        PREFETCH_RULES,
        PROFILING_RULES,
        VECTOR_RULES,
    )

    assert len(VECTOR_RULES) == 5
    assert len(PREFETCH_RULES) == 1
    # The four families partition the rule IDs: every member belongs to
    # exactly one.
    families = (PROFILING_RULES, PARALLEL_RULES, VECTOR_RULES,
                PREFETCH_RULES)
    assert sorted(r for family in families for r in family) == sorted(RuleID)


def test_unregistered_unknown_rule_id_is_a_format_error():
    from repro.rewrite.rules import ScheduleFormatError

    raw = RewriteRule(address=0x400900, rule_id=93, data=0).pack()
    with pytest.raises(ScheduleFormatError, match="unknown rule id 93"):
        RewriteRule.unpack(raw)


def test_schedule_with_unknown_rule_id_is_rejected_on_read():
    """An ID outside RuleID never reaches the DBM's handler table."""
    from repro.rewrite.rules import ScheduleFormatError

    rule = RewriteRule(address=0x400900, rule_id=77, data=5)
    with pytest.raises(ScheduleFormatError, match="unknown rule id 77"):
        RewriteRule.from_bytes(rule.pack())
    schedule = RewriteSchedule.for_image(make_image())
    schedule.add_rule(0x400903, RuleID.LOOP_INIT, 0)
    schedule.add_rule(0x400900, 77, 5)
    with pytest.raises(ScheduleError, match="rule 1 of 2: unknown rule id 77"):
        RewriteSchedule.deserialize(schedule.serialize())
