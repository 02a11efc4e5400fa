"""Tier 2: rewrite-schedule linting against the analysed binary.

Validates a generated :class:`RewriteSchedule` the way a distrustful DBM
would before applying it: every rule must trigger on a real instruction
boundary, carry a known rule ID with in-range operands, respect the
generator's pairing/placement contracts (LOOP_INIT/LOOP_FINISH on loop
entry/exit, TX_START/TX_FINISH bracketing one call), avoid conflicting
instruction replacements, and byte-round-trip through the on-disk format.
"""

from __future__ import annotations

from repro.rewrite.metadata import RULE_PAYLOAD, LoopMeta, VectorMeta
from repro.rewrite.rules import (
    PARALLEL_RULES,
    PREFETCH_RULES,
    PROFILING_RULES,
    VECTOR_RULES,
    RewriteRule,
    RuleID,
)
from repro.rewrite.schedule import RewriteSchedule, ScheduleError
from repro.verify.findings import Finding, Severity

_TIER = "schedule"

# Rules whose data field is a lane count, not a pool index.
_LANE_COUNT_RULES = frozenset((RuleID.VECT_CONVERT,
                               RuleID.VECT_INDUCTION_UPDATE))

# Rules whose data field is a loop id.
_LOOP_ID_RULES = frozenset((RuleID.PROF_LOOP_START, RuleID.PROF_LOOP_ITER,
                            RuleID.PROF_LOOP_FINISH))

# Rules that *replace* the triggering instruction in the code cache (see
# repro.dbm.handlers): two of these on one address cannot both apply.
_REPLACING_RULES = frozenset((RuleID.LOOP_UPDATE_BOUND,
                              RuleID.MEM_MAIN_STACK, RuleID.MEM_PRIVATISE,
                              RuleID.VECT_BOUND, RuleID.VECT_CONVERT,
                              RuleID.VECT_INDUCTION_UPDATE))

_KNOWN_RULES = (PROFILING_RULES | PARALLEL_RULES | VECTOR_RULES
                | PREFETCH_RULES)


def _finding(check: str, location: str, message: str) -> Finding:
    return Finding(tier=_TIER, check=check, severity=Severity.ERROR,
                   location=location, message=message)


def lint_schedule(analysis, schedule: RewriteSchedule) -> list[Finding]:
    """All schedule checks; returns findings, never raises."""
    findings: list[Finding] = []
    findings.extend(_check_roundtrip(schedule))
    if not schedule.verify_against(analysis.image):
        findings.append(_finding(
            "schedule.checksum", "header",
            "text checksum does not match the analysed binary"))

    instructions = analysis.disassembly.instructions
    n_loops = len(analysis.loops)
    pool = schedule.pool

    for i, rule in enumerate(schedule.rules):
        name = getattr(rule.rule_id, "name", str(rule.rule_id))
        loc = f"rule {i} ({name} @{rule.address:#x})"
        if rule.rule_id not in _KNOWN_RULES:
            findings.append(_finding(
                "rule.unknown-id", loc,
                f"rule id {int(rule.rule_id)} is not a known RuleID"))
            continue
        if rule.address not in instructions:
            findings.append(_finding(
                "rule.address-boundary", loc,
                "trigger address is not an instruction boundary"))
        record_type = RULE_PAYLOAD.get(rule.rule_id)
        if record_type is not None:
            if not 0 <= rule.data < len(pool):
                findings.append(_finding(
                    "rule.operand-range", loc,
                    f"pool index {rule.data} out of range "
                    f"(pool has {len(pool)} records)"))
            else:
                record = pool[rule.data]
                actual = record[0] if isinstance(record, (tuple, list)) \
                    and record else None
                if actual != record_type.TAG:
                    findings.append(_finding(
                        "rule.operand-kind", loc,
                        f"pool record {rule.data} is {actual!r}, "
                        f"expected {record_type.TAG!r}"))
        elif rule.rule_id in _LOOP_ID_RULES:
            if not 0 <= rule.data < n_loops:
                findings.append(_finding(
                    "rule.operand-range", loc,
                    f"loop id {rule.data} out of range "
                    f"(binary has {n_loops} loops)"))
        elif rule.rule_id in _LANE_COUNT_RULES:
            if rule.data not in (2, 4):
                findings.append(_finding(
                    "rule.operand-range", loc,
                    f"lane count {rule.data} is not a supported packed "
                    f"width (2 or 4)"))

    findings.extend(_check_conflicts(schedule))
    findings.extend(_check_parallel_pairing(analysis, schedule))
    findings.extend(_check_profile_pairing(analysis, schedule))
    findings.extend(_check_vector_pairing(analysis, schedule))
    return findings


# -- serialisation round-trip --------------------------------------------------

def _check_roundtrip(schedule: RewriteSchedule) -> list[Finding]:
    try:
        raw = schedule.serialize()
    except Exception as exc:
        return [_finding("schedule.serialize", "schedule",
                         f"serialisation failed: {exc}")]
    try:
        clone = RewriteSchedule.deserialize(raw)
    except ScheduleError as exc:
        return [_finding("schedule.roundtrip", "schedule",
                         f"own bytes do not deserialise: {exc}")]
    findings: list[Finding] = []
    if clone.rules != schedule.rules:
        findings.append(_finding(
            "schedule.roundtrip", "schedule",
            "rule table changed across a serialise/deserialise cycle"))
    if clone.serialize() != raw:
        findings.append(_finding(
            "schedule.roundtrip", "schedule",
            "bytes are not a fixed point of serialise∘deserialise"))
    return findings


# -- address conflicts ---------------------------------------------------------

def _check_conflicts(schedule: RewriteSchedule) -> list[Finding]:
    findings: list[Finding] = []
    seen: set[tuple] = set()
    for i, rule in enumerate(schedule.rules):
        key = (rule.address, int(rule.rule_id), rule.data)
        if key in seen:
            name = getattr(rule.rule_id, "name", str(rule.rule_id))
            findings.append(_finding(
                "rule.duplicate", f"rule {i} @{rule.address:#x}",
                f"exact duplicate of an earlier {name} rule"))
        seen.add(key)
    by_address: dict[int, list[RewriteRule]] = {}
    for rule in schedule.rules:
        if rule.rule_id in _REPLACING_RULES:
            by_address.setdefault(rule.address, []).append(rule)
    for address, rules in sorted(by_address.items()):
        if len(rules) > 1:
            names = ", ".join(getattr(r.rule_id, "name", str(r.rule_id))
                              for r in rules)
            findings.append(_finding(
                "rule.replacement-conflict", f"@{address:#x}",
                f"{len(rules)} instruction-replacing rules on one "
                f"address: {names}"))
    return findings


# -- parallel-rule pairing and placement ----------------------------------------

def _loop_anchors(analysis, loop_id: int):
    """(preheader terminator address, header, exit targets) for a loop."""
    result = analysis.loop(loop_id)
    loop = result.loop
    fa = analysis.function_of_loop(result)
    anchor = None
    if loop.preheader is not None and loop.preheader in fa.cfg.blocks:
        anchor = fa.cfg.blocks[loop.preheader].terminator.address
    return anchor, loop.header, set(loop.exit_targets)


def _check_parallel_pairing(analysis, schedule: RewriteSchedule
                            ) -> list[Finding]:
    findings: list[Finding] = []
    by_kind = {rule_id: _by_record(schedule, rule_id)
               for rule_id, record_type in RULE_PAYLOAD.items()
               if record_type is LoopMeta}
    inits = by_kind[RuleID.LOOP_INIT]
    finishes = by_kind[RuleID.LOOP_FINISH]
    for meta_index in sorted(set(inits) | set(finishes)):
        loc = f"loop meta {meta_index}"
        n_init = len(inits.get(meta_index, ()))
        n_finish = len(finishes.get(meta_index, ()))
        if n_init != 1 or n_finish != 1:
            findings.append(_finding(
                "rule.init-finish-pairing", loc,
                f"LOOP_INIT x{n_init} / LOOP_FINISH x{n_finish} for one "
                f"loop metadata record (expected exactly one of each)"))
            continue
        try:
            meta = LoopMeta.from_record(schedule.record(meta_index))
        except Exception as exc:
            findings.append(_finding(
                "rule.loop-meta", loc,
                f"loop metadata record does not decode: {exc}"))
            continue
        try:
            anchor, header, exits = _loop_anchors(analysis, meta.loop_id)
        except (IndexError, KeyError):
            findings.append(_finding(
                "rule.loop-meta", loc,
                f"metadata names unknown loop id {meta.loop_id}"))
            continue
        init = inits[meta_index][0]
        finish = finishes[meta_index][0]
        if anchor is not None and init.address != anchor:
            findings.append(_finding(
                "rule.init-placement", loc,
                f"LOOP_INIT at {init.address:#x}, expected the loop-entry "
                f"(preheader terminator) address {anchor:#x}"))
        if finish.address != meta.exit_target:
            findings.append(_finding(
                "rule.finish-placement", loc,
                f"LOOP_FINISH at {finish.address:#x}, expected the loop "
                f"exit target {meta.exit_target:#x}"))
        for rule_id, check, expected, what in (
                (RuleID.THREAD_SCHEDULE, "rule.schedule-placement", header,
                 "the loop header"),
                (RuleID.LOOP_UPDATE_BOUND, "rule.bound-placement",
                 meta.cmp_address, "the iterator cmp"),
                (RuleID.THREAD_YIELD, "rule.yield-placement",
                 meta.exit_target, "the loop exit target")):
            for rule in by_kind[rule_id].get(meta_index, ()):
                if rule.address != expected:
                    findings.append(_finding(
                        check, loc, f"{rule_id.name} at {rule.address:#x}, "
                                    f"expected {what} {expected:#x}"))

    findings.extend(_check_bracket_pairs(
        analysis, by_kind[RuleID.TX_START],
        by_kind[RuleID.TX_FINISH], "TX_START", "TX_FINISH",
        "rule.tx-pairing"))
    return findings


def _check_bracket_pairs(analysis, starts: dict, finishes: dict,
                         start_name: str, finish_name: str,
                         check: str) -> list[Finding]:
    """START at a call address must pair with FINISH at the return site."""
    findings: list[Finding] = []
    instructions = analysis.disassembly.instructions
    for key in sorted(set(starts) | set(finishes)):
        start_rules = starts.get(key, [])
        finish_rules = finishes.get(key, [])
        if len(start_rules) != len(finish_rules):
            findings.append(_finding(
                check, f"record {key}",
                f"{start_name} x{len(start_rules)} / {finish_name} "
                f"x{len(finish_rules)} are not paired"))
            continue
        finish_addrs = {r.address for r in finish_rules}
        for rule in start_rules:
            ins = instructions.get(rule.address)
            if ins is None:
                continue  # already reported as rule.address-boundary
            expected = rule.address + ins.size
            if expected not in finish_addrs:
                findings.append(_finding(
                    check, f"record {key} @{rule.address:#x}",
                    f"{start_name} has no matching {finish_name} at the "
                    f"return address {expected:#x}"))
    return findings


# -- profiling-rule pairing and placement ----------------------------------------

def _check_profile_pairing(analysis, schedule: RewriteSchedule
                           ) -> list[Finding]:
    findings: list[Finding] = []
    n_loops = len(analysis.loops)
    by_kind: dict[RuleID, dict[int, list[RewriteRule]]] = {}
    for rule in schedule.rules:
        if rule.rule_id in _LOOP_ID_RULES and 0 <= rule.data < n_loops:
            by_kind.setdefault(rule.rule_id, {}) \
                .setdefault(rule.data, []).append(rule)
    starts = by_kind.get(RuleID.PROF_LOOP_START, {})
    iters = by_kind.get(RuleID.PROF_LOOP_ITER, {})
    finishes = by_kind.get(RuleID.PROF_LOOP_FINISH, {})
    for loop_id in sorted(set(starts) | set(iters) | set(finishes)):
        loc = f"loop {loop_id}"
        if not (starts.get(loop_id) and iters.get(loop_id)
                and finishes.get(loop_id)):
            findings.append(_finding(
                "rule.prof-bracket", loc,
                f"incomplete profiling bracket: START x"
                f"{len(starts.get(loop_id, ()))}, ITER x"
                f"{len(iters.get(loop_id, ()))}, FINISH x"
                f"{len(finishes.get(loop_id, ()))}"))
            continue
        anchor, header, exits = _loop_anchors(analysis, loop_id)
        for rule in starts[loop_id]:
            if anchor is not None and rule.address != anchor:
                findings.append(_finding(
                    "rule.prof-placement", loc,
                    f"PROF_LOOP_START at {rule.address:#x}, expected the "
                    f"loop-entry anchor {anchor:#x}"))
        for rule in iters[loop_id]:
            if rule.address != header:
                findings.append(_finding(
                    "rule.prof-placement", loc,
                    f"PROF_LOOP_ITER at {rule.address:#x}, expected the "
                    f"loop header {header:#x}"))
        for rule in finishes[loop_id]:
            if rule.address not in exits:
                findings.append(_finding(
                    "rule.prof-placement", loc,
                    f"PROF_LOOP_FINISH at {rule.address:#x} is not a "
                    f"loop exit target"))

    findings.extend(_check_bracket_pairs(
        analysis,
        _by_record(schedule, RuleID.PROF_EXCALL_START),
        _by_record(schedule, RuleID.PROF_EXCALL_FINISH),
        "PROF_EXCALL_START", "PROF_EXCALL_FINISH", "rule.excall-pairing"))
    return findings


# -- vector-rule pairing and placement -----------------------------------------

def _check_vector_pairing(analysis, schedule: RewriteSchedule
                          ) -> list[Finding]:
    """VECT_INIT/VECT_FINISH bracket one loop; BOUND sits on the cmp."""
    findings: list[Finding] = []
    inits = _by_record(schedule, RuleID.VECT_INIT)
    bounds = _by_record(schedule, RuleID.VECT_BOUND)
    finishes = _by_record(schedule, RuleID.VECT_FINISH)
    for meta_index in sorted(set(inits) | set(bounds) | set(finishes)):
        loc = f"vector meta {meta_index}"
        n_init = len(inits.get(meta_index, ()))
        n_finish = len(finishes.get(meta_index, ()))
        if n_init != 1 or n_finish != 1:
            findings.append(_finding(
                "rule.vect-pairing", loc,
                f"VECT_INIT x{n_init} / VECT_FINISH x{n_finish} for one "
                f"vector metadata record (expected exactly one of each)"))
            continue
        try:
            meta = VectorMeta.from_record(schedule.record(meta_index))
        except Exception as exc:
            findings.append(_finding(
                "rule.vect-meta", loc,
                f"vector metadata record does not decode: {exc}"))
            continue
        if meta.lanes not in (2, 4):
            findings.append(_finding(
                "rule.vect-meta", loc,
                f"lane count {meta.lanes} is not a supported packed width"))
        try:
            anchor, header, exits = _loop_anchors(analysis, meta.loop_id)
        except (IndexError, KeyError):
            findings.append(_finding(
                "rule.vect-meta", loc,
                f"metadata names unknown loop id {meta.loop_id}"))
            continue
        init = inits[meta_index][0]
        finish = finishes[meta_index][0]
        if anchor is not None and init.address != anchor:
            findings.append(_finding(
                "rule.vect-init-placement", loc,
                f"VECT_INIT at {init.address:#x}, expected the loop-entry "
                f"(preheader terminator) address {anchor:#x}"))
        if finish.address != meta.exit_target:
            findings.append(_finding(
                "rule.vect-finish-placement", loc,
                f"VECT_FINISH at {finish.address:#x}, expected the loop "
                f"exit target {meta.exit_target:#x}"))
        for rule in bounds.get(meta_index, ()):
            if rule.address != meta.cmp_address:
                findings.append(_finding(
                    "rule.vect-bound-placement", loc,
                    f"VECT_BOUND at {rule.address:#x}, expected the "
                    f"iterator cmp {meta.cmp_address:#x}"))
    return findings


def _by_record(schedule: RewriteSchedule, rule_id: RuleID
               ) -> dict[int, list[RewriteRule]]:
    out: dict[int, list[RewriteRule]] = {}
    for rule in schedule.rules:
        if rule.rule_id is rule_id and 0 <= rule.data < len(schedule.pool):
            out.setdefault(rule.data, []).append(rule)
    return out
