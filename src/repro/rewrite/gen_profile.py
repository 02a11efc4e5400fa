"""Profiling rewrite-schedule generation (paper section II-C).

Janus' profiling is *statically driven*: rather than instrumenting every
load and store like a generic binary instrumenter, the static analyser emits
profiling rules only for the loops of interest and only for the instructions
that matter —

* the **coverage** stage instruments every feasible loop's entry, header and
  exits, counting dynamic instructions spent inside each loop;
* the **dependence** stage instruments only the memory accesses of
  dynamic-candidate loops (and the external calls inside them), to find
  cross-iteration dependences that static analysis could not disprove.
"""

from __future__ import annotations

from repro.analysis.analyzer import BinaryAnalysis
from repro.analysis.classify import LoopCategory
from repro.rewrite.metadata import ExCallDesc, MemSiteDesc, encode_operand
from repro.rewrite.rules import RuleID
from repro.rewrite.schedule import RewriteSchedule
from repro.telemetry.core import get_recorder

COVERAGE_STAGE = "coverage"
DEPENDENCE_STAGE = "dependence"


def generate_profile_schedule(analysis: BinaryAnalysis,
                              stage: str = COVERAGE_STAGE,
                              loop_ids=None,
                              include_incompatible: bool = False
                              ) -> RewriteSchedule:
    """Build the profiling schedule for one training-stage pass.

    ``loop_ids`` restricts instrumentation (the dependence stage is given
    only the loops that survived the coverage filter); by default every
    feasible (non-incompatible) loop is instrumented.
    ``include_incompatible`` additionally brackets incompatible loops for
    coverage counting — used only to regenerate the paper's Fig. 6, which
    reports how much time each *category* accounts for.
    """
    if stage not in (COVERAGE_STAGE, DEPENDENCE_STAGE):
        raise ValueError(f"unknown profiling stage {stage!r}")
    with get_recorder().span("rewrite.profile_schedule", cat="rewrite",
                             stage=stage) as span:
        schedule = _generate_profile_schedule(analysis, stage, loop_ids,
                                              include_incompatible)
        span.set(rules=len(schedule.rules), records=len(schedule.pool))
    return schedule


def _generate_profile_schedule(analysis: BinaryAnalysis, stage: str,
                               loop_ids, include_incompatible: bool
                               ) -> RewriteSchedule:
    schedule = RewriteSchedule.for_image(analysis.image)
    wanted = set(loop_ids) if loop_ids is not None else None

    for result in analysis.loops:
        if result.category is LoopCategory.INCOMPATIBLE \
                and not include_incompatible:
            continue
        if wanted is not None and result.loop_id not in wanted:
            continue
        loop = result.loop
        if loop.preheader is None:
            continue  # cannot bracket the loop: skip profiling it

        fa = analysis.function_of_loop(result)
        anchor = fa.cfg.blocks[loop.preheader].terminator.address
        schedule.add_rule(anchor, RuleID.PROF_LOOP_START, result.loop_id)
        schedule.add_rule(loop.header, RuleID.PROF_LOOP_ITER, result.loop_id)
        for target in sorted(loop.exit_targets):
            schedule.add_rule(target, RuleID.PROF_LOOP_FINISH,
                              result.loop_id)

        if stage == DEPENDENCE_STAGE:
            _add_dependence_rules(schedule, analysis, result)
    return schedule


def _add_dependence_rules(schedule: RewriteSchedule,
                          analysis: BinaryAnalysis, result) -> None:
    """PROF_MEM_ACCESS on every heap access, PROF_EXCALL around calls."""
    if result.category is not LoopCategory.DYNAMIC_DOALL:
        return  # only loops whose independence is unproven need this pass
    if result.alias is None:
        return
    # Accesses whose cross-iteration traffic is already *removed* by the
    # parallel transformation (privatised words, reductions) must not be
    # profiled: they would register as dependences that parallel execution
    # will never see.
    handled = set()
    for reduction in result.alias.reductions:
        handled.update(id(a) for a in reduction.group.accesses)
    for priv in result.alias.privatisable:
        handled.update(id(a) for a in priv.group.accesses)
    for access in result.alias.accesses:
        if id(access) in handled:
            continue
        site = MemSiteDesc(result.loop_id, encode_operand(access.operand),
                           access.is_write, access.lanes)
        index = schedule.add_record(site.to_record())
        schedule.add_rule(access.address, RuleID.PROF_MEM_ACCESS, index)
    fa = analysis.function_of_loop(result)
    for addr, name in result.external_calls:
        ins = _instruction_at(fa, addr)
        index = schedule.add_record(
            ExCallDesc(result.loop_id, name).to_record())
        schedule.add_rule(addr, RuleID.PROF_EXCALL_START, index)
        schedule.add_rule(addr + ins.size, RuleID.PROF_EXCALL_FINISH, index)
    # Memory-writing *internal* calls are speculation sites too: bracket
    # them so the call window's accesses feed the dependence shadow.
    external_addrs = {addr for addr, _ in result.external_calls}
    for addr in result.stm_call_sites:
        if addr in external_addrs:
            continue
        ins = _instruction_at(fa, addr)
        window = ExCallDesc(result.loop_id, f"fn_{ins.branch_target():#x}")
        index = schedule.add_record(window.to_record())
        schedule.add_rule(addr, RuleID.PROF_EXCALL_START, index)
        schedule.add_rule(addr + ins.size, RuleID.PROF_EXCALL_FINISH, index)


def _instruction_at(fa, addr: int):
    for block in fa.cfg.blocks.values():
        for ins in block.instructions:
            if ins.address == addr:
                return ins
    raise KeyError(f"no instruction at {addr:#x}")
