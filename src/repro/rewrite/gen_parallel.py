"""Parallelisation rewrite-schedule generation (paper sections II-B, II-D).

For every *selected* loop this emits the rule pattern of paper Fig. 2(a):

* ``MEM_BOUNDS_CHECK`` rules at the preheader (the least-executed point
  before the loop where the inputs are live) for every unproven base pair;
* ``LOOP_INIT`` at the preheader — the main thread traps into the runtime,
  which evaluates checks, computes the iteration space and dispatches the
  thread pool;
* ``THREAD_SCHEDULE`` at the header — the address threads are scheduled to;
* ``LOOP_UPDATE_BOUND`` at the iterator's cmp — each thread's code cache
  gets its own chunk bound encoded as an immediate (paper Fig. 2b);
* ``MEM_MAIN_STACK`` on every instruction reading a read-only stack slot;
* ``MEM_PRIVATISE`` on every access to a privatisable/reduction word;
* ``TX_START``/``TX_FINISH`` around calls into dynamically discovered code;
* ``THREAD_YIELD`` + ``LOOP_FINISH`` at the loop's exit target.

The emitted rules address thread-local storage by the slot layout of
:mod:`repro.jbin.layout`.
"""

from __future__ import annotations

from repro.analysis.alias import MemReduction, PrivatisableGroup
from repro.analysis.analyzer import BinaryAnalysis
from repro.analysis.classify import LoopAnalysisResult, VariableClass
from repro.analysis.expr import Poly
from repro.jbin.layout import TLS_FIRST_PRIVATE_SLOT, WORD
from repro.rewrite.metadata import (
    AffineAccessDesc,
    BoundsCheckDesc,
    DerivedIVDesc,
    LoopMeta,
    MainStackDesc,
    MetadataError,
    PrivGroupDesc,
    PrivSlotDesc,
    RangeSide,
    ReductionDesc,
    encode_operand,
    encode_var,
    poly_to_runtime,
)
from repro.rewrite.rules import RuleID
from repro.rewrite.schedule import RewriteSchedule
from repro.telemetry.core import get_recorder


class GenerationError(Exception):
    """Raised when a selected loop cannot actually be transformed."""


def generate_parallel_schedule(analysis: BinaryAnalysis,
                               selected_loop_ids) -> RewriteSchedule:
    """Emit the parallelisation schedule for the selected loops."""
    schedule = RewriteSchedule.for_image(analysis.image)
    loop_ids = sorted(selected_loop_ids)
    with get_recorder().span("rewrite.parallel_schedule", cat="rewrite",
                             loops=len(loop_ids)) as span:
        for loop_id in loop_ids:
            result = analysis.loop(loop_id)
            _generate_for_loop(schedule, analysis, result)
        span.set(rules=len(schedule.rules), records=len(schedule.pool))
    return schedule


def _generate_for_loop(schedule: RewriteSchedule, analysis: BinaryAnalysis,
                       result: LoopAnalysisResult) -> None:
    loop = result.loop
    if not result.is_parallelisable:
        raise GenerationError(
            f"loop {result.loop_id} is not parallelisable: {result.reasons}")
    if loop.preheader is None:
        raise GenerationError(
            f"loop {result.loop_id} has no preheader block")
    iterator = result.induction.iterator
    fa = analysis.function_of_loop(result)
    ssa = fa.ssa
    assert ssa is not None

    meta = LoopMeta(
        loop_id=result.loop_id,
        header_addr=loop.header,
        preheader_addr=loop.preheader,
        exit_target=iterator.exit_target,
        iterator_var=encode_var(iterator.iv.var),
        step=iterator.iv.step,
        cond=iterator.cond,
        test_offset=iterator.test_offset,
        test_position=iterator.test_position,
        bound_form=_bound_form(iterator),
        cmp_address=iterator.cmp_address,
        iv_operand_index=iterator.iv_operand_index,
        static_trips=(iterator.static_trip_count
                      if iterator.static_trip_count is not None else -1),
        delta_header=ssa.rsp_deltas[loop.header],
    )

    # Secondary induction variables and register reductions.
    for iv in result.induction.basic_ivs:
        if iv.var != iterator.iv.var:
            meta.derived_ivs.append(
                DerivedIVDesc(var=encode_var(iv.var), step=iv.step))
    for info in result.variables.values():
        if info.vclass is VariableClass.REDUCTION:
            meta.reductions.append(ReductionDesc(
                var=encode_var(info.var), op=info.reduction_op or "+",
                is_float=info.is_float))

    meta.written_slots = sorted(result.written_slots)
    meta.readonly_slots = sorted(result.readonly_slot_readers)

    # -- privatised memory words ------------------------------------------------
    next_slot = TLS_FIRST_PRIVATE_SLOT
    privatise_rules: list[tuple[int, int]] = []  # (address, tls slot)
    alias = result.alias
    assert alias is not None
    for reduction in alias.reductions:
        next_slot = _privatise_group(
            meta, privatise_rules, reduction.group, "reduce", next_slot, fa)
    for priv in alias.privatisable:
        next_slot = _privatise_group(
            meta, privatise_rules, priv.group, "priv", next_slot, fa)

    # -- bounds checks -------------------------------------------------------------
    check_indices = []
    for pair in alias.bounds_checks:
        try:
            desc = BoundsCheckDesc(
                loop_id=result.loop_id,
                write_side=_range_side(pair.write_group),
                other_side=_range_side(pair.other_group),
            )
        except MetadataError as exc:
            raise GenerationError(
                f"loop {result.loop_id}: bounds check not evaluable: {exc}"
            ) from None
        check_indices.append(schedule.add_record(desc.to_record()))
    meta.bounds_check_indices = check_indices
    meta.stm_sites = sorted(result.stm_call_sites)

    # -- affine access summarisation (compiled shadow tier) ------------------------
    # Sites whose accesses are rewritten (privatised) or interpreted
    # specially (the iterator's cmp load) must keep recording raw events.
    excluded = {iterator.cmp_address}
    excluded.update(addr for addr, _slot in privatise_rules)
    meta.affine_accesses = _collect_affine_accesses(
        result, fa, iterator, excluded)

    meta_index = schedule.add_record(meta.to_record())

    # -- emit rules (order matters at shared addresses) ------------------------------
    # Preheader rules anchor at the preheader's *last instruction*: the
    # analyser's block may span calls that split it in the DBM's view.
    preheader_anchor = fa.cfg.blocks[loop.preheader].terminator.address
    for check_index in check_indices:
        schedule.add_rule(preheader_anchor, RuleID.MEM_BOUNDS_CHECK,
                          check_index)
    schedule.add_rule(preheader_anchor, RuleID.LOOP_INIT, meta_index)
    schedule.add_rule(loop.header, RuleID.THREAD_SCHEDULE, meta_index)
    schedule.add_rule(iterator.cmp_address, RuleID.LOOP_UPDATE_BOUND,
                      meta_index)

    for slot, readers in sorted(result.readonly_slot_readers.items()):
        disp = slot - meta.delta_header
        record_index = schedule.add_record(MainStackDesc(disp).to_record())
        for reader_addr in readers:
            schedule.add_rule(reader_addr, RuleID.MEM_MAIN_STACK,
                              record_index)

    for address, tls_slot in privatise_rules:
        record_index = schedule.add_record(
            PrivSlotDesc(tls_slot).to_record())
        schedule.add_rule(address, RuleID.MEM_PRIVATISE, record_index)

    for call_addr in meta.stm_sites:
        ins = _instruction_at(fa, call_addr)
        schedule.add_rule(call_addr, RuleID.TX_START, meta_index)
        schedule.add_rule(call_addr + ins.size, RuleID.TX_FINISH, meta_index)

    schedule.add_rule(iterator.exit_target, RuleID.THREAD_YIELD, meta_index)
    schedule.add_rule(iterator.exit_target, RuleID.LOOP_FINISH, meta_index)


def _collect_affine_accesses(result, fa, iterator, excluded) -> list:
    """Accesses the compiled shadow tier may summarise as stride descriptors.

    A site (instruction address) qualifies only if *every* access at it is
    affine in the iterator (``theta_coeff * theta + base`` with a
    runtime-evaluable base), executes exactly once per iteration (its block
    dominates every latch and belongs to no inner loop), and is neither
    rewritten by a privatisation rule nor the iterator's own cmp load.
    The per-chunk trip count is then knowable at LOOP_INIT time, so the
    runtime can record one ``(first, stride, trips)`` descriptor instead of
    per-access events.  All-or-nothing per address: if one access at an
    address fails a check, the whole site keeps raw recording.
    """
    from repro.analysis.expr import runtime_evaluable

    loop = result.loop
    top = iterator.test_position == "top"
    if top and iterator.cmp_block != loop.header:
        # The trip-count relation between header executions and body
        # executions is only known when the test sits in the header.
        return []
    inner_bodies: set[int] = set()
    for other in fa.loops:
        if other is not loop and other.header in loop.body:
            inner_bodies.update(other.body)
    alias = result.alias
    bad = set(excluded)
    bad.update(a.address for a in alias.unanalysable)

    by_address: dict[int, list] = {}
    for group in alias.groups:
        for access in group.accesses:
            by_address.setdefault(access.address, []).append(access)

    descs: list[AffineAccessDesc] = []
    for address in sorted(by_address):
        if address in bad:
            continue
        site = by_address[address]
        ok = True
        forms = []
        for access in site:
            if access.theta_coeff is None or access.base is None \
                    or not runtime_evaluable(access.base) \
                    or access.block in inner_bodies \
                    or not all(fa.dom.dominates(access.block, latch)
                               for latch in loop.latches):
                ok = False
                break
            try:
                forms.append(poly_to_runtime(access.base))
            except MetadataError:
                ok = False
                break
        if not ok:
            continue
        for access, form in zip(site, forms):
            descs.append(AffineAccessDesc(
                address=address,
                is_write=access.is_write,
                lanes=access.lanes,
                base_form=form,
                theta_coeff=access.theta_coeff,
                header_extra=top and access.block == loop.header,
            ))
    return descs


def _bound_form(iterator) -> tuple:
    """Best runtime strategy for reading the loop bound at entry."""
    from repro.analysis.expr import runtime_evaluable

    poly = iterator.bound_poly
    if poly.is_constant:
        return ("imm", poly.constant_value)
    if runtime_evaluable(poly):
        return ("poly", poly_to_runtime(poly))
    return ("operand", encode_operand(iterator.bound_operand))


def _privatise_group(meta: LoopMeta, privatise_rules: list, group,
                     kind: str, next_slot: int, fa) -> int:
    """Allocate TLS slots for a group's words and plan per-access rules."""
    lo, hi = group.extent_offsets()
    base_form = poly_to_runtime(group.base_struct)
    n_words = (hi - lo) // WORD
    is_float = _group_is_float(group, fa)
    for word in range(n_words):
        address_form = [tuple(entry) for entry in base_form]
        address_form.append((lo + WORD * word, ()))
        meta.priv_groups.append(PrivGroupDesc(
            tls_slot=next_slot + word,
            address_form=address_form,
            kind=kind,
            is_float=is_float,
        ))
    for access in group.accesses:
        word_index = (access.const_offset - lo) // WORD
        privatise_rules.append((access.address, next_slot + word_index))
    return next_slot + n_words


def _group_is_float(group, fa) -> bool:
    """A group is float-valued if any of its accesses is an FP instruction."""
    from repro.isa.instructions import Opcode

    float_ops = {Opcode.MOVSD, Opcode.ADDSD, Opcode.SUBSD, Opcode.MULSD,
                 Opcode.DIVSD, Opcode.SQRTSD, Opcode.MINSD, Opcode.MAXSD,
                 Opcode.UCOMISD, Opcode.MOVAPD, Opcode.ADDPD, Opcode.SUBPD,
                 Opcode.MULPD, Opcode.DIVPD, Opcode.VMOVAPD, Opcode.VADDPD,
                 Opcode.VSUBPD, Opcode.VMULPD, Opcode.VDIVPD}
    for access in group.accesses:
        ins = fa.cfg.blocks[access.block].instructions[access.index]
        if ins.opcode in float_ops:
            return True
    return False


def _range_side(group) -> RangeSide:
    return RangeSide(
        base_form=poly_to_runtime(group.base_struct),
        extents=[(a.theta_coeff, a.const_offset, a.lanes)
                 for a in group.accesses],
    )


def _instruction_at(fa, addr: int):
    for block in fa.cfg.blocks.values():
        for ins in block.instructions:
            if ins.address == addr:
                return ins
    raise KeyError(f"no instruction at {addr:#x}")
