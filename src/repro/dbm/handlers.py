"""Rewrite-rule handlers: one per rule ID (paper section II-A2).

"Each rewrite rule ID has a corresponding runtime handler within the DBM
which is responsible for carrying out the transformation."  Handlers run at
*translation time*, when a block is copied into a thread's code cache, and
are thread-aware: the same rule produces different code in the main thread's
cache and in a pool thread's cache ("independent interpretation of rewrite
rules to specialise computation for each thread", paper section II-E).

TLS layout (offsets from r15): word 0 = main thread's rsp, word 1 = this
thread's patched loop bound, words 2+ = privatised storage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import Instruction, Opcode
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import SCRATCH_REG, STACK_REG, TLS_REG
from repro.dbm.accesslog import RecordSite
from repro.dbm.editor import BlockEditor
from repro.dbm.rtcalls import RTCallID
from repro.rewrite.rules import RewriteRule, RuleID

TLS_MAIN_RSP = 0
TLS_BOUND = 1
WORD = 8


@dataclass
class TranslationContext:
    """What a handler may know while transforming a block."""

    dbm: object
    thread_id: int  # 0 = main thread
    worker: object | None = None  # WorkerState for pool threads

    @property
    def is_main(self) -> bool:
        return self.thread_id == 0

    def record(self, index: int):
        return self.dbm.schedule.record(index)


# -- parallelisation handlers ---------------------------------------------------

def _h_bounds_check(editor: BlockEditor, rule: RewriteRule,
                    tctx: TranslationContext) -> None:
    # The rule anchors at the last instruction of the loop's preheader
    # (the DBM may have split the analyser's preheader block at calls).
    if not tctx.is_main:
        return
    editor.insert_at_anchor(rule.address,
                            editor.rtcall(RTCallID.BOUNDS_CHECK, rule.data))


def _h_loop_init(editor: BlockEditor, rule: RewriteRule,
                 tctx: TranslationContext) -> None:
    if not tctx.is_main:
        return
    editor.insert_at_anchor(rule.address,
                            editor.rtcall(RTCallID.LOOP_ENTER, rule.data))


def _h_thread_schedule(editor: BlockEditor, rule: RewriteRule,
                       tctx: TranslationContext) -> None:
    # The rule's address *is* the payload: the runtime schedules pool
    # threads to start executing at this address.  No code change.
    return


def _h_loop_update_bound(editor: BlockEditor, rule: RewriteRule,
                         tctx: TranslationContext) -> None:
    if tctx.worker is None:
        return
    from repro.rewrite.metadata import LoopMeta

    meta = LoopMeta.from_record(tctx.record(rule.data))
    cmp_ins = editor.instruction_at(meta.cmp_address)
    bound_position = 1 - meta.iv_operand_index
    # Each thread reads its own chunk bound from TLS, so the cached block
    # stays valid across loop invocations with different bounds.
    new_ops = list(cmp_ins.operands)
    new_ops[bound_position] = Mem(base=TLS_REG, disp=WORD * TLS_BOUND)
    editor.replace(meta.cmp_address,
                   Instruction(cmp_ins.opcode, tuple(new_ops)))


def _h_thread_yield(editor: BlockEditor, rule: RewriteRule,
                    tctx: TranslationContext) -> None:
    if tctx.worker is None:
        return
    editor.insert_at_start(editor.rtcall(RTCallID.THREAD_YIELD, rule.data))


def _h_loop_finish(editor: BlockEditor, rule: RewriteRule,
                   tctx: TranslationContext) -> None:
    if not tctx.is_main:
        return
    editor.insert_at_start(
        editor.rtcall(RTCallID.LOOP_FINISH_MARK, rule.data))


def _h_mem_main_stack(editor: BlockEditor, rule: RewriteRule,
                      tctx: TranslationContext) -> None:
    if tctx.worker is None:
        return
    record = tctx.record(rule.data)  # ("ms", disp)
    disp = record[1]
    # Fig. 2b: load the main thread's stack pointer into the scratch
    # register once per block, then redirect the read through it.
    editor.ensure_prelude(
        "main_rsp",
        Instruction(Opcode.MOV, (Reg(SCRATCH_REG),
                                 Mem(base=TLS_REG, disp=WORD * TLS_MAIN_RSP))))
    target = editor.instruction_at(rule.address)
    new_ops = []
    for operand in target.operands:
        if isinstance(operand, Mem) and operand.base == STACK_REG \
                and operand.index is None:
            new_ops.append(Mem(base=SCRATCH_REG, disp=disp))
        else:
            new_ops.append(operand)
    editor.replace(rule.address, Instruction(target.opcode, tuple(new_ops)))


def _h_mem_privatise(editor: BlockEditor, rule: RewriteRule,
                     tctx: TranslationContext) -> None:
    if tctx.worker is None:
        return
    record = tctx.record(rule.data)  # ("mp", tls_slot)
    tls_slot = record[1]
    target = editor.instruction_at(rule.address)
    new_ops = []
    replaced = False
    for operand in target.operands:
        if isinstance(operand, Mem) and operand.base != STACK_REG \
                and not replaced:
            new_ops.append(Mem(base=TLS_REG, disp=WORD * tls_slot))
            replaced = True
        else:
            new_ops.append(operand)
    editor.replace(rule.address, Instruction(target.opcode, tuple(new_ops)))


def _h_tx_start(editor: BlockEditor, rule: RewriteRule,
                tctx: TranslationContext) -> None:
    if tctx.worker is None:
        return
    editor.insert_before(rule.address,
                         editor.rtcall(RTCallID.TX_START, rule.data))


def _h_tx_finish(editor: BlockEditor, rule: RewriteRule,
                 tctx: TranslationContext) -> None:
    if tctx.worker is None:
        return
    editor.insert_at_start(editor.rtcall(RTCallID.TX_FINISH, rule.data))


def _h_mem_spill_reg(editor: BlockEditor, rule: RewriteRule,
                     tctx: TranslationContext) -> None:
    if tctx.worker is None:
        return
    record = tctx.record(rule.data)  # ("spill", [reg ids], base slot)
    _, regs, base_slot = record
    for offset, reg in enumerate(regs):
        editor.insert_before(rule.address, Instruction(
            Opcode.MOV,
            (Mem(base=TLS_REG, disp=WORD * (base_slot + offset)), Reg(reg))))


def _h_mem_recover_reg(editor: BlockEditor, rule: RewriteRule,
                       tctx: TranslationContext) -> None:
    if tctx.worker is None:
        return
    record = tctx.record(rule.data)
    _, regs, base_slot = record
    for offset, reg in enumerate(regs):
        editor.insert_before(rule.address, Instruction(
            Opcode.MOV,
            (Reg(reg), Mem(base=TLS_REG, disp=WORD * (base_slot + offset)))))


# -- vectorisation handlers (main thread only; vector mode never spawns) --------

def _h_vect_init(editor: BlockEditor, rule: RewriteRule,
                 tctx: TranslationContext) -> None:
    if not tctx.is_main:
        return
    editor.insert_at_anchor(
        rule.address, editor.rtcall(RTCallID.VECTOR_LOOP_ENTER, rule.data))


def _h_vect_bound(editor: BlockEditor, rule: RewriteRule,
                  tctx: TranslationContext) -> None:
    """Point the loop compare at the packed-bound scratch word.

    The word is addressed absolutely (no base register), so application
    registers stay untouched; VECTOR_LOOP_ENTER writes the packed bound
    there before the loop body ever reaches the compare.
    """
    if not tctx.is_main:
        return
    from repro.jbin.layout import vector_scratch_address
    from repro.rewrite.metadata import VectorMeta

    meta = VectorMeta.from_record(tctx.record(rule.data))
    cmp_ins = editor.instruction_at(meta.cmp_address)
    bound_position = 1 - meta.iv_operand_index
    new_ops = list(cmp_ins.operands)
    new_ops[bound_position] = Mem(
        base=None, disp=vector_scratch_address(meta.ordinal))
    editor.replace(meta.cmp_address,
                   Instruction(cmp_ins.opcode, tuple(new_ops)))


def _h_vect_convert(editor: BlockEditor, rule: RewriteRule,
                    tctx: TranslationContext) -> None:
    """Widen one scalar FP instruction to its packed form (rule data is
    the lane count; the opcode map is the only payload needed)."""
    if not tctx.is_main:
        return
    from repro.isa.instructions import VECTOR_WIDEN

    target = editor.instruction_at(rule.address)
    packed = VECTOR_WIDEN[rule.data].get(target.opcode)
    if packed is None:
        raise EditorUnsupportedRule(
            f"VECT_CONVERT on non-widenable {target.opcode.name} "
            f"at {rule.address:#x}")
    editor.replace(rule.address, Instruction(packed, target.operands))


def _h_vect_induction_update(editor: BlockEditor, rule: RewriteRule,
                             tctx: TranslationContext) -> None:
    """Scale the iterator update by the lane count (rule data)."""
    if not tctx.is_main:
        return
    lanes = rule.data
    target = editor.instruction_at(rule.address)
    ops = target.operands
    if target.opcode is Opcode.INC:
        replacement = Instruction(Opcode.ADD, (ops[0], Imm(lanes)))
    elif target.opcode is Opcode.ADD and isinstance(ops[1], Imm):
        replacement = Instruction(Opcode.ADD,
                                  (ops[0], Imm(ops[1].value * lanes)))
    elif target.opcode is Opcode.LEA and isinstance(ops[1], Mem):
        mem = ops[1]
        replacement = Instruction(Opcode.LEA, (ops[0], Mem(
            base=mem.base, index=mem.index, scale=mem.scale,
            disp=mem.disp * lanes)))
    else:
        raise EditorUnsupportedRule(
            f"VECT_INDUCTION_UPDATE on unsupported "
            f"{target.opcode.name} at {rule.address:#x}")
    editor.replace(rule.address, replacement)


def _h_vect_finish(editor: BlockEditor, rule: RewriteRule,
                   tctx: TranslationContext) -> None:
    if not tctx.is_main:
        return
    editor.insert_at_start(
        editor.rtcall(RTCallID.VECTOR_EPILOGUE, rule.data))


class EditorUnsupportedRule(Exception):
    """A vector/prefetch rule targeted an instruction it cannot rewrite."""


# -- prefetch handler (purely local: insert a hint, credit the saving) ----------

def _h_mem_prefetch(editor: BlockEditor, rule: RewriteRule,
                    tctx: TranslationContext) -> None:
    from repro.isa.costs import PREFETCH_SAVINGS_CYCLES
    from repro.rewrite.metadata import PrefetchDesc

    desc = PrefetchDesc.from_record(tctx.record(rule.data))
    target = editor.instruction_at(rule.address)
    mem = next((op for op in target.operands if isinstance(op, Mem)), None)
    if mem is None:
        raise EditorUnsupportedRule(
            f"MEM_PREFETCH on memory-free instruction at {rule.address:#x}")
    shift = desc.stride * desc.distance
    hint = Instruction(Opcode.PREFETCH, (Mem(
        base=mem.base, index=mem.index, scale=mem.scale,
        disp=mem.disp + shift),))
    editor.insert_before(rule.address, hint)
    editor.credit_cycles(PREFETCH_SAVINGS_CYCLES)


# -- profiling handlers (main thread only; profiling is single-threaded) --------

def _h_prof_loop_start(editor, rule, tctx) -> None:
    if tctx.is_main:
        editor.insert_at_anchor(
            rule.address, editor.rtcall(RTCallID.PROF_LOOP_START, rule.data))


def _h_prof_loop_iter(editor, rule, tctx) -> None:
    if tctx.is_main:
        editor.insert_at_start(
            editor.rtcall(RTCallID.PROF_LOOP_ITER, rule.data))


def _h_prof_loop_finish(editor, rule, tctx) -> None:
    if tctx.is_main:
        editor.insert_at_start(
            editor.rtcall(RTCallID.PROF_LOOP_FINISH, rule.data))


def _h_prof_mem_access(editor, rule, tctx) -> None:
    # No trap: a RECORD pseudo-instruction whose operand is decoded here,
    # once; the block runner appends the site's address to the access
    # log inline (repro.dbm.accesslog).
    if tctx.is_main:
        from repro.rewrite.metadata import decode_operand

        _, loop_id, operand, is_write, lanes = tctx.record(rule.data)
        site = RecordSite(loop_id, decode_operand(tuple(operand)),
                          bool(is_write), lanes)
        editor.insert_before(rule.address,
                             Instruction(Opcode.RECORD, (site,)))


def _h_prof_excall_start(editor, rule, tctx) -> None:
    if tctx.is_main:
        editor.insert_before(
            rule.address, editor.rtcall(RTCallID.PROF_EXCALL_START,
                                        rule.data))


def _h_prof_excall_finish(editor, rule, tctx) -> None:
    if tctx.is_main:
        editor.insert_at_start(
            editor.rtcall(RTCallID.PROF_EXCALL_FINISH, rule.data))


HANDLERS = {
    RuleID.MEM_BOUNDS_CHECK: _h_bounds_check,
    RuleID.LOOP_INIT: _h_loop_init,
    RuleID.THREAD_SCHEDULE: _h_thread_schedule,
    RuleID.LOOP_UPDATE_BOUND: _h_loop_update_bound,
    RuleID.THREAD_YIELD: _h_thread_yield,
    RuleID.LOOP_FINISH: _h_loop_finish,
    RuleID.MEM_MAIN_STACK: _h_mem_main_stack,
    RuleID.MEM_PRIVATISE: _h_mem_privatise,
    RuleID.TX_START: _h_tx_start,
    RuleID.TX_FINISH: _h_tx_finish,
    RuleID.MEM_SPILL_REG: _h_mem_spill_reg,
    RuleID.MEM_RECOVER_REG: _h_mem_recover_reg,
    RuleID.VECT_INIT: _h_vect_init,
    RuleID.VECT_BOUND: _h_vect_bound,
    RuleID.VECT_CONVERT: _h_vect_convert,
    RuleID.VECT_INDUCTION_UPDATE: _h_vect_induction_update,
    RuleID.VECT_FINISH: _h_vect_finish,
    RuleID.MEM_PREFETCH: _h_mem_prefetch,
    RuleID.PROF_LOOP_START: _h_prof_loop_start,
    RuleID.PROF_LOOP_ITER: _h_prof_loop_iter,
    RuleID.PROF_LOOP_FINISH: _h_prof_loop_finish,
    RuleID.PROF_MEM_ACCESS: _h_prof_mem_access,
    RuleID.PROF_EXCALL_START: _h_prof_excall_start,
    RuleID.PROF_EXCALL_FINISH: _h_prof_excall_finish,
}
