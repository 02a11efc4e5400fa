"""Operand facts from the role table agree with the branchy derivation.

``operand_facts`` (kept per instruction by ``Instruction.facts()``)
derives register uses and defs and memory reads and writes from
``OPERAND_ROLES`` in one pass.  The per-opcode branch
chains below are the derivation the table replaced; they live only here,
as the oracle.  The table must agree with them on every instruction the
25 workloads decode to under the four static-matrix compile
configurations, and on every operand template of every JX opcode.
"""

import itertools

import pytest

from repro.dbm.blocks import Block
from repro.dbm.editor import BlockEditor
from repro.isa import Imm, Instruction, Mem, Opcode, Reg
from repro.isa.decoder import decode_range
from repro.isa.instructions import (
    CMOV_OPCODES,
    FLAG_WRITERS,
    FLAGS_REG,
    replace_operand,
)
from repro.isa.operands import Label
from repro.isa.registers import ARG_REGS, RET_REG, R
from repro.jcc import CompileOptions
from repro.workloads import all_benchmarks, compile_workload

_MOVES = (Opcode.MOV, Opcode.MOVSD, Opcode.MOVAPD, Opcode.VMOVAPD)
_CONVERTS = (Opcode.CVTSI2SD, Opcode.CVTTSD2SI, Opcode.SQRTSD)
_RMW = frozenset((
    Opcode.ADD, Opcode.SUB, Opcode.IMUL, Opcode.IDIV, Opcode.IMOD,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.SAR,
    Opcode.ADDSD, Opcode.SUBSD, Opcode.MULSD, Opcode.DIVSD, Opcode.MINSD,
    Opcode.MAXSD, Opcode.ADDPD, Opcode.SUBPD, Opcode.MULPD, Opcode.DIVPD,
    Opcode.VADDPD, Opcode.VSUBPD, Opcode.VMULPD, Opcode.VDIVPD))
_ONE_OP_RMW = (Opcode.INC, Opcode.DEC, Opcode.NEG, Opcode.NOT)
_COMPARES = (Opcode.CMP, Opcode.TEST, Opcode.UCOMISD)
_TARGETS = (Opcode.PUSH, Opcode.JMPI, Opcode.CALLI)
_COND_BRANCHES = (Opcode.JE, Opcode.JNE, Opcode.JL, Opcode.JLE, Opcode.JG,
                  Opcode.JGE)


def oracle_reg_uses(ins):
    uses = set()
    op, ops = ins.opcode, ins.operands
    for o in ops:
        if isinstance(o, Mem):
            if o.base is not None:
                uses.add(o.base)
            if o.index is not None:
                uses.add(o.index)
    if op in _MOVES or op in _CONVERTS:
        if isinstance(ops[1], Reg):
            uses.add(ops[1].id)
    elif op is Opcode.LEA:
        pass
    elif op in _RMW:
        if isinstance(ops[0], Reg):
            uses.add(ops[0].id)
        if isinstance(ops[1], Reg):
            uses.add(ops[1].id)
    elif op in _ONE_OP_RMW:
        if isinstance(ops[0], Reg):
            uses.add(ops[0].id)
    elif op in _COMPARES:
        uses.update(o.id for o in ops if isinstance(o, Reg))
    elif op in CMOV_OPCODES:
        if isinstance(ops[0], Reg):
            uses.add(ops[0].id)
        if isinstance(ops[1], Reg):
            uses.add(ops[1].id)
        uses.add(FLAGS_REG)
    elif op is Opcode.XORPD:
        if ops[0] != ops[1]:
            uses.update(o.id for o in ops if isinstance(o, Reg))
    elif op in _TARGETS:
        if ops and isinstance(ops[0], Reg):
            uses.add(ops[0].id)
    elif op is Opcode.SYSCALL:
        uses.add(RET_REG)
        uses.update(ARG_REGS)
    if op in _COND_BRANCHES:
        uses.add(FLAGS_REG)
    return uses


def oracle_reg_defs(ins):
    defs = set()
    op, ops = ins.opcode, ins.operands
    if op in _MOVES or op in _CONVERTS or op in (Opcode.LEA, Opcode.XORPD):
        if isinstance(ops[0], Reg):
            defs.add(ops[0].id)
    elif op in _RMW or op in _ONE_OP_RMW or op in CMOV_OPCODES \
            or op is Opcode.POP:
        if isinstance(ops[0], Reg):
            defs.add(ops[0].id)
    elif op is Opcode.SYSCALL:
        defs.add(RET_REG)
    if op in FLAG_WRITERS:
        defs.add(FLAGS_REG)
    return defs


def oracle_mem_reads(ins):
    op, ops = ins.opcode, ins.operands
    if op is Opcode.LEA:
        return []
    if op in _MOVES or op in _CONVERTS:
        return [ops[1]] if isinstance(ops[1], Mem) else []
    if op in _RMW or op in _COMPARES:
        return [o for o in ops if isinstance(o, Mem)]
    if op in _ONE_OP_RMW:
        return [ops[0]] if isinstance(ops[0], Mem) else []
    if op in CMOV_OPCODES:
        return [ops[1]] if isinstance(ops[1], Mem) else []
    if op in _TARGETS:
        return [ops[0]] if ops and isinstance(ops[0], Mem) else []
    return []


def oracle_mem_writes(ins):
    op, ops = ins.opcode, ins.operands
    if op in _MOVES or op in _RMW or op in _ONE_OP_RMW:
        return [ops[0]] if isinstance(ops[0], Mem) else []
    return []


def oracle_facts(ins):
    return (oracle_reg_uses(ins), oracle_reg_defs(ins),
            tuple(oracle_mem_reads(ins)), tuple(oracle_mem_writes(ins)))


def assert_agrees(ins):
    fresh = Instruction(ins.opcode, ins.operands)
    assert fresh.facts() == oracle_facts(ins), ins


# -- every decoded instruction ----------------------------------------------

STATIC_MATRIX = {
    "gcc-O3": CompileOptions(),
    "gcc-O2": CompileOptions(opt_level=2),
    "gcc-O3-mavx": CompileOptions(mavx=True),
    "icc-O3": CompileOptions(personality="icc"),
}


@pytest.mark.parametrize("config", sorted(STATIC_MATRIX))
def test_decoded_workloads_agree_with_oracle(config):
    decoded = 0
    for name in all_benchmarks():
        text = compile_workload(name, STATIC_MATRIX[config]).text
        for ins in decode_range(text.data, text.addr, text.addr):
            assert ins.facts() == oracle_facts(ins), (name, ins)
            decoded += 1
    assert decoded > 1000


# -- every operand template -------------------------------------------------

_OPERAND_POOL = (
    Reg(R.rax), Reg(R.rbx), Reg(R.xmm2), Imm(7), Label("tbl"),
    Mem(base=R.rsi), Mem(base=R.rdi, index=R.rcx, scale=8, disp=16),
    Mem(disp=0x1000),
)


def _templates():
    for opcode in Opcode:
        for arity in range(3):
            for operands in itertools.product(_OPERAND_POOL, repeat=arity):
                yield Instruction(opcode, operands)


def test_every_opcode_template_agrees_with_oracle():
    checked = 0
    for ins in _templates():
        try:
            expected = oracle_facts(ins)
        except IndexError:
            continue  # an arity the branchy derivation never accepted
        assert ins.facts() == expected, ins
        checked += 1
    # Every opcode takes part, at some arity.
    assert checked > len(Opcode) * len(_OPERAND_POOL)


def test_xorpd_zeroing_idiom_reads_nothing():
    zero = Instruction(Opcode.XORPD, (Reg(R.xmm3), Reg(R.xmm3)))
    assert zero.facts() == (set(), {R.xmm3}, (), ())
    mixed = Instruction(Opcode.XORPD, (Reg(R.xmm3), Reg(R.xmm4)))
    assert mixed.reg_uses() == {R.xmm3, R.xmm4}


def test_control_properties_match_opcode_classes():
    for opcode in Opcode:
        ins = Instruction(opcode, (Imm(0),))
        assert ins.is_jump == (opcode in (Opcode.JMP, Opcode.JMPI))
        assert ins.is_call == (opcode in (Opcode.CALL, Opcode.CALLI))
        assert ins.is_indirect == (opcode in (Opcode.JMPI, Opcode.CALLI))
        assert ins.is_control == (
            opcode in _COND_BRANCHES or ins.is_jump or ins.is_call
            or opcode in (Opcode.RET, Opcode.HLT))


# -- the cache ---------------------------------------------------------------

def test_facts_are_computed_once_and_immutable():
    ins = Instruction(Opcode.ADD, (Mem(base=R.rcx), Reg(R.rax)))
    facts = ins.facts()
    assert ins.facts() is facts
    assert ins.reg_uses() is facts[0] and ins.mem_writes() is facts[3]
    uses, defs, reads, writes = facts
    with pytest.raises(AttributeError):
        uses.add(R.rdx)
    with pytest.raises(AttributeError):
        defs.discard(R.rax)
    with pytest.raises(AttributeError):
        reads.append(Mem(base=R.rdx))
    with pytest.raises(TypeError):
        writes[0] = Mem(base=R.rdx)


def test_facts_ignore_address_size_and_equality():
    ins = Instruction(Opcode.MOV, (Reg(R.rax), Mem(base=R.rbx)))
    facts = ins.facts()
    ins.address, ins.size = 0x400000, 12
    assert ins.facts() is facts
    assert ins == Instruction(Opcode.MOV, (Reg(R.rax), Mem(base=R.rbx)),
                              address=0x400000, size=12)
    assert "facts" not in repr(ins)


def test_empty_and_single_register_facts_are_shared():
    nop, ret = Instruction(Opcode.NOP), Instruction(Opcode.RET)
    assert nop.reg_uses() is ret.reg_defs()
    assert nop.mem_reads() is ret.mem_writes() == ()
    load = Instruction(Opcode.MOV, (Reg(R.rax), Mem(base=R.rbx)))
    pop = Instruction(Opcode.POP, (Reg(R.rax),))
    push = Instruction(Opcode.PUSH, (Reg(R.rbx),))
    assert load.reg_defs() is pop.reg_defs() == {R.rax}
    assert load.reg_uses() is push.reg_uses() == {R.rbx}
    # An implicit-only set is the table's own.
    je = Instruction(Opcode.JE, (Label("out"),))
    cmp = Instruction(Opcode.CMP, (Reg(R.rax), Imm(0)))
    assert je.reg_uses() is cmp.reg_defs() == {FLAGS_REG}


def test_replace_operand_copy_derives_its_own_facts():
    original = Instruction(Opcode.ADD, (Mem(base=R.rcx), Reg(R.rax)),
                           address=0x400900, size=12)
    assert original.reg_uses() == {R.rcx, R.rax}
    copy = replace_operand(original, 0, Mem(base=R.r15, disp=0x20))
    assert copy.reg_uses() == {R.r15, R.rax}
    assert copy.mem_writes() == (Mem(base=R.r15, disp=0x20),)
    assert original.reg_uses() == {R.rcx, R.rax}
    assert original.mem_writes() == (Mem(base=R.rcx),)


def test_block_editor_copy_derives_its_own_facts():
    load = Instruction(Opcode.MOV, (Reg(R.rax), Mem(base=R.rsi)),
                       address=0x400000, size=12)
    ret = Instruction(Opcode.RET, (), address=0x40000c, size=2)
    block = Block(start=0x400000, end=0x40000e, instructions=[load, ret])
    assert load.reg_uses() == {R.rsi}
    editor = BlockEditor(block)
    editor.replace(0x400000, replace_operand(load, 1, Mem(base=R.r15)))
    edited = editor.finish()
    assert edited.instructions[0].reg_uses() == {R.r15}
    assert edited.instructions[0].mem_reads() == (Mem(base=R.r15),)
    assert load.reg_uses() == {R.rsi}
    assert block.instructions[0] is load
