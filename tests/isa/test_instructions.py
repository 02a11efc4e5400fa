"""Tests for JX instruction metadata (use/def sets, classification)."""

from repro.isa import Imm, Instruction, Mem, Opcode, Reg
from repro.isa.instructions import FLAGS_REG, replace_operand
from repro.isa.registers import R


def ins(op, *operands):
    return Instruction(op, tuple(operands))


class TestClassification:
    def test_cond_branch(self):
        j = ins(Opcode.JLE, Imm(0x400))
        assert j.is_cond_branch
        assert j.is_control
        assert not j.is_jump
        assert j.branch_target() == 0x400

    def test_direct_jump_and_call(self):
        assert ins(Opcode.JMP, Imm(8)).is_jump
        assert ins(Opcode.CALL, Imm(8)).is_call
        assert ins(Opcode.CALL, Imm(8)).branch_target() == 8

    def test_indirect(self):
        assert ins(Opcode.JMPI, Reg(R.rax)).is_indirect
        assert ins(Opcode.JMPI, Reg(R.rax)).branch_target() is None
        assert ins(Opcode.CALLI, Mem(base=R.rbx)).is_indirect

    def test_ret_and_hlt_are_control(self):
        assert ins(Opcode.RET).is_control
        assert ins(Opcode.HLT).is_control
        assert not ins(Opcode.ADD, Reg(R.rax), Imm(1)).is_control

    def test_packed_lanes(self):
        assert ins(Opcode.ADDPD, Reg(R.xmm0), Reg(R.xmm1)).lanes == 2
        assert ins(Opcode.VADDPD, Reg(R.xmm0), Reg(R.xmm1)).lanes == 4
        assert ins(Opcode.ADDSD, Reg(R.xmm0), Reg(R.xmm1)).lanes == 1


class TestUseDef:
    def test_mov_reg_reg(self):
        i = ins(Opcode.MOV, Reg(R.rax), Reg(R.rbx))
        assert i.reg_uses() == {R.rbx}
        assert i.reg_defs() == {R.rax}

    def test_mov_does_not_write_flags(self):
        assert FLAGS_REG not in ins(Opcode.MOV, Reg(R.rax), Imm(1)).reg_defs()

    def test_add_is_rmw_and_writes_flags(self):
        i = ins(Opcode.ADD, Reg(R.rax), Reg(R.rbx))
        assert i.reg_uses() == {R.rax, R.rbx}
        assert i.reg_defs() == {R.rax, FLAGS_REG}

    def test_mem_operand_contributes_address_registers(self):
        m = Mem(base=R.r8, index=R.rax, scale=4, disp=8)
        i = ins(Opcode.MOV, m, Reg(R.rsi))
        assert i.reg_uses() == {R.r8, R.rax, R.rsi}
        assert i.reg_defs() == set()
        assert i.mem_writes() == (m,)
        assert i.mem_reads() == ()

    def test_load_has_mem_read(self):
        m = Mem(base=R.r9, disp=16)
        i = ins(Opcode.MOV, Reg(R.rdx), m)
        assert i.mem_reads() == (m,)
        assert i.mem_writes() == ()

    def test_rmw_memory_destination_reads_and_writes(self):
        m = Mem(base=R.rcx)
        i = ins(Opcode.ADD, m, Reg(R.rax))
        assert i.mem_reads() == (m,)
        assert i.mem_writes() == (m,)

    def test_lea_reads_no_memory(self):
        m = Mem(base=R.r8, index=R.rax, scale=8)
        i = ins(Opcode.LEA, Reg(R.rdx), m)
        assert i.mem_reads() == ()
        assert i.mem_writes() == ()
        assert i.reg_uses() == {R.r8, R.rax}
        assert i.reg_defs() == {R.rdx}

    def test_cmp_sets_flags_reads_both(self):
        i = ins(Opcode.CMP, Reg(R.rsi), Imm(10000))
        assert i.reg_uses() == {R.rsi}
        assert i.reg_defs() == {FLAGS_REG}

    def test_cond_branch_reads_flags(self):
        assert FLAGS_REG in ins(Opcode.JLE, Imm(0)).reg_uses()

    def test_cmov_reads_dest_source_and_flags(self):
        i = ins(Opcode.CMOVLE, Reg(R.rax), Reg(R.rbx))
        assert i.reg_uses() == {R.rax, R.rbx, FLAGS_REG}
        assert i.reg_defs() == {R.rax}

    def test_xorpd_zero_idiom_has_no_uses(self):
        i = ins(Opcode.XORPD, Reg(R.xmm0), Reg(R.xmm0))
        assert i.reg_uses() == set()
        assert i.reg_defs() == {R.xmm0}

    def test_inc_dec(self):
        i = ins(Opcode.INC, Reg(R.rax))
        assert i.reg_uses() == {R.rax}
        assert R.rax in i.reg_defs()
        assert FLAGS_REG in i.reg_defs()


def test_replace_operand_is_nondestructive():
    original = ins(Opcode.ADD, Mem(base=R.rcx), Reg(R.rax))
    original.address = 0x400900
    new = replace_operand(original, 0, Mem(base=R.r15, disp=0x20))
    assert original.operands[0] == Mem(base=R.rcx)
    assert new.operands[0] == Mem(base=R.r15, disp=0x20)
    assert new.address == original.address
    assert new.opcode is original.opcode
