"""Edge-case interpreter tests: indirect control flow, limits, errors."""

import pytest

from repro.isa import Imm, Mem, Opcode as O, Reg
from repro.isa.operands import Label
from repro.isa.registers import R
from repro.jbin import syscalls
from repro.dbm.interp import ExecutionLimitExceeded, JXRuntimeError

from tests.helpers import ints, run_asm

RAX, RBX, RCX, RDI = Reg(R.rax), Reg(R.rbx), Reg(R.rcx), Reg(R.rdi)


def emit_print(a, src):
    a.emit(O.MOV, RDI, src)
    a.emit(O.MOV, RAX, Imm(syscalls.PRINT_INT))
    a.emit(O.SYSCALL)


class TestIndirectControlFlow:
    def test_indirect_jump_through_register(self):
        def build(a):
            a.label("_start")
            a.emit(O.MOV, RBX, Label("target"))
            a.emit(O.JMPI, RBX)
            emit_print(a, Imm(111))  # skipped
            a.emit(O.RET)
            a.label("target")
            emit_print(a, Imm(222))
            a.emit(O.RET)

        assert ints(run_asm(build)) == [222]

    def test_jump_table(self):
        """Dispatch through a table of code addresses built at startup."""

        def build_runtime_table(a):
            a.label("_start")
            a.emit(O.MOV, RBX, Label("case0"))
            a.emit(O.MOV, Mem(disp=Label("jumptable")), RBX)
            a.emit(O.MOV, RBX, Label("case1"))
            from repro.isa.operands import LabelRef

            a.emit(O.MOV, Mem(disp=LabelRef("jumptable", 8)), RBX)
            a.emit(O.MOV, RCX, Imm(1))
            a.emit(O.MOV, RBX,
                   Mem(index=R.rcx, scale=8, disp=Label("jumptable")))
            a.emit(O.JMPI, RBX)
            a.label("case0")
            emit_print(a, Imm(100))
            a.emit(O.RET)
            a.label("case1")
            emit_print(a, Imm(101))
            a.emit(O.RET)
            a.space("jumptable", 2)

        assert ints(run_asm(build_runtime_table)) == [101]

    def test_indirect_call(self):
        def build(a):
            a.label("_start")
            a.emit(O.MOV, RBX, Label("callee"))
            a.emit(O.CALLI, RBX)
            emit_print(a, RAX)
            a.emit(O.RET)
            a.label("callee")
            a.emit(O.MOV, RAX, Imm(77))
            a.emit(O.RET)

        assert ints(run_asm(build)) == [77]


class TestLimitsAndErrors:
    def test_instruction_limit(self):
        def build(a):
            a.label("_start")
            a.label("spin")
            a.emit(O.JMP, Label("spin"))

        from repro.jbin.asm import Assembler
        from repro.jbin.loader import load
        from repro.dbm.executor import run_native

        a = Assembler()
        build(a)
        process = load(a.assemble(entry="_start"))
        with pytest.raises(ExecutionLimitExceeded):
            run_native(process, max_instructions=10_000)

    def test_unknown_syscall(self):
        def build(a):
            a.label("_start")
            a.emit(O.MOV, RAX, Imm(99))
            a.emit(O.SYSCALL)
            a.emit(O.RET)

        with pytest.raises(JXRuntimeError):
            run_asm(build)

    def test_fp_division_by_zero(self):
        def build(a):
            a.double("one", 1.0)
            a.label("_start")
            a.emit(O.MOVSD, Reg(R.xmm0), Mem(disp=Label("one")))
            a.emit(O.XORPD, Reg(R.xmm1), Reg(R.xmm1))
            a.emit(O.DIVSD, Reg(R.xmm0), Reg(R.xmm1))
            a.emit(O.RET)

        with pytest.raises(JXRuntimeError):
            run_asm(build)

    def test_sqrt_of_negative(self):
        def build(a):
            a.double("neg", -4.0)
            a.label("_start")
            a.emit(O.SQRTSD, Reg(R.xmm0), Mem(disp=Label("neg")))
            a.emit(O.RET)

        with pytest.raises(JXRuntimeError):
            run_asm(build)

    def test_rtcall_without_runtime(self):
        """A schedule-inserted RTCALL outside a DBM context must fail
        loudly, not silently."""
        from repro.dbm.blocks import Block
        from repro.dbm.interp import Interpreter
        from repro.dbm.machine import Machine, make_main_context
        from repro.dbm.tracecache import run_loop
        from repro.isa.instructions import Instruction, Opcode

        machine = Machine()
        ctx = make_main_context(0x400000, machine.memory)
        interp = Interpreter(machine, process=None)
        block = Block(start=0x400000,
                      instructions=[Instruction(Opcode.RTCALL,
                                                (Imm(1), Imm(0)))],
                      end=0x400002)
        with pytest.raises(JXRuntimeError):
            run_loop(interp, ctx, block.start, lambda pc, _ctx: block)
