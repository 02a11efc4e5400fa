"""JX instruction definitions.

The opcode set mirrors the x86-64 subset that the Janus paper's analyses care
about: integer ALU with flags, scalar and packed (SSE-like 2-lane, AVX-like
4-lane) double arithmetic, conditional moves, x86-style direct and indirect
control flow, and a ``syscall`` instruction (loops containing one are
"incompatible" per paper section II-C).

One deliberate deviation from x86 is documented here: division is the
two-operand ``IDIV dst, src`` / ``IMOD dst, src`` rather than the implicit
``rdx:rax`` pair, which keeps the data-flow graph honest without modelling
double-width registers.

``RTCALL`` is a pseudo-instruction that can only be *inserted by the DBM's
rewrite-rule handlers* (never found in a binary); it traps into the Janus
runtime, standing in for the dynamically generated handler code of paper
section II-E.  ``RECORD`` is the other DBM pseudo-instruction: a profiled
memory access site, whose effective address the block runner appends
inline to the run's access log (:mod:`repro.dbm.accesslog`) instead of
trapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from repro.isa.operands import Imm, Label, Mem, Reg

# Pseudo register id used by data-flow analysis to model the flags word.
FLAGS_REG = 32


class Opcode(IntEnum):
    """All JX opcodes.  Values are stable: they are the encoding bytes."""

    # Data movement
    MOV = 1
    LEA = 2
    PUSH = 3
    POP = 4
    # Integer ALU (dst, src) -- dst is also a source except for MOV/LEA
    ADD = 10
    SUB = 11
    IMUL = 12
    IDIV = 13
    IMOD = 14
    AND = 15
    OR = 16
    XOR = 17
    SHL = 18
    SHR = 19
    SAR = 20
    # Single-operand ALU
    INC = 25
    DEC = 26
    NEG = 27
    NOT = 28
    # Comparison (flag producers)
    CMP = 30
    TEST = 31
    # Conditional moves
    CMOVE = 35
    CMOVNE = 36
    CMOVL = 37
    CMOVLE = 38
    CMOVG = 39
    CMOVGE = 40
    # Control flow
    JMP = 45
    JE = 46
    JNE = 47
    JL = 48
    JLE = 49
    JG = 50
    JGE = 51
    JMPI = 52  # indirect jump through reg/mem
    CALL = 53
    CALLI = 54  # indirect call through reg/mem
    RET = 55
    # Scalar double arithmetic
    MOVSD = 60
    ADDSD = 61
    SUBSD = 62
    MULSD = 63
    DIVSD = 64
    SQRTSD = 65
    MINSD = 66
    MAXSD = 67
    UCOMISD = 68
    CVTSI2SD = 69
    CVTTSD2SI = 70
    XORPD = 71
    # Packed double arithmetic, 2 lanes (SSE analogue)
    MOVAPD = 75
    ADDPD = 76
    SUBPD = 77
    MULPD = 78
    DIVPD = 79
    # Packed double arithmetic, 4 lanes (AVX analogue)
    VMOVAPD = 85
    VADDPD = 86
    VSUBPD = 87
    VMULPD = 88
    VDIVPD = 89
    # System
    SYSCALL = 95
    NOP = 96
    HLT = 97
    # Software prefetch hint: computes its address, touches no architectural
    # state (the cost model credits covered accesses as cache hits).
    PREFETCH = 98
    # DBM-inserted pseudo instructions (never present in binaries)
    RTCALL = 120
    RECORD = 121


# Opcodes only the DBM inserts: never encoded, never decoded.
PSEUDO_OPCODES = frozenset((Opcode.RTCALL, Opcode.RECORD))

# Condition code consumed by each conditional opcode.
CONDITION_OF = {
    Opcode.JE: "e",
    Opcode.JNE: "ne",
    Opcode.JL: "l",
    Opcode.JLE: "le",
    Opcode.JG: "g",
    Opcode.JGE: "ge",
    Opcode.CMOVE: "e",
    Opcode.CMOVNE: "ne",
    Opcode.CMOVL: "l",
    Opcode.CMOVLE: "le",
    Opcode.CMOVG: "g",
    Opcode.CMOVGE: "ge",
}

COND_BRANCHES = frozenset(
    (Opcode.JE, Opcode.JNE, Opcode.JL, Opcode.JLE, Opcode.JG, Opcode.JGE)
)

CMOV_OPCODES = frozenset(
    (Opcode.CMOVE, Opcode.CMOVNE, Opcode.CMOVL,
     Opcode.CMOVLE, Opcode.CMOVG, Opcode.CMOVGE)
)

# Negated-condition map, used when the modifier needs to invert a branch.
NEGATED_CONDITION = {
    "e": "ne", "ne": "e", "l": "ge", "ge": "l", "le": "g", "g": "le",
}

# Opcodes that write the flags word.
_FLAG_WRITERS = frozenset(
    (Opcode.ADD, Opcode.SUB, Opcode.IMUL, Opcode.AND, Opcode.OR, Opcode.XOR,
     Opcode.SHL, Opcode.SHR, Opcode.SAR, Opcode.INC, Opcode.DEC, Opcode.NEG,
     Opcode.CMP, Opcode.TEST, Opcode.UCOMISD)
)

# Scalar FP opcodes of the form OP dst, src where dst is also a source.
_FP_RMW = frozenset(
    (Opcode.ADDSD, Opcode.SUBSD, Opcode.MULSD, Opcode.DIVSD,
     Opcode.MINSD, Opcode.MAXSD)
)

# Packed opcodes and their lane counts.
PACKED_LANES = {
    Opcode.MOVAPD: 2, Opcode.ADDPD: 2, Opcode.SUBPD: 2,
    Opcode.MULPD: 2, Opcode.DIVPD: 2,
    Opcode.VMOVAPD: 4, Opcode.VADDPD: 4, Opcode.VSUBPD: 4,
    Opcode.VMULPD: 4, Opcode.VDIVPD: 4,
}

_PACKED_RMW = frozenset(
    (Opcode.ADDPD, Opcode.SUBPD, Opcode.MULPD, Opcode.DIVPD,
     Opcode.VADDPD, Opcode.VSUBPD, Opcode.VMULPD, Opcode.VDIVPD)
)

# Scalar FP opcode -> its packed equivalent, per lane count.  Only these
# scalar ops are auto-vectorisable (SQRTSD/MINSD/MAXSD/UCOMISD/CVT* have
# no packed JX form, so loops containing them fail vector legality).
VECTOR_WIDEN: dict[int, dict[Opcode, Opcode]] = {
    2: {Opcode.MOVSD: Opcode.MOVAPD, Opcode.ADDSD: Opcode.ADDPD,
        Opcode.SUBSD: Opcode.SUBPD, Opcode.MULSD: Opcode.MULPD,
        Opcode.DIVSD: Opcode.DIVPD},
    4: {Opcode.MOVSD: Opcode.VMOVAPD, Opcode.ADDSD: Opcode.VADDPD,
        Opcode.SUBSD: Opcode.VSUBPD, Opcode.MULSD: Opcode.VMULPD,
        Opcode.DIVSD: Opcode.VDIVPD},
}

# Two-operand integer read-modify-write opcodes.
_INT_RMW = frozenset(
    (Opcode.ADD, Opcode.SUB, Opcode.IMUL, Opcode.IDIV, Opcode.IMOD,
     Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.SAR)
)

_ONE_OP_RMW = frozenset((Opcode.INC, Opcode.DEC, Opcode.NEG, Opcode.NOT))


@dataclass(slots=True)
class Instruction:
    """A decoded (or not-yet-encoded) JX instruction.

    ``address`` and ``size`` are filled in by the encoder/decoder; a freshly
    built instruction has neither.  The DBM tracks the *original* application
    address of a translated instruction through ``address`` even after it has
    been modified, which is what lets multiple rewrite rules target the same
    instruction (paper Fig. 2b).
    """

    opcode: Opcode
    operands: tuple = ()
    address: int | None = None
    size: int | None = None

    # -- classification helpers ------------------------------------------

    @property
    def is_cond_branch(self) -> bool:
        return self.opcode in COND_BRANCHES

    @property
    def is_jump(self) -> bool:
        return self.opcode in (Opcode.JMP, Opcode.JMPI)

    @property
    def is_call(self) -> bool:
        return self.opcode in (Opcode.CALL, Opcode.CALLI)

    @property
    def is_ret(self) -> bool:
        return self.opcode is Opcode.RET

    @property
    def is_indirect(self) -> bool:
        return self.opcode in (Opcode.JMPI, Opcode.CALLI)

    @property
    def is_control(self) -> bool:
        """True for any instruction that may divert sequential control flow."""
        return (
            self.is_cond_branch
            or self.is_jump
            or self.is_call
            or self.is_ret
            or self.opcode is Opcode.HLT
        )

    @property
    def lanes(self) -> int:
        """Number of 8-byte lanes a memory access by this instruction touches."""
        return PACKED_LANES.get(self.opcode, 1)

    def branch_target(self) -> int | None:
        """Absolute target of a direct branch/call, else ``None``."""
        if self.opcode in (Opcode.JMP, Opcode.CALL) or self.is_cond_branch:
            op = self.operands[0]
            if isinstance(op, Imm):
                return op.value
        return None

    # -- use/def metadata (consumed by the static analyser) ---------------

    def reg_uses(self) -> set[int]:
        """Register ids read by this instruction (including address registers)."""
        uses: set[int] = set()
        op = self.opcode
        ops = self.operands
        # Address computation always reads base/index registers.
        for o in ops:
            if isinstance(o, Mem):
                if o.base is not None:
                    uses.add(o.base)
                if o.index is not None:
                    uses.add(o.index)
        if op in (Opcode.MOV, Opcode.MOVSD, Opcode.MOVAPD, Opcode.VMOVAPD,
                  Opcode.CVTSI2SD, Opcode.CVTTSD2SI, Opcode.SQRTSD):
            if isinstance(ops[1], Reg):
                uses.add(ops[1].id)
        elif op is Opcode.LEA:
            pass  # only address registers, already added
        elif op in _INT_RMW or op in _FP_RMW or op in _PACKED_RMW:
            if isinstance(ops[0], Reg):
                uses.add(ops[0].id)
            if isinstance(ops[1], Reg):
                uses.add(ops[1].id)
        elif op in _ONE_OP_RMW:
            if isinstance(ops[0], Reg):
                uses.add(ops[0].id)
        elif op in (Opcode.CMP, Opcode.TEST, Opcode.UCOMISD):
            for o in ops:
                if isinstance(o, Reg):
                    uses.add(o.id)
        elif op in CMOV_OPCODES:
            # cmov reads both the destination (it may keep it) and the source.
            if isinstance(ops[0], Reg):
                uses.add(ops[0].id)
            if isinstance(ops[1], Reg):
                uses.add(ops[1].id)
            uses.add(FLAGS_REG)
        elif op is Opcode.XORPD:
            if ops[0] != ops[1]:  # xorpd x, x is an idiomatic zeroing
                for o in ops:
                    if isinstance(o, Reg):
                        uses.add(o.id)
        elif op in (Opcode.PUSH, Opcode.JMPI, Opcode.CALLI):
            if ops and isinstance(ops[0], Reg):
                uses.add(ops[0].id)
        elif op is Opcode.SYSCALL:
            # Syscall number in rax; the interpreter reads argument registers
            # depending on the call.  Conservatively use the full arg set.
            from repro.isa.registers import ARG_REGS, RET_REG

            uses.add(RET_REG)
            uses.update(ARG_REGS)
        if self.is_cond_branch:
            uses.add(FLAGS_REG)
        return uses

    def reg_defs(self) -> set[int]:
        """Register ids written by this instruction."""
        defs: set[int] = set()
        op = self.opcode
        ops = self.operands
        if op in (Opcode.MOV, Opcode.LEA, Opcode.MOVSD, Opcode.MOVAPD,
                  Opcode.VMOVAPD, Opcode.CVTSI2SD, Opcode.CVTTSD2SI,
                  Opcode.SQRTSD, Opcode.XORPD):
            if isinstance(ops[0], Reg):
                defs.add(ops[0].id)
        elif op in _INT_RMW or op in _FP_RMW or op in _PACKED_RMW:
            if isinstance(ops[0], Reg):
                defs.add(ops[0].id)
        elif op in _ONE_OP_RMW:
            if isinstance(ops[0], Reg):
                defs.add(ops[0].id)
        elif op in CMOV_OPCODES:
            if isinstance(ops[0], Reg):
                defs.add(ops[0].id)
        elif op is Opcode.POP:
            if isinstance(ops[0], Reg):
                defs.add(ops[0].id)
        elif op is Opcode.SYSCALL:
            from repro.isa.registers import RET_REG

            defs.add(RET_REG)
        if op in _FLAG_WRITERS:
            defs.add(FLAGS_REG)
        return defs

    def mem_reads(self) -> list[Mem]:
        """Memory operands read by this instruction."""
        op = self.opcode
        ops = self.operands
        if op is Opcode.LEA:
            return []
        if op in (Opcode.MOV, Opcode.MOVSD, Opcode.MOVAPD, Opcode.VMOVAPD,
                  Opcode.CVTSI2SD, Opcode.CVTTSD2SI, Opcode.SQRTSD):
            return [ops[1]] if isinstance(ops[1], Mem) else []
        if op in _INT_RMW or op in _FP_RMW or op in _PACKED_RMW:
            return [o for o in ops if isinstance(o, Mem)]
        if op in _ONE_OP_RMW:
            return [ops[0]] if isinstance(ops[0], Mem) else []
        if op in (Opcode.CMP, Opcode.TEST, Opcode.UCOMISD):
            return [o for o in ops if isinstance(o, Mem)]
        if op in CMOV_OPCODES:
            return [ops[1]] if isinstance(ops[1], Mem) else []
        if op in (Opcode.PUSH, Opcode.JMPI, Opcode.CALLI):
            return [ops[0]] if ops and isinstance(ops[0], Mem) else []
        return []

    def mem_writes(self) -> list[Mem]:
        """Memory operands written by this instruction."""
        op = self.opcode
        ops = self.operands
        if op in (Opcode.MOV, Opcode.MOVSD, Opcode.MOVAPD, Opcode.VMOVAPD):
            return [ops[0]] if isinstance(ops[0], Mem) else []
        if op in _INT_RMW or op in _FP_RMW or op in _PACKED_RMW:
            return [ops[0]] if isinstance(ops[0], Mem) else []
        if op in _ONE_OP_RMW:
            return [ops[0]] if isinstance(ops[0], Mem) else []
        return []

    def __repr__(self) -> str:
        name = self.opcode.name.lower()
        text = name
        if self.operands:
            text += " " + ", ".join(repr(o) for o in self.operands)
        if self.address is not None:
            return f"{self.address:#x}: {text}"
        return text


def replace_operand(ins: Instruction, position: int, operand) -> Instruction:
    """A copy of ``ins`` with ``operands[position]`` replaced.

    Used by rewrite-rule handlers: the original instruction object stays
    untouched in the decoded image; the modified copy goes to the code cache.
    """
    new_ops = list(ins.operands)
    new_ops[position] = operand
    return Instruction(ins.opcode, tuple(new_ops), address=ins.address,
                       size=ins.size)
