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
from repro.isa.registers import ARG_REGS, RET_REG

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
FLAG_WRITERS = frozenset(
    (Opcode.ADD, Opcode.SUB, Opcode.IMUL, Opcode.AND, Opcode.OR, Opcode.XOR,
     Opcode.SHL, Opcode.SHR, Opcode.SAR, Opcode.INC, Opcode.DEC, Opcode.NEG,
     Opcode.CMP, Opcode.TEST, Opcode.UCOMISD)
)

# Packed opcodes and their lane counts.
PACKED_LANES = {
    Opcode.MOVAPD: 2, Opcode.ADDPD: 2, Opcode.SUBPD: 2,
    Opcode.MULPD: 2, Opcode.DIVPD: 2,
    Opcode.VMOVAPD: 4, Opcode.VADDPD: 4, Opcode.VSUBPD: 4,
    Opcode.VMULPD: 4, Opcode.VDIVPD: 4,
}

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

# Opcode classes tested by the control-flow properties.
JUMPS = frozenset((Opcode.JMP, Opcode.JMPI))
CALLS = frozenset((Opcode.CALL, Opcode.CALLI))
INDIRECT = frozenset((Opcode.JMPI, Opcode.CALLI))
CONTROL = COND_BRANCHES | JUMPS | CALLS | {Opcode.RET, Opcode.HLT}

# -- operand roles ------------------------------------------------------------
#
# OPERAND_ROLES[opcode] is (positions, implicit uses, implicit defs).
# ``positions`` holds one role mask per operand position: whether a Reg
# operand there is read (_RR) or written (_RW), and whether a Mem operand
# there is read (_MR) or written (_MW).  The base and index registers of
# every Mem operand are read whatever its role, LEA's included.  An
# operand position past the row, and any operand that is neither Reg nor
# Mem, has no role.
_RR, _RW, _MR, _MW = 1, 2, 4, 8

# A move's destination is written, its source read; a conversion or
# square root writes only a register destination.
_MOVE = (_RW | _MW, _RR | _MR)
_CONVERT = (_RW, _RR | _MR)
# Read-modify-write: the destination is also a source.
_RMW = (_RR | _RW | _MR | _MW, _RR | _MR)
_COMPARE = (_RR | _MR, _RR | _MR)
# cmov reads the destination (it may keep it) but never stores to memory.
_CMOV = (_RR | _RW, _RR | _MR)
# xorpd reads no memory operand; ``xorpd x, x`` is the zeroing idiom,
# which reads nothing (see operand_facts).
_XORPD = (_RR | _RW, _RR)
_XORPD_ZEROING = (_RW, 0)


def _operand_roles() -> dict:
    rows: dict[Opcode, tuple] = dict.fromkeys(Opcode, ())
    rows.update(dict.fromkeys(
        (Opcode.MOV, Opcode.MOVSD, Opcode.MOVAPD, Opcode.VMOVAPD), _MOVE))
    rows.update(dict.fromkeys(
        (Opcode.CVTSI2SD, Opcode.CVTTSD2SI, Opcode.SQRTSD), _CONVERT))
    rows.update(dict.fromkeys(
        (Opcode.ADD, Opcode.SUB, Opcode.IMUL, Opcode.IDIV, Opcode.IMOD,
         Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
         Opcode.SAR, Opcode.ADDSD, Opcode.SUBSD, Opcode.MULSD, Opcode.DIVSD,
         Opcode.MINSD, Opcode.MAXSD, Opcode.ADDPD, Opcode.SUBPD,
         Opcode.MULPD, Opcode.DIVPD, Opcode.VADDPD, Opcode.VSUBPD,
         Opcode.VMULPD, Opcode.VDIVPD), _RMW))
    # One-operand read-modify-write: the destination alone.
    rows.update(dict.fromkeys(
        (Opcode.INC, Opcode.DEC, Opcode.NEG, Opcode.NOT), _RMW[:1]))
    rows.update(dict.fromkeys(
        (Opcode.CMP, Opcode.TEST, Opcode.UCOMISD), _COMPARE))
    rows.update(dict.fromkeys(CMOV_OPCODES, _CMOV))
    rows.update(dict.fromkeys(
        (Opcode.PUSH, Opcode.JMPI, Opcode.CALLI), (_RR | _MR,)))
    rows[Opcode.LEA] = (_RW, 0)
    rows[Opcode.POP] = (_RW,)
    rows[Opcode.XORPD] = _XORPD

    flags = frozenset((FLAGS_REG,))
    table = {}
    for op, row in rows.items():
        uses = flags if op in COND_BRANCHES or op in CMOV_OPCODES else _NO_REGS
        defs = flags if op in FLAG_WRITERS else _NO_REGS
        if op is Opcode.SYSCALL:
            # rax holds the call number; the interpreter reads argument
            # registers per call, so conservatively the whole set.
            uses = frozenset((RET_REG, *ARG_REGS))
            defs = frozenset((RET_REG,))
        table[op] = (row, uses, defs)
    return table


# Shared by every instruction with no register use or def.
_NO_REGS: frozenset[int] = frozenset()
# One set per machine register (and FLAGS), shared by every instruction
# whose use or def set is that register alone: most of them.
_SINGLE_REG = {reg: frozenset((reg,)) for reg in range(FLAGS_REG + 1)}

OPERAND_ROLES = _operand_roles()


def operand_facts(opcode: Opcode, operands: tuple) -> tuple:
    """(register uses, register defs, memory reads, memory writes).

    Registers are frozensets of ids, memory operands tuples in operand
    order; all four come from one pass over the operands, driven by
    ``OPERAND_ROLES``.  Decoded instructions keep the result
    (:meth:`Instruction.facts`).
    """
    row, implicit_uses, implicit_defs = OPERAND_ROLES[opcode]
    if opcode is Opcode.XORPD and operands[0] == operands[1]:
        row = _XORPD_ZEROING
    uses = []
    defs = []
    reads = []
    writes = []
    for position, operand in enumerate(operands):
        kind = type(operand)
        if kind is Reg:
            role = row[position] if position < len(row) else 0
            if role & _RR:
                uses.append(operand.id)
            if role & _RW:
                defs.append(operand.id)
        elif kind is Mem:
            if operand.base is not None:
                uses.append(operand.base)
            if operand.index is not None:
                uses.append(operand.index)
            role = row[position] if position < len(row) else 0
            if role & _MR:
                reads.append(operand)
            if role & _MW:
                writes.append(operand)
    return (_reg_set(uses, implicit_uses), _reg_set(defs, implicit_defs),
            tuple(reads), tuple(writes))


def _reg_set(ids: list, implicit: frozenset) -> frozenset:
    if not ids:
        return implicit
    if implicit:
        return implicit.union(ids)
    if len(ids) == 1:
        shared = _SINGLE_REG.get(ids[0])
        if shared is not None:
            return shared
    return frozenset(ids)


@dataclass(slots=True)
class Instruction:
    """A decoded (or not-yet-encoded) JX instruction.

    ``address`` and ``size`` are filled in by the encoder/decoder; a freshly
    built instruction has neither.  The DBM tracks the *original* application
    address of a translated instruction through ``address`` even after it has
    been modified, which is what lets multiple rewrite rules target the same
    instruction (paper Fig. 2b).

    ``opcode`` and ``operands`` are never assigned after construction (an
    edit builds a new instruction, see :func:`replace_operand`), so the
    operand facts are derived once, on the first query, and kept.
    """

    opcode: Opcode
    operands: tuple = ()
    address: int | None = None
    size: int | None = None
    _facts: tuple | None = field(default=None, init=False, repr=False,
                                 compare=False)

    # -- classification helpers ------------------------------------------

    @property
    def is_cond_branch(self) -> bool:
        return self.opcode in COND_BRANCHES

    @property
    def is_jump(self) -> bool:
        return self.opcode in JUMPS

    @property
    def is_call(self) -> bool:
        return self.opcode in CALLS

    @property
    def is_ret(self) -> bool:
        return self.opcode is Opcode.RET

    @property
    def is_indirect(self) -> bool:
        return self.opcode in INDIRECT

    @property
    def is_control(self) -> bool:
        """True for any instruction that may divert sequential control flow."""
        return self.opcode in CONTROL

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

    def facts(self) -> tuple:
        """:func:`operand_facts` of this instruction, derived on the first
        query and kept."""
        facts = self._facts
        if facts is None:
            facts = self._facts = operand_facts(self.opcode, self.operands)
        return facts

    def reg_uses(self) -> frozenset[int]:
        """Register ids read by this instruction (including address registers)."""
        return self.facts()[0]

    def reg_defs(self) -> frozenset[int]:
        """Register ids written by this instruction."""
        return self.facts()[1]

    def mem_reads(self) -> tuple[Mem, ...]:
        """Memory operands read by this instruction."""
        return self.facts()[2]

    def mem_writes(self) -> tuple[Mem, ...]:
        """Memory operands written by this instruction."""
        return self.facts()[3]

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
