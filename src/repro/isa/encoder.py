"""Binary encoding of JX instructions.

The encoding is variable-length, so a JX text section is an opaque byte
stream the same way an x86 one is: instruction boundaries are only known by
decoding from a reachable address.

Layout per instruction::

    [opcode u8] [operand-count u8] operand*

    operand := tag u8, payload
      tag 0 (Reg): reg-id u8
      tag 1 (Imm): value i64 little-endian
      tag 2 (Mem): flags u8 (bit0 has-base, bit1 has-index),
                   base u8, index u8, scale u8, disp i64

This gives instructions sizes from 2 to 26 bytes.
"""

from __future__ import annotations

import struct

from repro.isa.instructions import PSEUDO_OPCODES, Instruction
from repro.isa.operands import Imm, Label, Mem, Reg

_TAG_REG = 0
_TAG_IMM = 1
_TAG_MEM = 2

_I64 = struct.Struct("<q")


class EncodingError(Exception):
    """Raised when an instruction cannot be encoded."""


def _encode_operand(op, out: bytearray) -> None:
    if isinstance(op, Reg):
        out.append(_TAG_REG)
        out.append(op.id)
    elif isinstance(op, Imm):
        out.append(_TAG_IMM)
        out += _I64.pack(op.value)
    elif isinstance(op, Mem):
        out.append(_TAG_MEM)
        flags = (1 if op.base is not None else 0) | (
            2 if op.index is not None else 0)
        out.append(flags)
        out.append(op.base if op.base is not None else 0)
        out.append(op.index if op.index is not None else 0)
        out.append(op.scale)
        out += _I64.pack(op.disp)
    elif isinstance(op, Label):
        raise EncodingError(
            f"unresolved label {op.name!r}: assemble before encoding")
    else:
        raise EncodingError(f"cannot encode operand {op!r}")


def encode_instruction(ins: Instruction) -> bytes:
    """Encode one instruction to bytes (and record its size on it)."""
    if ins.opcode in PSEUDO_OPCODES:
        raise EncodingError(f"{ins.opcode.name} is a DBM pseudo-instruction; "
                            "it never appears in a binary")
    out = bytearray()
    out.append(int(ins.opcode))
    out.append(len(ins.operands))
    for op in ins.operands:
        _encode_operand(op, out)
    ins.size = len(out)
    return bytes(out)


def encode_program(instructions: list[Instruction], base: int = 0) -> bytes:
    """Encode a list of instructions laid out contiguously from ``base``.

    Assigns each instruction its final ``address`` and ``size``.
    """
    out = bytearray()
    addr = base
    for ins in instructions:
        ins.address = addr
        raw = encode_instruction(ins)
        out += raw
        addr += len(raw)
    return bytes(out)


def instruction_length(ins: Instruction) -> int:
    """Length in bytes the instruction will occupy once encoded."""
    length = 2
    for op in ins.operands:
        if isinstance(op, Reg):
            length += 2
        elif isinstance(op, (Imm, Label)):
            length += 9
        elif isinstance(op, Mem):
            length += 13
        else:
            raise EncodingError(f"cannot size operand {op!r}")
    return length
