"""Decoding of JX byte streams back into instructions.

This module is the reproduction's stand-in for the Capstone disassembler
library the Janus static analyser is built on (paper section II-G): it turns
raw text-section bytes at a given address into ``Instruction`` objects with
``address``/``size`` filled in.  Like DynamoRIO's lazy decoder, callers only
decode what they are about to look at.
"""

from __future__ import annotations

import struct

from repro.isa.instructions import PSEUDO_OPCODES, Instruction, Opcode
from repro.isa.operands import Imm, Mem, Reg

_TAG_REG = 0
_TAG_IMM = 1
_TAG_MEM = 2

_I64 = struct.Struct("<q")


class DecodingError(Exception):
    """Raised on malformed instruction bytes (bad opcode, truncation, ...)."""


_VALID_OPCODES = {int(op) for op in Opcode if op not in PSEUDO_OPCODES}


def decode_instruction(data: bytes, offset: int, address: int) -> Instruction:
    """Decode a single instruction from ``data`` at byte ``offset``.

    ``address`` is the virtual address the instruction lives at; it is
    recorded on the returned ``Instruction``.
    """
    try:
        opbyte = data[offset]
    except IndexError:
        raise DecodingError(f"truncated instruction at {address:#x}") from None
    if opbyte not in _VALID_OPCODES:
        raise DecodingError(f"invalid opcode {opbyte:#x} at {address:#x}")
    pos = offset + 1
    try:
        count = data[pos]
    except IndexError:
        raise DecodingError(f"truncated instruction at {address:#x}") from None
    pos += 1
    operands = []
    for _ in range(count):
        try:
            tag = data[pos]
            pos += 1
            if tag == _TAG_REG:
                operands.append(Reg(data[pos]))
                pos += 1
            elif tag == _TAG_IMM:
                (value,) = _I64.unpack_from(data, pos)
                operands.append(Imm(value))
                pos += 8
            elif tag == _TAG_MEM:
                flags = data[pos]
                base = data[pos + 1] if flags & 1 else None
                index = data[pos + 2] if flags & 2 else None
                scale = data[pos + 3]
                if scale not in (1, 2, 4, 8):
                    raise DecodingError(
                        f"invalid memory scale {scale} at {address:#x}")
                (disp,) = _I64.unpack_from(data, pos + 4)
                operands.append(Mem(base=base, index=index,
                                    scale=scale, disp=disp))
                pos += 12
            else:
                raise DecodingError(
                    f"invalid operand tag {tag} at {address:#x}")
        except (IndexError, struct.error):
            raise DecodingError(
                f"truncated instruction at {address:#x}") from None
    return Instruction(Opcode(opbyte), tuple(operands),
                       address=address, size=pos - offset)


def decode_range(data: bytes, base: int, start: int,
                 end: int | None = None) -> list[Instruction]:
    """Decode instructions linearly from virtual address ``start``.

    ``data`` holds the bytes of a section mapped at ``base``.  Decoding stops
    at ``end`` (exclusive virtual address) or at the end of the data.
    """
    instructions = []
    offset = start - base
    limit = len(data) if end is None else end - base
    addr = start
    while offset < limit:
        ins = decode_instruction(data, offset, addr)
        instructions.append(ins)
        offset += ins.size
        addr += ins.size
    return instructions
