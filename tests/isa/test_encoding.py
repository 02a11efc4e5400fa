"""Encode/decode round-trip tests for the JX byte format."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import (
    Imm,
    Instruction,
    Mem,
    Opcode,
    Reg,
    decode_instruction,
    decode_range,
    encode_instruction,
    encode_program,
)
from repro.isa.decoder import DecodingError
from repro.isa.encoder import EncodingError, instruction_length
from repro.isa.instructions import PSEUDO_OPCODES
from repro.isa.operands import Label
from repro.isa.registers import NUM_REGS, R


def test_simple_round_trip():
    i = Instruction(Opcode.ADD, (Reg(R.rax), Imm(42)))
    raw = encode_instruction(i)
    out = decode_instruction(raw, 0, 0x400000)
    assert out.opcode is Opcode.ADD
    assert out.operands == (Reg(R.rax), Imm(42))
    assert out.address == 0x400000
    assert out.size == len(raw)


def test_mem_operand_round_trip():
    m = Mem(base=R.r8, index=R.rax, scale=4, disp=-8)
    raw = encode_instruction(Instruction(Opcode.MOV, (m, Reg(R.rsi))))
    out = decode_instruction(raw, 0, 0)
    assert out.operands[0] == m


def test_mem_without_base_or_index():
    m = Mem(disp=0x10000000)
    raw = encode_instruction(Instruction(Opcode.MOV, (Reg(R.rax), m)))
    out = decode_instruction(raw, 0, 0)
    assert out.operands[1] == m
    assert out.operands[1].base is None
    assert out.operands[1].index is None


def test_program_layout_assigns_addresses():
    prog = [
        Instruction(Opcode.MOV, (Reg(R.rax), Imm(1))),
        Instruction(Opcode.ADD, (Reg(R.rax), Reg(R.rbx))),
        Instruction(Opcode.RET),
    ]
    raw = encode_program(prog, base=0x400000)
    assert prog[0].address == 0x400000
    assert prog[1].address == 0x400000 + prog[0].size
    assert len(raw) == sum(p.size for p in prog)
    decoded = decode_range(raw, 0x400000, 0x400000)
    assert [d.opcode for d in decoded] == [p.opcode for p in prog]
    assert [d.address for d in decoded] == [p.address for p in prog]


def test_rtcall_cannot_be_encoded():
    with pytest.raises(EncodingError):
        encode_instruction(Instruction(Opcode.RTCALL, (Imm(1), Imm(2))))


def test_label_cannot_be_encoded():
    with pytest.raises(EncodingError):
        encode_instruction(Instruction(Opcode.JMP, (Label("loop"),)))


def test_invalid_opcode_rejected():
    with pytest.raises(DecodingError):
        decode_instruction(bytes([0xFE, 0]), 0, 0)


def test_truncated_bytes_rejected():
    raw = encode_instruction(Instruction(Opcode.MOV, (Reg(R.rax), Imm(5))))
    with pytest.raises(DecodingError):
        decode_instruction(raw[:-3], 0, 0)


def test_instruction_length_matches_encoding():
    cases = [
        Instruction(Opcode.RET),
        Instruction(Opcode.MOV, (Reg(R.rax), Imm(5))),
        Instruction(Opcode.ADD, (Mem(base=R.rcx, disp=8), Reg(R.rax))),
    ]
    for ins in cases:
        assert instruction_length(ins) == len(encode_instruction(ins))


# -- property-based round trip -------------------------------------------

_regs = st.integers(min_value=0, max_value=NUM_REGS - 1).map(Reg)
_imms = st.integers(min_value=-(2**63), max_value=2**63 - 1).map(Imm)
_mems = st.builds(
    Mem,
    base=st.one_of(st.none(), st.integers(0, NUM_REGS - 1)),
    index=st.one_of(st.none(), st.integers(0, NUM_REGS - 1)),
    scale=st.sampled_from([1, 2, 4, 8]),
    disp=st.integers(min_value=-(2**31), max_value=2**31 - 1),
)
_operands = st.one_of(_regs, _imms, _mems)
_opcodes = st.sampled_from([op for op in Opcode
                            if op not in PSEUDO_OPCODES])


@given(op=_opcodes, operands=st.lists(_operands, max_size=3),
       addr=st.integers(min_value=0, max_value=2**40))
def test_round_trip_property(op, operands, addr):
    ins = Instruction(op, tuple(operands))
    raw = encode_instruction(ins)
    out = decode_instruction(raw, 0, addr)
    assert out.opcode == ins.opcode
    assert out.operands == ins.operands
    assert out.size == len(raw)
    assert out.address == addr


@given(st.lists(st.builds(Instruction, _opcodes,
                          st.lists(_operands, max_size=3).map(tuple)),
                min_size=1, max_size=20))
def test_program_round_trip_property(prog):
    raw = encode_program(prog, base=0x1000)
    decoded = decode_range(raw, 0x1000, 0x1000)
    assert len(decoded) == len(prog)
    for got, want in zip(decoded, prog):
        assert got.opcode == want.opcode
        assert got.operands == want.operands
