"""Unit tests for the sparse memory and machine state."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.dbm.machine import Machine, ThreadContext, make_main_context
from repro.dbm.memory import Memory, MemoryFault, f64_to_i64, i64_to_f64, s64
from repro.isa.registers import STACK_REG, TLS_REG
from repro.jbin import layout


class TestBitHelpers:
    def test_s64_wraps(self):
        assert s64(2**63) == -(2**63)
        assert s64(2**64) == 0
        assert s64(-1) == -1
        assert s64(2**63 - 1) == 2**63 - 1

    @given(st.integers(min_value=-(2**70), max_value=2**70))
    def test_s64_range(self, value):
        wrapped = s64(value)
        assert -(2**63) <= wrapped < 2**63
        assert (wrapped - value) % (2**64) == 0

    @given(st.floats(allow_nan=False))
    def test_f64_round_trip(self, value):
        assert i64_to_f64(f64_to_i64(value)) == value

    def test_zero_bits_is_zero_float(self):
        # The runtime relies on this: zero-initialised TLS reads as 0.0.
        assert i64_to_f64(0) == 0.0
        assert f64_to_i64(0.0) == 0


class TestMemory:
    def test_unmapped_reads_zero(self):
        assert Memory().read(0x12345678 & ~7) == 0

    def test_write_read(self):
        memory = Memory()
        memory.write(0x1000, -5)
        assert memory.read(0x1000) == -5

    def test_float_access(self):
        memory = Memory()
        memory.write_f64(0x2000, 3.25)
        assert memory.read_f64(0x2000) == 3.25
        # The bits are visible to integer reads (bit-pattern honesty).
        assert memory.read(0x2000) == f64_to_i64(3.25)

    def test_misaligned_faults(self):
        memory = Memory()
        with pytest.raises(MemoryFault):
            memory.read(0x1001)
        with pytest.raises(MemoryFault):
            memory.write(0x1004, 1)

    def test_copy_is_independent(self):
        memory = Memory()
        memory.write(0x1000, 1)
        clone = memory.copy()
        clone.write(0x1000, 2)
        assert memory.read(0x1000) == 1

    def test_snapshot_drops_zeros(self):
        memory = Memory()
        memory.write(0x1000, 5)
        memory.write(0x1008, 0)
        assert memory.snapshot() == {0x1000: 5}

    def test_read_of_float_word_returns_int_bits(self):
        memory = Memory()
        memory.write_f64(0x2000, -2.5)
        assert memory.read(0x2000) == f64_to_i64(-2.5)
        assert memory.words[0x2000] == -2.5     # stored as written

    def test_read_f64_of_int_word_returns_float(self):
        memory = Memory()
        memory.write(0x2000, f64_to_i64(0.1))
        assert memory.read_f64(0x2000) == 0.1
        # The float form is written back; the bits are unchanged.
        assert memory.words[0x2000].__class__ is float
        assert memory.read(0x2000) == f64_to_i64(0.1)
        assert memory.read_f64(0x3000) == 0.0
        assert 0x3000 not in memory.words     # unmapped stays unmapped

    def test_snapshot_keeps_negative_zero(self):
        memory = Memory()
        memory.write_f64(0x1000, -0.0)
        memory.write_f64(0x1008, 0.0)
        memory.write_f64(0x1010, 1.5)
        assert memory.snapshot() == {0x1000: -(2**63),
                                     0x1010: f64_to_i64(1.5)}

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_both_forms_hold_the_same_bits(self, bits):
        memory = Memory()
        memory.write(0x1000, bits)
        value = memory.read_f64(0x1000)
        memory.write_f64(0x1008, value)
        assert memory.read(0x1000) == memory.read(0x1008) == bits
        assert memory.snapshot() == ({0x1000: bits, 0x1008: bits}
                                     if bits else {})

    def test_misaligned_float_access_faults(self):
        memory = Memory()
        with pytest.raises(MemoryFault):
            memory.read_f64(0x1004)
        with pytest.raises(MemoryFault):
            memory.write_f64(0x1002, 1.0)


class TestThreadContext:
    def test_stack_and_tls_are_per_thread(self):
        t0 = ThreadContext(thread_id=0)
        t3 = ThreadContext(thread_id=3)
        assert t0.stack_top == layout.thread_stack_top(0)
        assert t3.stack_top == layout.thread_stack_top(3)
        assert t0.stack_top != t3.stack_top
        assert t3.tls_base == layout.thread_tls_base(3)

    def test_install_tls_points_r15(self):
        ctx = ThreadContext(thread_id=2)
        ctx.install_tls()
        assert ctx.gregs[TLS_REG] == layout.thread_tls_base(2)

    def test_copy_registers(self):
        a = ThreadContext(thread_id=0)
        a.gregs[3] = 77
        a.fregs[4] = 1.5
        a.flags = -1
        b = ThreadContext(thread_id=1)
        b.copy_registers_from(a)
        assert b.gregs[3] == 77
        assert b.fregs[4] == 1.5
        assert b.flags == -1
        b.gregs[3] = 0
        assert a.gregs[3] == 77  # deep copy

    def test_main_context_halt_sentinel(self):
        memory = Memory()
        ctx = make_main_context(0x400000, memory)
        assert ctx.pc == 0x400000
        assert memory.read(ctx.gregs[STACK_REG]) == 0  # HALT_ADDRESS


class TestMachineIO:
    def test_outputs_and_text(self):
        machine = Machine()
        machine.print_int(42)
        machine.print_f64(1.5)
        assert machine.outputs == [("i", 42), ("f", 1.5)]
        assert machine.output_text() == "42\n1.5"

    def test_read_int_eof(self):
        machine = Machine(inputs=[7])
        assert machine.read_int() == 7
        assert machine.read_int() == -1  # EOF convention
