"""Sparse word-addressed memory and 64-bit value helpers.

Memory maps 8-byte-aligned addresses to 64-bit words.  A word holds
either a signed 64-bit int or a Python ``float``: whichever form it was
last written in.  Both forms stand for one IEEE-754 bit pattern, exactly
like hardware, and every reader converts to the form it needs:
:meth:`Memory.read` returns the int bits and :meth:`Memory.read_f64` the
double.  So an integer ``mov`` still moves a double's bits untouched
(which is what lets the library ``memcpy`` copy arrays of doubles), while
the compiled tiers load and store doubles without a bit-cast per access:
a double written as a float is read back as that float, and a float read
of an int word writes the float form back (the same bits), so a read-only
table loaded as ints pays the cast once.

The STM's *value-based* conflict checking (paper section II-E2) compares
bit patterns, not typed values: a transaction reads through
:meth:`Memory.read` and buffers int bits, so ``-0.0`` over ``+0.0`` is a
change and a NaN rewritten with the same payload is not, whichever form
either word is held in.  Code outside this module reads words through
the :class:`Memory` methods; only the superblock tier binds the dict's
own ``get`` and ``__setitem__``, and tests each word's form inline.
"""

from __future__ import annotations

import struct

_PACK_D = struct.Struct("<d").pack
_UNPACK_Q = struct.Struct("<q").unpack
_PACK_Q = struct.Struct("<q").pack
_UNPACK_D = struct.Struct("<d").unpack

_U64 = (1 << 64) - 1
_S64_SIGN = 1 << 63


def s64(value: int) -> int:
    """Wrap an arbitrary Python int to signed 64-bit two's complement."""
    value &= _U64
    if value & _S64_SIGN:
        value -= 1 << 64
    return value


def f64_to_i64(value: float) -> int:
    """Bit-cast a double to its signed 64-bit pattern."""
    return _UNPACK_Q(_PACK_D(value))[0]


def i64_to_f64(value: int) -> float:
    """Bit-cast a signed 64-bit pattern to a double."""
    return _UNPACK_D(_PACK_Q(value))[0]


class MemoryFault(Exception):
    """Raised on misaligned accesses."""


class Memory:
    """Flat sparse memory of 64-bit words; unmapped words read as zero."""

    __slots__ = ("words",)

    def __init__(self) -> None:
        self.words: dict[int, int | float] = {}

    def read(self, addr: int) -> int:
        if addr & 7:
            raise MemoryFault(f"misaligned read at {addr:#x}")
        value = self.words.get(addr, 0)
        if value.__class__ is float:
            return _UNPACK_Q(_PACK_D(value))[0]
        return value

    def write(self, addr: int, value: int | float) -> None:
        """Store ``value`` in the form given: int bits, or a double."""
        if addr & 7:
            raise MemoryFault(f"misaligned write at {addr:#x}")
        self.words[addr] = value

    write_f64 = write

    def read_f64(self, addr: int) -> float:
        if addr & 7:
            raise MemoryFault(f"misaligned read at {addr:#x}")
        words = self.words
        value = words.get(addr, 0.0)
        if value.__class__ is not float:
            value = words[addr] = _UNPACK_D(_PACK_Q(value))[0]
        return value

    def load_words(self, pairs) -> None:
        """Bulk-initialise from (address, value) pairs (loader output)."""
        for addr, value in pairs:
            self.write(addr, value)

    def items(self):
        """Every stored (address, int bits) pair, zeros included."""
        for addr, value in self.words.items():
            if value.__class__ is float:
                value = _UNPACK_Q(_PACK_D(value))[0]
            yield addr, value

    def snapshot(self) -> dict[int, int]:
        """A copy of all non-zero words as int bits (the
        correctness-oracle state); a stored ``-0.0`` is kept."""
        return {a: v for a, v in self.items() if v != 0}

    def copy(self) -> "Memory":
        clone = Memory()
        clone.words = dict(self.words)
        return clone
