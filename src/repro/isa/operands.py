"""Operand classes for JX instructions.

Operands are immutable.  Rewrite-rule handlers in the DBM never mutate an
operand in place; they build a fresh operand (e.g. a privatised ``Mem``) and
a fresh ``Instruction`` around it, exactly as a binary modifier re-encodes an
instruction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.registers import reg_name


@dataclass(frozen=True, slots=True)
class Reg:
    """A register operand, holding a register id (see ``repro.isa.registers``)."""

    id: int

    def __repr__(self) -> str:
        return reg_name(self.id)


@dataclass(frozen=True, slots=True)
class Imm:
    """A 64-bit signed immediate operand."""

    value: int

    def __repr__(self) -> str:
        return f"{self.value:#x}" if abs(self.value) > 9 else str(self.value)


@dataclass(frozen=True, slots=True)
class Mem:
    """An x86-style memory operand: ``[base + index*scale + disp]``.

    ``base`` and ``index`` are register ids or ``None``.  ``scale`` is one of
    1, 2, 4, 8.  All JX data accesses are 8-byte words (DESIGN.md section 5);
    packed accesses read/write 2 or 4 consecutive words starting at the
    effective address.
    """

    base: int | None = None
    index: int | None = None
    scale: int = 1
    disp: int = 0

    def __post_init__(self) -> None:
        if self.scale not in (1, 2, 4, 8):
            raise ValueError(f"invalid scale: {self.scale}")

    def __repr__(self) -> str:
        parts = []
        if self.base is not None:
            parts.append(reg_name(self.base))
        if self.index is not None:
            term = reg_name(self.index)
            if self.scale != 1:
                term += f"*{self.scale}"
            parts.append(term)
        if self.disp or not parts:
            parts.append(f"{self.disp:#x}")
        return "[" + "+".join(parts) + "]"


@dataclass(frozen=True, slots=True)
class Label:
    """A symbolic label operand; only valid before assembly.

    The assembler resolves every ``Label`` into an absolute ``Imm`` address
    (direct branches/calls) before encoding.  Decoded binaries never contain
    labels — the static analyser works purely from addresses.
    """

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class LabelRef(Label):
    """A label plus a constant byte offset (``name + offset``).

    Accepted wherever a ``Label`` is: in immediate position or as the
    displacement of a :class:`Mem` operand during assembly.
    """

    offset: int = 0

    def __repr__(self) -> str:
        if self.offset:
            return f"{self.name}+{self.offset:#x}"
        return self.name
