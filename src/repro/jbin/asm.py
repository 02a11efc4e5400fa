"""A two-pass assembler producing JELF images.

The assembler is the lowest rung of the toolchain: the jcc compiler backend
and the hand-written standard library both emit through it.  It accepts
:class:`~repro.isa.operands.Label` (and ``LabelRef``) placeholders anywhere an
immediate could appear — branch targets, absolute data addresses, and ``Mem``
displacements — and resolves them in a second pass once the layout is known.

Usage::

    a = Assembler()
    counter = a.word("counter", 0)
    a.label("_start")
    a.emit(Opcode.MOV, Reg(R.rax), Mem(disp=counter))
    a.emit(Opcode.INC, Reg(R.rax))
    a.emit(Opcode.MOV, Mem(disp=counter), Reg(R.rax))
    a.emit(Opcode.RET)
    image = a.assemble(entry="_start")
"""

from __future__ import annotations

import struct

from repro.isa.encoder import encode_program, instruction_length
from repro.isa.instructions import Instruction, Opcode
from repro.isa.operands import Imm, Label, LabelRef, Mem, Reg
from repro.jbin import layout
from repro.jbin.image import JELF, Section

_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")


class AssemblyError(Exception):
    """Raised for duplicate or undefined labels and malformed directives."""


class Assembler:
    """Builds one JELF image from instructions and data directives."""

    def __init__(self, text_base: int = layout.TEXT_BASE,
                 data_base: int = layout.DATA_BASE,
                 plt_base: int = layout.PLT_BASE,
                 comment: str = "") -> None:
        self.text_base = text_base
        self.data_base = data_base
        self.plt_base = plt_base
        self.comment = comment
        self._instructions: list[Instruction] = []
        # label name -> index into _instructions (code) — resolved to an
        # address once the layout pass has run.
        self._code_labels: dict[str, int] = {}
        self._data: bytearray = bytearray()
        self._data_labels: dict[str, int] = {}  # name -> offset in .data
        self._bss_labels: dict[str, int] = {}  # name -> offset in .bss
        self._bss_size = 0
        self._imports: dict[int, str] = {}
        self._import_slots: dict[str, int] = {}

    # -- code ---------------------------------------------------------------

    def label(self, name: str) -> Label:
        """Bind ``name`` to the next emitted instruction."""
        if self._defined(name):
            raise AssemblyError(f"duplicate label {name!r}")
        self._code_labels[name] = len(self._instructions)
        return Label(name)

    def emit(self, opcode: Opcode, *operands) -> Instruction:
        """Append one instruction; returns it (address filled at assembly)."""
        ins = Instruction(opcode, tuple(operands))
        self._instructions.append(ins)
        return ins

    # -- data directives ------------------------------------------------------

    def word(self, name: str | None, *values: int) -> Label:
        """Define 64-bit integer words in .data; returns a label to the first.

        Values are wrapped to 64-bit two's complement, so unsigned constants
        up to 2**64-1 are accepted.
        """
        ref = self._bind_data(name)
        for value in values:
            value &= (1 << 64) - 1
            if value >= 1 << 63:
                value -= 1 << 64
            self._data += _I64.pack(value)
        return ref

    def double(self, name: str | None, *values: float) -> Label:
        """Define 64-bit float words in .data; returns a label to the first."""
        ref = self._bind_data(name)
        for value in values:
            self._data += _F64.pack(value)
        return ref

    def space(self, name: str, nwords: int) -> Label:
        """Reserve ``nwords`` zeroed words in .bss; returns a label."""
        if self._defined(name):
            raise AssemblyError(f"duplicate label {name!r}")
        self._bss_labels[name] = self._bss_size
        self._bss_size += nwords * layout.WORD
        return Label(name)

    def _bind_data(self, name: str | None) -> Label:
        if name is None:
            return Label(f"__anon_data_{len(self._data)}")
        if self._defined(name):
            raise AssemblyError(f"duplicate label {name!r}")
        self._data_labels[name] = len(self._data)
        return Label(name)

    # -- imports --------------------------------------------------------------

    def import_symbol(self, name: str) -> Label:
        """Declare a shared-library import; returns a label for its PLT slot."""
        if name in self._import_slots:
            return Label(name)
        if self._defined(name):
            raise AssemblyError(f"{name!r} already defined locally")
        slot = self.plt_base + len(self._imports) * layout.PLT_ENTRY_SIZE
        self._imports[slot] = name
        self._import_slots[name] = slot
        return Label(name)

    def _defined(self, name: str) -> bool:
        return (name in self._code_labels or name in self._data_labels
                or name in self._bss_labels or name in self._import_slots)

    # -- assembly -------------------------------------------------------------

    def assemble(self, entry: str, strip: bool = True) -> JELF:
        """Lay out, resolve and encode everything into a JELF image."""
        addresses = self._layout_code()
        table = self._symbol_table(addresses)
        resolved = [self._resolve(ins, table) for ins in self._instructions]
        text_bytes = encode_program(resolved, base=self.text_base)
        # Sanity: the layout pass must have predicted every address exactly,
        # otherwise label targets would be wrong.
        for ins, predicted in zip(resolved, addresses):
            if ins.address != predicted:
                raise AssemblyError(
                    f"layout drift at {predicted:#x} -> {ins.address:#x}")
        if entry not in table:
            raise AssemblyError(f"entry symbol {entry!r} not defined")
        image = JELF(
            entry=table[entry],
            text=Section(".text", self.text_base, text_bytes),
            data=Section(".data", self.data_base, bytes(self._data)),
            bss_size=self._bss_size,
            imports=dict(self._imports),
            symbols={} if strip else dict(table),
            comment=self.comment,
        )
        return image

    def _layout_code(self) -> list[int]:
        addresses = []
        addr = self.text_base
        for ins in self._instructions:
            addresses.append(addr)
            addr += instruction_length(ins)
        return addresses

    def _symbol_table(self, code_addresses: list[int]) -> dict[str, int]:
        table: dict[str, int] = {}
        for name, index in self._code_labels.items():
            if index >= len(code_addresses):
                # Label bound after the last instruction: points past .text.
                table[name] = self.text_base + sum(
                    instruction_length(i) for i in self._instructions)
            else:
                table[name] = code_addresses[index]
        data_end = self.data_base + len(self._data)
        bss_base = (data_end + layout.WORD - 1) & ~(layout.WORD - 1)
        for name, offset in self._data_labels.items():
            table[name] = self.data_base + offset
        for name, offset in self._bss_labels.items():
            table[name] = bss_base + offset
        for name, slot in self._import_slots.items():
            table[name] = slot
        return table

    def _resolve(self, ins: Instruction, table: dict[str, int]) -> Instruction:
        if not any(isinstance(op, Label)
                   or (isinstance(op, Mem) and isinstance(op.disp, Label))
                   for op in ins.operands):
            return ins
        new_ops = []
        for op in ins.operands:
            if isinstance(op, Label):
                new_ops.append(Imm(self._lookup(op, table)))
            elif isinstance(op, Mem) and isinstance(op.disp, Label):
                new_ops.append(Mem(base=op.base, index=op.index,
                                   scale=op.scale,
                                   disp=self._lookup(op.disp, table)))
            else:
                new_ops.append(op)
        return Instruction(ins.opcode, tuple(new_ops))

    def _lookup(self, label: Label, table: dict[str, int]) -> int:
        try:
            addr = table[label.name]
        except KeyError:
            raise AssemblyError(f"undefined label {label.name!r}") from None
        if isinstance(label, LabelRef):
            addr += label.offset
        return addr

    @property
    def bss_base(self) -> int:
        """Base address .bss will get (valid once data directives are done)."""
        data_end = self.data_base + len(self._data)
        return (data_end + layout.WORD - 1) & ~(layout.WORD - 1)
