"""Block editor used by rewrite-rule handlers.

A handler never mutates the decoded image; it edits a translation-time copy
of the block.  The editor keeps the original application address attached to
every instruction (inserted pseudo-instructions inherit the address of their
anchor), which is how several rules can target the same instruction and how
the cache stays transparent to the application (paper Fig. 2b).
"""

from __future__ import annotations

from repro.isa.instructions import Instruction, Opcode
from repro.isa.operands import Imm
from repro.dbm.blocks import Block


class EditError(Exception):
    """Raised when a rule targets an instruction missing from the block."""


class BlockEditor:
    """Mutable view of one block during translation."""

    def __init__(self, block: Block) -> None:
        self.start = block.start
        self.end = block.end
        self.instructions: list[Instruction] = list(block.instructions)
        self._preludes: set = set()
        self._anchor_counts: dict[int, int] = {}
        self._cycle_credit = 0

    # -- queries ---------------------------------------------------------

    def index_of(self, address: int) -> int:
        """Index of the *original* instruction at an application address.

        Inserted pseudo-instructions inherit their anchor's address but
        have size 0; they are never targets of further rules.
        """
        for i, ins in enumerate(self.instructions):
            if ins.address == address and ins.size:
                return i
        raise EditError(f"no instruction at {address:#x} in block "
                        f"{self.start:#x}")

    def instruction_at(self, address: int) -> Instruction:
        return self.instructions[self.index_of(address)]

    # -- edits -------------------------------------------------------------

    def insert_before(self, address: int, ins: Instruction) -> None:
        index = self.index_of(address)
        ins.address = address
        ins.size = 0  # occupies no application bytes
        self.instructions.insert(index, ins)

    def insert_at_start(self, ins: Instruction) -> None:
        ins.address = self.start
        ins.size = 0
        self.instructions.insert(0, ins)

    def insert_at_anchor(self, address: int, ins: Instruction) -> None:
        """Insert at an anchor instruction: before it when it is a control
        transfer, after it otherwise; repeated inserts keep their order."""
        index = self.index_of(address)
        anchor = self.instructions[index]
        if anchor.is_control:
            self.insert_before(address, ins)
            return
        count = self._anchor_counts.get(address, 0)
        self._anchor_counts[address] = count + 1
        ins.address = address
        ins.size = 0
        self.instructions.insert(index + 1 + count, ins)

    def ensure_prelude(self, key, ins: Instruction) -> None:
        """Insert ``ins`` at block start once per (key) per block."""
        if key in self._preludes:
            return
        self._preludes.add(key)
        self.insert_at_start(ins)

    def replace(self, address: int, new_ins: Instruction) -> None:
        index = self.index_of(address)
        old = self.instructions[index]
        new_ins.address = old.address
        new_ins.size = old.size
        self.instructions[index] = new_ins

    def rtcall(self, rtcall_id: int, arg: int = 0) -> Instruction:
        return Instruction(Opcode.RTCALL, (Imm(int(rtcall_id)), Imm(arg)))

    def credit_cycles(self, cycles: int) -> None:
        """Reduce the block's per-execution cost by ``cycles``.

        Used by rules whose effect is a modelled saving rather than a code
        change the static cost can see (e.g. a PREFETCH hint turning a
        covered access into a cache hit).  Applied once in :meth:`finish`,
        floored so a block never goes non-positive.
        """
        self._cycle_credit += cycles

    def finish(self) -> Block:
        block = Block(start=self.start, instructions=self.instructions,
                      end=self.end, cost=0)
        block.recompute_cost()
        if self._cycle_credit:
            block.cost = max(1, block.cost - self._cycle_credit)
        return block
