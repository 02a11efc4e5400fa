"""Basic-block containers shared by the native executor and the DBM.

A :class:`Block` is the unit of translation: instructions from one entry
address up to (and including) the first control-transfer instruction.  The
DBM stores *modified* blocks in its code caches; the native executor stores
unmodified ones.  ``cost`` is the static cycle cost of executing the whole
block once, precomputed so the interpreter charges cycles in O(1) per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.costs import instruction_cycles
from repro.isa.decoder import decode_instruction
from repro.isa.instructions import Instruction
from repro.dbm.jit import translation_memo


@dataclass
class Block:
    """A translated basic block ready for execution."""

    start: int
    instructions: list[Instruction]
    end: int  # fall-through address (address after the last instruction)
    cost: int = 0
    # Trace-cache tier runners, never compared.  A code cache serves one
    # tier (repro.dbm.tracecache): ``jit`` is the block runner
    # (repro.dbm.jit.compile_block_fn) — the fast runner in the main
    # thread's cache, which in a run with an access log also appends
    # every Mem-operand access while a recording window is live; the
    # shadow runner in a parallel worker's cache, which records raw
    # events into the worker's ShadowSink (repro.dbm.shadow) and also
    # runs the block inside an open transaction.
    jit: object = field(default=None, repr=False, compare=False)
    # Superblock tier runner (repro.dbm.superblock): the whole hot loop
    # body stitched into one compiled function with side-exit guards,
    # of the same tier as ``jit``.  Only ever entered from the
    # dispatcher's fast path.
    jit_super: object = field(default=None, repr=False, compare=False)
    # Set at the first entry, which runs through the reference dispatch:
    # ``jit`` is compiled only when the block is entered again.
    entered: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.cost:
            self.recompute_cost()

    def recompute_cost(self) -> None:
        self.cost = sum(instruction_cycles(i) for i in self.instructions)

    @property
    def terminator(self) -> Instruction:
        return self.instructions[-1]

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<block {self.start:#x} n={len(self.instructions)}>"


def discover_block(process, pc: int, stop_addresses=frozenset()) -> Block:
    """Decode a basic block starting at ``pc`` from the process image.

    Decoding stops after the first control-transfer instruction, or *before*
    any address in ``stop_addresses`` (the DBM splits blocks at addresses
    that carry rewrite rules targeting block entries).  Each instruction
    is decoded once per image (:func:`~repro.dbm.jit.translation_memo`),
    whatever stop addresses a run splits its blocks at.
    """
    data, base = process.code_at(pc)
    memo = translation_memo(process)
    instructions: list[Instruction] = []
    cost = 0
    addr = pc
    while True:
        # The decoded instructions themselves are never mutated (a
        # BlockEditor inserts new ones into its copy of the list), so the
        # memo shares them between blocks.
        key = ("ins", base, addr)
        decoded = memo.get(key)
        if decoded is None:
            ins = decode_instruction(data, addr - base, addr)
            decoded = memo[key] = (ins, instruction_cycles(ins))
        ins, cycles = decoded
        instructions.append(ins)
        cost += cycles
        addr += ins.size
        if ins.is_control:
            break
        if addr in stop_addresses:
            break
        if addr - base >= len(data):
            break
    return Block(start=pc, instructions=instructions, end=addr, cost=cost)
