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
    # Trace-cache tier runners (see repro.dbm.jit.compile_block_fn),
    # never compared: the fast variant (no open transaction or recording
    # window; may link) and the recording variant (every
    # Mem-operand access appended to the run's access log while a
    # recording window is live).
    jit_fast: object = field(default=None, repr=False, compare=False)
    jit_rec: object = field(default=None, repr=False, compare=False)
    # Shadow variant: fast-tier codegen with the parallel runtime's
    # shadow-memory filter inlined and raw events appended to the
    # worker's ShadowSink (repro.dbm.shadow); jit_tx holds the dynamic
    # shadow form run when the block is entered with a transaction open.
    # Built per worker thread (the filter bounds and the sink are bound
    # in the runner's namespace; the source and its code object are
    # shared across workers), so these slots live in the per-thread
    # cache's blocks only.
    jit_shadow: object = field(default=None, repr=False, compare=False)
    jit_tx: object = field(default=None, repr=False, compare=False)
    # Superblock tier runner (repro.dbm.superblock): the whole hot loop
    # body stitched into one compiled function with side-exit guards.
    # Only ever entered from the dispatcher's fast path.
    jit_super: object = field(default=None, repr=False, compare=False)
    jit_super_shadow: object = field(default=None, repr=False, compare=False)

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
    that carry rewrite rules targeting block entries).  The decode is
    memoised per image (:func:`~repro.dbm.jit.translation_memo`).
    """
    data, base = process.code_at(pc)
    memo = translation_memo(process)
    # frozenset() of a frozenset is the same object: O(1) for the DBM,
    # which passes one frozenset for the whole run.
    key = ("decode", data, base, pc, frozenset(stop_addresses))
    decoded = memo.get(key)
    if decoded is None:
        instructions: list[Instruction] = []
        addr = pc
        while True:
            ins = decode_instruction(data, addr - base, addr)
            instructions.append(ins)
            addr += ins.size
            if ins.is_control:
                break
            if addr in stop_addresses:
                break
            if addr - base >= len(data):
                break
        block = Block(start=pc, instructions=instructions, end=addr)
        memo[key] = (tuple(instructions), addr, block.cost)
        return block
    # A fresh Block over a fresh list: translation edits and runner slots
    # never reach the memo (the decoded instructions themselves are
    # never mutated; a BlockEditor inserts new ones into its copy).
    instructions, end, cost = decoded
    return Block(start=pc, instructions=list(instructions), end=end,
                 cost=cost)
