"""Control-flow graph recovery over the disassembly.

Blocks are intraprocedural; a ``call`` does not terminate a block (it is an
ordinary instruction with clobber side-effects for the data-flow phases),
but direct jumps to *other function entries* are treated as tail calls and
become exit edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import Instruction, Opcode
from repro.analysis.disasm import Disassembly


@dataclass
class BasicBlock:
    """One analysis-side basic block."""

    start: int
    instructions: list[Instruction]
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)

    @property
    def end(self) -> int:
        last = self.instructions[-1]
        return last.address + last.size

    @property
    def terminator(self) -> Instruction:
        return self.instructions[-1]

    def __repr__(self) -> str:
        return f"<bb {self.start:#x} n={len(self.instructions)}>"


@dataclass
class FunctionCFG:
    """The recovered CFG of one function."""

    entry: int
    blocks: dict[int, BasicBlock]
    has_indirect: bool = False
    has_syscall: bool = False
    # call-site address -> callee entry (internal direct calls)
    internal_calls: dict[int, int] = field(default_factory=dict)
    # call-site address -> import name (calls through the PLT)
    external_calls: dict[int, str] = field(default_factory=dict)
    # filled by the stack-tracking pass: block start -> rsp delta on entry,
    # or None when inconsistent/unknown.
    rsp_on_entry: dict[int, int] | None = None

    @property
    def exit_blocks(self) -> list[BasicBlock]:
        return [b for b in self.blocks.values() if not b.succs]

    def reverse_postorder(self) -> list[int]:
        """Block starts in reverse postorder from the entry."""
        seen: set[int] = set()
        order: list[int] = []

        def visit(start: int) -> None:
            stack = [(start, iter(self.blocks[start].succs))]
            seen.add(start)
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if succ not in seen and succ in self.blocks:
                        seen.add(succ)
                        stack.append((succ, iter(self.blocks[succ].succs)))
                        advanced = True
                        break
                if not advanced:
                    order.append(node)
                    stack.pop()

        visit(self.entry)
        order.reverse()
        return order


def _find_leaders(dis: Disassembly) -> set[int]:
    leaders = set(dis.function_entries)
    for addr, ins in dis.instructions.items():
        if ins.is_cond_branch or ins.opcode is Opcode.JMP:
            target = ins.branch_target()
            if target is not None and target in dis.instructions:
                leaders.add(target)
            leaders.add(addr + ins.size)
        elif ins.is_indirect or ins.is_ret or ins.opcode is Opcode.HLT:
            leaders.add(addr + ins.size)
    return leaders


def build_cfgs(dis: Disassembly) -> dict[int, FunctionCFG]:
    """Recover one CFG per discovered function."""
    leaders = _find_leaders(dis)
    # Chop the instruction stream into raw blocks at leader addresses.
    raw_blocks: dict[int, BasicBlock] = {}
    for leader in sorted(leaders):
        if leader not in dis.instructions:
            continue
        instructions = []
        addr = leader
        while addr in dis.instructions:
            ins = dis.instructions[addr]
            instructions.append(ins)
            addr += ins.size
            if ins.is_control and not ins.is_call:
                break
            if addr in leaders:
                break
        raw_blocks[leader] = BasicBlock(leader, instructions)

    functions: dict[int, FunctionCFG] = {}
    for entry in sorted(dis.function_entries):
        if entry not in raw_blocks:
            continue
        functions[entry] = _build_function(entry, raw_blocks, dis)
    return functions


def _build_function(entry: int, raw_blocks: dict[int, BasicBlock],
                    dis: Disassembly) -> FunctionCFG:
    cfg = FunctionCFG(entry=entry, blocks={})
    worklist = [entry]
    while worklist:
        start = worklist.pop()
        if start in cfg.blocks or start not in raw_blocks:
            continue
        raw = raw_blocks[start]
        # Blocks are shared between overlapping functions in principle; give
        # each function an independent copy so edge lists stay per-function.
        block = BasicBlock(raw.start, raw.instructions)
        cfg.blocks[start] = block
        term = block.terminator
        succs: list[int] = []
        if term.is_cond_branch:
            target = term.branch_target()
            if target is not None and target in raw_blocks:
                succs.append(target)
            succs.append(block.end)
        elif term.opcode is Opcode.JMP:
            target = term.branch_target()
            if target is None:
                cfg.has_indirect = True
            elif target in dis.function_entries and target != entry:
                pass  # tail call: function exit
            elif target in raw_blocks:
                succs.append(target)
        elif term.is_indirect:
            cfg.has_indirect = True
        elif term.is_ret or term.opcode is Opcode.HLT:
            pass
        else:
            # Fell through to the next leader (including after calls).
            if block.end in raw_blocks:
                succs.append(block.end)
        block.succs = succs
        worklist.extend(succs)
        # Record per-instruction facts.
        for ins in block.instructions:
            if ins.opcode is Opcode.SYSCALL:
                cfg.has_syscall = True
            elif ins.opcode is Opcode.CALL:
                name = dis.external_call_sites.get(ins.address)
                if name is not None:
                    cfg.external_calls[ins.address] = name
                else:
                    target = ins.branch_target()
                    if target is not None:
                        cfg.internal_calls[ins.address] = target
            elif ins.opcode is Opcode.CALLI:
                cfg.has_indirect = True
    for block in cfg.blocks.values():
        for succ in block.succs:
            if succ in cfg.blocks:
                cfg.blocks[succ].preds.append(block.start)
    return cfg
