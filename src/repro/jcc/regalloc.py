"""Linear-scan register allocation for jcc.

Pools (disjoint by construction from every physically-referenced register:
argument registers, rax/xmm0 returns, rsp, and the Janus-reserved r14/r15):

* int/pointer vregs: callee-saved {rbx, rbp, r12, r13} then caller-saved
  {r10}; vregs live across a call must take a callee-saved register or
  spill.
* double vregs: {xmm8..xmm13} (all caller-saved, as in the SysV ABI — any
  double live across a call spills, which is realistic spill traffic).

Scratch registers for spill shuttling: rax & r11 (int), xmm14 & xmm15
(double).  Spill slots live in the function frame above the reserved
(O0-local / splat-buffer) area.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.isa.instructions import Instruction, Opcode as O
from repro.isa.operands import Label, Mem, Reg
from repro.isa.registers import R
from repro.jcc.codegen import FunctionCode, VREG_BASE

INT_POOL_CALLEE = (R.rbx, R.rbp, R.r12, R.r13)
INT_POOL_CALLER = (R.r10,)
FLOAT_POOL = tuple(R.xmm8 + k for k in range(6))
INT_SCRATCH = (R.rax, R.r11)
FLOAT_SCRATCH = (R.xmm14, R.xmm15)

CALLEE_SAVED_POOL = frozenset(INT_POOL_CALLEE)

# Opcodes after which control never falls through to the next instruction.
_BLOCK_ENDS = (O.JMP, O.RET, O.HLT)


class AllocationError(Exception):
    """Raised when rewriting produced an inconsistent stream."""


def _is_vreg(reg_id: int) -> bool:
    return reg_id >= VREG_BASE


def _is_float_vreg(reg_id: int) -> bool:
    return reg_id >= VREG_BASE and (reg_id - VREG_BASE) % 2 == 1


@dataclass
class Interval:
    vreg: int
    start: int
    end: int
    crosses_call: bool = False
    # Result: either a physical register or a spill slot (word index).
    phys: int | None = None
    slot: int | None = None

    @property
    def is_float(self) -> bool:
        return _is_float_vreg(self.vreg)


@dataclass
class Allocation:
    """The rewritten stream plus frame layout facts."""

    stream: list
    frame_words: int
    used_callee_saved: list


def vreg_uses_defs(stream: list) -> list:
    """Each stream item's (vreg uses, vreg defs); ``None`` for labels."""
    use_def: list = []
    for kind, item in stream:
        if kind != "ins":
            use_def.append(None)
            continue
        use_def.append(({r for r in item.reg_uses() if r >= VREG_BASE},
                        {r for r in item.reg_defs() if r >= VREG_BASE}))
    return use_def


def build_intervals(stream: list, use_def: list) -> dict[int, Interval]:
    """Liveness per basic block, then each vreg's extent over the stream.

    Blocks start at labels and end after a jump, conditional branch,
    ``ret`` or ``hlt``.  A vreg live into a block touches the
    block's first position, one live out of it touches its last position,
    and its uses and defs touch their own positions; ``start``/``end`` are
    the least and greatest positions touched.  ``crosses_call`` marks an
    interval with a call strictly inside it.
    """
    # Blocks as lists of instruction positions, in stream order.  Every
    # label starts a block and names the index of that block.
    blocks: list[list[int]] = []
    label_block: dict[str, int] = {}
    open_block = False
    for position, (kind, item) in enumerate(stream):
        if kind == "label":
            label_block[item] = len(blocks)
            open_block = False
            continue
        if not open_block:
            blocks.append([])
            open_block = True
        blocks[-1].append(position)
        if item.opcode in _BLOCK_ENDS or item.is_cond_branch:
            open_block = False

    successors: list[list[int]] = []
    gens: list[set] = []
    kills: list[set] = []
    for index, positions in enumerate(blocks):
        last = stream[positions[-1]][1]
        succs = []
        if last.opcode not in _BLOCK_ENDS:
            succs.append(index + 1)
        if last.opcode is O.JMP or last.is_cond_branch:
            operand = last.operands[0]
            if isinstance(operand, Label) and operand.name in label_block:
                succs.append(label_block[operand.name])
        # Falling or branching past the last instruction reaches no block.
        successors.append([succ for succ in succs if succ < len(blocks)])
        gen: set = set()
        kill: set = set()
        for position in reversed(positions):
            uses, defs = use_def[position]
            gen -= defs
            gen |= uses
            kill |= defs
        gens.append(gen)
        kills.append(kill)

    # -- live-in: least fixpoint by a worklist over blocks -------------------
    predecessors: list[list[int]] = [[] for _ in blocks]
    for index, succs in enumerate(successors):
        for succ in succs:
            predecessors[succ].append(index)
    live_in: list[set] = [set() for _ in blocks]
    live_out: list[set] = [set() for _ in blocks]
    worklist = list(range(len(blocks)))
    queued = [True] * len(blocks)
    while worklist:
        index = worklist.pop()
        queued[index] = False
        out: set = set()
        for succ in successors[index]:
            out |= live_in[succ]
        live_out[index] = out
        new_in = gens[index] | (out - kills[index])
        if new_in != live_in[index]:
            live_in[index] = new_in
            for pred in predecessors[index]:
                if not queued[pred]:
                    queued[pred] = True
                    worklist.append(pred)

    # -- extents: positions only grow, so start is the first touch ----------
    start: dict[int, int] = {}
    end: dict[int, int] = {}
    for index, positions in enumerate(blocks):
        first = positions[0]
        for vreg in live_in[index]:
            start.setdefault(vreg, first)
            end[vreg] = first
        for position in positions:
            uses, defs = use_def[position]
            for vreg in uses | defs:
                start.setdefault(vreg, position)
                end[vreg] = position
        last = positions[-1]
        for vreg in live_out[index]:
            start.setdefault(vreg, last)
            end[vreg] = last

    calls = [position for position, (kind, item) in enumerate(stream)
             if kind == "ins" and item.opcode in (O.CALL, O.CALLI)]
    intervals: dict[int, Interval] = {}
    for vreg, first in start.items():
        last = end[vreg]
        after = bisect_right(calls, first)
        intervals[vreg] = Interval(
            vreg=vreg, start=first, end=last,
            crosses_call=after < len(calls) and calls[after] < last)
    return intervals


def allocate(code: FunctionCode) -> Allocation:
    """Run liveness, build intervals, allocate, rewrite."""
    stream = code.stream
    use_def = vreg_uses_defs(stream)
    intervals = build_intervals(stream, use_def)

    # -- linear scan ------------------------------------------------------------------
    spill_base = code.reserved_frame_words
    next_spill = spill_base
    used_callee: set[int] = set()
    ordered = sorted(intervals.values(), key=lambda iv: (iv.start, iv.vreg))
    active: list[Interval] = []

    def expire(position: int) -> None:
        active[:] = [iv for iv in active if iv.end >= position]

    def free_registers(interval: Interval) -> list[int]:
        taken = {iv.phys for iv in active if iv.phys is not None}
        if interval.is_float:
            pool = FLOAT_POOL
            if interval.crosses_call:
                return []  # no callee-saved xmm: must spill
            return [r for r in pool if r not in taken]
        if interval.crosses_call:
            pool = INT_POOL_CALLEE
        else:
            pool = INT_POOL_CALLEE + INT_POOL_CALLER
        return [r for r in pool if r not in taken]

    for interval in ordered:
        expire(interval.start)
        candidates = free_registers(interval)
        if candidates:
            interval.phys = candidates[0]
            if interval.phys in CALLEE_SAVED_POOL:
                used_callee.add(interval.phys)
            active.append(interval)
        else:
            interval.slot = next_spill
            next_spill += 1

    assignment = {iv.vreg: iv for iv in intervals.values()}

    # -- rewrite ------------------------------------------------------------------------
    new_stream: list = []
    for item, uses_defs in zip(stream, use_def):
        if uses_defs is None:
            new_stream.append(item)
            continue
        new_stream.extend(("ins", rewritten) for rewritten
                          in _rewrite(item[1], *uses_defs, assignment))
    return Allocation(stream=new_stream, frame_words=next_spill,
                      used_callee_saved=sorted(used_callee))


def _rewrite(ins: Instruction, uses: set, defs: set,
             assignment: dict) -> list[Instruction]:
    """Map vregs to physical registers; emit spill loads/stores."""
    if not uses and not defs:
        return [ins]
    mapping: dict[int, int] = {}
    preloads: list[Instruction] = []
    poststores: list[Instruction] = []
    int_scratch = iter(INT_SCRATCH)
    float_scratch = iter(FLOAT_SCRATCH)

    for vreg in sorted(uses | defs):
        interval = assignment[vreg]
        if interval.phys is not None:
            mapping[vreg] = interval.phys
            continue
        # Spilled: shuttle through a scratch register.
        try:
            scratch = next(float_scratch if interval.is_float
                           else int_scratch)
        except StopIteration:
            return _rewrite_with_lea(ins, uses, defs, assignment)
        mapping[vreg] = scratch
        slot_mem = Mem(base=R.rsp, disp=8 * interval.slot)
        mov = O.MOVSD if interval.is_float else O.MOV
        if vreg in uses:
            preloads.append(Instruction(mov, (Reg(scratch), slot_mem)))
        if vreg in defs:
            poststores.append(Instruction(mov, (slot_mem, Reg(scratch))))

    new_ops = []
    for operand in ins.operands:
        if isinstance(operand, Reg) and operand.id in mapping:
            new_ops.append(Reg(mapping[operand.id]))
        elif isinstance(operand, Mem):
            base = mapping.get(operand.base, operand.base)
            index = mapping.get(operand.index, operand.index)
            if base != operand.base or index != operand.index:
                new_ops.append(Mem(base=base, index=index,
                                   scale=operand.scale, disp=operand.disp))
            else:
                new_ops.append(operand)
        else:
            new_ops.append(operand)
    rewritten = Instruction(ins.opcode, tuple(new_ops))
    return preloads + [rewritten] + poststores


def _rewrite_with_lea(ins: Instruction, uses: set, defs: set,
                      assignment: dict) -> list[Instruction]:
    """Fallback for instructions with three spilled int operands: fold the
    memory operand's address into one scratch with an LEA first."""
    mem_positions = [i for i, op in enumerate(ins.operands)
                     if isinstance(op, Mem)]
    if len(mem_positions) != 1:
        raise AllocationError(f"cannot rewrite spilled {ins!r}")
    mem = ins.operands[mem_positions[0]]
    out: list[Instruction] = []
    addr_scratch, value_scratch = INT_SCRATCH

    def load_spill(vreg: int, scratch: int) -> None:
        interval = assignment[vreg]
        if interval.phys is not None:
            out.append(Instruction(O.MOV, (Reg(scratch),
                                           Reg(interval.phys))))
        else:
            out.append(Instruction(
                O.MOV, (Reg(scratch),
                        Mem(base=R.rsp, disp=8 * interval.slot))))

    load_spill(mem.base, addr_scratch)
    load_spill(mem.index, value_scratch)
    out.append(Instruction(O.LEA, (
        Reg(addr_scratch),
        Mem(base=addr_scratch, index=value_scratch, scale=mem.scale,
            disp=mem.disp))))
    folded = Mem(base=addr_scratch, disp=0)
    remaining = {}
    for operand in ins.operands:
        if isinstance(operand, Reg) and _is_vreg(operand.id):
            remaining[operand.id] = value_scratch
    new_ops = []
    poststores: list[Instruction] = []
    for i, operand in enumerate(ins.operands):
        if i == mem_positions[0]:
            new_ops.append(folded)
        elif isinstance(operand, Reg) and operand.id in remaining:
            interval = assignment[operand.id]
            scratch = remaining[operand.id]
            if operand.id in uses:
                if interval.phys is not None:
                    out.append(Instruction(O.MOV, (Reg(scratch),
                                                   Reg(interval.phys))))
                else:
                    out.append(Instruction(
                        O.MOV, (Reg(scratch),
                                Mem(base=R.rsp, disp=8 * interval.slot))))
            if operand.id in defs:
                if interval.phys is not None:
                    poststores.append(Instruction(
                        O.MOV, (Reg(interval.phys), Reg(scratch))))
                else:
                    poststores.append(Instruction(
                        O.MOV, (Mem(base=R.rsp, disp=8 * interval.slot),
                                Reg(scratch))))
            new_ops.append(Reg(scratch))
        else:
            new_ops.append(operand)
    out.append(Instruction(ins.opcode, tuple(new_ops)))
    out.extend(poststores)
    return out
