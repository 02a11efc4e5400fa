"""Superblock tier: hot loop bodies compiled as one function.

The trace-cache tier (:mod:`repro.dbm.jit`) links per-block runners, so a
hot loop — a single self-looping block or a body spanning several blocks
(an ``if`` in the body, a call, a nested loop exit path) — still pays a
dispatcher round-trip and a full register-file round-trip at every block
boundary.  This module adds the classic tracing-JIT step on top, and is
the only tier that keeps a hot loop inside one compiled function —
DynamoRIO's trace building, PyPy's bridges, in miniature:

* the dispatcher (:mod:`repro.dbm.tracecache`) counts back edges (a
  self-loop's included); when a loop head crosses
  ``Interpreter.superblock_threshold`` it asks
  :func:`maybe_form_superblock` for a runner;
* formation walks the code cache from the head along the *biased* path —
  the most-recently-taken successor of each conditional branch — stitching
  blocks until the walk closes back on the head (a single-entry loop) or
  gives up; only edges the dispatcher has already observed are followed,
  so formation never translates new blocks (and never charges translation
  cycles);
* :class:`_SuperblockCompiler` emits ONE Python function for the whole
  stitched body: general-purpose registers live in Python locals for the
  superblock's lifetime, constants and copies propagate across the
  stitched block boundaries, and flag stores that are overwritten before
  any read are dropped;
* every place control can leave the superblock is a **guarded exit** that
  restores full architectural state (spills the promoted registers,
  ``ctx.flags``, and the cycle/instruction charge for the iterations and
  blocks actually entered — folded to constants per exit site) before
  returning to the block tier.  Superblocks are fast-path-only: the
  legality predicate the dispatcher uses for the fast block variant (no
  open transaction; a recording window only opens at an RTCALL, which no
  superblock contains) is re-checked at every loop back edge, and a
  violation deopts to the block tier at a clean block boundary.

Exit kinds and their contracts (DESIGN.md section 5):

``side_exits``
    a branch guard failed or a return address was mispredicted; state is
    spilled and control links/returns to the correct successor block.
``bailouts``
    the trace budget (``Interpreter.trace_budget``) ran out; state is
    spilled and the head block itself is returned so the dispatcher can
    re-check instruction limits.
``deopts``
    the legality predicate failed at a back edge (a transaction opened
    mid-superblock, or a shadow superblock's sink was swapped or
    removed); identical contract to a bailout — the dispatcher
    re-dispatches the head on the correct tier.

Raising instructions (division by zero, negative sqrt) spill all promoted
state *before* raising, so a ``JXRuntimeError`` observes the same
architectural state the block tier would leave.
"""

from __future__ import annotations

import re
import struct

from repro.isa.instructions import CONDITION_OF, Opcode
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import STACK_REG, XMM_BASE
from repro.dbm.jit import _BlockCompiler, _CMOV, _COND_EXPR, _JCC, _PACKED
from repro.dbm.machine import HALT_ADDRESS
from repro.dbm.memory import s64
from repro.telemetry.core import RegistryView

# Back-edge count at which the dispatcher attempts superblock formation
# for a loop head.
SUPERBLOCK_THRESHOLD = 16

# Formation limits: blocks stitched / total instructions per superblock.
MAX_SUPERBLOCK_BLOCKS = 16
MAX_SUPERBLOCK_INSTRUCTIONS = 384

_NEG_COND = {"e": "ne", "ne": "e", "l": "ge", "ge": "l", "le": "g", "g": "le"}

# Opcodes that write the flags word (sign of the result).
_FLAG_WRITERS = frozenset((
    Opcode.ADD, Opcode.SUB, Opcode.IMUL, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.SHL, Opcode.SHR, Opcode.SAR, Opcode.INC, Opcode.DEC, Opcode.NEG,
    Opcode.CMP, Opcode.TEST, Opcode.UCOMISD,
))

# Opcodes whose generated code can raise (the raise path spills flags), so
# a preceding flag store must not be eliminated across them.
_RAISING = frozenset((Opcode.IDIV, Opcode.IMOD, Opcode.DIVSD, Opcode.SQRTSD,
                      Opcode.DIVPD, Opcode.VDIVPD))

# Opcodes that read flags, or terminators whose guarded exits spill them.
_FLAG_READERS = _JCC | _CMOV | _RAISING | frozenset((Opcode.RET,))

_STACK_OPS = frozenset((Opcode.PUSH, Opcode.POP, Opcode.CALL, Opcode.CALLI,
                        Opcode.RET))

# Opcodes that (may) write their first operand when it is a GPR; used to
# invalidate the constant/copy environment after an unfolded instruction.
_REG0_WRITERS = frozenset((
    Opcode.MOV, Opcode.LEA, Opcode.ADD, Opcode.SUB, Opcode.IMUL,
    Opcode.IDIV, Opcode.IMOD, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.SHL, Opcode.SHR, Opcode.SAR, Opcode.INC, Opcode.DEC,
    Opcode.NEG, Opcode.NOT, Opcode.POP, Opcode.CVTTSD2SI,
)) | _CMOV

_NO = object()

# Bound struct codecs for inline f64<->i64 bit-casts: the generated hot
# path calls these C-level methods directly instead of going through the
# Python-level wrappers in repro.dbm.memory (one frame per access adds up
# at superblock iteration rates).
_PACK_Q = struct.Struct("<q").pack
_UNPACK_D = struct.Struct("<d").unpack
_PACK_D = struct.Struct("<d").pack
_UNPACK_Q = struct.Struct("<q").unpack


def _sign(value: int) -> int:
    return 1 if value > 0 else (-1 if value < 0 else 0)


class SuperblockStats(RegistryView):
    """Superblock tier observability (``jit.superblock.*`` registry keys).

    ``as_dict()`` prefixes the field names with ``superblock_`` so the
    counters can be merged into the flat ``ExecutionResult.stats`` dict
    next to the legacy ``JITStats`` keys without colliding.
    """

    _NAMESPACE = "jit.superblock"
    _FIELDS = ("formed", "formation_failures", "entries", "side_exits",
               "deopts", "bailouts")

    def as_dict(self) -> dict[str, int]:
        counters = self._registry.counters
        return {f"superblock_{name}":
                counters[f"{self._NAMESPACE}.{name}"]
                for name in self._FIELDS}


def maybe_form_superblock(head, interp, lookup, ctx, last_succ,
                          shadow=False):
    """Try to form and compile a superblock rooted at ``head``.

    ``last_succ`` maps block start -> the most-recently-observed successor
    start, maintained by the dispatcher's fast path; it both biases the
    walk at conditional branches and proves that every block the walk
    visits is already in the code cache.  Returns the compiled runner, or
    ``None`` (counted) when the loop shape is not eligible.

    With ``shadow=True`` the runner additionally records shadow events
    into ``interp.shadow_sink`` (compiled shadow tracking for parallel
    workers; see :mod:`repro.dbm.shadow`) and lands in the block's
    ``jit_super_shadow`` slot.
    """
    from repro.dbm.interp import JXRuntimeError

    segments = _walk(head, interp, lookup, ctx, last_succ, shadow)
    if segments is None:
        interp.sb_stats.formation_failures += 1
        return None
    compiler = _SuperblockCompiler(segments, interp, lookup, JXRuntimeError,
                                   shadow=shadow)
    fn = compiler.build_superblock()
    interp.sb_stats.formed += 1
    return fn


def _walk(head, interp, lookup, ctx, last_succ, shadow=False):
    """Walk the biased path from ``head`` until it closes back on the head.

    Returns ``[(block, plan), ...]`` where ``plan`` describes what the
    compiler must emit at the block's terminator:

    * ``("jcc", exit_pc, cond, biased_taken)`` — guard; exit when the
      branch resolves against the biased direction,
    * ``("jmp",)`` / ``("fall",)`` — unconditional, fall into the next
      segment,
    * ``("call", ret_addr)`` — push the return address and fall through
      into the callee,
    * ``("ret", expected)`` — pop and guard the return address.

    ``None`` when the path is not a single-entry loop the tier can
    compile: indirect terminators, SYSCALL/RTCALL blocks, unobserved
    edges, interior cycles, another loop head's territory, or the size
    budget.
    """
    process = interp.process
    resolve = process.resolve_target if process is not None else _identity
    segments: list = []
    seen: set[int] = set()
    call_stack: list[int] = []
    total = 0
    block = head
    while True:
        if block.start in seen or len(segments) >= MAX_SUPERBLOCK_BLOCKS:
            return None
        slot = block.jit_super_shadow if shadow else block.jit_super
        if block is not head and slot is not None:
            return None  # interior of another hot loop: its own tier owns it
        for ins in block.instructions:
            if ins.opcode in (Opcode.SYSCALL, Opcode.RTCALL):
                return None
        seen.add(block.start)
        total += len(block.instructions)
        if total > MAX_SUPERBLOCK_INSTRUCTIONS:
            return None
        term = block.terminator
        op = term.opcode
        if op in _JCC:
            taken = resolve(term.operands[0].value)
            fall = block.end
            if taken == block.start:
                if block is not head:
                    return None  # interior self-loop
                # Single-block loop: guard the exit edge, spin on taken.
                segments.append((block, ("jcc", fall,
                                         CONDITION_OF[op], True)))
                succ = taken
            else:
                observed = last_succ.get(block.start)
                if observed == taken:
                    plan = ("jcc", fall, CONDITION_OF[op], True)
                    succ = taken
                elif observed == fall:
                    plan = ("jcc", taken, CONDITION_OF[op], False)
                    succ = fall
                else:
                    return None  # edge never observed: no bias to trust
                segments.append((block, plan))
        elif op is Opcode.JMP:
            succ = resolve(term.operands[0].value)
            if succ == block.start:
                # Infinite self-loop: no exit to guard; the dispatcher's
                # per-block limit check bounds it on the block tier.
                return None
            segments.append((block, ("jmp",)))
        elif op is Opcode.CALL:
            succ = resolve(term.operands[0].value)
            call_stack.append(term.address + term.size)
            segments.append((block, ("call", term.address + term.size)))
        elif op is Opcode.RET:
            if not call_stack:
                return None  # returning past the loop: not a loop body
            succ = call_stack.pop()
            segments.append((block, ("ret", succ)))
        elif not term.is_control:
            succ = block.end
            segments.append((block, ("fall",)))
        else:
            return None  # CALLI/JMPI/HLT/SYSCALL terminator
        if succ == head.start and not call_stack:
            return segments
        if succ not in last_succ:
            # The successor block never executed (and transferred) on the
            # fast path: following it could translate cold blocks, which
            # must never happen during formation (cycle accounting).
            return None
        block = lookup(succ, ctx)


def _identity(value: int) -> int:
    return value


def _flag_liveness(segments) -> list[bool]:
    """Per linear instruction: is the flag value after it ever observed?

    A flag store is dead when the next flag event on the (single) path is
    another pure store — no branch guard, conditional move, raising
    instruction, return guard or superblock exit in between.  The value is
    always live across the loop back edge (the bailout/deopt exits spill
    it).
    """
    ops = [ins for block, _plan in segments for ins in block.instructions]
    live = [True] * len(ops)
    after = True
    for index in range(len(ops) - 1, -1, -1):
        op = ops[index].opcode
        live[index] = after
        if op in _FLAG_READERS:
            after = True
        elif op in _FLAG_WRITERS:
            after = False
    return live


# A promoted-local store whose right-hand side is pure (a bare local,
# hoisted register-file cell, or literal) — the only stores the dead-store
# pass may delete.
_PURE_STORE = re.compile(
    r"^(?:    |        )([rx]\d+) = "
    r"(?:[rx]\d+|t|g\[\d+\]|x\[\d+\]|-?\d+(?:\.\d+)?)$")


def _strip_dead_stores(lines: list[str]) -> list[str]:
    """Drop promoted-local stores that are overwritten before any read.

    Register promotion plus copy propagation leaves stores like
    ``r3 = r5`` whose destination is rewritten by the next ALU result
    before anything reads it (every later *use* of the value was folded
    to its source).  A store is provably dead when the next occurrence
    of its local — scanning forward in emission order — is another
    unconditional assignment to it on the superblock's straight-line
    path (8-space indent; deeper indents are conditional guard/wrap
    bodies and count as reads).  Such an assignment dominates all
    later reads, including next-iteration reads across the back edge.
    Anything else (a read, a conditional write, reaching the end of the
    function) keeps the store.  Runs to a fixed point so copy chains
    collapse entirely.
    """
    changed = True
    while changed:
        changed = False
        dead: set[int] = set()
        for i, line in enumerate(lines):
            m = _PURE_STORE.match(line)
            if m is None:
                continue
            name = m.group(1)
            occurrence = re.compile(rf"\b{name}\b")
            kill = f"        {name} = "
            for j in range(i + 1, len(lines)):
                if occurrence.search(lines[j]):
                    if lines[j].startswith(kill) and not occurrence.search(
                            lines[j][len(kill):]):
                        dead.add(i)
                    break
        if dead:
            changed = True
            lines = [line for i, line in enumerate(lines)
                     if i not in dead]
    return lines


class _SuperblockCompiler(_BlockCompiler):
    """Compiles a formed superblock into one generated-Python runner.

    Extends the block compiler with (a) register promotion — every
    general-purpose register the superblock touches becomes a Python
    local ``r<id>`` (and every scalar xmm lane a local ``x<lane>``,
    unless packed ops are present), spilled back to ``ctx.gregs`` /
    ``ctx.fregs`` only at exits, (b) a constant/copy environment
    threaded across the stitched blocks, and (c) dead flag-store
    elimination driven by :func:`_flag_liveness`.

    Cycle/instruction accounting is exit-timed: nothing is accumulated
    per iteration; each exit charges ``completed_iterations *
    per_iteration_cost + prefix`` where both factors are compile-time
    constants and the completed-iteration count falls out of the trace
    budget counter ``n``.
    """

    def __init__(self, segments, interp, lookup, error_type, shadow=False):
        head = segments[0][0]
        super().__init__(head, interp, lookup, error_type, shadow=shadow)
        self.segments = segments
        self.ns["_sb"] = interp.sb_stats
        self.ns["_in"] = interp
        self.ns["_self"] = head
        if shadow:
            # The back-edge legality check compares against the sink the
            # runner was compiled for (the walk rejects RTCALL/SYSCALL, so
            # every shadow superblock is the static form).
            self.ns["_sk"] = interp.shadow_sink
        # Per-instruction recording flag, set at the top of stmt(): False
        # at summarised sites (covered by stride descriptors) and always
        # False outside shadow mode.
        self._site_record = False
        # Inline memory fast path: C-level dict methods and struct codecs.
        # The checked Python-level helpers (_mr/_mw) remain the fallback
        # wherever 8-alignment is not statically provable, preserving the
        # block tier's MemoryFault semantics exactly.
        memory = interp.machine.memory
        self.ns["_wg"] = memory.words.get
        self.ns["_ws"] = memory.words.__setitem__
        self.ns["_pQ"] = _PACK_Q
        self.ns["_uD"] = _UNPACK_D
        self.ns["_pD"] = _PACK_D
        self.ns["_uQ"] = _UNPACK_Q
        self._n_addr = 0
        regs: set[int] = set()
        lanes: set[int] = set()
        for block, _plan in segments:
            for ins in block.instructions:
                op = ins.opcode
                if op in _PACKED:
                    width = ins.lanes
                elif op is Opcode.XORPD and ins.operands \
                        and ins.operands[0] == ins.operands[1]:
                    width = 4  # the zero idiom writes the full register
                else:
                    width = 1
                for operand in ins.operands:
                    t = type(operand)
                    if t is Reg:
                        if operand.id < XMM_BASE:
                            regs.add(operand.id)
                        else:
                            base = (operand.id - XMM_BASE) * 4
                            lanes.update(base + i for i in range(width))
                    elif t is Mem:
                        if operand.base is not None:
                            regs.add(operand.base)
                        if operand.index is not None:
                            regs.add(operand.index)
                if op in _STACK_OPS:
                    regs.add(STACK_REG)
        self.promoted = sorted(regs)
        self.fp_promoted = sorted(lanes)
        self.fp_set = frozenset(lanes)
        self.const: dict[int, int] = {}
        self.copies: dict[int, int] = {}
        # Redundant-load elimination: folded address expression -> local
        # temp holding the loaded value (separate maps for the raw i64
        # and the bit-cast f64 view).  Cleared at every memory write and
        # whenever a register named in the key changes.
        self._iloads: dict[str, str] = {}
        self._floads: dict[str, str] = {}
        self.flag_live: list[bool] = []
        self._flags_live = True
        # (prefix cycles, prefix instructions) charged by an exit inside
        # the current segment, and the per-iteration totals; both are
        # filled in by build_superblock before emission.
        self._prefix = (0, 0)
        self._per = (0, 0, interp.trace_budget)

    # -- promoted register access -------------------------------------------

    def greg(self, rid: int) -> str:
        return f"r{rid}"

    def flane(self, lane: int) -> str:
        return f"x{lane}" if lane in self.fp_set else f"x[{lane}]"

    def fread(self, op, k, ins) -> str:
        if type(op) is Reg:
            lane = (op.id - XMM_BASE) * 4
            if lane in self.fp_set:
                return f"x{lane}"
            return super().fread(op, k, ins)
        expr, aligned = self.mem_ref(op)
        if not aligned:
            return f"_uD(_pQ({self.mem_read(op)}))[0]"
        return self._fload(expr, record=self._site_record)

    def _fload(self, key: str, record: bool = False) -> str:
        name = self._floads.get(key)
        if name is None:
            name = f"mf{self._n_addr}"
            self._n_addr += 1
            if record:
                sa = self.addr_temp()
                self.emit(f"{sa} = {key}")
                self.emit_record(sa, f"_re({sa})")
                self.emit(f"{name} = _uD(_pQ(_wg({sa}, 0)))[0]")
            else:
                self.emit(f"{name} = _uD(_pQ(_wg({key}, 0)))[0]")
            self._floads[key] = name
        return name

    def packed(self, ins, k) -> None:
        # Lane-promoted, inline-memory re-emission of the packed ops; the
        # base compiler's version addresses ``ctx.fregs`` by index/slice
        # and reads memory through the checked Python helpers.
        op = ins.opcode
        lanes = ins.lanes
        dst, src = ins.operands
        is_move = op in (Opcode.MOVAPD, Opcode.VMOVAPD)
        if type(src) is Reg:
            sbase = (src.id - XMM_BASE) * 4
            svals = [self.flane(sbase + i) for i in range(lanes)]
        else:
            expr, aligned = self.mem_ref(src)
            if self._site_record:
                # One base-filtered packed event covers all lanes (the
                # lane loads below must not raw-record individually).
                sa = self.addr_temp()
                self.emit(f"{sa} = {expr}")
                self.emit_record(sa, f"_pre(({sa}, {lanes}))")
            if aligned:
                svals = [self._fload(expr if i == 0 else f"{expr} + {8 * i}")
                         for i in range(lanes)]
            else:
                # Not provably 8-aligned: load through the checked helper,
                # but still land in the promoted lane locals.  The base
                # compiler's packed path writes ctx.fregs directly, which
                # the locals would never observe (stale-lane corruption).
                self.emit(f"a2 = {expr}")
                svals = []
                for i in range(lanes):
                    offset = f" + {8 * i}" if i else ""
                    name = f"mf{self._n_addr}"
                    self._n_addr += 1
                    self.emit(f"{name} = _i2f(_mr(a2{offset}))")
                    svals.append(name)
        if is_move:
            results = svals
        else:
            sym = {Opcode.ADDPD: "+", Opcode.VADDPD: "+",
                   Opcode.SUBPD: "-", Opcode.VSUBPD: "-",
                   Opcode.MULPD: "*", Opcode.VMULPD: "*",
                   Opcode.DIVPD: "/", Opcode.VDIVPD: "/"}[op]
            if sym == "/":
                check = " or ".join(f"{v} == 0.0" for v in svals)
                self.emit(f"if {check}:")
                self.indent += 1
                self.raise_error(
                    f"fp division by zero at {self.addr_of(ins):#x}")
                self.indent -= 1
            dbase = (dst.id - XMM_BASE) * 4
            results = [f"{self.flane(dbase + i)} {sym} {svals[i]}"
                       for i in range(lanes)]
        if type(dst) is Reg:
            dbase = (dst.id - XMM_BASE) * 4
            for i in range(lanes):
                self.emit(f"{self.flane(dbase + i)} = {results[i]}")
            return
        expr, aligned = self.mem_ref(dst)
        if aligned:
            if self._site_record:
                sa = self.addr_temp()
                self.emit(f"{sa} = {expr}")
                self.emit_record(sa, f"_pwe(({sa}, {lanes}))")
                expr = sa
            for i in range(lanes):
                addr = expr if i == 0 else f"{expr} + {8 * i}"
                self.emit(f"_ws({addr}, _uQ(_pD({results[i]}))[0])")
        else:
            self.emit(f"a2 = {expr}")
            if self._site_record:
                self.emit_record("a2", f"_pwe((a2, {lanes}))")
            for i in range(lanes):
                offset = f" + {8 * i}" if i else ""
                self.emit(f"_mw(a2{offset}, _uQ(_pD({results[i]}))[0])")

    def fstore(self, op, k, ins, value) -> None:
        if type(op) is Reg:
            lane = (op.id - XMM_BASE) * 4
            if lane in self.fp_set:
                self.emit(f"x{lane} = {value}")
                return
            super().fstore(op, k, ins, value)
            return
        self.mem_write(op, f"_uQ(_pD({value}))[0]")

    # -- constant / copy environment ----------------------------------------

    def _invalidate(self, rid: int) -> None:
        self.const.pop(rid, None)
        self.copies.pop(rid, None)
        stale = [dst for dst, src in self.copies.items() if src == rid]
        for dst in stale:
            del self.copies[dst]
        # Cached loads whose address mentions the register are stale too.
        mention = re.compile(rf"\br{rid}\b")
        for cache in (self._iloads, self._floads):
            for key in [k for k in cache if mention.search(k)]:
                del cache[key]

    def _set_const(self, rid: int, value: int) -> None:
        self._invalidate(rid)
        self.const[rid] = value

    def _set_copy(self, dst: int, src: int) -> None:
        self._invalidate(dst)
        if dst != src:
            self.copies[dst] = src

    def _const_of(self, op) -> object:
        if type(op) is Imm:
            return op.value
        if type(op) is Reg and op.id < XMM_BASE:
            return self.const.get(op.id, _NO)
        return _NO

    def _invalidate_writes(self, ins) -> None:
        op = ins.opcode
        if op in _STACK_OPS:
            self._invalidate(STACK_REG)
        if op in _REG0_WRITERS and ins.operands:
            dst = ins.operands[0]
            if type(dst) is Reg and dst.id < XMM_BASE:
                self._invalidate(dst.id)

    def iread(self, op, k, ins) -> str:
        t = type(op)
        if t is Reg and op.id < XMM_BASE:
            value = self.const.get(op.id, _NO)
            if value is not _NO:
                return repr(value)
            src = self.copies.get(op.id)
            if src is not None:
                return self.greg(src)
        elif t is Mem:
            return self.mem_read(op)
        return super().iread(op, k, ins)

    def istore(self, op, k, ins, value) -> None:
        if type(op) is Mem:
            self.mem_write(op, value)
            return
        super().istore(op, k, ins, value)

    def mem_ref(self, m: Mem) -> tuple[str, bool]:
        """The folded address expression, and whether it is provably
        8-aligned (every surviving term a multiple of eight)."""
        # Constant base/index registers fold into the displacement and
        # copies read through, so stitched address arithmetic simplifies.
        parts: list[str] = []
        disp = m.disp
        aligned = True
        for rid, scale in ((m.base, 1), (m.index, m.scale)):
            if rid is None:
                continue
            value = self.const.get(rid, _NO)
            if value is not _NO:
                disp += value * scale
                continue
            name = self.greg(self.copies.get(rid, rid))
            parts.append(name if scale == 1 else f"{name}*{scale}")
            if scale % 8:
                aligned = False
        if disp % 8:
            aligned = False
        if disp or not parts:
            parts.append(str(disp))
        return " + ".join(parts), aligned

    def ea(self, m: Mem) -> str:
        return self.mem_ref(m)[0]

    def mem_read(self, m: Mem) -> str:
        expr, aligned = self.mem_ref(m)
        if aligned:
            name = self._iloads.get(expr)
            if name is None:
                name = f"mi{self._n_addr}"
                self._n_addr += 1
                if self._site_record:
                    # A CSE hit needs no re-record: the cache key proves
                    # the same runtime address, which is already in the
                    # raw events, a packed expansion, or a descriptor —
                    # the materialised read set is identical either way.
                    sa = self.addr_temp()
                    self.emit(f"{sa} = {expr}")
                    self.emit_record(sa, f"_re({sa})")
                    self.emit(f"{name} = _wg({sa}, 0)")
                else:
                    self.emit(f"{name} = _wg({expr}, 0)")
                self._iloads[expr] = name
            return name
        name = f"am{self._n_addr}"
        self._n_addr += 1
        self.emit(f"{name} = {expr}")
        if self._site_record:
            self.emit_record(name, f"_re({name})")
        return f"(_wg({name}, 0) if not {name} & 7 else _mr({name}))"

    def mem_write(self, m: Mem, value: str) -> None:
        # Any store may alias any cached load (the tier proves nothing
        # about address disjointness).
        self._iloads.clear()
        self._floads.clear()
        expr, aligned = self.mem_ref(m)
        if aligned:
            if self._site_record:
                # Writes record per execution (the false-sharing charge
                # counts line events per store instruction), so the event
                # append is unconditional at every recordable store site.
                sa = self.addr_temp()
                self.emit(f"{sa} = {expr}")
                self.emit_record(sa, f"_we({sa})")
                self.emit(f"_ws({sa}, {value})")
            else:
                self.emit(f"_ws({expr}, {value})")
            return
        self.emit(f"ad = {expr}")
        if self._site_record:
            self.emit_record("ad", "_we(ad)")
        self.emit("if ad & 7:")
        self.emit(f"    _mw(ad, {value})")
        self.emit(f"_ws(ad, {value})")

    # -- exit-aware emission overrides --------------------------------------

    def set_flags(self, var: str = "t") -> None:
        if self._flags_live:
            super().set_flags(var)

    def raise_error(self, message: str) -> None:
        # A raising exit must observe full architectural state.
        self.emit_spill()
        self.emit(f"raise _err({message!r})")

    def emit_spill(self) -> None:
        for rid in self.promoted:
            self.emit(f"g[{rid}] = r{rid}")
        for lane in self.fp_promoted:
            self.emit(f"x[{lane}] = x{lane}")
        self.emit("ctx.flags = f")
        # completed iterations == budget - n (n decrements at the back
        # edge), so the charge folds to two constants per exit site.
        pcy, pic = self._prefix
        per_cy, per_ic, budget = self._per
        self.emit(f"ctx.cycles += {pcy + per_cy * budget} - {per_cy}*n")
        self.emit(
            f"ctx.instructions += {pic + per_ic * budget} - {per_ic}*n")

    def emit_side_exit(self, pc: int) -> None:
        self.emit_spill()
        self.emit("_sb.side_exits += 1")
        self.emit_link_return(pc)

    # -- constant folding ----------------------------------------------------

    def stmt(self, ins, k) -> None:
        op = ins.opcode
        ops = ins.operands
        self._site_record = self.shadow \
            and self.addr_of(ins) not in self.summarised
        dst = ops[0] if ops else None
        dst_gpr = dst is not None and type(dst) is Reg \
            and dst.id < XMM_BASE
        if op is Opcode.MOV and dst_gpr:
            src = ops[1]
            value = self._const_of(src)
            self.emit(f"{self.greg(dst.id)} = "
                      f"{self.iread(src, k, ins)}")
            if value is not _NO:
                self._set_const(dst.id, value)
            elif type(src) is Reg and src.id < XMM_BASE:
                self._set_copy(dst.id, self.copies.get(src.id, src.id))
            else:
                self._invalidate(dst.id)
            return
        if op in (Opcode.ADD, Opcode.SUB, Opcode.IMUL) and dst_gpr:
            a = self.const.get(dst.id, _NO)
            b = self._const_of(ops[1])
            if a is not _NO and b is not _NO:
                if op is Opcode.ADD:
                    t = a + b
                elif op is Opcode.SUB:
                    t = a - b
                else:
                    t = a * b
                t = s64(t)
                self.emit(f"{self.greg(dst.id)} = {t!r}")
                if self._flags_live:
                    self.emit(f"f = {_sign(t)}")
                self._set_const(dst.id, t)
                return
            super().stmt(ins, k)
            self._invalidate(dst.id)
            return
        if op in (Opcode.INC, Opcode.DEC) and dst_gpr:
            a = self.const.get(dst.id, _NO)
            if a is not _NO:
                t = s64(a + 1 if op is Opcode.INC else a - 1)
                self.emit(f"{self.greg(dst.id)} = {t!r}")
                if self._flags_live:
                    self.emit(f"f = {_sign(t)}")
                self._set_const(dst.id, t)
                return
            super().stmt(ins, k)
            self._invalidate(dst.id)
            return
        if op in (Opcode.CMP, Opcode.TEST):
            a = self._const_of(ops[0])
            b = self._const_of(ops[1])
            if a is not _NO and b is not _NO:
                t = a - b if op is Opcode.CMP else a & b
                if self._flags_live:
                    self.emit(f"f = {_sign(t)}")
                return
            super().stmt(ins, k)
            return
        if op is Opcode.XORPD and ops and ops[0] == ops[1] \
                and type(ops[0]) is Reg:
            # The base compiler zeroes all four lanes with one slice
            # write, which would bypass promoted lane locals.
            base = (ops[0].id - XMM_BASE) * 4
            if any(base + i in self.fp_set for i in range(4)):
                for i in range(4):
                    self.emit(f"{self.flane(base + i)} = 0.0")
                return
        super().stmt(ins, k)
        self._invalidate_writes(ins)
        if op is Opcode.PUSH or (op in _PACKED
                                 and type(ops[0]) is Mem):
            # These write memory inside emission paths that bypass
            # mem_write: drop every cached load.
            self._iloads.clear()
            self._floads.clear()

    # -- assembly ------------------------------------------------------------

    def build_superblock(self):
        head_block = self.block
        segments = self.segments
        self.flag_live = _flag_liveness(segments)
        fname = f"_jsb_{head_block.start:x}"
        head = [
            f"def {fname}(ctx):",
            "    g = ctx.gregs",
            "    x = ctx.fregs",
            "    f = ctx.flags",
            "    _sb.entries += 1",
        ]
        for rid in self.promoted:
            head.append(f"    r{rid} = g[{rid}]")
        for lane in self.fp_promoted:
            head.append(f"    x{lane} = x[{lane}]")
        head.append(f"    n = {self.interp.trace_budget}")
        head.append("    while True:")
        self.indent = 2
        per_cy = sum(block.cost for block, _plan in segments)
        per_ic = sum(len(block.instructions) for block, _plan in segments)
        self._per = (per_cy, per_ic, self.interp.trace_budget)
        cum_cy = cum_ic = 0
        k = 0
        for block, plan in segments:
            # Block costs are charged at block entry in the block tier,
            # so any exit inside this segment (a guard, a raising
            # instruction) charges through this segment inclusive.
            cum_cy += block.cost
            cum_ic += len(block.instructions)
            self._prefix = (cum_cy, cum_ic)
            kind = plan[0]
            body = block.instructions if kind == "fall" \
                else block.instructions[:-1]
            for ins in body:
                self._flags_live = self.flag_live[k]
                self.stmt(ins, k)
                k += 1
            if kind == "fall":
                continue
            term = block.instructions[-1]
            self._flags_live = self.flag_live[k]
            k += 1
            if kind == "jcc":
                _kind, exit_pc, cond, biased_taken = plan
                guard = _COND_EXPR[_NEG_COND[cond] if biased_taken
                                   else cond]
                self.emit(f"if {guard}:")
                self.indent += 1
                self.emit_side_exit(exit_pc)
                self.indent -= 1
            elif kind == "call":
                ret_addr = plan[1]
                self.emit(f"sp = {self.greg(STACK_REG)} - 8")
                self.emit(f"{self.greg(STACK_REG)} = sp")
                self.emit(f"_mw(sp, {ret_addr})")
                self._invalidate(STACK_REG)
                self._iloads.clear()
                self._floads.clear()
            elif kind == "ret":
                expected = plan[1]
                self.emit(f"sp = {self.greg(STACK_REG)}")
                self.emit("t = _mr(sp)")
                self.emit(f"{self.greg(STACK_REG)} = sp + 8")
                self._invalidate(STACK_REG)
                self.emit(f"if t != {expected}:")
                self.indent += 1
                self.emit_spill()
                self.emit(f"if t == {HALT_ADDRESS}:")
                self.emit("    ctx.halted = True")
                self.emit("    return -1")
                self.emit("_sb.side_exits += 1")
                self.emit("return t")
                self.indent -= 1
            # "jmp" falls through into the next segment: nothing to emit.
        # Loop back edge: the contract point.  Budget and legality are
        # re-checked; both failures spill and hand the head back to the
        # dispatcher, which re-dispatches on the correct tier.  The
        # decrement precedes these exits, so their iteration is complete
        # and the charge prefix is zero.
        self._prefix = (0, 0)
        self.emit("n -= 1")
        self.emit("if n == 0:")
        self.indent += 1
        self.emit_spill()
        self.emit("_sb.bailouts += 1")
        self.emit("return _self")
        self.indent -= 1
        legality = "_in.active_tx is not None"
        if self.shadow:
            # The sink the events land in was bound at compile time: a
            # swapped (or removed) sink must deopt to the dispatcher,
            # which re-selects the correct variant.
            legality += " or _in.shadow_sink is not _sk"
        self.emit(f"if {legality}:")
        self.indent += 1
        self.emit_spill()
        self.emit("_sb.deopts += 1")
        self.emit("return _self")
        self.indent -= 1
        if self.n_slots:
            self.ns["_L"] = self.links
        variant = "super shadow" if self.shadow else "super"
        filename = f"<jit {variant} {head_block.start:#x}>"
        # Stripping and compiling are pure in the generated lines: a memo
        # hit (another worker, another run of the image) skips both.
        key = ("super", "\n".join(head + self.lines), filename)
        hit = self.memo.get(key)
        if hit is None:
            source = "\n".join(_strip_dead_stores(head + self.lines)) + "\n"
            hit = self.memo[key] = (source,
                                    compile(source, filename, "exec"))
        source, code = hit
        exec(code, self.ns)
        fn = self.ns[fname]
        fn.__jit_source__ = source
        return fn
