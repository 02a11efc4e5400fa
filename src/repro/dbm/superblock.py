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
  stitched block boundaries, and flag stores and promoted-local stores
  that are overwritten before any read are dropped;
* every place control can leave the superblock is a **guarded exit** that
  restores full architectural state (spills the promoted registers,
  ``ctx.flags``, and the cycle/instruction charge for the iterations and
  blocks actually entered — folded to constants per exit site) before
  returning to the block tier.  Superblocks are fast-path-only: the
  dispatcher enters one only while no transaction is open and no
  recording window is live, and nothing a superblock runs can change
  either, so the back edge re-checks no legality.  The only RTCALLs a
  superblock contains are those registered inline
  (``JanusDBM.register_rtcall(..., inline=True)``: the profiler's
  loop-iteration bracket), whose handlers return ``None`` and change no
  window, transaction, register, flag or instruction count; they compile
  to a bare handler call.  A shadow superblock lives in one worker's code
  cache, and the runtime hands that worker the same sink at every
  invocation, so the sink methods bound at compile time stay the live
  ones.  So unlike the block runners, a superblock never branches on a
  transaction or records window accesses.

Exit kinds and their contracts (DESIGN.md section 5):

``side_exits``
    a branch guard failed or a return address was mispredicted; state is
    spilled and control links/returns to the correct successor block.
``bailouts``
    the trace budget (``Interpreter.trace_budget``) ran out; state is
    spilled and the head block itself is returned so the dispatcher can
    re-check instruction limits.

Raising instructions (division by zero, negative sqrt) spill all promoted
state *before* raising, so a ``JXRuntimeError`` observes the same
architectural state the block tier would leave.
"""

from __future__ import annotations

import operator
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

# Integer ops folded when the destination and the source are known
# constants (INC and DEC add or subtract an implicit 1).
_FOLDS = {Opcode.ADD: operator.add, Opcode.SUB: operator.sub,
          Opcode.IMUL: operator.mul, Opcode.INC: operator.add,
          Opcode.DEC: operator.sub}

_NO = object()

# Bound struct codecs for the inline bit-cast a load makes when it finds
# a word in the other form than it needs (repro.dbm.memory keeps each
# word in the form it was last written in): the generated code calls
# these C-level methods directly instead of the Python-level wrappers
# in repro.dbm.memory, one frame fewer per cast.
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
               "bailouts")

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
    workers; see :mod:`repro.dbm.shadow`).
    """
    from repro.dbm.interp import JXRuntimeError

    segments = _walk(head, interp, lookup, ctx, last_succ)
    if segments is None:
        interp.sb_stats.formation_failures += 1
        return None
    compiler = _SuperblockCompiler(segments, interp, lookup, JXRuntimeError,
                                   shadow=shadow)
    fn = compiler.build_superblock()
    interp.sb_stats.formed += 1
    return fn


def _walk(head, interp, lookup, ctx, last_succ):
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
    compile: indirect terminators, blocks with a SYSCALL or an RTCALL not
    registered inline (``interp.inline_rtcalls``), unobserved edges,
    interior cycles, another loop head's territory, or the size budget.
    """
    process = interp.process
    resolve = process.resolve_target if process is not None else _identity
    inline = interp.inline_rtcalls
    segments: list = []
    seen: set[int] = set()
    call_stack: list[int] = []
    total = 0
    block = head
    while True:
        if block.start in seen or len(segments) >= MAX_SUPERBLOCK_BLOCKS:
            return None
        if block is not head and block.jit_super is not None:
            return None  # interior of another hot loop: its own tier owns it
        for ins in block.instructions:
            op = ins.opcode
            if op is Opcode.SYSCALL or (
                    op is Opcode.RTCALL
                    and ins.operands[0].value not in inline):
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
    always live across the loop back edge (the budget bailout spills it).
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


# Every ASCII non-word character, mapped to a space: a translated line
# splits into the words a ``\b``-delimited search sees, so ``r1`` never
# matches inside ``r10`` or ``0x1f``.
_WORD_BREAKS = str.maketrans({c: " " for c in map(chr, range(128))
                              if not (c.isalnum() or c == "_")})


def _is_local(word: str) -> bool:
    """Whether ``word`` names a promoted local (``r<id>`` or ``x<lane>``)."""
    return word[:1] in ("r", "x") and word[1:].isdecimal()


def _is_pure(rhs: str) -> bool:
    """A bare local, a hoisted register-file cell, ``t`` or a literal."""
    whole, dot, frac = rhs.removeprefix("-").partition(".")
    return (_is_local(rhs) or rhs == "t"
            or (rhs[:2] in ("g[", "x[") and rhs[-1:] == "]"
                and rhs[2:-1].isdecimal())
            or (whole.isdecimal() and (not dot or frac.isdecimal())))


def _strip_dead_stores(lines: list[str]) -> list[str]:
    """Drop promoted-local stores that are overwritten before any read.

    Register promotion plus copy propagation leaves stores like
    ``r3 = r5`` whose destination is rewritten by the next ALU result
    before anything reads it (every later *use* of the value was folded
    to its source).  A pure store (4- or 8-space indent, right-hand side
    pure per :func:`_is_pure`) is provably dead when the next mention of
    its local among the lines kept below it is an unconditional
    assignment to it on the superblock's straight-line path (8-space
    indent; deeper indents are conditional guard/wrap bodies and count
    as reads) that does not read it.  Such an assignment dominates all
    later reads, including next-iteration reads across the back edge.
    Anything else (a read, a conditional write, reaching the end of the
    function) keeps the store.

    One backward pass decides every store: ``overwritten`` holds, per
    local, whether its next mention below is such an overwrite.  A
    dropped line mentions nothing, so it updates nothing, and copy
    chains collapse in the same pass.
    """
    overwritten: dict[str, bool] = {}
    kept: list[str] = []
    for line in reversed(lines):
        body = line.lstrip(" ")
        indent = len(line) - len(body)
        name, eq, rhs = body.partition(" = ")
        if not (eq and _is_local(name)):
            name = None
        elif indent in (4, 8) and overwritten.get(name) and _is_pure(rhs):
            continue
        kept.append(line)
        text = line
        if name is not None and indent == 8:
            # An unconditional overwrite, unless its right-hand side
            # reads the local too.
            overwritten[name] = True
            text = rhs
        for word in text.translate(_WORD_BREAKS).split():
            if word[0] in "rx" and word[1:].isdecimal():  # _is_local
                overwritten[word] = False
    kept.reverse()
    return kept


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
        # Superblocks run only where the fast path is legal (no open
        # transaction, no live recording window) and contain no RTCALL
        # that changes either (only inline ones): no window recording, no
        # transaction branches.
        self.rec = self.tx_guarded = False
        self.ns["_sb"] = interp.sb_stats
        self.ns["_self"] = head
        # Per-instruction recording flag, set at the top of stmt(): False
        # at summarised sites (covered by stride descriptors) and always
        # False outside shadow mode.
        self._site_record = False
        # Inline memory fast path: C-level dict methods and struct codecs.
        # The checked Python-level helpers (_mr/_mw/_rf) remain the
        # fallback wherever 8-alignment is not statically provable,
        # preserving the block tier's MemoryFault semantics exactly.
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
        # Redundant-load elimination: folded address expression -> (local
        # temp holding the loaded value, ids of the registers the
        # expression names), separate maps for the int bits and the
        # double.  Cleared at every memory write; an entry goes whenever a
        # register it names changes.  A double load's write-back stores
        # the same bits, so it clears nothing.
        self._iloads: dict[str, tuple[str, frozenset[int]]] = {}
        self._floads: dict[str, tuple[str, frozenset[int]]] = {}
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
        expr, aligned, regs = self.mem_ref(op)
        if not aligned:
            return self._unaligned_load(expr, True, record=self._site_record)
        return self._fload(expr, regs, record=self._site_record)

    def _fload(self, key: str, regs: frozenset[int],
               record: bool = False) -> str:
        hit = self._floads.get(key)
        if hit is None:
            name = f"mf{self._n_addr}"
            self._n_addr += 1
            addr = key
            if record:
                addr = self.addr_temp()
                self.emit(f"{addr} = {key}")
                self.emit_record(addr, f"_re({addr})")
            self.emit(f"{name} = _wg({addr}, 0.0)")
            self._emit_as_float(name, addr)
            hit = self._floads[key] = (name, regs)
        return hit[0]

    def _emit_as_float(self, name: str, addr: str) -> None:
        """Cast an int word loaded into ``name`` to its double and write
        the float form back (same bits), so the next load finds it."""
        self.emit(f"if {name}.__class__ is not float:")
        self.emit(f"    {name} = _uD(_pQ({name}))[0]")
        self.emit(f"    _ws({addr}, {name})")

    def _emit_as_int(self, name: str) -> None:
        self.emit(f"if {name}.__class__ is float: "
                  f"{name} = _uQ(_pD({name}))[0]")

    def _unaligned_load(self, expr: str, f64: bool, record: bool) -> str:
        """A load whose address is not provably 8-aligned: the inline
        dict path behind the ``& 7`` test, and the checked helper (which
        raises ``MemoryFault``) when it fails."""
        name = f"am{self._n_addr}"
        self._n_addr += 1
        self.emit(f"{name} = {expr}")
        if record:
            self.emit_record(name, f"_re({name})")
        value = f"m{name}"
        if f64:
            self.emit(f"{value} = _wg({name}, 0.0) if not {name} & 7"
                      f" else _rf({name})")
            self._emit_as_float(value, name)
        else:
            self.emit(f"{value} = _wg({name}, 0) if not {name} & 7"
                      f" else _mr({name})")
            self._emit_as_int(value)
        return value

    def _unaligned_store(self, expr: str, value: str,
                         event: str | None) -> None:
        """A store whose address is not provably 8-aligned: the inline
        dict store, behind the ``& 7`` test that sends a misaligned
        address to the checked helper (which raises ``MemoryFault``).
        ``event``, if given, is the shadow record call for ``ad``."""
        self.emit(f"ad = {expr}")
        if event is not None:
            self.emit_record("ad", event)
        self.emit("if ad & 7:")
        self.emit(f"    _mw(ad, {value})")
        self.emit(f"_ws(ad, {value})")

    def packed(self, ins, k) -> None:
        # Lane-promoted, inline-memory re-emission of the packed ops; the
        # base compiler's version addresses ``ctx.fregs`` by index/slice
        # and reads memory through the checked Python helpers.  Lanes
        # land in the promoted lane locals either way (the base path
        # writes ctx.fregs, which the locals would never observe), and a
        # lane address not provably 8-aligned takes the scalar path.
        op = ins.opcode
        lanes = ins.lanes
        dst, src = ins.operands
        is_move = op in (Opcode.MOVAPD, Opcode.VMOVAPD)
        if type(src) is Reg:
            sbase = (src.id - XMM_BASE) * 4
            svals = [self.flane(sbase + i) for i in range(lanes)]
        else:
            expr, aligned, regs = self.mem_ref(src)
            if self._site_record:
                # One base-filtered packed event covers all lanes (the
                # lane loads below must not raw-record individually).
                sa = self.addr_temp()
                self.emit(f"{sa} = {expr}")
                self.emit_record(sa, f"_pre(({sa}, {lanes}))")
            addrs = [expr if i == 0 else f"{expr} + {8 * i}"
                     for i in range(lanes)]
            if aligned:
                svals = [self._fload(addr, regs) for addr in addrs]
            else:
                svals = [self._unaligned_load(addr, True, record=False)
                         for addr in addrs]
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
        expr, aligned, _regs = self.mem_ref(dst)
        record = self._site_record
        if aligned and record:
            sa = self.addr_temp()
            self.emit(f"{sa} = {expr}")
            self.emit_record(sa, f"_pwe(({sa}, {lanes}))")
            expr = sa
        for i in range(lanes):
            addr = expr if i == 0 else f"{expr} + {8 * i}"
            if aligned:
                self.emit(f"_ws({addr}, {results[i]})")
            else:
                # Lane 0's store records the one packed event.
                event = f"_pwe((ad, {lanes}))" if record and not i else None
                self._unaligned_store(addr, results[i], event)

    def fstore(self, op, k, ins, value) -> None:
        if type(op) is Reg:
            lane = (op.id - XMM_BASE) * 4
            if lane in self.fp_set:
                self.emit(f"x{lane} = {value}")
                return
            super().fstore(op, k, ins, value)
            return
        self.mem_write(op, value)

    # -- constant / copy environment ----------------------------------------

    def _invalidate(self, rid: int) -> None:
        self.const.pop(rid, None)
        self.copies.pop(rid, None)
        stale = [dst for dst, src in self.copies.items() if src == rid]
        for dst in stale:
            del self.copies[dst]
        # Cached loads whose address names the register are stale too.
        for cache in (self._iloads, self._floads):
            for key in [key for key, (_name, regs) in cache.items()
                        if rid in regs]:
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

    def mem_ref(self, m: Mem) -> tuple[str, bool, frozenset[int]]:
        """The folded address expression, whether it is provably
        8-aligned (every surviving term a multiple of eight), and the ids
        of the registers it names."""
        # Constant base/index registers fold into the displacement and
        # copies read through, so stitched address arithmetic simplifies.
        parts: list[str] = []
        regs: set[int] = set()
        disp = m.disp
        aligned = True
        for rid, scale in ((m.base, 1), (m.index, m.scale)):
            if rid is None:
                continue
            value = self.const.get(rid, _NO)
            if value is not _NO:
                disp += value * scale
                continue
            rid = self.copies.get(rid, rid)
            regs.add(rid)
            name = self.greg(rid)
            parts.append(name if scale == 1 else f"{name}*{scale}")
            if scale % 8:
                aligned = False
        if disp % 8:
            aligned = False
        if disp or not parts:
            parts.append(str(disp))
        return " + ".join(parts), aligned, frozenset(regs)

    def ea(self, m: Mem) -> str:
        return self.mem_ref(m)[0]

    def mem_read(self, m: Mem) -> str:
        expr, aligned, regs = self.mem_ref(m)
        if aligned:
            hit = self._iloads.get(expr)
            if hit is None:
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
                self._emit_as_int(name)
                hit = self._iloads[expr] = (name, regs)
            return hit[0]
        return self._unaligned_load(expr, False, record=self._site_record)

    def mem_write(self, m: Mem, value: str) -> None:
        # Any store may alias any cached load (the tier proves nothing
        # about address disjointness).
        self._iloads.clear()
        self._floads.clear()
        expr, aligned, _regs = self.mem_ref(m)
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
        self._unaligned_store(expr, value,
                              "_we(ad)" if self._site_record else None)

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
        if op is Opcode.RTCALL:
            # Registered inline: the handler returns None and touches no
            # register, flag, instruction count or window, so nothing is
            # spilled or re-read around it.
            arg = ops[1].value if len(ops) > 1 else 0
            self.emit(f"_rt(ctx, {ops[0].value}, {arg})")
            return
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
        if op in _FOLDS and dst_gpr:
            a = self.const.get(dst.id, _NO)
            b = 1 if op in (Opcode.INC, Opcode.DEC) \
                else self._const_of(ops[1])
            if a is not _NO and b is not _NO:
                t = s64(_FOLDS[op](a, b))
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
        # Loop back edge: the budget is re-checked; when it runs out, the
        # superblock spills and hands the head back to the dispatcher,
        # which re-checks the instruction limit.  The decrement precedes
        # the exit, so its iteration is complete and the charge prefix is
        # zero.
        self._prefix = (0, 0)
        self.emit("n -= 1")
        self.emit("if n == 0:")
        self.indent += 1
        self.emit_spill()
        self.emit("_sb.bailouts += 1")
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
