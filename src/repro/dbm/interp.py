"""JX instruction semantics.

The interpreter executes translated :class:`~repro.dbm.blocks.Block` objects
against a :class:`~repro.dbm.machine.ThreadContext`.  It is deliberately a
plain big-dispatch interpreter: semantics live in one place, and both the
native executor and the DBM (with modified blocks, pseudo ``RTCALL``
instructions, transactional memory redirection and access recording) run
through the same code path, so "native" and "parallelised" executions can
never diverge semantically except through an actual bug in a transformation
— which is exactly what the correctness oracle tests for.

Transactional mode: when ``active_tx`` is set, every data access outside the
current thread's own stack region is redirected through the transaction's
``read``/``write`` (paper section II-E2: heap and out-of-frame stack accesses
use Janus' STM).

Recording: with an :class:`~repro.dbm.accesslog.AccessLog` attached
(``access_log``), ``RECORD`` sites append to it, and while ``recording`` is
set every Mem-operand access is appended too (never the stack words
PUSH/POP/CALL/RET move) — the same entries the compiled fast runners
append while their window flag is set.  With a
:class:`~repro.dbm.shadow.ShadowSink` installed (``shadow_sink``, a
parallel worker) every Mem-operand access outside an open transaction,
at a site not statically summarised (``shadow_summarised``: the runtime
covers those with stride descriptors), whose base address passes the
sink's own-stack/TLS filter is appended to it, one event per packed
access — the same events the compiled shadow runners record (they branch
on the open transaction per access, as ``_mem_read``/``_mem_write`` do).
This per-instruction dispatch is therefore the oracle for both recording
paths.
"""

from __future__ import annotations

import math

from repro.isa.instructions import (
    CMOV_OPCODES,
    COND_BRANCHES,
    CONDITION_OF,
    PACKED_LANES,
    Instruction,
    Opcode,
)
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import NUM_GPR, RET_REG, STACK_REG, XMM_BASE
from repro.jbin import layout, syscalls
from repro.dbm.accesslog import ACCESS
from repro.dbm.blocks import Block
from repro.dbm.jit import JITStats, TRACE_BUDGET
from repro.dbm.superblock import SUPERBLOCK_THRESHOLD, SuperblockStats
from repro.dbm.machine import HALT_ADDRESS, Machine, ThreadContext
from repro.dbm.memory import f64_to_i64, i64_to_f64, s64

_U64 = (1 << 64) - 1


class JXRuntimeError(Exception):
    """A dynamic execution error (bad operand type, divide by zero, ...)."""


class ExecutionLimitExceeded(Exception):
    """Raised when an execution exceeds its instruction budget."""


def _sign(value) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


class Interpreter:
    """Executes blocks for one process against one machine."""

    def __init__(self, machine: Machine, process, registry=None) -> None:
        self.machine = machine
        self.process = process
        # Hook invoked for RTCALL pseudo-instructions: f(ctx, hid, arg) -> pc|None
        self.rtcall_handler = None
        # RTCALL ids whose handlers were registered inline
        # (JanusDBM.register_rtcall): the only RTCALLs a superblock may
        # contain.
        self.inline_rtcalls: set[int] = set()
        # The run's access log (repro.dbm.accesslog), attached before the
        # run by profiling and the oracle; ``recording`` (toggled only by
        # their RTCALL handlers) adds every Mem-operand access to it.
        self.access_log = None
        self.recording = False
        # Active software transaction for the currently executing thread.
        self.active_tx = None
        # Shadow tracking (repro.dbm.shadow): a parallel worker installs
        # its ShadowSink here and the dispatcher compiles shadow runners.
        # Sites in shadow_summarised are statically proven affine and
        # covered by per-chunk stride descriptors — no event is recorded
        # for them.
        self.shadow_sink = None
        self.shadow_summarised = frozenset()
        # Force the reference per-instruction dispatch (differential tests).
        self.force_reference = False
        # Trace-cache tier counters (see repro.dbm.jit.JITStats); the
        # caller may pass a shared MetricRegistry so jit.* counters land
        # beside its own (JanusDBM does).
        self.jit_stats = JITStats(registry)
        # Superblock tier counters share the same registry
        # (jit.superblock.* keys).
        self.sb_stats = SuperblockStats(self.jit_stats.registry)
        # Iterations a superblock may spin before returning to the
        # dispatcher.
        self.trace_budget = TRACE_BUDGET
        # Superblock promotion: back-edge count at which the dispatcher
        # attempts formation, on the fast path only; 0 disables it.
        self.superblock_threshold = SUPERBLOCK_THRESHOLD
        # Fork/join bracket state for the JOMP runtime (libgomp analogue).
        self._jomp_stack: list[tuple[int, int]] = []
        self.jomp_overhead_cycles = 2500

    # -- operand access ------------------------------------------------------

    def ea(self, ctx: ThreadContext, m: Mem) -> int:
        addr = m.disp
        if m.base is not None:
            addr += ctx.gregs[m.base]
        if m.index is not None:
            addr += ctx.gregs[m.index] * m.scale
        return addr

    def _mem_read(self, ctx: ThreadContext, ins, m: Mem) -> int:
        addr = self.ea(ctx, m)
        if self.recording:
            self._record(ins, addr, False, 1)
        self._shadow(ins, addr, False, 1)
        return self._mem_read_at(ctx, addr)

    def _mem_write(self, ctx: ThreadContext, ins, m: Mem, value: int) -> None:
        addr = self.ea(ctx, m)
        if self.recording:
            self._record(ins, addr, True, 1)
        self._shadow(ins, addr, True, 1)
        self._mem_write_at(ctx, addr, value)

    def _record(self, ins, addr: int, is_write: bool, lanes: int) -> None:
        log = self.access_log
        if log.private is not None:
            low, high = log.private
            if low < addr <= high:
                return
        log.entries.append(((ACCESS, ins.address, is_write, lanes), addr))

    def _shadow(self, ins, addr: int, is_write: bool, lanes: int) -> None:
        """Give the installed sink its event for this access, unless a
        transaction is open or the site is summarised."""
        sink = self.shadow_sink
        if sink is not None and self.active_tx is None \
                and ins.address not in self.shadow_summarised:
            sink.record(addr, is_write, lanes)

    def _record_site(self, ctx: ThreadContext, site) -> None:
        log = self.access_log
        if log is None:
            raise JXRuntimeError("RECORD executed with no access log attached")
        ctx.cycles += log.site_cycles
        if log.sites:
            log.entries.append((site.key, self.ea(ctx, site.operand)))

    def _mem_read_at(self, ctx: ThreadContext, addr: int) -> int:
        tx = self.active_tx
        if tx is not None and not self._is_own_stack(ctx, addr):
            return tx.read(addr)
        return self.machine.memory.read(addr)

    def _mem_write_at(self, ctx: ThreadContext, addr: int, value: int) -> None:
        tx = self.active_tx
        if tx is not None and not self._is_own_stack(ctx, addr):
            tx.write(addr, value)
            return
        self.machine.memory.write(addr, value)

    @staticmethod
    def _is_own_stack(ctx: ThreadContext, addr: int) -> bool:
        return ctx.stack_top - layout.THREAD_STACK_SIZE < addr <= ctx.stack_top

    def _int_value(self, ctx: ThreadContext, ins, op) -> int:
        if type(op) is Reg:
            return ctx.gregs[op.id]
        if type(op) is Imm:
            return op.value
        return self._mem_read(ctx, ins, op)

    def _int_store(self, ctx: ThreadContext, ins, op, value: int) -> None:
        if type(op) is Reg:
            ctx.gregs[op.id] = value
        else:
            self._mem_write(ctx, ins, op, value)

    def _f64_value(self, ctx: ThreadContext, ins, op) -> float:
        if type(op) is Reg:
            return ctx.fregs[(op.id - XMM_BASE) * 4]
        return i64_to_f64(self._mem_read(ctx, ins, op))

    def _f64_store(self, ctx: ThreadContext, ins, op, value: float) -> None:
        if type(op) is Reg:
            ctx.fregs[(op.id - XMM_BASE) * 4] = value
        else:
            self._mem_write(ctx, ins, op, f64_to_i64(value))

    # -- block execution -------------------------------------------------------

    def execute_block_reference(self, ctx: ThreadContext, block: Block,
                                lookup=None):
        """Execute one block through the reference per-instruction dispatch.

        Return the next pc, or ``None`` when halted.  Cycle cost is
        charged up-front from the block's static cost; the handful of
        dynamic-cost cases (syscalls, RTCALL runtime work) charge their
        own extras inside their handlers.  This is the semantic ground
        truth the compiled tiers are pinned against (tests/dbm/test_jit.py,
        tests/dbm/test_shadow_diff.py).

        With the dispatcher's ``lookup`` the successor comes back as the
        block's compiled runner would return it
        (:func:`repro.dbm.jit.compile_block_fn`): the looked-up
        :class:`Block` for a transfer the runner links, the ``int`` pc an
        RTCALL redirects to, ``-1`` on halt.  The dispatcher runs a
        block's first entry this way, and every entry under
        ``force_reference``.
        """
        ctx.cycles += block.cost
        ctx.entry_instructions = ctx.instructions
        ctx.instructions += len(block.instructions)
        for ins in block.instructions:
            transfer = self._exec(ctx, ins)
            if transfer is not None:
                if transfer == -1:  # halted
                    return None if lookup is None else -1
                if lookup is None or ins.opcode is Opcode.RTCALL:
                    return transfer
                return lookup(transfer, ctx)
        return block.end if lookup is None else lookup(block.end, ctx)

    # -- instruction semantics --------------------------------------------------

    def _exec(self, ctx: ThreadContext, ins: Instruction):  # noqa: C901
        """Execute one instruction; return None, a new pc, or -1 for halt.

        The handful of hottest opcodes (mov/add/cmp/jcc/inc) carry inlined
        register fast paths; everything else goes through the generic
        operand helpers.
        """
        op = ins.opcode
        ops = ins.operands

        if op is Opcode.MOV:
            dst, src = ops
            tsrc = type(src)
            if type(dst) is Reg:
                if tsrc is Reg:
                    ctx.gregs[dst.id] = ctx.gregs[src.id]
                elif tsrc is Imm:
                    ctx.gregs[dst.id] = src.value
                else:
                    ctx.gregs[dst.id] = self._mem_read(ctx, ins, src)
            else:
                if tsrc is Reg:
                    value = ctx.gregs[src.id]
                elif tsrc is Imm:
                    value = src.value
                else:
                    value = self._mem_read(ctx, ins, src)
                self._mem_write(ctx, ins, dst, value)
        elif op is Opcode.ADD:
            dst, src = ops
            tsrc = type(src)
            if type(dst) is Reg and tsrc is not Mem:
                rhs = ctx.gregs[src.id] if tsrc is Reg else src.value
                result = ctx.gregs[dst.id] + rhs
                if result > 9223372036854775807 \
                        or result < -9223372036854775808:
                    result = s64(result)
                ctx.gregs[dst.id] = result
            else:
                result = s64(self._int_value(ctx, ins, dst)
                             + self._int_value(ctx, ins, src))
                self._int_store(ctx, ins, dst, result)
            ctx.flags = 1 if result > 0 else (-1 if result < 0 else 0)
        elif op is Opcode.SUB:
            result = s64(self._int_value(ctx, ins, ops[0])
                         - self._int_value(ctx, ins, ops[1]))
            self._int_store(ctx, ins, ops[0], result)
            ctx.flags = _sign(result)
        elif op is Opcode.CMP:
            lhs, rhs = ops
            tl, tr = type(lhs), type(rhs)
            if tl is Reg and tr is Imm:
                diff = ctx.gregs[lhs.id] - rhs.value
            elif tl is Reg and tr is Reg:
                diff = ctx.gregs[lhs.id] - ctx.gregs[rhs.id]
            else:
                diff = (self._int_value(ctx, ins, lhs)
                        - self._int_value(ctx, ins, rhs))
            ctx.flags = 1 if diff > 0 else (-1 if diff < 0 else 0)
        elif op in COND_BRANCHES:
            if _COND_CHECK[CONDITION_OF[op]](ctx.flags):
                return self.process.resolve_target(ops[0].value)
        elif op is Opcode.JMP:
            return self.process.resolve_target(ops[0].value)
        elif op is Opcode.LEA:
            ctx.gregs[ops[0].id] = s64(self.ea(ctx, ops[1]))
        elif op is Opcode.IMUL:
            result = s64(self._int_value(ctx, ins, ops[0])
                         * self._int_value(ctx, ins, ops[1]))
            self._int_store(ctx, ins, ops[0], result)
            ctx.flags = _sign(result)
        elif op in (Opcode.IDIV, Opcode.IMOD):
            a = self._int_value(ctx, ins, ops[0])
            b = self._int_value(ctx, ins, ops[1])
            if b == 0:
                raise JXRuntimeError(f"division by zero at {ins.address:#x}")
            quotient = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                quotient = -quotient
            if op is Opcode.IDIV:
                result = s64(quotient)
            else:
                result = s64(a - quotient * b)
            self._int_store(ctx, ins, ops[0], result)
        elif op is Opcode.AND:
            result = s64(self._int_value(ctx, ins, ops[0])
                         & self._int_value(ctx, ins, ops[1]))
            self._int_store(ctx, ins, ops[0], result)
            ctx.flags = _sign(result)
        elif op is Opcode.OR:
            result = s64(self._int_value(ctx, ins, ops[0])
                         | self._int_value(ctx, ins, ops[1]))
            self._int_store(ctx, ins, ops[0], result)
            ctx.flags = _sign(result)
        elif op is Opcode.XOR:
            result = s64(self._int_value(ctx, ins, ops[0])
                         ^ self._int_value(ctx, ins, ops[1]))
            self._int_store(ctx, ins, ops[0], result)
            ctx.flags = _sign(result)
        elif op is Opcode.SHL:
            amount = self._int_value(ctx, ins, ops[1]) & 63
            result = s64(self._int_value(ctx, ins, ops[0]) << amount)
            self._int_store(ctx, ins, ops[0], result)
            ctx.flags = _sign(result)
        elif op is Opcode.SHR:
            amount = self._int_value(ctx, ins, ops[1]) & 63
            result = s64((self._int_value(ctx, ins, ops[0]) & _U64) >> amount)
            self._int_store(ctx, ins, ops[0], result)
            ctx.flags = _sign(result)
        elif op is Opcode.SAR:
            amount = self._int_value(ctx, ins, ops[1]) & 63
            result = self._int_value(ctx, ins, ops[0]) >> amount
            self._int_store(ctx, ins, ops[0], result)
            ctx.flags = _sign(result)
        elif op is Opcode.INC:
            target = ops[0]
            if type(target) is Reg:
                result = ctx.gregs[target.id] + 1
                if result > 9223372036854775807:
                    result = s64(result)
                ctx.gregs[target.id] = result
            else:
                result = s64(self._int_value(ctx, ins, target) + 1)
                self._int_store(ctx, ins, target, result)
            ctx.flags = 1 if result > 0 else (-1 if result < 0 else 0)
        elif op is Opcode.DEC:
            result = s64(self._int_value(ctx, ins, ops[0]) - 1)
            self._int_store(ctx, ins, ops[0], result)
            ctx.flags = _sign(result)
        elif op is Opcode.NEG:
            result = s64(-self._int_value(ctx, ins, ops[0]))
            self._int_store(ctx, ins, ops[0], result)
            ctx.flags = _sign(result)
        elif op is Opcode.NOT:
            result = s64(~self._int_value(ctx, ins, ops[0]))
            self._int_store(ctx, ins, ops[0], result)
        elif op is Opcode.TEST:
            ctx.flags = _sign(s64(self._int_value(ctx, ins, ops[0])
                                  & self._int_value(ctx, ins, ops[1])))
        elif op in CMOV_OPCODES:
            if _COND_CHECK[CONDITION_OF[op]](ctx.flags):
                self._int_store(ctx, ins, ops[0],
                                self._int_value(ctx, ins, ops[1]))
        elif op is Opcode.PUSH:
            sp = ctx.gregs[STACK_REG] - 8
            ctx.gregs[STACK_REG] = sp
            self._mem_write_at(ctx, sp, self._int_value(ctx, ins, ops[0]))
        elif op is Opcode.POP:
            sp = ctx.gregs[STACK_REG]
            self._int_store(ctx, ins, ops[0], self._mem_read_at(ctx, sp))
            ctx.gregs[STACK_REG] = sp + 8
        elif op is Opcode.CALL:
            sp = ctx.gregs[STACK_REG] - 8
            ctx.gregs[STACK_REG] = sp
            self._mem_write_at(ctx, sp, ins.address + ins.size)
            return self.process.resolve_target(ops[0].value)
        elif op is Opcode.CALLI:
            target = self._int_value(ctx, ins, ops[0])
            sp = ctx.gregs[STACK_REG] - 8
            ctx.gregs[STACK_REG] = sp
            self._mem_write_at(ctx, sp, ins.address + ins.size)
            return self.process.resolve_target(target)
        elif op is Opcode.JMPI:
            return self.process.resolve_target(
                self._int_value(ctx, ins, ops[0]))
        elif op is Opcode.RET:
            sp = ctx.gregs[STACK_REG]
            target = self._mem_read_at(ctx, sp)
            ctx.gregs[STACK_REG] = sp + 8
            if target == HALT_ADDRESS:
                ctx.halted = True
                return -1
            return target
        # ---- floating point -------------------------------------------------
        elif op is Opcode.MOVSD:
            self._f64_store(ctx, ins, ops[0], self._f64_value(ctx, ins, ops[1]))
        elif op is Opcode.ADDSD:
            self._f64_store(ctx, ins, ops[0],
                            self._f64_value(ctx, ins, ops[0])
                            + self._f64_value(ctx, ins, ops[1]))
        elif op is Opcode.SUBSD:
            self._f64_store(ctx, ins, ops[0],
                            self._f64_value(ctx, ins, ops[0])
                            - self._f64_value(ctx, ins, ops[1]))
        elif op is Opcode.MULSD:
            self._f64_store(ctx, ins, ops[0],
                            self._f64_value(ctx, ins, ops[0])
                            * self._f64_value(ctx, ins, ops[1]))
        elif op is Opcode.DIVSD:
            divisor = self._f64_value(ctx, ins, ops[1])
            if divisor == 0.0:
                raise JXRuntimeError(f"fp division by zero at {ins.address:#x}")
            self._f64_store(ctx, ins, ops[0],
                            self._f64_value(ctx, ins, ops[0]) / divisor)
        elif op is Opcode.SQRTSD:
            value = self._f64_value(ctx, ins, ops[1])
            if value < 0.0:
                raise JXRuntimeError(f"sqrt of negative at {ins.address:#x}")
            self._f64_store(ctx, ins, ops[0], math.sqrt(value))
        elif op is Opcode.MINSD:
            self._f64_store(ctx, ins, ops[0],
                            min(self._f64_value(ctx, ins, ops[0]),
                                self._f64_value(ctx, ins, ops[1])))
        elif op is Opcode.MAXSD:
            self._f64_store(ctx, ins, ops[0],
                            max(self._f64_value(ctx, ins, ops[0]),
                                self._f64_value(ctx, ins, ops[1])))
        elif op is Opcode.UCOMISD:
            ctx.flags = _sign(self._f64_value(ctx, ins, ops[0])
                              - self._f64_value(ctx, ins, ops[1]))
        elif op is Opcode.CVTSI2SD:
            self._f64_store(ctx, ins, ops[0],
                            float(self._int_value(ctx, ins, ops[1])))
        elif op is Opcode.CVTTSD2SI:
            self._int_store(ctx, ins, ops[0],
                            s64(int(self._f64_value(ctx, ins, ops[1]))))
        elif op is Opcode.XORPD:
            if ops[0] == ops[1]:
                base = (ops[0].id - XMM_BASE) * 4
                ctx.fregs[base:base + 4] = [0.0, 0.0, 0.0, 0.0]
            else:
                bits = (f64_to_i64(self._f64_value(ctx, ins, ops[0]))
                        ^ f64_to_i64(self._f64_value(ctx, ins, ops[1])))
                self._f64_store(ctx, ins, ops[0], i64_to_f64(s64(bits)))
        elif op in PACKED_LANES:
            self._exec_packed(ctx, ins)
        # ---- system ----------------------------------------------------------
        elif op is Opcode.SYSCALL:
            return self._syscall(ctx)
        elif op is Opcode.NOP:
            pass
        elif op is Opcode.PREFETCH:
            pass  # a hint: computes nothing, touches no architectural state
        elif op is Opcode.HLT:
            ctx.halted = True
            return -1
        elif op is Opcode.RTCALL:
            handler = self.rtcall_handler
            if handler is None:
                raise JXRuntimeError("RTCALL executed with no runtime attached")
            return handler(ctx, ops[0].value, ops[1].value if len(ops) > 1 else 0)
        elif op is Opcode.RECORD:
            self._record_site(ctx, ops[0])
        else:
            raise JXRuntimeError(f"unimplemented opcode {op.name}")
        return None

    def _exec_packed(self, ctx: ThreadContext, ins: Instruction) -> None:
        op = ins.opcode
        lanes = ins.lanes
        dst, src = ins.operands
        if type(src) is Reg:
            sbase = (src.id - XMM_BASE) * 4
            values = ctx.fregs[sbase:sbase + lanes]
        else:
            addr = self.ea(ctx, src)
            if self.recording:
                self._record(ins, addr, False, lanes)
            self._shadow(ins, addr, False, lanes)
            values = [i64_to_f64(self._mem_read_at(ctx, addr + 8 * k))
                      for k in range(lanes)]
        if op in (Opcode.MOVAPD, Opcode.VMOVAPD):
            results = values
        else:
            dbase = (dst.id - XMM_BASE) * 4
            current = ctx.fregs[dbase:dbase + lanes]
            if op in (Opcode.ADDPD, Opcode.VADDPD):
                results = [a + b for a, b in zip(current, values)]
            elif op in (Opcode.SUBPD, Opcode.VSUBPD):
                results = [a - b for a, b in zip(current, values)]
            elif op in (Opcode.MULPD, Opcode.VMULPD):
                results = [a * b for a, b in zip(current, values)]
            else:  # DIVPD / VDIVPD
                for b in values:
                    if b == 0.0:
                        raise JXRuntimeError(
                            f"fp division by zero at {ins.address:#x}")
                results = [a / b for a, b in zip(current, values)]
        if type(dst) is Reg:
            dbase = (dst.id - XMM_BASE) * 4
            ctx.fregs[dbase:dbase + lanes] = results
        else:
            addr = self.ea(ctx, dst)
            if self.recording:
                self._record(ins, addr, True, lanes)
            self._shadow(ins, addr, True, lanes)
            for k, value in enumerate(results):
                self._mem_write_at(ctx, addr + 8 * k, f64_to_i64(value))

    def _syscall(self, ctx: ThreadContext):
        number = ctx.gregs[RET_REG]
        machine = self.machine
        if number == syscalls.PRINT_INT:
            machine.print_int(ctx.gregs[7])  # rdi
        elif number == syscalls.PRINT_F64:
            machine.print_f64(ctx.fregs[0])  # xmm0 lane 0
        elif number == syscalls.READ_INT:
            ctx.gregs[RET_REG] = machine.read_int()
        elif number == syscalls.CLOCK:
            ctx.gregs[RET_REG] = ctx.cycles
        elif number == syscalls.PRINT_CHAR:
            machine.print_char(ctx.gregs[7])
        elif number == syscalls.JOMP_BEGIN:
            self._jomp_stack.append((ctx.cycles, max(1, ctx.gregs[7])))
        elif number == syscalls.JOMP_END:
            if self._jomp_stack:
                start_cycles, threads = self._jomp_stack.pop()
                elapsed = ctx.cycles - start_cycles
                # Fork/join model: the bracketed region ran on `threads`
                # cores; charge the fork/join overhead on top.
                ctx.cycles = (start_cycles + elapsed // threads
                              + self.jomp_overhead_cycles)
        elif number == syscalls.EXIT:
            ctx.exit_code = ctx.gregs[7]
            ctx.halted = True
            return -1
        else:
            raise JXRuntimeError(f"unknown syscall {number}")
        return None


_COND_CHECK = {
    "e": lambda f: f == 0,
    "ne": lambda f: f != 0,
    "l": lambda f: f < 0,
    "le": lambda f: f <= 0,
    "g": lambda f: f > 0,
    "ge": lambda f: f >= 0,
}
