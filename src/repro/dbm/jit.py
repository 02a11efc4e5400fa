"""Block compilation for the trace-cache execution tier.

DynamoRIO does not interpret: it re-encodes translated blocks as native
code, links them to each other, and promotes hot paths into traces.  The
honest Python analogue, implemented here, is compiling each block into one
specialised Python function (``compile_block_fn``): operand kinds, register
indices, addresses and branch targets are resolved once at translation
time, and the generated source is ``exec``-compiled so steady-state
execution is straight-line Python bytecode with no per-instruction
dispatch.

Three variants exist per block:

* the **fast** variant assumes no open transaction and no live recording
  window and reads/writes machine memory directly; it may *link*: a
  terminator resolves its successor's compiled
  :class:`~repro.dbm.blocks.Block` once through the dispatcher's ``lookup``
  and caches it, so the dispatch loop skips the code-cache lookup.  A
  self-looping block (a DOALL loop body) is promoted to a *trace*: the
  whole block body spins inside the compiled function and only returns to
  the dispatcher every ``TRACE_BUDGET`` iterations (so instruction limits
  stay enforced).  ``RECORD`` sites (PROF_MEM, see
  :mod:`repro.dbm.accesslog`) compile into every variant as an inline
  append of the site's address to the run's access log, so training runs
  stay on this tier, traces and superblocks included.
* the **recording** variant (``record=True``; selected while
  ``interp.recording`` is set, i.e. an external-call window or an oracle
  replay window is live) is the fast variant plus an inline log append at
  every Mem-operand access.  It links but never traces, so instruction
  limits stay exact per block while accesses are being recorded.  In a
  run with an access log attached, a block containing an RTCALL compiles
  — in both its fast and its recording slot — to a *dynamic* form that
  re-reads ``interp.recording`` after every RTCALL: the RTCALL may open or
  close a window, and the accesses after it in the same block must
  follow.
* the **shadow** variant (``shadow=True``; selected by the dispatcher when
  ``interp.shadow_sink`` is installed) keeps the fast variant's direct
  memory access and linking/tracing, and additionally records shadow
  events for the parallel runtime: the worker's stack/TLS filter bounds
  are bound in the runner's namespace (``_flo``, ``_slo``, ``_shi``,
  ``_tlo``, ``_thi``, so every worker's runner has the same source) and
  passing addresses are appended to the worker's
  :class:`~repro.dbm.shadow.ShadowSink` lists — no closure call, no
  per-lane set insert.  Access sites statically
  proven affine (``interp.shadow_summarised``) are skipped entirely; the
  runtime covers them with per-chunk stride descriptors.  Blocks
  containing RTCALL/SYSCALL compile a *dynamic* shadow form that
  re-checks the open transaction per access (such a block can open or
  close the STM window mid-block); a block entered with a transaction
  open runs the same dynamic form (``tx=True``, the ``jit_tx`` slot),
  which routes every access through the transaction and records nothing
  while it stays open.

Indirect terminators (``ret``/``jmpi``/``calli``) keep a one-entry inline
cache mapping the last raw target to its compiled block — DynamoRIO's
indirect-branch lookup cache.

Translation is done once per image, as DynamoRIO translates a block once
into its code cache: the pure stages — decoding a block, stripping a
superblock's dead stores, ``compile()`` of the generated source — are
content-keyed in :func:`translation_memo`, so every run of a binary and
every parallel worker reuses them.  Source generation and the runner's
namespace stay per translation: the namespace binds per-run objects
(memory, sink, link slots), and the simulated translation charges and
counters are unchanged by a memo hit.

Semantics are defined by :mod:`repro.dbm.interp`, whose per-instruction
dispatch also records access logs and shadow events: the differential
sweeps in ``tests/dbm/test_jit.py`` (opcode templates, access logs) and
``tests/dbm/test_shadow_diff.py`` (shadow views) pin every variant
against it.  Opcodes without a template (none today) fall back to the
reference ``_exec`` per instruction and are counted in
``JITStats.fallback_instructions``.
"""

from __future__ import annotations

import math

from repro.isa.instructions import CONDITION_OF, Instruction, Opcode
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import STACK_REG, XMM_BASE
from repro.jbin import layout
from repro.dbm.accesslog import ACCESS
from repro.dbm.machine import HALT_ADDRESS
from repro.dbm.memory import f64_to_i64, i64_to_f64, s64
from repro.telemetry.core import RegistryView

_I64_MAX = 9223372036854775807
_I64_MIN = -9223372036854775808
_U64 = (1 << 64) - 1

# Iterations a self-loop trace (or a superblock) may spin before returning
# to the dispatcher (bounds how late an instruction limit can be detected).
# Default for ``Interpreter.trace_budget``.
TRACE_BUDGET = 4096

_COND_EXPR = {
    "e": "f == 0",
    "ne": "f != 0",
    "l": "f < 0",
    "le": "f <= 0",
    "g": "f > 0",
    "ge": "f >= 0",
}

_JCC = frozenset((Opcode.JE, Opcode.JNE, Opcode.JL,
                  Opcode.JLE, Opcode.JG, Opcode.JGE))
_CMOV = frozenset((Opcode.CMOVE, Opcode.CMOVNE, Opcode.CMOVL,
                   Opcode.CMOVLE, Opcode.CMOVG, Opcode.CMOVGE))
_PACKED = frozenset((Opcode.MOVAPD, Opcode.ADDPD, Opcode.SUBPD,
                     Opcode.MULPD, Opcode.DIVPD, Opcode.VMOVAPD,
                     Opcode.VADDPD, Opcode.VSUBPD, Opcode.VMULPD,
                     Opcode.VDIVPD))


class JITStats(RegistryView):
    """Translation/link observability counters (one instance per interp).

    Storage lives in a :class:`~repro.telemetry.core.MetricRegistry`
    under ``jit.*`` keys; the attributes here are thin property views so
    existing call sites (including generated block runners) are
    unchanged.  ``as_dict()`` keeps the legacy unprefixed key names.
    """

    _NAMESPACE = "jit"
    _FIELDS = ("blocks_translated", "links_installed", "trace_entries",
               "trace_exits", "trace_budget_bailouts",
               "fallback_instructions")


def _identity(value: int) -> int:
    return value


# The image translated last and its memo (see ``translation_memo``).
_MEMO_SLOT: list = [None, {}]


def translation_memo(process) -> dict:
    """The memo of pure translation products for ``process``'s image.

    Entries are content-keyed and image-independent in meaning:
    ``("decode", section bytes, section base, pc, stop addresses)`` ->
    ``(instructions, end, cost)`` (:func:`~repro.dbm.blocks.discover_block`),
    ``("code", source, filename)`` -> code object (block runners) and
    ``("super", pre-strip source, filename)`` -> ``(stripped source, code
    object)`` (:mod:`repro.dbm.superblock`).  Only the image translated
    last keeps its memo: translating another image replaces it, which
    bounds memory without a size limit.  A process-less interpreter gets
    a throwaway dict.
    """
    if process is None:
        return {}
    image = process.image
    if _MEMO_SLOT[0] is not image:
        _MEMO_SLOT[:] = [image, {}]
    return _MEMO_SLOT[1]


def _shadow_helpers(interp, sink) -> dict:
    """Memory helpers for *dynamic* shadow blocks.

    A block containing RTCALL/SYSCALL can open or close a transaction
    mid-block, and a block entered with one open runs inside it, so the
    tx state is re-checked per access.  The shadow recording contract
    (:mod:`repro.dbm.shadow`): accesses under an open transaction are
    routed through it and invisible to the shadow, and the worker's own
    stack/TLS regions are filtered on the base address.
    """
    memory_read = interp.machine.memory.read
    memory_write = interp.machine.memory.write
    stack_size = layout.THREAD_STACK_SIZE
    tls_lo, tls_hi = sink.tls_lo, sink.tls_hi
    stack_lo, stack_hi = sink.stack_lo, sink.stack_hi
    reads_append = sink.reads.append
    writes_append = sink.writes.append
    packed_reads_append = sink.packed_reads.append
    packed_writes_append = sink.packed_writes.append

    def _sr(ctx, addr):
        tx = interp.active_tx
        if tx is None:
            if (addr <= stack_lo or addr > stack_hi) and (
                    addr < tls_lo or addr >= tls_hi):
                reads_append(addr)
            return memory_read(addr)
        if not (ctx.stack_top - stack_size < addr <= ctx.stack_top):
            return tx.read(addr)
        return memory_read(addr)

    def _sw(ctx, addr, value):
        tx = interp.active_tx
        if tx is None:
            if (addr <= stack_lo or addr > stack_hi) and (
                    addr < tls_lo or addr >= tls_hi):
                writes_append(addr)
            memory_write(addr, value)
            return
        if not (ctx.stack_top - stack_size < addr <= ctx.stack_top):
            tx.write(addr, value)
            return
        memory_write(addr, value)

    def _sp(ctx, addr, lanes, is_write):
        # Packed probe: one base-filtered event covering all lanes (the
        # view expands the lanes at query time).
        if interp.active_tx is None and (
                addr <= stack_lo or addr > stack_hi) and (
                addr < tls_lo or addr >= tls_hi):
            if is_write:
                packed_writes_append((addr, lanes))
            else:
                packed_reads_append((addr, lanes))

    def _rat(ctx, addr):
        tx = interp.active_tx
        if tx is not None and not (
                ctx.stack_top - stack_size < addr <= ctx.stack_top):
            return tx.read(addr)
        return memory_read(addr)

    def _wat(ctx, addr, value):
        tx = interp.active_tx
        if tx is not None and not (
                ctx.stack_top - stack_size < addr <= ctx.stack_top):
            tx.write(addr, value)
            return
        memory_write(addr, value)

    return {"_sr": _sr, "_sw": _sw, "_sp": _sp, "_rat": _rat, "_wat": _wat}


def compile_block_fn(block, interp, lookup, shadow=False, record=False,
                     tx=False):
    """Compile ``block`` into a single runner function ``run(ctx)``.

    The runner charges the block's static cost, executes the block, and
    returns one of:

    * a :class:`~repro.dbm.blocks.Block` — the linked successor;
    * an ``int`` program counter — an unlinked transfer;
    * ``-1`` — the program halted (``ctx.halted``/``exit_code`` are set).

    ``lookup(pc, ctx) -> Block`` is the dispatcher's code-cache lookup; it
    must be stable for the lifetime of the block (links are installed
    once).  ``tx=True`` builds the dynamic shadow form for a block
    entered with a transaction open.
    """
    from repro.dbm.interp import JXRuntimeError

    compiler = _BlockCompiler(block, interp, lookup, JXRuntimeError,
                              shadow=shadow or tx, record=record, tx=tx)
    fn = compiler.build()
    # Window (or transaction) state is re-read inside: one runner serves
    # both slots.
    if compiler.rec_mode == "dynamic":
        block.jit_fast = block.jit_rec = fn
    if compiler.tx_mid_block:
        block.jit_shadow = block.jit_tx = fn
    interp.jit_stats.blocks_translated += 1
    return fn


class _BlockCompiler:
    """Generates the Python source of one block runner and exec-compiles it."""

    def __init__(self, block, interp, lookup, error_type, shadow=False,
                 record=False, tx=False):
        self.block = block
        self.interp = interp
        self.lookup = lookup
        self.shadow = shadow
        self.stats = interp.jit_stats
        process = interp.process
        self.resolve = (process.resolve_target if process is not None
                        else _identity)
        self.memo = translation_memo(process)
        self.ns = {
            "_s64": s64,
            "_i2f": i64_to_f64,
            "_f2i": f64_to_i64,
            "_sqrt": math.sqrt,
            "_st": self.stats,
            "_err": error_type,
            "_sys": interp._syscall,
            "_x": interp._exec,
            "_Z4": (0.0, 0.0, 0.0, 0.0),
        }
        if shadow:
            # A block with RTCALL/SYSCALL can open or close a transaction
            # mid-block, and a block entered with one open (``tx``) runs
            # inside it: both compile the *dynamic* shadow form, which
            # re-checks the tx per access.  Any other block is provably
            # tx-free for its whole run (the dispatcher only selects the
            # static form when no tx is open at entry) and records
            # through the inlined filter.
            sink = interp.shadow_sink
            self.sink = sink
            self.summarised = interp.shadow_summarised
            self.tx_mid_block = any(
                ins.opcode in (Opcode.SYSCALL, Opcode.RTCALL)
                for ins in block.instructions)
            self.shadow_dynamic = tx or self.tx_mid_block
            # The filter bounds are names, not literals, so one source
            # (and one memoised code object) serves every worker.  Most
            # heap addresses sit below both excluded regions: one
            # compare against ``_flo`` short-circuits the full filter.
            self.ns["_flo"] = min(sink.stack_lo + 1, sink.tls_lo)
            self.ns["_slo"], self.ns["_shi"] = sink.stack_lo, sink.stack_hi
            self.ns["_tlo"], self.ns["_thi"] = sink.tls_lo, sink.tls_hi
        else:
            self.tx_mid_block = self.shadow_dynamic = False
        self.n_temps = 0
        # Access recording into the run's access log (None: record
        # nothing; "static": every access, the whole block runs inside
        # a live window; "dynamic": every access while the ``rc`` flag —
        # re-read after each RTCALL — is set).
        self.log = interp.access_log
        self.rec_mode = None
        if self.log is not None:
            self.ns["_lg"] = self.log.entries.append
            self.ns["_in"] = interp
            if any(ins.opcode is Opcode.RTCALL
                   for ins in block.instructions):
                self.rec_mode = "dynamic"
            elif record:
                self.rec_mode = "static"
            if shadow:
                self.rec_mode = None  # the shadow tier never runs a window
        # Stack-word accesses (PUSH/POP/CALL/RET spill slots) are never
        # shadow-recorded (they always hit the worker's own stack) but
        # still need tx redirection when a transaction can be open.
        self.stack_guarded = self.shadow_dynamic
        memory = interp.machine.memory
        self.ns["_mr"] = memory.read
        self.ns["_mw"] = memory.write
        if shadow:
            if self.shadow_dynamic:
                self.ns.update(_shadow_helpers(interp, sink))
            else:
                self.ns["_re"] = sink.reads.append
                self.ns["_we"] = sink.writes.append
                self.ns["_pre"] = sink.packed_reads.append
                self.ns["_pwe"] = sink.packed_writes.append

        def _rt(ctx, hid, arg, _interp=interp, _error=error_type):
            handler = _interp.rtcall_handler
            if handler is None:
                raise _error("RTCALL executed with no runtime attached")
            return handler(ctx, hid, arg)

        self.ns["_rt"] = _rt
        self.lines: list[str] = []
        self.indent = 1
        self.links: list = []
        self.n_slots = 0
        self.n_caches = 0

    # -- source emission helpers --------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def ins_name(self, k: int, ins: Instruction) -> str:
        name = f"_i{k}"
        self.ns[name] = ins
        return name

    def greg(self, rid: int) -> str:
        """The expression for general-purpose register ``rid``.

        The superblock compiler overrides this to return a promoted Python
        local; every GPR access in generated code must go through here.
        """
        return f"g[{rid}]"

    def ea(self, m: Mem) -> str:
        parts = []
        if m.base is not None:
            parts.append(self.greg(m.base))
        if m.index is not None:
            if m.scale != 1:
                parts.append(f"{self.greg(m.index)}*{m.scale}")
            else:
                parts.append(self.greg(m.index))
        if m.disp or not parts:
            parts.append(str(m.disp))
        return " + ".join(parts)

    # -- access recording (see repro.dbm.accesslog) ---------------------------

    def addr_temp(self) -> str:
        name = f"sa{self.n_temps}"
        self.n_temps += 1
        return name

    def record_access(self, var: str, ins: Instruction, is_write: bool,
                      lanes: int) -> None:
        """Append one access-log entry (the key folds to a constant)."""
        key = (ACCESS, ins.address, is_write, lanes)
        conditions = ["rc"] if self.rec_mode == "dynamic" else []
        if self.log.private is not None:
            low, high = self.log.private
            conditions.append(f"not {low} < {var} <= {high}")
        line = f"_lg(({key!r}, {var}))"
        if conditions:
            line = f"if {' and '.join(conditions)}: {line}"
        self.emit(line)

    def recorded_ea(self, op, ins: Instruction, is_write: bool) -> str:
        """A local holding ``op``'s address, with the access recorded."""
        sa = self.addr_temp()
        self.emit(f"{sa} = {self.ea(op)}")
        self.record_access(sa, ins, is_write, 1)
        return sa

    def record_site(self, site) -> None:
        """A ``RECORD`` pseudo-instruction: charge, then log the site."""
        log = self.log
        if log is None:
            self.raise_error("RECORD executed with no access log attached")
            return
        if log.site_cycles:
            self.emit(f"ctx.cycles += {log.site_cycles}")
        if log.sites:
            self.emit(f"_lg(({site.key!r}, {self.ea(site.operand)}))")

    # -- shadow recording (see repro.dbm.shadow) ------------------------------

    def record_cond(self, var: str) -> str:
        """The inlined filter: record iff outside own stack and TLS."""
        return (f"{var} < _flo or (({var} <= _slo or {var} > _shi) "
                f"and ({var} < _tlo or {var} >= _thi))")

    def emit_record(self, var: str, call: str) -> None:
        self.emit(f"if {self.record_cond(var)}: {call}")

    def shadow_read_expr(self, op, ins: Instruction) -> str:
        """Expression for a shadow-recorded Mem read (emits the record)."""
        ea = self.ea(op)
        if self.addr_of(ins) in self.summarised:
            if self.shadow_dynamic:
                return f"_rat(ctx, {ea})"
            return f"_mr({ea})"
        if self.shadow_dynamic:
            return f"_sr(ctx, {ea})"
        sa = self.addr_temp()
        self.emit(f"{sa} = {ea}")
        self.emit_record(sa, f"_re({sa})")
        return f"_mr({sa})"

    def shadow_write(self, op, ins: Instruction, value: str) -> None:
        ea = self.ea(op)
        if self.addr_of(ins) in self.summarised:
            if self.shadow_dynamic:
                self.emit(f"_wat(ctx, {ea}, {value})")
            else:
                self.emit(f"_mw({ea}, {value})")
            return
        if self.shadow_dynamic:
            self.emit(f"_sw(ctx, {ea}, {value})")
            return
        sa = self.addr_temp()
        self.emit(f"{sa} = {ea}")
        self.emit_record(sa, f"_we({sa})")
        self.emit(f"_mw({sa}, {value})")

    # -- operand access -------------------------------------------------------

    def iread(self, op, k: int, ins: Instruction) -> str:
        t = type(op)
        if t is Reg:
            return self.greg(op.id)
        if t is Imm:
            return repr(op.value)
        if self.shadow:
            return self.shadow_read_expr(op, ins)
        if self.rec_mode:
            return f"_mr({self.recorded_ea(op, ins, False)})"
        return f"_mr({self.ea(op)})"

    def istore(self, op, k: int, ins: Instruction, value: str) -> None:
        if type(op) is Reg:
            self.emit(f"{self.greg(op.id)} = {value}")
        elif self.shadow:
            self.shadow_write(op, ins, value)
        elif self.rec_mode:
            self.emit(f"_mw({self.recorded_ea(op, ins, True)}, {value})")
        else:
            self.emit(f"_mw({self.ea(op)}, {value})")

    def fread(self, op, k: int, ins: Instruction) -> str:
        if type(op) is Reg:
            return f"x[{(op.id - XMM_BASE) * 4}]"
        if self.shadow:
            return f"_i2f({self.shadow_read_expr(op, ins)})"
        if self.rec_mode:
            return f"_i2f(_mr({self.recorded_ea(op, ins, False)}))"
        return f"_i2f(_mr({self.ea(op)}))"

    def fstore(self, op, k: int, ins: Instruction, value: str) -> None:
        if type(op) is Reg:
            self.emit(f"x[{(op.id - XMM_BASE) * 4}] = {value}")
        elif self.shadow:
            self.shadow_write(op, ins, f"_f2i({value})")
        elif self.rec_mode:
            sa = self.recorded_ea(op, ins, True)
            self.emit(f"_mw({sa}, _f2i({value}))")
        else:
            self.emit(f"_mw({self.ea(op)}, _f2i({value}))")

    def wrap(self, var: str = "t") -> None:
        self.emit(f"if {var} > {_I64_MAX} or {var} < {_I64_MIN}:")
        self.emit(f"    {var} = _s64({var})")

    def set_flags(self, var: str = "t") -> None:
        self.emit(f"f = 1 if {var} > 0 else (-1 if {var} < 0 else 0)")

    def raise_error(self, message: str) -> None:
        self.emit("ctx.flags = f")
        self.emit(f"raise _err({message!r})")

    def addr_of(self, ins: Instruction) -> int:
        return ins.address if ins.address is not None else 0

    # -- linking ------------------------------------------------------------

    def link_slot(self, pc: int) -> int:
        """Allocate a link slot resolving to ``pc``; returns the slot index.

        The first execution through the slot calls ``_lk<i>`` which installs
        the looked-up compiled Block; later executions read the slot
        directly.
        """
        index = self.n_slots
        self.n_slots += 1
        links = self.links
        links.append(None)

        def _lk(ctx, _pc=pc, _links=links, _index=index,
                _lookup=self.lookup, _stats=self.stats):
            blk = _lookup(_pc, ctx)
            _links[_index] = blk
            _stats.links_installed += 1
            return blk

        self.ns[f"_lk{index}"] = _lk
        return index

    def emit_link_return(self, pc: int) -> None:
        index = self.link_slot(pc)
        self.emit(f"nb = _L[{index}]")
        self.emit("if nb is None:")
        self.emit(f"    nb = _lk{index}(ctx)")
        self.emit("return nb")

    def indirect_cache(self, resolve_target: bool) -> int:
        """One-entry inline cache for an indirect terminator."""
        index = self.n_caches
        self.n_caches += 1
        cache = [None, None]
        self.ns[f"_c{index}"] = cache
        lookup = self.lookup
        stats = self.stats
        resolve = self.resolve if resolve_target else _identity

        def _ik(t, ctx, _cache=cache, _lookup=lookup, _stats=stats,
                _resolve=resolve):
            blk = _lookup(_resolve(t), ctx)
            _cache[0] = t
            _cache[1] = blk
            _stats.links_installed += 1
            return blk

        self.ns[f"_ik{index}"] = _ik
        return index

    def emit_indirect_return(self, resolve_target: bool) -> None:
        index = self.indirect_cache(resolve_target)
        self.emit(f"if t == _c{index}[0]:")
        self.emit(f"    return _c{index}[1]")
        self.emit(f"return _ik{index}(t, ctx)")

    # -- per-opcode statement emission --------------------------------------

    def stmt(self, ins: Instruction, k: int) -> None:  # noqa: C901
        op = ins.opcode
        ops = ins.operands

        if op is Opcode.MOV:
            self.istore(ops[0], k, ins, self.iread(ops[1], k, ins))
        elif op is Opcode.LEA:
            self.emit(f"t = {self.ea(ops[1])}")
            self.wrap()
            self.emit(f"{self.greg(ops[0].id)} = t")
        elif op is Opcode.ADD:
            self.emit(f"t = {self.iread(ops[0], k, ins)}"
                      f" + {self.iread(ops[1], k, ins)}")
            self.wrap()
            self.istore(ops[0], k, ins, "t")
            self.set_flags()
        elif op is Opcode.SUB:
            self.emit(f"t = {self.iread(ops[0], k, ins)}"
                      f" - {self.iread(ops[1], k, ins)}")
            self.wrap()
            self.istore(ops[0], k, ins, "t")
            self.set_flags()
        elif op is Opcode.IMUL:
            self.emit(f"t = {self.iread(ops[0], k, ins)}"
                      f" * {self.iread(ops[1], k, ins)}")
            self.wrap()
            self.istore(ops[0], k, ins, "t")
            self.set_flags()
        elif op in (Opcode.IDIV, Opcode.IMOD):
            self.emit(f"a = {self.iread(ops[0], k, ins)}")
            self.emit(f"b = {self.iread(ops[1], k, ins)}")
            self.emit("if b == 0:")
            self.indent += 1
            self.raise_error(f"division by zero at {self.addr_of(ins):#x}")
            self.indent -= 1
            self.emit("q = abs(a) // abs(b)")
            self.emit("if (a < 0) != (b < 0):")
            self.emit("    q = -q")
            if op is Opcode.IDIV:
                self.emit("t = q")
                self.wrap()
            else:
                self.emit("t = a - q * b")
            self.istore(ops[0], k, ins, "t")
        elif op in (Opcode.AND, Opcode.OR, Opcode.XOR):
            sym = {Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^"}[op]
            self.emit(f"t = {self.iread(ops[0], k, ins)}"
                      f" {sym} {self.iread(ops[1], k, ins)}")
            self.istore(ops[0], k, ins, "t")
            self.set_flags()
        elif op in (Opcode.SHL, Opcode.SHR, Opcode.SAR):
            # The reference reads the shift amount before the value.
            if type(ops[1]) is Imm:
                amount = str(ops[1].value & 63)
            else:
                self.emit(f"a = {self.iread(ops[1], k, ins)} & 63")
                amount = "a"
            if op is Opcode.SHL:
                self.emit(f"t = {self.iread(ops[0], k, ins)} << {amount}")
                self.wrap()
            elif op is Opcode.SHR:
                self.emit(f"t = ({self.iread(ops[0], k, ins)} & {_U64})"
                          f" >> {amount}")
                self.wrap()
            else:  # SAR: arithmetic shift, no wrap (matches reference)
                self.emit(f"t = {self.iread(ops[0], k, ins)} >> {amount}")
            self.istore(ops[0], k, ins, "t")
            self.set_flags()
        elif op is Opcode.INC:
            self.emit(f"t = {self.iread(ops[0], k, ins)} + 1")
            self.wrap()
            self.istore(ops[0], k, ins, "t")
            self.set_flags()
        elif op is Opcode.DEC:
            self.emit(f"t = {self.iread(ops[0], k, ins)} - 1")
            self.wrap()
            self.istore(ops[0], k, ins, "t")
            self.set_flags()
        elif op is Opcode.NEG:
            self.emit(f"t = -{self.iread(ops[0], k, ins)}")
            self.wrap()
            self.istore(ops[0], k, ins, "t")
            self.set_flags()
        elif op is Opcode.NOT:
            self.emit(f"t = ~{self.iread(ops[0], k, ins)}")
            self.istore(ops[0], k, ins, "t")
        elif op is Opcode.CMP:
            self.emit(f"t = {self.iread(ops[0], k, ins)}"
                      f" - {self.iread(ops[1], k, ins)}")
            self.set_flags()
        elif op is Opcode.TEST:
            self.emit(f"t = {self.iread(ops[0], k, ins)}"
                      f" & {self.iread(ops[1], k, ins)}")
            self.set_flags()
        elif op in _CMOV:
            self.emit(f"if {_COND_EXPR[CONDITION_OF[op]]}:")
            self.indent += 1
            self.istore(ops[0], k, ins, self.iread(ops[1], k, ins))
            self.indent -= 1
        elif op is Opcode.PUSH:
            # sp moves before the value is read (matches reference order:
            # a push of rsp or an rsp-relative operand sees the new sp).
            self.emit(f"sp = {self.greg(STACK_REG)} - 8")
            self.emit(f"{self.greg(STACK_REG)} = sp")
            value = self.iread(ops[0], k, ins)
            if self.stack_guarded:
                self.emit(f"_wat(ctx, sp, {value})")
            else:
                self.emit(f"_mw(sp, {value})")
        elif op is Opcode.POP:
            # Store happens before sp moves: a Mem destination's effective
            # address uses the old sp (matches reference order).
            self.emit(f"sp = {self.greg(STACK_REG)}")
            if self.stack_guarded:
                self.istore(ops[0], k, ins, "_rat(ctx, sp)")
            else:
                self.istore(ops[0], k, ins, "_mr(sp)")
            self.emit(f"{self.greg(STACK_REG)} = sp + 8")
        # ---- scalar floating point ------------------------------------
        elif op is Opcode.MOVSD:
            self.fstore(ops[0], k, ins, self.fread(ops[1], k, ins))
        elif op in (Opcode.ADDSD, Opcode.SUBSD, Opcode.MULSD):
            sym = {Opcode.ADDSD: "+", Opcode.SUBSD: "-",
                   Opcode.MULSD: "*"}[op]
            self.fstore(ops[0], k, ins,
                        f"{self.fread(ops[0], k, ins)}"
                        f" {sym} {self.fread(ops[1], k, ins)}")
        elif op is Opcode.DIVSD:
            self.emit(f"d = {self.fread(ops[1], k, ins)}")
            self.emit("if d == 0.0:")
            self.indent += 1
            self.raise_error(
                f"fp division by zero at {self.addr_of(ins):#x}")
            self.indent -= 1
            self.fstore(ops[0], k, ins,
                        f"{self.fread(ops[0], k, ins)} / d")
        elif op is Opcode.SQRTSD:
            self.emit(f"d = {self.fread(ops[1], k, ins)}")
            self.emit("if d < 0.0:")
            self.indent += 1
            self.raise_error(f"sqrt of negative at {self.addr_of(ins):#x}")
            self.indent -= 1
            self.fstore(ops[0], k, ins, "_sqrt(d)")
        elif op is Opcode.MINSD:
            self.fstore(ops[0], k, ins,
                        f"min({self.fread(ops[0], k, ins)}, "
                        f"{self.fread(ops[1], k, ins)})")
        elif op is Opcode.MAXSD:
            self.fstore(ops[0], k, ins,
                        f"max({self.fread(ops[0], k, ins)}, "
                        f"{self.fread(ops[1], k, ins)})")
        elif op is Opcode.UCOMISD:
            self.emit(f"t = {self.fread(ops[0], k, ins)}"
                      f" - {self.fread(ops[1], k, ins)}")
            self.set_flags()
        elif op is Opcode.CVTSI2SD:
            self.fstore(ops[0], k, ins,
                        f"float({self.iread(ops[1], k, ins)})")
        elif op is Opcode.CVTTSD2SI:
            self.emit(f"t = int({self.fread(ops[1], k, ins)})")
            self.wrap()
            self.istore(ops[0], k, ins, "t")
        elif op is Opcode.XORPD:
            if ops[0] == ops[1]:
                base = (ops[0].id - XMM_BASE) * 4
                self.emit(f"x[{base}:{base + 4}] = _Z4")
            else:
                self.emit(f"t = _f2i({self.fread(ops[0], k, ins)})"
                          f" ^ _f2i({self.fread(ops[1], k, ins)})")
                self.fstore(ops[0], k, ins, "_i2f(t)")
        elif op in _PACKED:
            self.packed(ins, k)
        # ---- system ---------------------------------------------------
        elif op is Opcode.SYSCALL:
            self.emit("ctx.flags = f")
            self.emit("t = _sys(ctx)")
            self.emit("f = ctx.flags")
            self.emit("if t is not None:")
            self.emit("    return -1")
        elif op is Opcode.NOP:
            pass
        elif op is Opcode.PREFETCH:
            pass  # hint only; no architectural effect in any tier
        elif op is Opcode.RTCALL:
            hid = ops[0].value
            arg = ops[1].value if len(ops) > 1 else 0
            self.emit("ctx.flags = f")
            # RTCALL blocks never trace: the block's charge is the last.
            self.emit(f"ctx.entry_instructions = ctx.instructions"
                      f" - {len(self.block.instructions)}")
            self.emit(f"t = _rt(ctx, {hid}, {arg})")
            # Runtime handlers may replace the register lists wholesale
            # (worker merge) and adjust flags: re-hoist the locals.
            self.emit("g = ctx.gregs")
            self.emit("x = ctx.fregs")
            self.emit("f = ctx.flags")
            if self.rec_mode == "dynamic":
                self.emit("rc = _in.recording")
            self.emit("if t is not None:")
            self.emit("    return t")
        elif op is Opcode.RECORD:
            self.record_site(ops[0])
        else:
            # No template: reference per-instruction fallback (cold path).
            name = self.ins_name(k, ins)
            self.emit("ctx.flags = f")
            self.emit("_st.fallback_instructions += 1")
            self.emit(f"t = _x(ctx, {name})")
            self.emit("f = ctx.flags")
            self.emit("if t is not None:")
            self.emit("    return t")

    def packed(self, ins: Instruction, k: int) -> None:
        op = ins.opcode
        lanes = ins.lanes
        dst, src = ins.operands
        is_move = op in (Opcode.MOVAPD, Opcode.VMOVAPD)
        if is_move and type(dst) is Reg and type(src) is Reg:
            dbase = (dst.id - XMM_BASE) * 4
            sbase = (src.id - XMM_BASE) * 4
            self.emit(f"x[{dbase}:{dbase + lanes}] = "
                      f"x[{sbase}:{sbase + lanes}]")
            return
        # Load the source lanes into temporaries.
        if type(src) is Reg:
            sbase = (src.id - XMM_BASE) * 4
            for lane in range(lanes):
                self.emit(f"s{lane} = x[{sbase + lane}]")
        else:
            self.emit(f"a = {self.ea(src)}")
            if self.shadow:
                summarised = self.addr_of(ins) in self.summarised
                if self.shadow_dynamic:
                    if not summarised:
                        self.emit(f"_sp(ctx, a, {lanes}, False)")
                    for lane in range(lanes):
                        offset = f" + {8 * lane}" if lane else ""
                        self.emit(f"s{lane} = _i2f(_rat(ctx, a{offset}))")
                else:
                    if not summarised:
                        self.emit_record("a", f"_pre((a, {lanes}))")
                    for lane in range(lanes):
                        offset = f" + {8 * lane}" if lane else ""
                        self.emit(f"s{lane} = _i2f(_mr(a{offset}))")
            else:
                if self.rec_mode:
                    self.record_access("a", ins, False, lanes)
                for lane in range(lanes):
                    offset = f" + {8 * lane}" if lane else ""
                    self.emit(f"s{lane} = _i2f(_mr(a{offset}))")
        if is_move:
            results = [f"s{lane}" for lane in range(lanes)]
        else:
            # RMW packed ops always have a register destination.
            sym = {Opcode.ADDPD: "+", Opcode.VADDPD: "+",
                   Opcode.SUBPD: "-", Opcode.VSUBPD: "-",
                   Opcode.MULPD: "*", Opcode.VMULPD: "*",
                   Opcode.DIVPD: "/", Opcode.VDIVPD: "/"}[op]
            dbase = (dst.id - XMM_BASE) * 4
            if sym == "/":
                check = " or ".join(f"s{lane} == 0.0"
                                    for lane in range(lanes))
                self.emit(f"if {check}:")
                self.indent += 1
                self.raise_error(
                    f"fp division by zero at {self.addr_of(ins):#x}")
                self.indent -= 1
            results = [f"x[{dbase + lane}] {sym} s{lane}"
                       for lane in range(lanes)]
        if type(dst) is Reg:
            dbase = (dst.id - XMM_BASE) * 4
            for lane in range(lanes):
                self.emit(f"x[{dbase + lane}] = {results[lane]}")
        else:
            self.emit(f"a2 = {self.ea(dst)}")
            if self.shadow:
                summarised = self.addr_of(ins) in self.summarised
                if self.shadow_dynamic:
                    if not summarised:
                        self.emit(f"_sp(ctx, a2, {lanes}, True)")
                    for lane in range(lanes):
                        offset = f" + {8 * lane}" if lane else ""
                        self.emit(
                            f"_wat(ctx, a2{offset}, _f2i({results[lane]}))")
                else:
                    if not summarised:
                        self.emit_record("a2", f"_pwe((a2, {lanes}))")
                    for lane in range(lanes):
                        offset = f" + {8 * lane}" if lane else ""
                        self.emit(f"_mw(a2{offset}, _f2i({results[lane]}))")
            else:
                if self.rec_mode:
                    self.record_access("a2", ins, True, lanes)
                for lane in range(lanes):
                    offset = f" + {8 * lane}" if lane else ""
                    self.emit(f"_mw(a2{offset}, _f2i({results[lane]}))")

    # -- terminators ---------------------------------------------------------

    def terminator(self, ins: Instruction, k: int, trace: bool) -> None:
        op = ins.opcode
        ops = ins.operands

        if op in _JCC:
            cond = _COND_EXPR[CONDITION_OF[op]]
            taken = self.resolve(ops[0].value)
            if trace:
                # Taken edge loops back to the block entry: spin in place,
                # bail to the dispatcher when the budget runs out.
                self.emit(f"if {cond}:")
                self.emit("    n -= 1")
                self.emit("    if n == 0:")
                self.emit("        ctx.flags = f")
                self.emit("        _st.trace_budget_bailouts += 1")
                self.emit("        return _self")
                self.emit("    continue")
                self.emit("ctx.flags = f")
                self.emit("_st.trace_exits += 1")
                self.emit_link_return(self.block.end)
                return
            self.emit("ctx.flags = f")
            self.emit(f"if {cond}:")
            self.indent += 1
            self.emit_link_return(taken)
            self.indent -= 1
            self.emit_link_return(self.block.end)
        elif op is Opcode.JMP:
            if trace:
                self.emit("n -= 1")
                self.emit("if n == 0:")
                self.emit("    ctx.flags = f")
                self.emit("    _st.trace_budget_bailouts += 1")
                self.emit("    return _self")
                return
            self.emit("ctx.flags = f")
            self.emit_link_return(self.resolve(ops[0].value))
        elif op is Opcode.CALL:
            self.emit(f"sp = {self.greg(STACK_REG)} - 8")
            self.emit(f"{self.greg(STACK_REG)} = sp")
            ret_addr = ins.address + ins.size
            if self.stack_guarded:
                self.emit(f"_wat(ctx, sp, {ret_addr})")
            else:
                self.emit(f"_mw(sp, {ret_addr})")
            self.emit("ctx.flags = f")
            self.emit_link_return(self.resolve(ops[0].value))
        elif op is Opcode.CALLI:
            # Target read precedes the push (matches reference order).
            self.emit(f"t = {self.iread(ops[0], k, ins)}")
            self.emit(f"sp = {self.greg(STACK_REG)} - 8")
            self.emit(f"{self.greg(STACK_REG)} = sp")
            ret_addr = ins.address + ins.size
            if self.stack_guarded:
                self.emit(f"_wat(ctx, sp, {ret_addr})")
            else:
                self.emit(f"_mw(sp, {ret_addr})")
            self.emit("ctx.flags = f")
            self.emit_indirect_return(resolve_target=True)
        elif op is Opcode.JMPI:
            self.emit(f"t = {self.iread(ops[0], k, ins)}")
            self.emit("ctx.flags = f")
            self.emit_indirect_return(resolve_target=True)
        elif op is Opcode.RET:
            self.emit(f"sp = {self.greg(STACK_REG)}")
            if self.stack_guarded:
                self.emit("t = _rat(ctx, sp)")
            else:
                self.emit("t = _mr(sp)")
            self.emit(f"{self.greg(STACK_REG)} = sp + 8")
            self.emit("ctx.flags = f")
            self.emit(f"if t == {HALT_ADDRESS}:")
            self.emit("    ctx.halted = True")
            self.emit("    return -1")
            self.emit_indirect_return(resolve_target=False)
        elif op is Opcode.HLT:
            self.emit("ctx.flags = f")
            self.emit("ctx.halted = True")
            self.emit("return -1")
        else:  # pragma: no cover - discover_block only ends at controls
            self.stmt(ins, k)
            self.emit("ctx.flags = f")
            self.emit_link_return(self.block.end)

    # -- assembly ------------------------------------------------------------

    def traceable(self, term: Instruction) -> bool:
        """A self-looping block may spin inside its own compiled function.

        Requires no SYSCALL/RTCALL in the block: those can open or close
        transactions or recording windows, or halt, which must re-enter
        the dispatcher's per-block legality check.  (A shadow trace needs
        no extra back-edge check: with no RTCALL inside, neither the sink
        nor the transaction state can change mid-trace.)  The recording
        variant never traces: while accesses are recorded, an instruction
        limit must stop the run at exactly the block boundary the
        reference interpreter stops at.
        """
        if self.rec_mode == "static":
            return False
        for ins in self.block.instructions:
            if ins.opcode in (Opcode.SYSCALL, Opcode.RTCALL):
                return False
        op = term.opcode
        if op in _JCC or op is Opcode.JMP:
            return self.resolve(term.operands[0].value) == self.block.start
        return False

    def build(self):
        block = self.block
        instructions = block.instructions
        term = instructions[-1]
        trace = self.traceable(term)
        fname = f"_jx_{block.start:x}"
        head = [
            f"def {fname}(ctx):",
            "    g = ctx.gregs",
            "    x = ctx.fregs",
            "    f = ctx.flags",
        ]
        if self.rec_mode == "dynamic":
            head.append("    rc = _in.recording")
        if trace:
            # The dispatcher counts entries to self-loop heads toward
            # superblock promotion (repro.dbm.superblock).
            block.is_self_loop = True
            head.append("    _st.trace_entries += 1")
            head.append(f"    n = {self.interp.trace_budget}")
            head.append("    while True:")
            self.ns["_self"] = block
            self.indent = 2
        self.emit(f"ctx.cycles += {block.cost}")
        self.emit(f"ctx.instructions += {len(instructions)}")
        for k, ins in enumerate(instructions[:-1]):
            self.stmt(ins, k)
        k = len(instructions) - 1
        if term.is_control:
            self.terminator(term, k, trace)
        else:
            self.stmt(term, k)
            self.emit("ctx.flags = f")
            self.emit_link_return(block.end)
        if self.n_slots:
            self.ns["_L"] = self.links
        source = "\n".join(head + self.lines) + "\n"
        if self.shadow:
            variant = "shadow"
        elif self.rec_mode == "static":
            variant = "rec"
        else:
            variant = "fast"
        filename = f"<jit {variant} {block.start:#x}>"
        key = ("code", source, filename)
        code = self.memo.get(key)
        if code is None:
            code = self.memo[key] = compile(source, filename, "exec")
        exec(code, self.ns)
        fn = self.ns[fname]
        fn.__jit_source__ = source
        return fn

