"""Block compilation for the trace-cache execution tier.

DynamoRIO does not interpret: it re-encodes translated blocks as native
code, links them to each other, and promotes hot paths into traces.  The
honest Python analogue of the first two steps, implemented here, is
compiling each block into one specialised Python function
(``compile_block_fn``): operand kinds, register indices, addresses and
branch targets are resolved once at translation time, and the generated
source is ``exec``-compiled so steady-state execution is straight-line
Python bytecode with no per-instruction dispatch.

A code cache serves one tier, so a block's runner (``Block.jit``) is
one of two kinds, compiled at the block's second entry (the first runs
through the reference dispatch; see :mod:`repro.dbm.tracecache`):

* the **fast** runner, in the main thread's cache, reads and writes
  machine memory directly; it may *link*: a terminator resolves its
  successor's compiled :class:`~repro.dbm.blocks.Block` once through the
  dispatcher's ``lookup`` and caches it, so the dispatch loop skips the
  code-cache lookup.  A self-looping block links to itself like any other
  successor; hot loops (self-loops included) are promoted by the
  superblock tier (:mod:`repro.dbm.superblock`), the analogue of
  DynamoRIO's traces.  ``RECORD`` sites (PROF_MEM, see
  :mod:`repro.dbm.accesslog`) compile into every runner as an inline
  append of the site's address to the run's access log, so training
  runs stay on this tier, superblocks included.  In a run with an access
  log attached, the fast runner also appends every Mem-operand access to
  the log while the local ``rc`` is set: ``rc`` holds
  ``interp.recording`` (an external-call window or an oracle replay
  window is live), read at entry and again after every RTCALL, the only
  instruction whose handler opens or closes a window.
* the **shadow** runner (``shadow=True``), in a parallel worker's cache,
  which only runs with ``interp.shadow_sink`` installed, links like
  the fast runner and additionally records shadow events for the
  parallel runtime: the worker's stack/TLS filter bounds are bound in
  the runner's namespace (``_flo``, ``_slo``, ``_shi``, ``_tlo``,
  ``_thi``, so every worker's runner has the same source) and passing
  addresses are appended to the worker's
  :class:`~repro.dbm.shadow.ShadowSink` lists — no closure call, no
  per-lane set insert.  Access sites statically proven affine
  (``interp.shadow_summarised``) are not recorded; the runtime covers
  them with per-chunk stride descriptors.  The same runner serves a
  block entered with a transaction open and one that opens or closes a
  transaction mid-block: the local ``tx`` holds ``interp.active_tx``,
  read at entry and after every RTCALL, and every access — recorded
  sites, summarised sites, each packed lane and the PUSH/POP/CALL/RET
  stack words — branches on it inline: under an open transaction an
  access off the thread's own stack goes through the transaction and
  nothing is recorded.

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
``tests/dbm/test_shadow_diff.py`` (shadow sets), and
``tests/dbm/test_shadow_runner.py`` (transactions) pin every runner
against it.  Opcodes without a template (none today) fall back to the
reference ``_exec`` per instruction and are counted in
``JITStats.fallback_instructions``.
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
from repro.isa.registers import STACK_REG, XMM_BASE
from repro.jbin import layout
from repro.dbm.accesslog import ACCESS
from repro.dbm.machine import HALT_ADDRESS
from repro.dbm.memory import f64_to_i64, i64_to_f64, s64
from repro.telemetry.core import RegistryView

_I64_MAX = 9223372036854775807
_I64_MIN = -9223372036854775808
_U64 = (1 << 64) - 1

# Iterations a superblock may spin before returning to the dispatcher
# (bounds how late an instruction limit can be detected).  Default for
# ``Interpreter.trace_budget``.
TRACE_BUDGET = 4096

_COND_EXPR = {
    "e": "f == 0",
    "ne": "f != 0",
    "l": "f < 0",
    "le": "f <= 0",
    "g": "f > 0",
    "ge": "f >= 0",
}


class JITStats(RegistryView):
    """Translation/link observability counters (one instance per interp).

    Storage lives in a :class:`~repro.telemetry.core.MetricRegistry`
    under ``jit.*`` keys; the attributes here are thin property views so
    existing call sites (including generated block runners) are
    unchanged.  ``as_dict()`` keeps the legacy unprefixed key names.
    """

    _NAMESPACE = "jit"
    _FIELDS = ("blocks_translated", "links_installed",
               "fallback_instructions")


def _identity(value: int) -> int:
    return value


# The image translated last and its memo (see ``translation_memo``).
_MEMO_SLOT: list = [None, {}]


def translation_memo(process) -> dict:
    """The memo of pure translation products for ``process``'s image.

    Every entry is a pure function of its key within the image:
    ``("ins", section base, address)`` -> ``(instruction, cycles)``
    (:func:`~repro.dbm.blocks.discover_block`; one entry per instruction,
    whatever stop addresses a run splits its blocks at),
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


def compile_block_fn(block, interp, lookup, shadow=False):
    """Compile ``block`` into a single runner function ``run(ctx)``.

    The runner charges the block's static cost, executes the block, and
    returns one of:

    * a :class:`~repro.dbm.blocks.Block` — the linked successor;
    * an ``int`` program counter — an unlinked transfer;
    * ``-1`` — the program halted (``ctx.halted``/``exit_code`` are set).

    ``lookup(pc, ctx) -> Block`` is the dispatcher's code-cache lookup; it
    must be stable for the lifetime of the block (links are installed
    once).  ``shadow=True`` builds the shadow runner for the worker whose
    sink is installed in ``interp.shadow_sink``.
    """
    from repro.dbm.interp import JXRuntimeError

    fn = _BlockCompiler(block, interp, lookup, JXRuntimeError,
                        shadow=shadow).build()
    interp.jit_stats.blocks_translated += 1
    return fn


class _BlockCompiler:
    """Generates the Python source of one block runner and exec-compiles it."""

    def __init__(self, block, interp, lookup, error_type, shadow=False):
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
            "_in": interp,
            "_Z4": (0.0, 0.0, 0.0, 0.0),
        }
        if shadow:
            sink = interp.shadow_sink
            self.summarised = interp.shadow_summarised
            # The filter bounds are names, not literals, so one source
            # (and one memoised code object) serves every worker.  Most
            # heap addresses sit below both excluded regions: one
            # compare against ``_flo`` short-circuits the full filter.
            self.ns["_flo"] = min(sink.stack_lo + 1, sink.tls_lo)
            self.ns["_slo"], self.ns["_shi"] = sink.stack_lo, sink.stack_hi
            self.ns["_tlo"], self.ns["_thi"] = sink.tls_lo, sink.tls_hi
            self.ns["_re"] = sink.reads.append
            self.ns["_we"] = sink.writes.append
            self.ns["_pre"] = sink.packed_reads.append
            self.ns["_pwe"] = sink.packed_writes.append
        # A shadow runner also serves a block entered with a transaction
        # open or opening one mid-block: it keeps the open transaction in
        # the local ``tx`` (re-read after each RTCALL, the only
        # instruction that opens or closes one) and branches on it at
        # every memory access.
        self.tx_guarded = shadow
        # Whether the body reads ``rc``/``tx``: a runner with no access
        # to guard skips the entry read (and shares the plain source).
        self.uses_rc = self.uses_tx = False
        self.n_temps = 0
        # Access recording into the run's access log: every Mem-operand
        # access while the ``rc`` flag (the window state, re-read after
        # each RTCALL) is set.  The shadow tier never runs a window.
        self.log = interp.access_log
        self.rec = self.log is not None and not shadow
        if self.log is not None:
            self.ns["_lg"] = self.log.entries.append
            # The oracle's private-stack bounds are names, not literals,
            # so profiler and oracle runs of one image share each source.
            self.ns["_plo"], self.ns["_phi"] = self.log.private or (0, 0)
        memory = interp.machine.memory
        self.ns["_mr"] = memory.read
        self.ns["_mw"] = memory.write
        self.ns["_rf"] = memory.read_f64

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
        self.uses_rc = True
        self.emit(f"if rc and not _plo < {var} <= _phi: "
                  f"_lg(({key!r}, {var}))")

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
        cond = self.record_cond(var)
        if self.tx_guarded:
            # Accesses under an open transaction are invisible.
            self.uses_tx = True
            cond = f"tx is None and ({cond})"
        self.emit(f"if {cond}: {call}")

    def record(self, var: str, ins: Instruction, is_write: bool,
               lanes: int) -> None:
        """Record the access at base address ``var`` in the access log,
        or as a shadow event unless the site is summarised."""
        if self.rec:
            self.record_access(var, ins, is_write, lanes)
        elif self.shadow and self.addr_of(ins) not in self.summarised:
            if lanes == 1:
                call = f"_we({var})" if is_write else f"_re({var})"
            else:
                event = "_pwe" if is_write else "_pre"
                call = f"{event}(({var}, {lanes}))"
            self.emit_record(var, call)

    # -- memory access --------------------------------------------------------

    def own_stack(self, addr: str) -> str:
        return (f"ctx.stack_top - {layout.THREAD_STACK_SIZE} < {addr}"
                f" <= ctx.stack_top")

    def word_load(self, addr: str, f64: bool = False) -> str:
        """The word at ``addr``, as a double with ``f64``: read through
        an open transaction unless it lies on the thread's own stack.
        A transaction logs int bits, so its value-based validation
        compares bit patterns."""
        load = f"_rf({addr})" if f64 else f"_mr({addr})"
        if not self.tx_guarded:
            return load
        self.uses_tx = True
        tx_load = f"_i2f(tx.read({addr}))" if f64 else f"tx.read({addr})"
        return (f"({load} if tx is None or {self.own_stack(addr)}"
                f" else {tx_load})")

    def emit_word_store(self, addr: str, value: str,
                        f64: bool = False) -> None:
        """Store ``value`` (a double with ``f64``) at ``addr``: memory
        keeps it in the form given; an open transaction buffers bits."""
        if not self.tx_guarded:
            self.emit(f"_mw({addr}, {value})")
            return
        self.uses_tx = True
        self.emit(f"if tx is None or {self.own_stack(addr)}:")
        self.emit(f"    _mw({addr}, {value})")
        bits = f"_f2i({value})" if f64 else value
        self.emit("else:")
        self.emit(f"    tx.write({addr}, {bits})")

    def mem_load(self, op: Mem, ins: Instruction, f64: bool = False) -> str:
        """Expression reading Mem operand ``op``, with the access recorded."""
        if not (self.rec or self.shadow):
            return f"{'_rf' if f64 else '_mr'}({self.ea(op)})"
        sa = self.addr_temp()
        self.emit(f"{sa} = {self.ea(op)}")
        self.record(sa, ins, False, 1)
        return self.word_load(sa, f64)

    def mem_store(self, op: Mem, ins: Instruction, value: str,
                  f64: bool = False) -> None:
        if not (self.rec or self.shadow):
            self.emit(f"_mw({self.ea(op)}, {value})")
            return
        sa = self.addr_temp()
        self.emit(f"{sa} = {self.ea(op)}")
        self.record(sa, ins, True, 1)
        self.emit_word_store(sa, value, f64)

    # -- operand access -------------------------------------------------------

    def iread(self, op, k: int, ins: Instruction) -> str:
        t = type(op)
        if t is Reg:
            return self.greg(op.id)
        if t is Imm:
            return repr(op.value)
        return self.mem_load(op, ins)

    def istore(self, op, k: int, ins: Instruction, value: str) -> None:
        if type(op) is Reg:
            self.emit(f"{self.greg(op.id)} = {value}")
        else:
            self.mem_store(op, ins, value)

    def fread(self, op, k: int, ins: Instruction) -> str:
        if type(op) is Reg:
            return f"x[{(op.id - XMM_BASE) * 4}]"
        return self.mem_load(op, ins, f64=True)

    def fstore(self, op, k: int, ins: Instruction, value: str) -> None:
        if type(op) is Reg:
            self.emit(f"x[{(op.id - XMM_BASE) * 4}] = {value}")
        else:
            self.mem_store(op, ins, value, f64=True)

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
        elif op in CMOV_OPCODES:
            self.emit(f"if {_COND_EXPR[CONDITION_OF[op]]}:")
            self.indent += 1
            self.istore(ops[0], k, ins, self.iread(ops[1], k, ins))
            self.indent -= 1
        elif op is Opcode.PUSH:
            # sp moves before the value is read (matches reference order:
            # a push of rsp or an rsp-relative operand sees the new sp).
            self.emit(f"sp = {self.greg(STACK_REG)} - 8")
            self.emit(f"{self.greg(STACK_REG)} = sp")
            self.emit_word_store("sp", self.iread(ops[0], k, ins))
        elif op is Opcode.POP:
            # Store happens before sp moves: a Mem destination's effective
            # address uses the old sp (matches reference order).
            self.emit(f"sp = {self.greg(STACK_REG)}")
            self.istore(ops[0], k, ins, self.word_load("sp"))
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
        elif op in PACKED_LANES:
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
            # The block's charge was added at entry: back it out.
            self.emit(f"ctx.entry_instructions = ctx.instructions"
                      f" - {len(self.block.instructions)}")
            self.emit(f"t = _rt(ctx, {hid}, {arg})")
            # Runtime handlers may replace the register lists wholesale
            # (worker merge) and adjust flags: re-hoist the locals.
            self.emit("g = ctx.gregs")
            self.emit("x = ctx.fregs")
            self.emit("f = ctx.flags")
            if self.rec:
                self.emit("rc = _in.recording")
            if self.tx_guarded:
                self.emit("tx = _in.active_tx")
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
            self.record("a", ins, False, lanes)
            for lane in range(lanes):
                offset = f" + {8 * lane}" if lane else ""
                load = self.word_load("a" + offset, f64=True)
                self.emit(f"s{lane} = {load}")
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
            self.record("a2", ins, True, lanes)
            for lane in range(lanes):
                offset = f" + {8 * lane}" if lane else ""
                self.emit_word_store(f"a2{offset}", results[lane], f64=True)

    # -- terminators ---------------------------------------------------------

    def terminator(self, ins: Instruction, k: int) -> None:
        op = ins.opcode
        ops = ins.operands

        if op in COND_BRANCHES:
            cond = _COND_EXPR[CONDITION_OF[op]]
            taken = self.resolve(ops[0].value)
            self.emit("ctx.flags = f")
            self.emit(f"if {cond}:")
            self.indent += 1
            self.emit_link_return(taken)
            self.indent -= 1
            self.emit_link_return(self.block.end)
        elif op is Opcode.JMP:
            self.emit("ctx.flags = f")
            self.emit_link_return(self.resolve(ops[0].value))
        elif op is Opcode.CALL:
            self.emit(f"sp = {self.greg(STACK_REG)} - 8")
            self.emit(f"{self.greg(STACK_REG)} = sp")
            self.emit_word_store("sp", str(ins.address + ins.size))
            self.emit("ctx.flags = f")
            self.emit_link_return(self.resolve(ops[0].value))
        elif op is Opcode.CALLI:
            # Target read precedes the push (matches reference order).
            self.emit(f"t = {self.iread(ops[0], k, ins)}")
            self.emit(f"sp = {self.greg(STACK_REG)} - 8")
            self.emit(f"{self.greg(STACK_REG)} = sp")
            self.emit_word_store("sp", str(ins.address + ins.size))
            self.emit("ctx.flags = f")
            self.emit_indirect_return(resolve_target=True)
        elif op is Opcode.JMPI:
            self.emit(f"t = {self.iread(ops[0], k, ins)}")
            self.emit("ctx.flags = f")
            self.emit_indirect_return(resolve_target=True)
        elif op is Opcode.RET:
            self.emit(f"sp = {self.greg(STACK_REG)}")
            self.emit(f"t = {self.word_load('sp')}")
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

    def build(self):
        block = self.block
        instructions = block.instructions
        term = instructions[-1]
        fname = f"_jx_{block.start:x}"
        head = [
            f"def {fname}(ctx):",
            "    g = ctx.gregs",
            "    x = ctx.fregs",
            "    f = ctx.flags",
        ]
        self.emit(f"ctx.cycles += {block.cost}")
        self.emit(f"ctx.instructions += {len(instructions)}")
        for k, ins in enumerate(instructions[:-1]):
            self.stmt(ins, k)
        k = len(instructions) - 1
        if term.is_control:
            self.terminator(term, k)
        else:
            self.stmt(term, k)
            self.emit("ctx.flags = f")
            self.emit_link_return(block.end)
        if self.uses_rc:
            head.append("    rc = _in.recording")
        if self.uses_tx:
            head.append("    tx = _in.active_tx")
        if self.n_slots:
            self.ns["_L"] = self.links
        source = "\n".join(head + self.lines) + "\n"
        variant = "shadow" if self.shadow else "fast"
        filename = f"<jit {variant} {block.start:#x}>"
        key = ("code", source, filename)
        code = self.memo.get(key)
        if code is None:
            code = self.memo[key] = compile(source, filename, "exec")
        exec(code, self.ns)
        fn = self.ns[fname]
        fn.__jit_source__ = source
        return fn

