"""Differential tests: the compiled tiers must match the reference interpreter.

The trace-cache JIT (repro.dbm.jit) re-implements every opcode's semantics
as generated Python; any divergence from the reference ``_exec`` dispatch
would corrupt execution silently.  These tests run identical programs
through the reference path (``force_reference``), the fast compiled
runner, the superblock tier and the fast runner with an access log
attached and a recording window open for the whole run (compared
against the reference dispatch under the same window) and require
bit-identical outcomes: registers, flags, memory, outputs, cycle and
instruction counts — and identical access logs.

``test_opcode_sweep`` is the pin for full template coverage: it sweeps all
opcodes with randomized operand kinds (register / immediate / memory with
base+index+scale addressing).
"""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.dbm.accesslog import AccessLog
from repro.dbm.executor import run_native
from repro.dbm.interp import Interpreter
from repro.dbm.machine import Machine, make_main_context
from repro.dbm.blocks import discover_block
from repro.isa import Imm, Opcode as O, Reg
from repro.isa.instructions import PSEUDO_OPCODES
from repro.isa.operands import Label, Mem
from repro.isa.registers import R
from repro.jbin import syscalls
from repro.jbin.asm import Assembler
from repro.jbin.loader import load
from repro.jcc import CompileOptions, compile_source


def run_with_path(process, mode: str = "fast", record_log: bool = False):
    """Execute a process through one of the execution tiers.

    ``mode`` is ``"fast"`` (the linked block tier, superblocks off),
    ``"reference"`` (per-instruction reference dispatch) or
    ``"superblock"`` (the full trace-cache dispatcher with instant
    hot-loop promotion).  With ``record_log`` an access log is attached
    and a recording window stays open, so the compiled fast runner
    appends every access; the returned log then holds its entries as
    (pc, address, is_write, lanes) events.
    """
    from repro.dbm.tracecache import run_loop

    machine = Machine()
    machine.memory.load_words(process.initial_data())
    machine.inputs = list(process.inputs)
    ctx = make_main_context(process.entry, machine.memory)
    interp = Interpreter(machine, process)
    if mode == "reference":
        interp.force_reference = True
    elif mode == "fast":
        interp.superblock_threshold = 0
    else:
        interp.superblock_threshold = 1
    if record_log:
        interp.access_log = AccessLog()
        interp.recording = True
    cache = {}

    def lookup(pc, _ctx):
        block = cache.get(pc)
        if block is None:
            block = cache[pc] = discover_block(process, pc)
        return block

    run_loop(interp, ctx, ctx.pc, lookup, max_instructions=10_000_000)
    return ctx, machine, _log_events(interp)


def _log_events(interp):
    """An access log's entries as (pc, address, is_write, lanes) events."""
    if interp.access_log is None:
        return []
    return [(pc, addr, is_write, lanes)
            for (_kind, pc, is_write, lanes), addr
            in interp.access_log.entries]


def _bits(value):
    """Floats compared by bit pattern so NaN == NaN holds."""
    if isinstance(value, float):
        return struct.unpack("<Q", struct.pack("<d", value))[0]
    return value


def _state(ctx, machine):
    return {
        "gregs": list(ctx.gregs),
        "fregs": [_bits(v) for v in ctx.fregs],
        "flags": ctx.flags,
        "cycles": ctx.cycles,
        "instructions": ctx.instructions,
        "exit_code": ctx.exit_code,
        "outputs": [(kind, _bits(v)) for kind, v in machine.outputs],
        "memory": machine.memory.snapshot(),
    }


def assert_equivalent(build_process):
    """All execution tiers agree on the final architectural state.

    ``build_process`` is a zero-argument factory (each tier needs a fresh
    process/machine).
    """
    ref_ctx, ref_machine, _ = run_with_path(build_process(), "reference")
    fast_ctx, fast_machine, _ = run_with_path(build_process(), "fast")
    sb_ctx, sb_machine, _ = run_with_path(build_process(), "superblock")
    rref_ctx, rref_machine, rref_log = run_with_path(
        build_process(), "reference", record_log=True)
    rec_ctx, rec_machine, rec_log = run_with_path(
        build_process(), "superblock", record_log=True)
    block_ctx, block_machine, block_log = run_with_path(
        build_process(), "fast", record_log=True)
    reference = _state(ref_ctx, ref_machine)
    assert _state(fast_ctx, fast_machine) == reference
    assert _state(sb_ctx, sb_machine) == reference
    assert _state(rref_ctx, rref_machine) == reference
    assert _state(rec_ctx, rec_machine) == reference
    assert _state(block_ctx, block_machine) == reference
    assert rec_log == rref_log
    assert block_log == rref_log


# ---------------------------------------------------------------------------
# Randomized all-opcode sweep
# ---------------------------------------------------------------------------

# Pools: data/ALU registers are disjoint from addressing registers so a
# destination write can never corrupt an effective address mid-program.
# Integer ops use wbuf and FP ops use fbuf (doubles): reinterpreting random
# ints as doubles yields NaNs, and CPython's NaN payload propagation is not
# stable across call sites (the specialised BINARY_OP_ADD_FLOAT path and
# float_add order the addsd operands differently), so a payload-exact
# differential oracle must stay NaN-free.
_INT_REGS = (R.rax, R.rbx, R.rcx, R.rdx)
_WBUF_BASE = R.r8     # writable int scratch buffer base
_INDEX_REG = R.r9     # small non-negative index
_CBUF_BASE = R.r10    # read-only double constants base
_SCRATCH = R.r11
_FBUF_BASE = R.r12    # writable double scratch buffer base
_XMM_POOL = (R.xmm0, R.xmm1, R.xmm2, R.xmm3)
_XMM_PACKED_CONST = R.xmm6  # four nonzero positive lanes
_XMM_CONST = R.xmm7         # nonzero positive scalar
_WBUF_WORDS = 48

_INT_ALU = (O.MOV, O.LEA, O.ADD, O.SUB, O.IMUL, O.IDIV, O.IMOD, O.AND,
            O.OR, O.XOR, O.SHL, O.SHR, O.SAR, O.INC, O.DEC, O.NEG, O.NOT,
            O.CMP, O.TEST, O.CMOVE, O.CMOVNE, O.CMOVL, O.CMOVLE, O.CMOVG,
            O.CMOVGE)
_FP_ALU = (O.MOVSD, O.ADDSD, O.SUBSD, O.MULSD, O.DIVSD, O.SQRTSD, O.MINSD,
           O.MAXSD, O.UCOMISD, O.CVTSI2SD, O.CVTTSD2SI, O.XORPD)
_PACKED_ALU = (O.MOVAPD, O.ADDPD, O.SUBPD, O.MULPD, O.DIVPD,
               O.VMOVAPD, O.VADDPD, O.VSUBPD, O.VMULPD, O.VDIVPD)


def _mem_operand(rng, base=_WBUF_BASE, words=_WBUF_WORDS, span=1):
    """A random wbuf/cbuf memory operand, 8-aligned, in-bounds."""
    limit = words - span - 4  # leave room for index (0..3) and lanes
    disp = 8 * rng.randint(0, max(limit, 0))
    if rng.random() < 0.4:
        return Mem(base=base, index=_INDEX_REG, scale=8, disp=disp)
    return Mem(base=base, disp=disp)


def _sweep_prologue(a, rng):
    wbuf = a.space("wbuf", _WBUF_WORDS)
    cbuf = a.double(
        "cbuf", *[rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)
                  for _ in range(4)])
    fbuf = a.double(
        "fbuf", *[rng.uniform(-8.0, 8.0) for _ in range(_WBUF_WORDS)])
    a.label("_start")
    a.emit(O.MOV, Reg(_WBUF_BASE), wbuf)
    a.emit(O.MOV, Reg(_CBUF_BASE), cbuf)
    a.emit(O.MOV, Reg(_FBUF_BASE), fbuf)
    a.emit(O.MOV, Reg(_INDEX_REG), Imm(rng.randint(0, 3)))
    for reg in _INT_REGS:
        magnitude = rng.choice([50, 10_000, 2**31, 2**62])
        a.emit(O.MOV, Reg(reg), Imm(rng.randint(-magnitude, magnitude)))
    for k in range(_WBUF_WORDS):
        a.emit(O.MOV, Mem(base=_WBUF_BASE, disp=8 * k),
               Imm(rng.randint(-10_000, 10_000)))
    # FP state: scalar lanes from the constant pool, xmm6 fully packed.
    for reg in _XMM_POOL:
        a.emit(O.MOVSD, Reg(reg),
               Mem(base=_CBUF_BASE, disp=8 * rng.randint(0, 3)))
    a.emit(O.MOVSD, Reg(_XMM_CONST), Mem(base=_CBUF_BASE, disp=0))
    a.emit(O.MULSD, Reg(_XMM_CONST), Reg(_XMM_CONST))  # square: > 0
    a.emit(O.VMOVAPD, Reg(_XMM_PACKED_CONST), Mem(base=_CBUF_BASE, disp=0))
    a.emit(O.CMP, Reg(R.rax), Imm(rng.randint(-5, 5)))


def _sweep_epilogue(a):
    a.emit(O.MOV, Reg(R.rdi), Reg(R.rax))
    a.emit(O.MOV, Reg(R.rax), Imm(syscalls.PRINT_INT))
    a.emit(O.SYSCALL)
    a.emit(O.MOV, Reg(R.rdi), Mem(base=_WBUF_BASE, disp=8))
    a.emit(O.MOV, Reg(R.rax), Imm(syscalls.PRINT_INT))
    a.emit(O.SYSCALL)
    a.emit(O.MOVSD, Reg(R.xmm0), Reg(R.xmm1))
    a.emit(O.MOV, Reg(R.rax), Imm(syscalls.PRINT_F64))
    a.emit(O.SYSCALL)
    a.emit(O.RET)


def _emit_int_case(a, rng, op):
    def int_dst():
        if rng.random() < 0.35:
            return _mem_operand(rng)
        return Reg(rng.choice(_INT_REGS))

    def int_src(nonzero=False):
        roll = rng.random()
        if roll < 0.35 and not nonzero:
            return Reg(rng.choice(_INT_REGS))
        if roll < 0.7 or nonzero:
            value = rng.randint(1, 9999) * rng.choice([-1, 1])
            return Imm(value if nonzero else rng.randint(-9999, 9999))
        return _mem_operand(rng)

    if rng.random() < 0.3:  # churn the flags between cases
        a.emit(O.CMP, Reg(rng.choice(_INT_REGS)), Imm(rng.randint(-3, 3)))
    if op is O.LEA:
        a.emit(op, Reg(rng.choice(_INT_REGS)), _mem_operand(rng))
    elif op in (O.INC, O.DEC, O.NEG, O.NOT):
        a.emit(op, int_dst())
    elif op in (O.IDIV, O.IMOD):
        a.emit(op, int_dst(), int_src(nonzero=True))
    elif op in (O.SHL, O.SHR, O.SAR):
        amount = Imm(rng.randint(0, 70)) if rng.random() < 0.6 \
            else Reg(rng.choice(_INT_REGS))
        a.emit(op, int_dst(), amount)
    elif op in (O.CMP, O.TEST):
        a.emit(op, int_src(), int_src())
    else:  # MOV / ADD / SUB / IMUL / AND / OR / XOR / CMOVcc
        a.emit(op, int_dst(), int_src())


def _emit_fp_case(a, rng, op):
    def fp_dst():
        if op is not O.XORPD and rng.random() < 0.3:
            return _mem_operand(rng, base=_FBUF_BASE)
        return Reg(rng.choice(_XMM_POOL))

    def fp_src(safe=False):
        # "safe": nonzero (divisor) and non-negative-capable (sqrt).
        if safe:
            if rng.random() < 0.5:
                return Reg(_XMM_CONST)
            return Mem(base=_CBUF_BASE, disp=8 * rng.randint(0, 3))
        roll = rng.random()
        if roll < 0.5:
            return Reg(rng.choice(_XMM_POOL))
        if roll < 0.75:
            return _mem_operand(rng, base=_FBUF_BASE)
        return Mem(base=_CBUF_BASE, disp=8 * rng.randint(0, 3))

    if op is O.XORPD:
        reg = Reg(rng.choice(_XMM_POOL))
        other = Reg(rng.choice(_XMM_POOL)) if rng.random() < 0.5 else reg
        a.emit(op, reg, other)
    elif op is O.DIVSD:
        a.emit(op, fp_dst(), fp_src(safe=True))
        # Divisions compound quickly; renormalise the destination pool.
        a.emit(O.MOVSD, Reg(rng.choice(_XMM_POOL)), Reg(_XMM_CONST))
    elif op is O.SQRTSD:
        a.emit(op, fp_dst(), Reg(_XMM_CONST))
    elif op is O.CVTSI2SD:
        src = Reg(rng.choice(_INT_REGS)) if rng.random() < 0.5 \
            else _mem_operand(rng)
        a.emit(op, fp_dst(), src)
    elif op is O.CVTTSD2SI:
        dst = Reg(rng.choice(_INT_REGS)) if rng.random() < 0.6 \
            else _mem_operand(rng)
        a.emit(op, dst, fp_src(safe=True))
    elif op is O.UCOMISD:
        a.emit(op, Reg(rng.choice(_XMM_POOL)), fp_src())
    else:  # MOVSD / ADDSD / SUBSD / MULSD / MINSD / MAXSD
        a.emit(op, fp_dst(), fp_src())


def _emit_packed_case(a, rng, op):
    lanes = 4 if op.name.startswith("V") else 2
    is_move = op in (O.MOVAPD, O.VMOVAPD)
    dst = Reg(rng.choice(_XMM_POOL))
    if is_move and rng.random() < 0.3:
        dst = _mem_operand(rng, base=_FBUF_BASE, span=lanes)
    if op in (O.DIVPD, O.VDIVPD):
        src = Reg(_XMM_PACKED_CONST) if rng.random() < 0.5 \
            else Mem(base=_CBUF_BASE, disp=0)
        a.emit(op, dst, src)
        # Renormalise so repeated divisions stay finite and comparable.
        a.emit(O.VMOVAPD, Reg(rng.choice(_XMM_POOL)),
               Reg(_XMM_PACKED_CONST))
        return
    if rng.random() < 0.5:
        src = Reg(rng.choice(_XMM_POOL + (_XMM_PACKED_CONST,)))
    elif rng.random() < 0.5:
        src = _mem_operand(rng, base=_FBUF_BASE, span=lanes)
    else:
        src = Mem(base=_CBUF_BASE, disp=0)
    a.emit(op, dst, src)


def _build_sweep_image(op, seed):
    rng = random.Random(seed)
    a = Assembler()
    _sweep_prologue(a, rng)
    for _ in range(16):
        if op in _INT_ALU:
            _emit_int_case(a, rng, op)
        elif op in _FP_ALU:
            _emit_fp_case(a, rng, op)
        else:
            _emit_packed_case(a, rng, op)
    _sweep_epilogue(a)
    return a.assemble(entry="_start")


@pytest.mark.parametrize("op", _INT_ALU + _FP_ALU + _PACKED_ALU,
                         ids=lambda op: op.name)
def test_opcode_sweep(op):
    """Every data opcode agrees across all tiers for random operand kinds."""
    for seed in (1, 2, 3):
        image = _build_sweep_image(op, seed)
        assert_equivalent(lambda: load(image))


def test_prefetch_hint():
    """PREFETCH evaluates its address operand but changes no state.

    The hint may legitimately target memory outside any mapped buffer
    (the rewrite rules add a stride*distance offset), so one case aims
    far past wbuf on purpose.
    """
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        a = Assembler()
        _sweep_prologue(a, rng)
        for _ in range(8):
            a.emit(O.PREFETCH, _mem_operand(rng))
            _emit_int_case(a, rng, rng.choice((O.ADD, O.MOV, O.IMUL)))
            a.emit(O.PREFETCH, _mem_operand(rng, base=_FBUF_BASE))
            _emit_fp_case(a, rng, rng.choice((O.ADDSD, O.MOVSD)))
        a.emit(O.PREFETCH, Mem(base=_WBUF_BASE, disp=8 * 100_000))
        a.emit(O.PREFETCH, Mem(base=None, disp=8))
        _sweep_epilogue(a)
        image = a.assemble(entry="_start")
        assert_equivalent(lambda: load(image))


def test_stack_ops():
    """PUSH/POP with register, immediate and memory operands."""
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        a = Assembler()
        _sweep_prologue(a, rng)
        depth = 0
        for _ in range(24):
            if depth and rng.random() < 0.5:
                target = Reg(rng.choice(_INT_REGS)) if rng.random() < 0.6 \
                    else _mem_operand(rng)
                a.emit(O.POP, target)
                depth -= 1
            else:
                roll = rng.random()
                if roll < 0.4:
                    source = Reg(rng.choice(_INT_REGS))
                elif roll < 0.5:
                    source = Reg(R.rsp)  # pushes the new rsp
                elif roll < 0.75:
                    source = Imm(rng.randint(-9999, 9999))
                else:
                    source = _mem_operand(rng)
                a.emit(O.PUSH, source)
                depth += 1
        if depth:
            a.emit(O.ADD, Reg(R.rsp), Imm(8 * depth))
        _sweep_epilogue(a)
        image = a.assemble(entry="_start")
        assert_equivalent(lambda: load(image))


def test_control_flow_ops():
    """Direct branches: backward loops and forward skips for every cc."""
    for seed in (1, 2):
        rng = random.Random(seed)
        a = Assembler()
        _sweep_prologue(a, rng)
        a.emit(O.MOV, Reg(R.rcx), Imm(rng.randint(5, 12)))
        a.emit(O.MOV, Reg(R.rax), Imm(0))
        a.label("loop")
        a.emit(O.ADD, Reg(R.rax), Reg(R.rcx))
        a.emit(O.CALL, Label("helper"))
        # Forward skips, one per condition code.
        for k, cc in enumerate((O.JE, O.JNE, O.JL, O.JLE, O.JG, O.JGE)):
            skip = Label(f"skip{seed}_{k}")
            a.emit(O.CMP, Reg(R.rax), Imm(rng.randint(-20, 20)))
            a.emit(cc, skip)
            a.emit(O.XOR, Reg(R.rax), Imm(rng.randint(1, 255)))
            a.emit(O.JMP, Label(f"join{seed}_{k}"))
            a.label(f"skip{seed}_{k}")
            a.emit(O.ADD, Reg(R.rax), Imm(3))
            a.label(f"join{seed}_{k}")
        a.emit(O.DEC, Reg(R.rcx))
        a.emit(O.CMP, Reg(R.rcx), Imm(0))
        a.emit(O.JG, Label("loop"))
        a.emit(O.JMP, Label("done"))
        a.label("helper")
        a.emit(O.IMUL, Reg(R.rbx), Imm(3))
        a.emit(O.RET)
        a.label("done")
        _sweep_epilogue(a)
        image = a.assemble(entry="_start")
        assert_equivalent(lambda: load(image))


def test_indirect_ops():
    """JMPI/CALLI through registers and memory slots."""
    a = Assembler()
    slot = a.word("slot", 0)
    rng = random.Random(7)
    _sweep_prologue(a, rng)
    a.emit(O.MOV, Reg(_SCRATCH), Label("target1"))
    a.emit(O.JMPI, Reg(_SCRATCH))
    a.emit(O.MOV, Reg(R.rax), Imm(111))  # skipped
    a.label("target1")
    a.emit(O.MOV, Reg(_SCRATCH), Label("fn"))
    a.emit(O.CALLI, Reg(_SCRATCH))
    a.emit(O.MOV, Mem(disp=slot), Reg(_SCRATCH))
    a.emit(O.MOV, Reg(_SCRATCH), Label("fn"))
    a.emit(O.CALLI, Mem(disp=slot))
    a.emit(O.MOV, Mem(disp=slot), Label("target2"))
    a.emit(O.JMPI, Mem(disp=slot))
    a.emit(O.MOV, Reg(R.rax), Imm(222))  # skipped
    a.label("target2")
    a.emit(O.JMP, Label("done"))
    a.label("fn")
    a.emit(O.ADD, Reg(R.rax), Imm(17))
    a.emit(O.MOV, Reg(_SCRATCH), Label("fn"))
    a.emit(O.RET)
    a.label("done")
    _sweep_epilogue(a)
    image = a.assemble(entry="_start")
    assert_equivalent(lambda: load(image))


def test_syscall_and_halt_ops():
    """SYSCALL variants (IO, clock, jomp, exit), NOP and HLT."""
    a = Assembler()
    a.label("_start")
    for number, arg in ((syscalls.READ_INT, None),
                       (syscalls.PRINT_INT, 41),
                       (syscalls.PRINT_CHAR, 65)):
        if arg is not None:
            a.emit(O.MOV, Reg(R.rdi), Imm(arg))
        a.emit(O.MOV, Reg(R.rax), Imm(number))
        a.emit(O.SYSCALL)
    a.emit(O.NOP)
    a.emit(O.MOV, Reg(R.rdi), Imm(2))
    a.emit(O.MOV, Reg(R.rax), Imm(syscalls.JOMP_BEGIN))
    a.emit(O.SYSCALL)
    a.emit(O.MOV, Reg(R.rcx), Imm(50))
    a.label("spin")
    a.emit(O.DEC, Reg(R.rcx))
    a.emit(O.CMP, Reg(R.rcx), Imm(0))
    a.emit(O.JG, Label("spin"))
    a.emit(O.MOV, Reg(R.rax), Imm(syscalls.JOMP_END))
    a.emit(O.SYSCALL)
    a.emit(O.MOV, Reg(R.rax), Imm(syscalls.CLOCK))
    a.emit(O.SYSCALL)
    a.emit(O.MOV, Reg(R.rdi), Reg(R.rax))
    a.emit(O.MOV, Reg(R.rax), Imm(syscalls.PRINT_INT))
    a.emit(O.SYSCALL)
    a.emit(O.HLT)
    image = a.assemble(entry="_start")
    assert_equivalent(lambda: load(image, inputs=[5]))

    b = Assembler()
    b.label("_start")
    b.emit(O.MOV, Reg(R.rdi), Imm(3))
    b.emit(O.MOV, Reg(R.rax), Imm(syscalls.EXIT))
    b.emit(O.SYSCALL)
    image_exit = b.assemble(entry="_start")
    assert_equivalent(lambda: load(image_exit))


def test_sweep_covers_every_opcode():
    """The sweep + structural tests above exercise the whole ISA.

    RTCALL and RECORD are excluded: they are DBM-inserted only and
    covered by the runtime/profiling suites (RTCALL also by
    test_interp_edge without a runtime, RECORD by test_access_log).
    """
    covered = set(_INT_ALU) | set(_FP_ALU) | set(_PACKED_ALU)
    covered |= {O.PUSH, O.POP, O.JMP, O.JE, O.JNE, O.JL, O.JLE, O.JG,
                O.JGE, O.JMPI, O.CALL, O.CALLI, O.RET, O.SYSCALL, O.NOP,
                O.HLT, O.PREFETCH}
    missing = set(O) - covered - PSEUDO_OPCODES
    assert not missing, sorted(op.name for op in missing)


# ---------------------------------------------------------------------------
# Linking and hot-loop promotion
# ---------------------------------------------------------------------------

def test_linking_and_superblock_stats():
    """A hot DOALL loop links its blocks and runs inside a superblock."""
    source = """
    double xs[256];
    int main() {
        int i;
        int r;
        for (r = 0; r < 40; r++) {
            for (i = 0; i < 256; i++) { xs[i] = xs[i] + 1.5; }
        }
        print_double(xs[100]);
        return 0;
    }
    """
    image = compile_source(source, CompileOptions(opt_level=3))
    result = run_native(load(image))
    stats = result.stats
    assert stats["blocks_translated"] > 0
    assert stats["links_installed"] > 0
    assert stats["superblock_formed"] >= 1
    assert stats["superblock_entries"] > 0
    assert stats["fallback_instructions"] == 0


def test_trace_budget_preserves_instruction_limit():
    """An infinite self-loop must still honour the dispatcher's limit check."""
    from repro.dbm.interp import ExecutionLimitExceeded

    a = Assembler()
    a.label("_start")
    a.label("spin")
    a.emit(O.JMP, Label("spin"))
    image = a.assemble(entry="_start")
    with pytest.raises(ExecutionLimitExceeded):
        run_native(load(image), max_instructions=10_000)


# ---------------------------------------------------------------------------
# Original differential property tests (compiler-generated programs)
# ---------------------------------------------------------------------------

ARITH_OPS = ["+", "-", "*", "/", "%"]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), size=st.integers(4, 60),
       use_floats=st.booleans())
def test_differential_random_programs(seed, size, use_floats):
    """Random arithmetic programs agree between the paths."""
    rng = random.Random(seed)
    lines = ["int main() {"]
    int_vars = ["x0", "x1", "x2"]
    float_vars = ["f0", "f1"]
    lines.append("    int x0 = %d; int x1 = %d; int x2 = %d;"
                 % (rng.randint(-50, 50), rng.randint(1, 50),
                    rng.randint(1, 50)))
    if use_floats:
        lines.append("    double f0 = %.2f; double f1 = %.2f;"
                     % (rng.uniform(-4, 4), rng.uniform(0.5, 4)))
    for _ in range(size):
        kind = rng.random()
        if kind < 0.6:
            target = rng.choice(int_vars)
            a = rng.choice(int_vars)
            b = rng.choice(int_vars + [str(rng.randint(1, 9))])
            op = rng.choice(ARITH_OPS)
            if op in ("/", "%"):
                b = str(rng.randint(1, 9))
            lines.append(f"    {target} = {a} {op} {b};")
        elif kind < 0.8 and use_floats:
            target = rng.choice(float_vars)
            a = rng.choice(float_vars)
            op = rng.choice(["+", "-", "*"])
            lines.append(f"    {target} = {a} {op} {rng.uniform(0.5, 2):.2f};")
        else:
            v = rng.choice(int_vars)
            lines.append(f"    if ({v} > {rng.randint(-10, 10)}) "
                         f"{{ {v} = {v} - 1; }}")
    lines.append("    print_int(x0 + x1 * 3 + x2 * 7);")
    if use_floats:
        lines.append("    print_double(f0 + f1);")
    lines.append("    return 0;")
    lines.append("}")
    image = compile_source("\n".join(lines), CompileOptions(opt_level=2))
    assert_equivalent(lambda: load(image))


def _random_branchy_source(rng) -> str:
    """A random hot loop whose body is a chain of data-dependent branches.

    The shape the superblock former targets: a multi-block loop body with
    conditionals whose bias can flip mid-run (guard side exits) and an
    integer accumulator that makes the branch history input-dependent.
    """
    n = rng.randint(48, 128)
    reps = rng.randint(4, 8)
    lines = [
        f"double xs[{n}];",
        f"double ys[{n}];",
        "int main() {",
        "    int i; int r; int acc = 0;",
        f"    for (i = 0; i < {n}; i++) {{",
        f"        xs[i] = 0.25 * i - {rng.randint(0, 20)}.0;",
        "        ys[i] = 1.0 + 0.5 * i;",
        "    }",
        f"    for (r = 0; r < {reps}; r++) {{",
        f"        for (i = 0; i < {n}; i++) {{",
    ]
    for _ in range(rng.randint(1, 3)):
        cond = rng.choice([
            f"xs[i] > {rng.uniform(-10, 10):.2f}",
            f"i % {rng.randint(2, 5)} == {rng.randint(0, 1)}",
            f"acc % {rng.randint(2, 7)} < {rng.randint(1, 3)}",
        ])
        then = rng.choice([
            "xs[i] = xs[i] * 0.5 + ys[i];",
            f"acc += {rng.randint(1, 9)};",
            f"ys[i] = ys[i] + {rng.uniform(0.1, 2.0):.2f};",
        ])
        alt = rng.choice([
            f"xs[i] = xs[i] + {rng.uniform(-1.0, 1.0):.2f};",
            f"acc -= {rng.randint(1, 5)};",
            "xs[i] = ys[i] - xs[i];",
        ])
        if rng.random() < 0.5:
            lines.append(
                f"            if ({cond}) {{ {then} }} else {{ {alt} }}")
        else:
            lines.append(f"            if ({cond}) {{ {then} }}")
    lines += [
        "        }",
        "    }",
        "    print_int(acc);",
        f"    print_double(xs[{rng.randint(0, 40)}]);",
        "    print_double(ys[3]);",
        "    return 0;",
        "}",
    ]
    return "\n".join(lines)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_superblock_differential_random_branchy_cfg(seed):
    """Random branchy-CFG loops: superblock state bit-identical to reference.

    ``superblock_threshold = 1`` (inside ``run_with_path``) promotes every
    observed loop head immediately, so the stitched fast path — guards,
    side exits, register promotion and the exit-time cycle accounting —
    carries essentially the whole run.
    """
    rng = random.Random(seed)
    source = _random_branchy_source(rng)
    image = compile_source(source, CompileOptions(opt_level=3))
    ref_ctx, ref_machine, _ = run_with_path(load(image), "reference")
    sb_ctx, sb_machine, _ = run_with_path(load(image), "superblock")
    assert _state(sb_ctx, sb_machine) == _state(ref_ctx, ref_machine)


def test_differential_loops_and_calls():
    source = """
    double xs[64];
    int helper(int a, int b) { return a * 3 + b; }
    int main() {
        int i;
        int acc = 0;
        for (i = 0; i < 64; i++) {
            xs[i] = 0.5 * i;
            acc += helper(i, acc % 11);
        }
        double total = 0.0;
        for (i = 0; i < 64; i++) { total += xs[i]; }
        print_int(acc);
        print_double(total);
        print_double(sqrt(64.0));
        return 0;
    }
    """
    image = compile_source(source, CompileOptions(opt_level=3))
    assert_equivalent(lambda: load(image))


def test_differential_wrapping():
    """Overflow wrap behaviour must match exactly."""
    a = Assembler()
    a.label("_start")
    a.emit(O.MOV, Reg(R.rax), Imm(2**62))
    a.emit(O.ADD, Reg(R.rax), Reg(R.rax))
    a.emit(O.ADD, Reg(R.rax), Imm(-1))
    a.emit(O.IMUL, Reg(R.rax), Imm(3))
    a.emit(O.INC, Reg(R.rax))
    a.emit(O.MOV, Reg(R.rdi), Reg(R.rax))
    a.emit(O.MOV, Reg(R.rax), Imm(syscalls.PRINT_INT))
    a.emit(O.SYSCALL)
    a.emit(O.RET)
    image = a.assemble(entry="_start")
    assert_equivalent(lambda: load(image))
