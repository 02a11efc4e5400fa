"""Mixed-form memory words: every tier against the reference dispatch.

``Memory`` keeps each word in the form it was last written in: an int
bit pattern or a Python float (:mod:`repro.dbm.memory`).  The reference
dispatch writes ints only; the compiled tiers store doubles as floats,
and a double load that finds an int word writes the float form back.
These programs move words between the two forms:

* doubles written by hot-loop float stores, then copied with integer
  moves (the library ``memcpy``) and read back as doubles;
* ``-0.0``, +-inf, denormals and NaNs with a payload, made by int stores
  and read as doubles (moved only, never computed on: CPython does not
  keep NaN payloads stable through arithmetic);
* float loads of loader-initialised ``.data`` tables (the write-back);
* scalar and packed accesses through a base register, which the
  superblock tier cannot prove 8-aligned.

Every tier — reference, fast runner, superblocks, an access log with a
window open, shadow runners and superblocks with a sink installed, and
the shadow runner under a transaction open for the whole run — must
leave the reference's registers, flags, outputs, counters, final memory
and ``data_snapshot`` bit for bit; the access log and shadow events must
match the reference's under the same attachment, and a transaction must
log and buffer int bits only.
"""

import struct

import pytest

from repro.dbm.accesslog import AccessLog
from repro.dbm.blocks import discover_block
from repro.dbm.executor import ExecutionResult
from repro.dbm.interp import Interpreter
from repro.dbm.machine import Machine, make_main_context
from repro.dbm.memory import MemoryFault, s64
from repro.dbm.shadow import ShadowSink
from repro.dbm.tracecache import run_loop
from repro.isa import Imm, Mem, Opcode as O, Reg
from repro.isa.operands import Label, LabelRef
from repro.isa.registers import R
from repro.jbin import layout, syscalls
from repro.jbin.asm import Assembler
from repro.jbin.loader import load
from repro.jcc import CompileOptions, compile_source
from repro.stm import Transaction

NEG_ZERO = -(1 << 63)
PATTERNS = (
    NEG_ZERO,
    0x7FF0000000000000,            # +inf
    s64(0xFFF0000000000000),       # -inf
    1,                             # smallest denormal
    0x000FFFFFFFFFFFFF,            # largest denormal
    0x7FF8000000000123,            # quiet NaN with a payload
    s64(0xFFF8000000000ABC),       # negative NaN with a payload
    0x3FF0000000000000,            # 1.0
)

TIERS = ("fast", "superblock", "log", "shadow", "shadow-superblock", "tx")


def _bits(value):
    """A register or output value as (type, bits): an xmm lane must hold
    a float, whatever form the word it was loaded from had."""
    if isinstance(value, float):
        return float, struct.unpack("<q", struct.pack("<d", value))[0]
    return type(value), value


def run_tier(image, tier, reference=False):
    """Run ``image`` on one tier (or the reference dispatch under the
    same attachments); returns (state, machine, observed events,
    interpreter)."""
    process = load(image)
    machine = Machine()
    machine.memory.load_words(process.initial_data())
    ctx = make_main_context(process.entry, machine.memory)
    interp = Interpreter(machine, process)
    interp.force_reference = reference
    interp.superblock_threshold = (
        1 if tier in ("superblock", "log", "shadow-superblock") else 0)
    if tier == "log":
        interp.access_log = AccessLog()
        interp.recording = True
    sink = None
    if tier in ("shadow", "shadow-superblock", "tx"):
        sink = interp.shadow_sink = ShadowSink(
            thread_id=0, tls_lo=ctx.tls_base,
            tls_hi=ctx.tls_base + layout.TLS_THREAD_SIZE,
            stack_lo=ctx.stack_top - layout.THREAD_STACK_SIZE,
            stack_hi=ctx.stack_top)
    tx = None
    if tier == "tx":
        tx = interp.active_tx = Transaction(memory=machine.memory)
    cache = {}

    def lookup(pc, _ctx):
        block = cache.get(pc)
        if block is None:
            block = cache[pc] = discover_block(process, pc)
        return block

    run_loop(interp, ctx, ctx.pc, lookup, max_instructions=5_000_000)
    observed = None
    if interp.access_log is not None:
        observed = list(interp.access_log.entries)
    elif sink is not None:
        observed = (sorted(sink.exact(False)), sorted(sink.exact(True)))
    if tx is not None:
        # The STM compares bit patterns: its logs hold ints only.
        assert all(type(v) is int for v in tx.read_log.values())
        assert all(type(v) is int for v in tx.write_buffer.values())
        observed = (observed, dict(tx.read_log), dict(tx.write_buffer))
        tx.commit()
    result = ExecutionResult(cycles=ctx.cycles,
                             instructions=ctx.instructions,
                             outputs=machine.outputs,
                             exit_code=ctx.exit_code, machine=machine)
    state = {
        "gregs": list(ctx.gregs),
        "fregs": [_bits(v) for v in ctx.fregs],
        "flags": ctx.flags,
        "cycles": ctx.cycles,
        "instructions": ctx.instructions,
        "exit_code": ctx.exit_code,
        "outputs": [(kind, _bits(v)) for kind, v in machine.outputs],
        "memory": machine.memory.snapshot(),
        "data": result.data_snapshot(),
    }
    return state, machine, observed, interp


def assert_tiers_match(image):
    """Every tier matches the plain reference; attached tiers also match
    the reference dispatch under the same attachment.  Returns each
    tier's machine, for checks on the forms words were left in."""
    reference, ref_machine, _, _ = run_tier(image, "fast", reference=True)
    # The reference writes int bits only.
    assert all(type(v) is int for v in ref_machine.memory.words.values())
    machines = {}
    for tier in TIERS:
        state, machine, observed, interp = run_tier(image, tier)
        assert state == reference, tier
        machines[tier] = machine
        if observed is not None:
            _ref_state, _m, ref_observed, _i = run_tier(image, tier,
                                                       reference=True)
            assert observed == ref_observed, tier
        if tier in ("superblock", "shadow-superblock"):
            assert interp.sb_stats.formed >= 1, tier
    return machines


def _float_words(machine):
    return {a for a, v in machine.memory.words.items()
            if v.__class__ is float}


MEMCPY = """
double xs[64];
double ys[64];
double zs[64];
int main() {
    int i;
    int r;
    double s;
    for (r = 0; r < 3; r++) {
        for (i = 0; i < 64; i++) { xs[i] = xs[i] * 0.5 + 0.25 * i - 3.0; }
        memcpy(ys, xs, 64);
        for (i = 0; i < 64; i++) { zs[i] = ys[i] + zs[i]; }
    }
    s = 0.0;
    for (i = 0; i < 64; i++) { s = s + zs[i]; }
    print_double(s);
    return 0;
}
"""


def test_float_stores_copied_by_integer_moves():
    """Hot-loop float stores, an integer memcpy, then double reads."""
    image = compile_source(MEMCPY, CompileOptions(opt_level=3))
    machines = assert_tiers_match(image)
    # The superblocks really left float words behind for memcpy to copy.
    assert _float_words(machines["superblock"])


def special_patterns_image():
    """Special bit patterns made by int stores and read as doubles,
    a loader-initialised table read as doubles, and the same moves
    through a base register (not provably 8-aligned), in a hot loop."""
    n = len(PATTERNS)
    a = Assembler()
    a.word("tab", *PATTERNS)
    a.word("negone", 0xBFF0000000000000)     # -1.0
    a.space("made", n)
    a.space("fout", n)
    a.space("gout", n)
    a.space("iout", n)
    a.space("uout", n)
    a.space("pout", 4)
    a.space("negz", 1)
    a.space("two", 1)
    a.label("_start")
    for k, bits in enumerate(PATTERNS):
        a.emit(O.MOV, Reg(R.rax), Imm(bits))
        a.emit(O.MOV, Mem(disp=LabelRef("made", 8 * k)), Reg(R.rax))
    # Base registers set outside the loop: the superblock cannot fold
    # them to constants, so their accesses are not provably aligned.
    a.emit(O.MOV, Reg(R.rsi), Label("tab"))
    a.emit(O.MOV, Reg(R.rdi), Label("uout"))
    a.emit(O.MOV, Reg(R.r9), Label("two"))
    a.emit(O.MOV, Reg(R.rbx), Imm(0))
    a.emit(O.MOV, Reg(R.rcx), Imm(24))
    a.label("loop")
    for k in range(n):
        off = 8 * k
        # Loader-initialised int word read as a double, stored as one.
        a.emit(O.MOVSD, Reg(R.xmm0), Mem(disp=LabelRef("tab", off)))
        a.emit(O.MOVSD, Mem(disp=LabelRef("fout", off)), Reg(R.xmm0))
        # A word made by an int store, read as a double.
        a.emit(O.MOVSD, Reg(R.xmm1), Mem(disp=LabelRef("made", off)))
        a.emit(O.MOVSD, Mem(disp=LabelRef("gout", off)), Reg(R.xmm1))
        # The float word read back as int bits and copied as an int.
        a.emit(O.MOV, Reg(R.rax), Mem(disp=LabelRef("fout", off)))
        a.emit(O.XOR, Reg(R.rbx), Reg(R.rax))
        a.emit(O.MOV, Mem(disp=LabelRef("iout", off)), Reg(R.rax))
        # Through base registers: double load, double store, int load.
        a.emit(O.MOVSD, Reg(R.xmm2), Mem(base=R.rsi, disp=off))
        a.emit(O.MOVSD, Mem(base=R.rdi, disp=off), Reg(R.xmm2))
        a.emit(O.MOV, Reg(R.rdx), Mem(base=R.rdi, disp=off))
        a.emit(O.ADD, Reg(R.rbx), Reg(R.rdx))
    # A finite double made by an int store, read through a base
    # register and computed on.
    a.emit(O.MOV, Reg(R.rax), Imm(0x4000000000000000))      # 2.0
    a.emit(O.MOV, Mem(disp=Label("two")), Reg(R.rax))
    a.emit(O.MOVSD, Reg(R.xmm7), Mem(base=R.r9))
    a.emit(O.ADDSD, Reg(R.xmm8), Reg(R.xmm7))
    # Re-make one word by an int store inside the loop: the next double
    # load finds the int form again.
    a.emit(O.MOV, Reg(R.rax), Imm(PATTERNS[5]))
    a.emit(O.MOV, Mem(disp=Label("made")), Reg(R.rax))
    a.emit(O.MOVSD, Reg(R.xmm3), Mem(disp=Label("made")))
    a.emit(O.MOVSD, Mem(disp=LabelRef("made", 8)), Reg(R.xmm3))
    # Packed moves through a base register and a fixed address.
    a.emit(O.MOVAPD, Reg(R.xmm4), Mem(base=R.rsi, disp=8 * 2))
    a.emit(O.MOVAPD, Mem(disp=Label("pout")), Reg(R.xmm4))
    a.emit(O.MOVAPD, Reg(R.xmm5), Mem(disp=Label("tab")))
    a.emit(O.MOVAPD, Mem(base=R.rdi, disp=0), Reg(R.xmm5))
    # -0.0 made by arithmetic and stored as a float.
    a.emit(O.XORPD, Reg(R.xmm6), Reg(R.xmm6))
    a.emit(O.MULSD, Reg(R.xmm6), Mem(disp=Label("negone")))
    a.emit(O.MOVSD, Mem(disp=Label("negz")), Reg(R.xmm6))
    a.emit(O.DEC, Reg(R.rcx))
    a.emit(O.CMP, Reg(R.rcx), Imm(0))
    a.emit(O.JG, Label("loop"))
    a.emit(O.MOV, Reg(R.rdi), Reg(R.rbx))
    a.emit(O.MOV, Reg(R.rax), Imm(syscalls.PRINT_INT))
    a.emit(O.SYSCALL)
    a.emit(O.MOVSD, Reg(R.xmm0), Mem(disp=Label("negz")))
    a.emit(O.MOV, Reg(R.rax), Imm(syscalls.PRINT_F64))
    a.emit(O.SYSCALL)
    a.emit(O.HLT)
    return a.assemble(entry="_start", strip=False)


def test_special_patterns_made_by_int_stores():
    """-0.0, +-inf, denormals and NaN payloads keep their bits in every
    tier and form, and the snapshot keeps a stored -0.0."""
    image = special_patterns_image()
    machines = assert_tiers_match(image)
    symbols = image.symbols
    memory = machines["superblock"].memory
    floats = _float_words(machines["superblock"])
    n = len(PATTERNS)
    fout = symbols["fout"]
    negz = symbols["negz"]
    # The double loads wrote the float form back into the .data table,
    # and the double stores left floats, -0.0 among them.
    assert symbols["tab"] in floats
    assert {fout + 8 * k for k in range(n)} <= floats
    assert negz in floats
    snapshot = memory.snapshot()
    assert snapshot[negz] == NEG_ZERO
    assert [snapshot.get(fout + 8 * k, 0) for k in range(n)] == list(PATTERNS)
    assert [memory.read(symbols["iout"] + 8 * k)
            for k in range(n)] == list(PATTERNS)


def test_misaligned_double_load_faults_in_every_tier():
    """A base-register double load that is really misaligned faults in
    the superblock tier, inside the compiled loop, as in the reference.

    The pointer strides by a table entry: 8, except one 4 mid-loop,
    so the biased path is the same on every iteration and the fault
    comes from the superblock's checked helper."""
    a = Assembler()
    strides = [8] * 40
    strides[20] = 4
    a.word("strides", *strides)
    a.space("buf", 48)
    a.label("_start")
    a.emit(O.MOV, Reg(R.rsi), Label("buf"))
    a.emit(O.MOV, Reg(R.rcx), Imm(39))
    a.label("loop")
    a.emit(O.MOVSD, Reg(R.xmm0), Mem(base=R.rsi))
    a.emit(O.ADDSD, Reg(R.xmm1), Reg(R.xmm0))
    a.emit(O.ADD, Reg(R.rsi), Mem(index=R.rcx, scale=8,
                                  disp=Label("strides")))
    a.emit(O.DEC, Reg(R.rcx))
    a.emit(O.CMP, Reg(R.rcx), Imm(0))
    a.emit(O.JG, Label("loop"))
    a.emit(O.HLT)
    image = a.assemble(entry="_start")
    for tier, reference in (("fast", True), ("fast", False),
                            ("superblock", False)):
        with pytest.raises(MemoryFault):
            run_tier(image, tier, reference=reference)


def _packed_copy(load_strides, store_strides):
    """A loop copying one packed pair per iteration through base
    registers, each pointer advanced by its own stride table."""
    n = len(load_strides)
    a = Assembler()
    a.word("ls", *load_strides)
    a.word("ss", *store_strides)
    a.word("src", *(PATTERNS * (n // 2 + 1))[:2 * n + 2])
    a.space("dst", 8 * (2 * n + 2))
    a.label("_start")
    a.emit(O.MOV, Reg(R.rsi), Label("src"))
    a.emit(O.MOV, Reg(R.rdi), Label("dst"))
    a.emit(O.MOV, Reg(R.rcx), Imm(n - 1))
    a.label("loop")
    a.emit(O.MOVAPD, Reg(R.xmm0), Mem(base=R.rsi))
    a.emit(O.MOVAPD, Mem(base=R.rdi), Reg(R.xmm0))
    a.emit(O.ADD, Reg(R.rsi), Mem(index=R.rcx, scale=8, disp=Label("ls")))
    a.emit(O.ADD, Reg(R.rdi), Mem(index=R.rcx, scale=8, disp=Label("ss")))
    a.emit(O.DEC, Reg(R.rcx))
    a.emit(O.CMP, Reg(R.rcx), Imm(0))
    a.emit(O.JG, Label("loop"))
    a.emit(O.HLT)
    return a.assemble(entry="_start", strip=False)


def test_packed_lanes_through_a_base_register():
    """Packed lanes the superblock cannot prove 8-aligned take the
    scalar lane path: every tier leaves the reference's state, and a
    shadow superblock records one packed event per access, no lane."""
    image = _packed_copy([16] * 40, [16] * 40)
    assert_tiers_match(image)
    _state, _machine, _observed, interp = run_tier(image,
                                                   "shadow-superblock")
    sink = interp.shadow_sink
    assert interp.sb_stats.formed == 1
    assert len(sink.packed_reads) == len(sink.packed_writes) == 39
    strides = range(image.symbols["ls"], image.symbols["src"])
    assert all(addr in strides for addr in sink.reads)
    assert not sink.writes


@pytest.mark.parametrize("side", ("load", "store"))
def test_misaligned_packed_access_faults_in_every_tier(side):
    """A packed load or store that is really misaligned faults in the
    superblock tier, inside the compiled loop, as in the reference."""
    bad = [16] * 40
    bad[20] = 4
    image = _packed_copy(bad if side == "load" else [16] * 40,
                         bad if side == "store" else [16] * 40)
    for tier, reference in (("fast", True), ("fast", False),
                            ("superblock", False)):
        with pytest.raises(MemoryFault):
            run_tier(image, tier, reference=reference)
