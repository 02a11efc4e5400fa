"""Superblock tier: formation, guarded exits, deopt kinds and budget plumbing.

Every way control can leave a superblock is forced at least once here:

* **guard side exit** — a conditional branch goes against the biased path
  (``test_guard_side_exits``);
* **budget bailout** — the trace budget runs out mid-loop
  (``test_budget_bailouts``);
* **legality deopt** — a memory hook is installed between warm-up and the
  next superblock entry, so the back-edge legality re-check must spill and
  hand the head back to the dispatcher
  (``test_hook_installation_deopts``).

Each exit restores full architectural state; the tests compare against a
superblocks-disabled twin (``superblock_threshold = 0``) or a
reference-interpreter twin bit for bit, including cycle and instruction
accounting.
"""

import struct

from repro.dbm.blocks import discover_block
from repro.dbm.executor import run_native
from repro.dbm.interp import Interpreter
from repro.dbm.jit import _JCC
from repro.dbm.machine import Machine, make_main_context
from repro.dbm.superblock import SUPERBLOCK_THRESHOLD
from repro.isa import Imm, Opcode as O, Reg
from repro.isa.operands import Label
from repro.isa.registers import R, reg_id
from repro.jbin.asm import Assembler
from repro.jbin.loader import load
from repro.jcc import CompileOptions, compile_source
from repro.stm.transaction import Transaction

BRANCHY = """
double xs[256];
double ys[256];
int main() {{
    int i;
    int r;
    for (i = 0; i < 256; i++) {{ ys[i] = 0.125 * i; xs[i] = 1.0; }}
    for (r = 0; r < 40; r++) {{
        for (i = 0; i < 256; i++) {{
            if ({condition}) {{
                xs[i] = xs[i] * 0.5 + ys[i];
            }} else {{
                xs[i] = xs[i] + ys[i] + 1.0;
            }}
        }}
    }}
    print_double(xs[7]);
    return 0;
}}
"""


def _image(condition: str):
    return compile_source(BRANCHY.format(condition=condition),
                          CompileOptions(opt_level=3))


def _run(image, threshold=1, budget=None, inputs=None, reference=False):
    """Run under the trace-cache dispatcher with superblock knobs.

    ``threshold=0`` disables superblock promotion; ``reference=True``
    runs every block through the reference per-instruction dispatch.
    """
    from repro.dbm.tracecache import run_loop

    process = load(image, inputs=inputs)
    machine = Machine()
    machine.memory.load_words(process.initial_data())
    machine.inputs = list(process.inputs)
    ctx = make_main_context(process.entry, machine.memory)
    interp = Interpreter(machine, process)
    interp.force_reference = reference
    interp.superblock_threshold = threshold
    if budget is not None:
        interp.trace_budget = budget
    cache = {}

    def lookup(pc, _ctx):
        block = cache.get(pc)
        if block is None:
            block = cache[pc] = discover_block(process, pc)
        return block

    run_loop(interp, ctx, ctx.pc, lookup)
    return ctx, machine, interp, cache


def _bits(value):
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


def _assert_matches_disabled(image, **kwargs):
    ctx, machine, interp, _ = _run(image, **kwargs)
    ref_ctx, ref_machine, _ri, _rc = _run(image, threshold=0)
    assert _state(ctx, machine) == _state(ref_ctx, ref_machine)
    return interp.sb_stats


# ---------------------------------------------------------------------------
# Formation and counters
# ---------------------------------------------------------------------------

def test_formation_and_counters():
    """A hot branchy loop forms a superblock and runs mostly inside it."""
    result = run_native(load(_image("xs[i] > 0.5")))
    stats = result.stats
    assert stats["superblock_formed"] >= 1
    assert stats["superblock_entries"] > 0
    # The stitched loop spins inside compiled code: entries are bounded by
    # exits (each entry ends in exactly one exit of some kind).
    exits = (stats["superblock_side_exits"] + stats["superblock_bailouts"]
             + stats["superblock_deopts"])
    assert exits == stats["superblock_entries"]
    assert stats["superblock_deopts"] == 0  # no hook was ever installed


def test_superblock_state_matches_disabled_tier():
    """Same final architectural state with and without the superblock tier."""
    stats = _assert_matches_disabled(_image("xs[i] > 0.5"), threshold=1)
    assert stats.formed >= 1
    assert stats.entries > 0


SELF_LOOP = """
double xs[512];
int main() {
    int i;
    for (i = 0; i < 512; i++) { xs[i] = xs[i] + 1.5 * i; }
    print_double(xs[300]);
    return 0;
}
"""


def test_once_invoked_self_loop_forms_superblock():
    """One invocation of a long one-block loop is promoted mid-run.

    The self-loop's back edge is a backward transfer the dispatcher
    counts, so the loop crosses the default threshold within its only
    invocation; the result is bit-identical to the block tier alone and
    to the reference dispatch.
    """
    image = compile_source(SELF_LOOP, CompileOptions(opt_level=3))
    ctx, machine, interp, cache = _run(image,
                                       threshold=SUPERBLOCK_THRESHOLD)
    heads = [block for block in cache.values()
             if block.jit_super is not None]
    assert interp.sb_stats.formed >= 1
    assert interp.sb_stats.entries >= 1
    # The promoted head is the single-block loop itself.
    assert any(block.terminator.operands[0].value == block.start
               for block in heads if block.terminator.opcode in _JCC)
    state = _state(ctx, machine)
    assert machine.outputs
    for kwargs in ({"threshold": 0}, {"reference": True}):
        twin_ctx, twin_machine, _ti, _tc = _run(image, **kwargs)
        assert state == _state(twin_ctx, twin_machine), kwargs


# ---------------------------------------------------------------------------
# Exit kind 1: guard side exits
# ---------------------------------------------------------------------------

def test_guard_side_exits():
    """A branch whose bias fails late in the loop takes guard side exits.

    ``i < 192`` holds for 3/4 of the iteration space, so the biased path
    follows the then-branch and the last quarter of every sweep leaves
    through the guard — state must still be bit-identical.
    """
    stats = _assert_matches_disabled(_image("i < 192"), threshold=1)
    assert stats.formed >= 1
    assert stats.side_exits >= 40  # at least one per outer rep


# ---------------------------------------------------------------------------
# Exit kind 2: budget bailouts
# ---------------------------------------------------------------------------

def test_budget_bailouts():
    """A tiny trace budget forces bailouts without changing results."""
    stats = _assert_matches_disabled(
        _image("xs[i] > 0.5"), threshold=1, budget=4)
    assert stats.formed >= 1
    assert stats.bailouts > 0


def test_budget_is_baked_into_generated_code():
    image = _image("xs[i] > 0.5")
    _ctx, _machine, _interp, cache = _run(image, threshold=1, budget=7)
    sources = [block.jit_super.__jit_source__
               for block in cache.values() if block.jit_super is not None]
    assert sources
    assert any("    n = 7\n" in source for source in sources)


# ---------------------------------------------------------------------------
# Exit kind 3: legality deopt (a transaction opened mid-run)
# ---------------------------------------------------------------------------

def _two_block_loop_image():
    """A pure-register two-block loop: ADD/guard block + DEC/back-edge block.

    No memory traffic inside the loop, so a reference twin can replay an
    iteration from any register state without sharing the machine.
    """
    a = Assembler()
    a.label("_start")
    a.emit(O.MOV, Reg(R.rcx), Imm(200))
    a.emit(O.MOV, Reg(R.rax), Imm(0))
    a.label("loop")
    a.emit(O.ADD, Reg(R.rax), Reg(R.rcx))
    a.emit(O.CMP, Reg(R.rax), Imm(1000000))
    a.emit(O.JG, Label("escape"))        # never taken: the guarded exit
    a.emit(O.DEC, Reg(R.rcx))
    a.emit(O.CMP, Reg(R.rcx), Imm(0))
    a.emit(O.JG, Label("loop"))          # the back edge
    a.label("escape")
    a.emit(O.HLT)
    return a.assemble(entry="_start")


def test_open_transaction_deopts():
    """A transaction opened after warm-up deopts at the first back edge.

    The dispatcher would never enter a superblock with a transaction open
    (the fast path is illegal), but one can appear *while* a superblock
    spins — modelled here by opening one between entries and invoking the
    warm runner directly.  The superblock must complete exactly one
    iteration, spill everything and return the head block for the
    dispatcher to re-dispatch on the transactional tier.
    """
    image = _two_block_loop_image()
    ctx, _machine, interp, cache = _run(image, threshold=4)
    heads = [block for block in cache.values()
             if block.jit_super is not None]
    assert len(heads) == 1
    head = heads[0]
    assert interp.sb_stats.deopts == 0

    rax, rcx = reg_id("rax"), reg_id("rcx")

    def prime(target_ctx):
        target_ctx.gregs[rax] = 5
        target_ctx.gregs[rcx] = 37
        target_ctx.flags = 1          # as left by the back-edge JG
        target_ctx.cycles = 0
        target_ctx.instructions = 0

    # The mid-run transaction: any open one makes the fast path illegal.
    interp.active_tx = Transaction(memory=interp.machine.memory)
    prime(ctx)
    entries = interp.sb_stats.entries
    returned = head.jit_super(ctx)

    assert returned is head
    assert interp.sb_stats.deopts == 1
    assert interp.sb_stats.entries == entries + 1
    # The loop body touches registers only: the transaction saw nothing.
    assert not interp.active_tx.read_log
    assert not interp.active_tx.write_buffer

    # Reference twin: one loop iteration from the same register state.
    process = load(image)
    machine2 = Machine()
    machine2.memory.load_words(process.initial_data())
    interp2 = Interpreter(machine2, process)
    ctx2 = make_main_context(head.start, machine2.memory)
    prime(ctx2)
    pc = head.start
    while True:
        pc = interp2.execute_block_reference(
            ctx2, discover_block(process, pc))
        if pc == head.start:
            break

    assert list(ctx.gregs) == list(ctx2.gregs)
    assert ctx.flags == ctx2.flags
    assert ctx.cycles == ctx2.cycles
    assert ctx.instructions == ctx2.instructions


# ---------------------------------------------------------------------------
# Formation limits
# ---------------------------------------------------------------------------

def test_formation_fails_on_syscall_in_body():
    """A loop body containing a SYSCALL cannot be stitched."""
    from repro.jbin import syscalls

    a = Assembler()
    a.label("_start")
    a.emit(O.MOV, Reg(R.rcx), Imm(40))
    a.emit(O.MOV, Reg(R.rbx), Imm(0))
    a.label("loop")
    a.emit(O.ADD, Reg(R.rbx), Reg(R.rcx))
    a.emit(O.MOV, Reg(R.rax), Imm(syscalls.CLOCK))
    a.emit(O.SYSCALL)
    a.emit(O.DEC, Reg(R.rcx))
    a.emit(O.CMP, Reg(R.rcx), Imm(0))
    a.emit(O.JG, Label("loop"))
    a.emit(O.HLT)
    image = a.assemble(entry="_start")
    _ctx, _machine, interp, cache = _run(image, threshold=2)
    assert interp.sb_stats.formed == 0
    assert interp.sb_stats.formation_failures >= 1
    assert all(block.jit_super is None for block in cache.values())
