"""Superblock tier: formation, guarded exits, load CSE and budget plumbing.

Both ways control can leave a superblock are forced here:

* **guard side exit** — a conditional branch goes against the biased path
  (``test_guard_side_exits``);
* **budget bailout** — the trace budget runs out mid-loop
  (``test_budget_bailouts``).

There is no back-edge legality exit; the two tests under "No legality
exit" pin why a running superblock stays on the fast path.

Each exit restores full architectural state; the tests compare against a
superblocks-disabled twin (``superblock_threshold = 0``) or a
reference-interpreter twin bit for bit, including cycle and instruction
accounting.
"""

import struct

from repro.dbm.blocks import discover_block
from repro.dbm.executor import run_native
from repro.dbm.interp import Interpreter
from repro.dbm.machine import Machine, make_main_context
from repro.dbm.modifier import JanusDBM
from repro.dbm.rtcalls import RTCallID
from repro.dbm.runtime import ParallelRuntime
from repro.dbm.superblock import SUPERBLOCK_THRESHOLD
from repro.isa import COND_BRANCHES, Imm, Opcode as O, Reg
from repro.isa.operands import Label, Mem
from repro.isa.registers import R
from repro.jbin.asm import Assembler
from repro.jbin.loader import load
from repro.jcc import CompileOptions, compile_source
from repro.pipeline import Janus, JanusConfig, SelectionMode
from repro.verify import run_doall_oracle

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
    exits = stats["superblock_side_exits"] + stats["superblock_bailouts"]
    assert exits == stats["superblock_entries"]


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
               for block in heads if block.terminator.opcode in COND_BRANCHES)
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
# No legality exit: what keeps a running superblock on the fast path
# ---------------------------------------------------------------------------

def test_each_worker_keeps_one_sink_across_invocations(monkeypatch):
    """A shadow superblock binds its worker's sink at compile time.

    The worker's code cache outlives one parallel invocation, so every
    invocation of the loop must hand each thread id the same sink object
    (and the runtime's own ``_sinks`` entry) for the bound appends to
    stay the live ones.
    """
    seen: dict[int, list] = {}
    run_worker = ParallelRuntime._run_worker

    def spy(self, worker, *args):
        assert self._sinks[worker.thread_id] is worker.sink
        seen.setdefault(worker.thread_id, []).append(worker.sink)
        return run_worker(self, worker, *args)

    monkeypatch.setattr(ParallelRuntime, "_run_worker", spy)
    janus = Janus(_image("xs[i] > 0.5"),
                  JanusConfig(n_threads=2, coverage_threshold=0.0))
    result = janus.run(SelectionMode.JANUS, training=janus.train())
    assert result.stats["loop_invocations_parallel"] >= 2
    assert len(seen) == 2
    for sinks in seen.values():
        assert len(sinks) >= 2
        assert all(sink is sinks[0] for sink in sinks)


def test_only_the_profiler_iteration_bracket_is_inline(monkeypatch):
    """Superblocks contain no RTCALL that can open a transaction.

    Only RTCALLs registered ``inline=True`` are stitched into
    superblocks; over training, a parallel run and the DOALL oracle,
    the only one is the profiler's loop-iteration bracket, whose handler
    opens no transaction and no recording window.
    """
    registered: list[tuple[int, bool]] = []
    register = JanusDBM.register_rtcall

    def spy(self, rtcall_id, handler, inline=False):
        registered.append((int(rtcall_id), inline))
        return register(self, rtcall_id, handler, inline=inline)

    monkeypatch.setattr(JanusDBM, "register_rtcall", spy)
    image = _image("xs[i] > 0.5")
    janus = Janus(image, JanusConfig(n_threads=2, coverage_threshold=0.0))
    janus.run(SelectionMode.JANUS, training=janus.train())
    run_doall_oracle(image, janus.analysis)
    assert {rid for rid, _inline in registered} >= {
        int(RTCallID.PROF_LOOP_ITER), int(RTCallID.LOOP_ENTER),
        int(RTCallID.TX_START)}
    assert {rid for rid, inline in registered if inline} == {
        int(RTCallID.PROF_LOOP_ITER)}


# ---------------------------------------------------------------------------
# Load CSE
# ---------------------------------------------------------------------------

def test_register_write_invalidates_only_loads_naming_it():
    """Writing r1 drops the cached ``arr[r1]`` load, not ``arr[r10]``.

    Both loads are provably 8-aligned (scaled index), so both are CSE'd;
    after ``add r1, 0`` only the load naming r1 is emitted again.
    """
    r1, r10 = Reg(R.rcx), Reg(R.r10)
    assert (r1.id, r10.id) == (1, 10)
    a = Assembler()
    a.word("arr", 3, 5, 7, 11)
    a.label("_start")
    a.emit(O.MOV, r1, Imm(1))
    a.emit(O.MOV, r10, Imm(2))
    a.emit(O.MOV, Reg(R.r8), Imm(50))
    a.emit(O.MOV, Reg(R.rdx), Imm(0))
    a.label("loop")
    at_r1 = Mem(index=r1.id, scale=8, disp=Label("arr"))
    at_r10 = Mem(index=r10.id, scale=8, disp=Label("arr"))
    a.emit(O.MOV, Reg(R.rax), at_r1)
    a.emit(O.MOV, Reg(R.rbx), at_r10)
    a.emit(O.ADD, r1, Imm(0))
    a.emit(O.ADD, Reg(R.rax), at_r1)
    a.emit(O.ADD, Reg(R.rbx), at_r10)
    a.emit(O.ADD, Reg(R.rdx), Reg(R.rax))
    a.emit(O.ADD, Reg(R.rdx), Reg(R.rbx))
    a.emit(O.DEC, Reg(R.r8))
    a.emit(O.CMP, Reg(R.r8), Imm(0))
    a.emit(O.JG, Label("loop"))
    a.emit(O.HLT)
    image = a.assemble(entry="_start")
    ctx, machine, interp, cache = _run(image, threshold=2)
    sources = [block.jit_super.__jit_source__
               for block in cache.values() if block.jit_super is not None]
    assert len(sources) == 1
    assert sources[0].count("= _wg(r1*8 + ") == 2
    assert sources[0].count("= _wg(r10*8 + ") == 1
    assert interp.sb_stats.entries >= 1
    ref_ctx, ref_machine, _ri, _rc = _run(image, reference=True)
    assert _state(ctx, machine) == _state(ref_ctx, ref_machine)
    assert ctx.gregs[R.rdx] == 50 * (2 * 5 + 2 * 7)


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
