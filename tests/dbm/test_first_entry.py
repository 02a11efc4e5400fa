"""The dispatcher's first-entry rule, differentially.

A block's first entry runs through the reference dispatch
(``Interpreter.execute_block_reference`` with the dispatcher's lookup)
and its runner is compiled only when the block is entered again, in
the main thread's cache and in the parallel workers' caches alike.  The
program below has blocks entered once, blocks entered twice, an RTCALL
that redirects control mid-block, a recording window and a hot loop.
Run plainly and with an access log attached, it must match the
reference dispatch in cycles, instructions, outputs, final memory and
log entries; its superblock counters are pinned; and exactly the blocks
entered at least twice are compiled.  A parallel run pins the tier each
code cache compiles for, and ``force_reference`` compiles nothing.
"""

from collections import Counter

import pytest

from repro.dbm.accesslog import AccessLog
from repro.dbm.modifier import JanusDBM
from repro.dbm.rtcalls import RTCallID
from repro.dbm.runtime import ParallelRuntime
from repro.isa import Imm, Mem, Opcode as O, Reg
from repro.isa.operands import Label
from repro.isa.registers import R
from repro.jbin import syscalls
from repro.jbin.asm import Assembler
from repro.jbin.loader import load
from repro.pipeline import Janus, JanusConfig, SelectionMode
from repro.rewrite.rules import RuleID
from repro.rewrite.schedule import RewriteSchedule
from repro.workloads import compile_workload, get_workload

RAX, RBX, RCX, RDX, RDI, R8 = (Reg(R.rax), Reg(R.rbx), Reg(R.rcx),
                               Reg(R.rdx), Reg(R.rdi), Reg(R.r8))

# The rules only place RTCALLs; the test's own handlers give them meaning.
OPEN, CLOSE, REDIRECT = (RTCallID.PROF_LOOP_FINISH,
                         RTCallID.PROF_EXCALL_FINISH,
                         RTCallID.PROF_LOOP_START)


def _image():
    a = Assembler()
    a.space("arr", 8)
    a.space("big", 300)
    a.label("_start")
    a.emit(O.MOV, R8, Imm(0))                      # entered once
    a.emit(O.JMP, Label("outer"))
    # Below the redirect: were the redirect a linked transfer, the
    # dispatcher would count it as a back edge to a loop head.
    a.label("landing")
    a.emit(O.INC, R8)
    a.emit(O.CMP, R8, Imm(2))
    a.emit(O.JL, Label("outer"))
    a.emit(O.JMP, Label("after"))
    a.label("outer")                               # OPEN at block start
    a.emit(O.MOV, RCX, Imm(0))
    a.label("rec")                                 # recorded accesses
    a.emit(O.MOV, Mem(index=R.rcx, scale=8, disp=Label("arr")), RCX)
    a.emit(O.ADD, RDX, Mem(index=R.rcx, scale=8, disp=Label("arr")))
    a.emit(O.INC, RCX)
    a.emit(O.CMP, RCX, Imm(3))
    a.emit(O.JL, Label("rec"))
    a.label("close")                               # CLOSE at block start
    a.emit(O.MOV, RBX, RDX)
    a.label("redirect")                            # REDIRECT after this MOV
    a.emit(O.MOV, RAX, Imm(7))
    a.emit(O.MOV, RBX, Imm(12345))                 # skipped by the redirect
    a.emit(O.JMP, Label("bad"))
    a.label("after")
    a.emit(O.MOV, RCX, Imm(0))                     # entered once
    a.label("hot")                                 # hot self-loop
    a.emit(O.MOV, Mem(index=R.rcx, scale=8, disp=Label("big")), RCX)
    a.emit(O.ADD, RBX, RCX)
    a.emit(O.INC, RCX)
    a.emit(O.CMP, RCX, Imm(300))
    a.emit(O.JL, Label("hot"))
    a.emit(O.MOV, RDI, RBX)
    a.emit(O.MOV, RAX, Imm(syscalls.PRINT_INT))
    a.emit(O.SYSCALL)
    a.emit(O.MOV, RDI, RDX)
    a.emit(O.MOV, RAX, Imm(syscalls.PRINT_INT))
    a.emit(O.SYSCALL)
    a.emit(O.RET)
    a.label("bad")
    a.emit(O.HLT)
    return a.assemble(entry="_start", strip=False)


def _counting(interp, entries: Counter) -> None:
    """Count each reference-dispatch run per (thread, block start)."""
    execute = interp.execute_block_reference

    def counted(ctx, block, lookup=None):
        entries[ctx.thread_id, block.start] += 1
        return execute(ctx, block, lookup)

    interp.execute_block_reference = counted


def _run(image, log: bool, reference: bool, threshold=None, entries=None):
    symbols = image.symbols
    schedule = RewriteSchedule.for_image(image)
    schedule.add_rule(symbols["outer"], RuleID.PROF_LOOP_FINISH, 0)
    schedule.add_rule(symbols["close"], RuleID.PROF_EXCALL_FINISH, 0)
    schedule.add_rule(symbols["redirect"], RuleID.PROF_LOOP_START, 0)
    dbm = JanusDBM(load(image), schedule=schedule)
    interp = dbm.interp
    interp.force_reference = reference
    if threshold is not None:
        interp.superblock_threshold = threshold
    if log:
        interp.access_log = AccessLog()

    def window(live):
        def handler(ctx, arg):
            interp.recording = live and interp.access_log is not None
        return handler

    dbm.register_rtcall(OPEN, window(True))
    dbm.register_rtcall(CLOSE, window(False))
    dbm.register_rtcall(REDIRECT, lambda ctx, arg: symbols["landing"])
    if entries is not None:
        _counting(interp, entries)
    result = dbm.run()
    return result, dbm


def _observed(result, dbm):
    return {"cycles": result.cycles,
            "instructions": result.instructions,
            "outputs": result.outputs,
            "exit": result.exit_code,
            "memory": dbm.machine.memory.snapshot(),
            "log": (list(dbm.interp.access_log.entries)
                    if dbm.interp.access_log is not None else None)}


def _superblock(formed, entries):
    return {"superblock_formed": formed,
            "superblock_formation_failures": 0,
            "superblock_entries": entries, "superblock_side_exits": entries,
            "superblock_bailouts": 0}


# Superblock counters as the block tier alone produced them.  At the
# default threshold only the hot loop forms.  At threshold 1 the recorded
# loop forms too unless its window is live (a log attached), and the
# redirect must not count as a back edge to ``landing``: a formation
# attempt there would fail on the redirect's RTCALL.
PINNED = {(False, None): _superblock(1, 1), (True, None): _superblock(1, 1),
          (False, 1): _superblock(2, 3), (True, 1): _superblock(1, 1)}


@pytest.mark.parametrize("threshold", [None, 1], ids=["default", "t1"])
@pytest.mark.parametrize("log", [False, True], ids=["plain", "log"])
def test_first_entry_matches_reference(log, threshold):
    image = _image()
    result, dbm = _run(image, log, reference=False, threshold=threshold)
    reference, ref_dbm = _run(image, log, reference=True,
                              threshold=threshold)
    observed = _observed(result, dbm)
    assert observed == _observed(reference, ref_dbm)
    assert result.outputs == [("i", 6 + 299 * 300 // 2), ("i", 6)]
    assert (observed["log"] is not None) == log
    if log:
        # Two windows of three iterations, each a store and a load.
        assert len(observed["log"]) == 12
    assert {key: value for key, value in result.stats.items()
            if key.startswith("superblock_")} == PINNED[log, threshold]


@pytest.mark.parametrize("log", [False, True], ids=["plain", "log"])
def test_only_reentered_blocks_are_compiled(log):
    image = _image()
    entries: Counter = Counter()
    _run(image, log, reference=True, entries=entries)
    twice = {pc for (_thread, pc), count in entries.items() if count >= 2}
    once = {pc for (_thread, pc), count in entries.items() if count == 1}
    assert len(twice) >= 4 and len(once) >= 3
    result, dbm = _run(image, log, reference=False)
    cache = dbm.caches[0]
    assert result.stats["blocks_translated"] == len(twice)
    assert {pc for pc, block in cache.items()
            if block.jit is not None} == twice
    assert {pc for pc, block in cache.items() if block.entered} \
        == twice | once


@pytest.fixture(scope="module")
def parallel():
    """A JANUS@4 run of a Fig. 7 binary whose workers form superblocks:
    ``run(reference)`` returns the DBM and the reference-dispatch runs
    per (thread, block start)."""
    name = "462.libquantum"
    workload = get_workload(name)
    image = compile_workload(name)
    janus = Janus(image, JanusConfig(n_threads=4))
    training = janus.train(train_inputs=list(workload.train_inputs))
    schedule = janus.build_schedule(SelectionMode.JANUS, training)

    def run(reference: bool):
        dbm = JanusDBM(load(image, inputs=list(workload.train_inputs)),
                       schedule=schedule, n_threads=4)
        dbm.interp.force_reference = reference
        ParallelRuntime(dbm)
        entries: Counter = Counter()
        _counting(dbm.interp, entries)
        result = dbm.run(max_instructions=500_000_000)
        assert result.stats["loop_invocations_parallel"] > 0
        return dbm, result, entries

    return run


def test_each_cache_compiles_for_one_tier(parallel):
    """Thread 0's cache holds only fast runners and the workers' caches
    only shadow runners: a fast runner in a worker would lose its shadow
    events without a trace."""
    dbm, result, entries = parallel(reference=False)
    assert result.stats["superblock_entries"] > 0
    assert max(entries.values()) == 1
    tiers = {}
    for thread_id, cache in dbm.caches.items():
        block_tier, super_tier = (("<jit fast ", "<jit super 0x")
                                  if thread_id == 0 else
                                  ("<jit shadow ", "<jit super shadow "))
        for block in cache.values():
            if block.jit is not None:
                assert block.jit.__code__.co_filename.startswith(
                    block_tier), (thread_id, block)
                tiers[thread_id == 0, "block"] = True
            if block.jit_super is not None:
                assert block.jit_super.__code__.co_filename.startswith(
                    super_tier), (thread_id, block)
                tiers[thread_id == 0, "super"] = True
    # Both tiers compiled block runners and superblocks in this run.
    assert len(tiers) == 4, tiers


def test_once_entered_worker_block_stays_uncompiled(parallel):
    _ref_dbm, _ref, entries = parallel(reference=True)
    once = {key for key, count in entries.items()
            if key[0] != 0 and count == 1}
    assert once
    dbm, _result, _entries = parallel(reference=False)
    for thread_id, pc in once:
        block = dbm.caches[thread_id][pc]
        assert block.entered and block.jit is None, (thread_id, block)
        assert block.jit_super is None


def test_force_reference_compiles_nothing(parallel):
    """With a shadow sink installed (parallel workers) and without one
    (every other run), ``force_reference`` compiles no runner and forms
    no superblock."""
    dbm, result, _entries = parallel(reference=True)
    assert len(dbm.caches) > 1
    plain, plain_dbm = _run(_image(), log=False, reference=True,
                            threshold=1)
    for run, run_dbm in ((result, dbm), (plain, plain_dbm)):
        assert run.stats["blocks_translated"] == 0
        assert run.stats["superblock_formed"] == 0
        assert run.stats["superblock_formation_failures"] == 0
        for cache in run_dbm.caches.values():
            assert all(block.jit is None and block.jit_super is None
                       for block in cache.values())
