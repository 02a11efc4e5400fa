"""The dispatcher's first-entry rule, differentially.

On the sink-less path a block's first entry runs through the reference
dispatch (``Interpreter.execute_block_reference`` with the dispatcher's
lookup) and its fast runner is compiled only when the block is entered
again.  The program below has blocks entered once, blocks entered twice,
an RTCALL that redirects control mid-block, a recording window and a hot
loop.  Run plainly and with an access log attached, it must match the
reference dispatch in cycles, instructions, outputs, final memory and
log entries; its superblock counters are pinned; and exactly the blocks
entered at least twice are compiled.
"""

from collections import Counter

import pytest

from repro.dbm.accesslog import AccessLog
from repro.dbm.modifier import JanusDBM
from repro.dbm.rtcalls import RTCallID
from repro.isa import Imm, Mem, Opcode as O, Reg
from repro.isa.operands import Label
from repro.isa.registers import R
from repro.jbin import syscalls
from repro.jbin.asm import Assembler
from repro.jbin.loader import load
from repro.rewrite.rules import RuleID
from repro.rewrite.schedule import RewriteSchedule

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
        execute = interp.execute_block_reference

        def counted(ctx, block, lookup=None):
            entries[block.start] += 1
            return execute(ctx, block, lookup)

        interp.execute_block_reference = counted
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
            "superblock_deopts": 0, "superblock_bailouts": 0}


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
    twice = {pc for pc, count in entries.items() if count >= 2}
    once = {pc for pc, count in entries.items() if count == 1}
    assert len(twice) >= 4 and len(once) >= 3
    result, dbm = _run(image, log, reference=False)
    cache = dbm.caches[0]
    assert result.stats["blocks_translated"] == len(twice)
    assert {pc for pc, block in cache.items()
            if block.jit_fast is not None} == twice
    assert {pc for pc, block in cache.items() if block.entered} \
        == twice | once
