"""The shadow block runner against the reference dispatch, one block deep.

A parallel worker's code cache compiles every block into one shadow
runner (``Block.jit``), whether or not a transaction is open: the runner
keeps the open transaction in a local re-read after each RTCALL and
branches on it at every access.  These tests run one block holding
scalar, summarised, packed, own-stack and PUSH/POP/CALL/RET accesses
three ways — with no transaction, with one open at entry, and with a
TX_START/TX_FINISH RTCALL pair opening and closing one mid-block — and
require the compiled runner and ``force_reference`` to agree on the
sink's events (both skip the summarised sites), every transaction's read
log and write buffer, memory, cycles and instructions.
"""

import pytest

from repro.dbm.blocks import discover_block
from repro.dbm.editor import BlockEditor
from repro.dbm.interp import Interpreter
from repro.dbm.machine import Machine, make_main_context
from repro.dbm.rtcalls import RTCallID
from repro.dbm.shadow import ShadowSink
from repro.dbm.tracecache import run_loop
from repro.isa import Imm, Mem, Opcode as O, Reg
from repro.isa.operands import Label
from repro.isa.registers import R
from repro.jbin import layout
from repro.jbin.asm import Assembler
from repro.jbin.loader import load
from repro.stm import Transaction


def build_image():
    """The program and the entry-block indices the test keys on: the
    first instruction inside the mid-block transaction, the first after
    it, and the two summarised sites."""
    a = Assembler()
    a.word("w", 7, 0, 0)
    a.double("vec", 1.5, 2.5)
    a.double("summ", 3.0)
    a.space("vec2", 2)
    a.space("alt", 8)   # a stack area off the thread's own stack
    w = Label("w")
    entry = []

    def emit(*ins):
        entry.append(a.emit(*ins))
        return len(entry) - 1

    a.label("_start")
    emit(O.MOV, Reg(R.r12), Reg(R.rsp))
    emit(O.MOV, Reg(R.rax), Mem(disp=w))                    # scalar read
    emit(O.ADD, Reg(R.rax), Imm(1))
    emit(O.MOV, Mem(disp=w), Reg(R.rax))                    # scalar write
    start = emit(O.MOVSD, Reg(R.xmm1), Mem(disp=Label("summ")))
    emit(O.ADDSD, Reg(R.xmm1), Reg(R.xmm1))
    summ_store = emit(O.MOVSD, Mem(disp=Label("summ")), Reg(R.xmm1))
    emit(O.MOVAPD, Reg(R.xmm0), Mem(disp=Label("vec")))     # packed read
    emit(O.ADDPD, Reg(R.xmm0), Reg(R.xmm0))
    emit(O.MOVAPD, Mem(disp=Label("vec2")), Reg(R.xmm0))    # packed write
    emit(O.MOV, Reg(R.rbx), Mem(base=R.rsp))                # own stack
    emit(O.PUSH, Reg(R.rax))
    emit(O.POP, Reg(R.rcx))
    emit(O.LEA, Reg(R.rsp), Mem(disp=Label("alt")))
    emit(O.ADD, Reg(R.rsp), Imm(32))
    emit(O.PUSH, Reg(R.rax))                                # off own stack
    emit(O.POP, Reg(R.rdx))
    emit(O.MOV, Reg(R.rsp), Reg(R.r12))
    emit(O.ADD, Reg(R.rcx), Reg(R.rdx))
    emit(O.MOV, Mem(disp=w), Reg(R.rcx))
    finish = emit(O.MOV, Reg(R.rax), Mem(disp=w))
    emit(O.ADD, Reg(R.rax), Reg(R.rbx))
    emit(O.MOV, Mem(disp=w), Reg(R.rax))
    emit(O.LEA, Reg(R.rsp), Mem(disp=Label("alt")))
    emit(O.ADD, Reg(R.rsp), Imm(64))
    emit(O.CALL, Label("f"))                                # ends the block
    a.emit(O.MOV, Reg(R.rsp), Reg(R.r12))
    a.emit(O.HLT)
    a.label("f")
    a.emit(O.MOV, Reg(R.rsi), Mem(disp=w))
    a.emit(O.ADD, Reg(R.rsi), Imm(5))
    a.emit(O.MOV, Mem(disp=w), Reg(R.rsi))
    a.emit(O.RET)
    return a.assemble(entry="_start"), start, finish, (start, summ_store)


def run(case: str, reference: bool) -> dict:
    image, start, finish, summarised = build_image()
    process = load(image)
    decoded = discover_block(process, process.entry).instructions
    assert decoded[-1].opcode is O.CALL
    machine = Machine()
    machine.memory.load_words(process.initial_data())
    ctx = make_main_context(process.entry, machine.memory)
    interp = Interpreter(machine, process)
    interp.superblock_threshold = 0
    interp.force_reference = reference
    sink = interp.shadow_sink = ShadowSink(
        thread_id=0, tls_lo=ctx.tls_base,
        tls_hi=ctx.tls_base + layout.TLS_THREAD_SIZE,
        stack_lo=ctx.stack_top - layout.THREAD_STACK_SIZE,
        stack_hi=ctx.stack_top)
    # Both dispatches skip summarised sites (the runtime covers them
    # with stride descriptors).
    interp.shadow_summarised = frozenset(
        decoded[k].address for k in summarised)
    transactions = []

    def open_tx():
        interp.active_tx = Transaction(memory=machine.memory)
        transactions.append(interp.active_tx)

    def rtcall(_ctx, hid, _arg):
        if hid == RTCallID.TX_START:
            open_tx()
        else:
            interp.active_tx.commit()
            interp.active_tx = None
        return None

    interp.rtcall_handler = rtcall
    cache = {}

    def lookup(pc, _ctx):
        block = cache.get(pc)
        if block is None:
            block = discover_block(process, pc)
            if case == "mid" and pc == process.entry:
                editor = BlockEditor(block)
                editor.insert_before(decoded[start].address,
                                     editor.rtcall(RTCallID.TX_START))
                editor.insert_before(decoded[finish].address,
                                     editor.rtcall(RTCallID.TX_FINISH))
                block = editor.finish()
            # Each block runs once: mark it entered so the dispatcher
            # compiles its shadow runner at this entry (the reference
            # ignores the mark).
            block.entered = True
            cache[pc] = block
        return block

    if case == "entry":
        open_tx()
    run_loop(interp, ctx, ctx.pc, lookup)
    assert ctx.halted
    if not reference:
        assert all(block.jit.__code__.co_filename.startswith("<jit shadow ")
                   for block in cache.values())
    return {
        "reads": list(sink.reads),
        "writes": list(sink.writes),
        "packed_reads": list(sink.packed_reads),
        "packed_writes": list(sink.packed_writes),
        "transactions": [(dict(tx.read_log), dict(tx.write_buffer))
                         for tx in transactions],
        "memory": machine.memory.snapshot(),
        "cycles": ctx.cycles,
        "instructions": ctx.instructions,
        "translated": interp.jit_stats.blocks_translated,
        "summarised_words": {op.disp for k in summarised
                             for op in decoded[k].operands
                             if type(op) is Mem},
    }


@pytest.mark.parametrize("case", ["none", "entry", "mid"])
def test_shadow_runner_matches_reference(case):
    compiled = run(case, reference=False)
    ref = run(case, reference=True)
    for key in ("reads", "writes", "packed_reads", "packed_writes",
                "transactions", "memory", "cycles", "instructions"):
        assert compiled[key] == ref[key], key
    assert compiled["translated"] > 0 and ref["translated"] == 0
    events = compiled["reads"] + compiled["writes"]
    if case == "entry":
        # Everything runs inside the transaction: nothing is recorded, and
        # the off-stack PUSH/POP and CALL/RET words go through it.
        assert not events and not compiled["packed_reads"]
        ((reads, writes),) = compiled["transactions"]
        assert len(writes) >= 4 and reads
    elif case == "mid":
        # Accesses before TX_START and after TX_FINISH are recorded; the
        # packed ones sit inside the transaction.
        assert events and not compiled["packed_reads"]
        ((reads, writes),) = compiled["transactions"]
        assert writes and reads
    else:
        assert events and compiled["packed_reads"] \
            and compiled["packed_writes"]
        assert compiled["transactions"] == []
        # The summarised sites pass the filter, yet neither side records
        # them.
        assert not compiled["summarised_words"] & set(events)
