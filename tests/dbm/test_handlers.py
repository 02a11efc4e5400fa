"""Unit tests for rewrite-rule handlers (translation-time transforms)."""

import pytest

from repro.isa import Imm, Instruction, Mem, Opcode as O, Reg
from repro.isa.operands import Label
from repro.isa.registers import R, SCRATCH_REG, TLS_REG
from repro.jbin.asm import Assembler
from repro.jbin.loader import load
from repro.dbm.blocks import discover_block
from repro.dbm.editor import BlockEditor
from repro.dbm.handlers import HANDLERS, TranslationContext
from repro.dbm.rtcalls import RTCallID
from repro.rewrite.metadata import PayloadTable
from repro.rewrite.rules import RewriteRule, RuleID
from repro.rewrite.schedule import RewriteSchedule


class FakeDBM:
    def __init__(self, schedule):
        self.schedule = schedule
        self.payloads = PayloadTable(schedule)


def build_loop_process():
    a = Assembler()
    arr = a.space("arr", 64)
    a.label("_start")
    a.emit(O.MOV, Reg(R.rcx), Imm(0))
    a.label("loop")
    a.emit(O.MOV, Reg(R.rax), Mem(base=R.rsp, disp=8))       # stack read
    a.emit(O.ADD, Mem(disp=Label("counter")), Reg(R.rax))    # heap RMW
    a.emit(O.MOV, Mem(index=R.rcx, scale=8, disp=arr), Reg(R.rax))
    a.emit(O.INC, Reg(R.rcx))
    a.emit(O.CMP, Reg(R.rcx), Imm(64))
    a.emit(O.JL, Label("loop"))
    a.emit(O.RET)
    a.word("counter", 0)
    return load(a.assemble(entry="_start"))


@pytest.fixture
def loop_block():
    # No calls in the program: the whole loop is one discovered block.
    process = build_loop_process()
    return process, discover_block(process, process.entry)


def worker_tctx(schedule):
    return TranslationContext(dbm=FakeDBM(schedule), thread_id=1,
                              worker=object())


def main_tctx(schedule):
    return TranslationContext(dbm=FakeDBM(schedule), thread_id=0)


class TestMemPrivatise:
    def test_rewrites_heap_operand_to_tls(self, loop_block):
        process, block = loop_block
        schedule = RewriteSchedule()
        record = schedule.add_record(("mp", 5))
        add = [i for i in block.instructions if i.opcode is O.ADD][0]
        rule = RewriteRule(add.address, RuleID.MEM_PRIVATISE, record)
        editor = BlockEditor(block)
        HANDLERS[RuleID.MEM_PRIVATISE](editor, rule, worker_tctx(schedule))
        rewritten = editor.instruction_at(add.address)
        assert rewritten.operands[0] == Mem(base=TLS_REG, disp=40)

    def test_main_thread_untouched(self, loop_block):
        process, block = loop_block
        schedule = RewriteSchedule()
        record = schedule.add_record(("mp", 5))
        add = [i for i in block.instructions if i.opcode is O.ADD][0]
        rule = RewriteRule(add.address, RuleID.MEM_PRIVATISE, record)
        editor = BlockEditor(block)
        HANDLERS[RuleID.MEM_PRIVATISE](editor, rule, main_tctx(schedule))
        assert editor.instruction_at(add.address).operands == add.operands


class TestMemMainStack:
    def test_redirects_and_inserts_prelude(self, loop_block):
        process, block = loop_block
        schedule = RewriteSchedule()
        record = schedule.add_record(("ms", 8))
        stack_read = [i for i in block.instructions
                      if any(m.base == R.rsp for m in i.mem_reads())][0]
        rule = RewriteRule(stack_read.address, RuleID.MEM_MAIN_STACK,
                           record)
        editor = BlockEditor(block)
        HANDLERS[RuleID.MEM_MAIN_STACK](editor, rule, worker_tctx(schedule))
        # Prelude loads main rsp from TLS slot 0 into the scratch reg.
        prelude = editor.instructions[0]
        assert prelude.opcode is O.MOV
        assert prelude.operands == (Reg(SCRATCH_REG),
                                    Mem(base=TLS_REG, disp=0))
        rewritten = editor.instruction_at(stack_read.address)
        assert rewritten.operands[1] == Mem(base=SCRATCH_REG, disp=8)


class TestTxRules:
    def test_tx_start_inserts_before_call(self):
        a = Assembler()
        powf = a.import_symbol("pow")
        a.label("_start")
        a.emit(O.MOV, Reg(R.rbx), Imm(0))
        a.emit(O.CALL, powf)
        a.emit(O.RET)
        process = load(a.assemble(entry="_start"))
        block = discover_block(process, process.entry)
        schedule = RewriteSchedule()
        call = block.terminator
        rule = RewriteRule(call.address, RuleID.TX_START, 7)
        editor = BlockEditor(block)
        HANDLERS[RuleID.TX_START](editor, rule, worker_tctx(schedule))
        assert editor.instructions[-2].opcode is O.RTCALL
        assert editor.instructions[-2].operands[0].value == \
            int(RTCallID.TX_START)
        assert editor.instructions[-1].opcode is O.CALL


class TestSpillRecover:
    def test_spill_and_recover_emit_tls_moves(self, loop_block):
        process, block = loop_block
        schedule = RewriteSchedule()
        record = schedule.add_record(("spill", [R.rax, R.rcx], 10))
        anchor = block.instructions[0].address
        editor = BlockEditor(block)
        HANDLERS[RuleID.MEM_SPILL_REG](
            editor, RewriteRule(anchor, RuleID.MEM_SPILL_REG, record),
            worker_tctx(schedule))
        spills = [i for i in editor.instructions
                  if i.opcode is O.MOV and isinstance(i.operands[0], Mem)
                  and i.operands[0].base == TLS_REG]
        assert len(spills) == 2
        assert spills[0].operands[0].disp == 80

        HANDLERS[RuleID.MEM_RECOVER_REG](
            editor, RewriteRule(anchor, RuleID.MEM_RECOVER_REG, record),
            worker_tctx(schedule))
        recovers = [i for i in editor.instructions
                    if i.opcode is O.MOV and isinstance(i.operands[1], Mem)
                    and i.operands[1].base == TLS_REG
                    and isinstance(i.operands[0], Reg)
                    and i.operands[0].id != SCRATCH_REG]
        assert len(recovers) == 2


class TestTLSLayoutConsistency:
    def test_generator_and_handlers_agree(self):
        """Generator, handlers and runtime read one TLS slot layout
        (repro.jbin.layout): the generator's slot allocator must never
        hand out the runtime-reserved slots (main rsp, thread bound)."""
        from repro.jbin import layout

        assert layout.TLS_MAIN_RSP_SLOT == 0
        assert layout.TLS_BOUND_SLOT == 1
        assert layout.TLS_FIRST_PRIVATE_SLOT > layout.TLS_BOUND_SLOT
        assert layout.VECTOR_SCRATCH_FIRST_SLOT \
            > layout.TLS_FIRST_PRIVATE_SLOT


class TestThreadScheduleIsMetadataOnly:
    def test_no_code_change(self, loop_block):
        process, block = loop_block
        schedule = RewriteSchedule()
        editor = BlockEditor(block)
        before = list(editor.instructions)
        HANDLERS[RuleID.THREAD_SCHEDULE](
            editor, RewriteRule(block.start, RuleID.THREAD_SCHEDULE, 0),
            worker_tctx(schedule))
        assert editor.instructions == before


class TestPayloadsDecodeOnce:
    @pytest.mark.parametrize("name", ["433.milc", "464.h264ref"])
    def test_each_pool_record_decodes_once_per_dbm(self, monkeypatch, name):
        """Training and a 4-thread Janus run translate worker blocks again
        and again; every pool record is still decoded at most once by each
        DBM (handlers and runtimes share ``JanusDBM.payloads``)."""
        from collections import Counter

        from repro.dbm.modifier import JanusDBM
        from repro.pipeline import Janus, JanusConfig, SelectionMode
        from repro.rewrite.metadata import RULE_PAYLOAD
        from repro.workloads import compile_workload

        decoded_by_dbm: list[list] = []
        init = JanusDBM.__init__

        def counting_init(self, *args, **kwargs):
            decoded_by_dbm.append([])
            init(self, *args, **kwargs)

        monkeypatch.setattr(JanusDBM, "__init__", counting_init)
        for kind in set(RULE_PAYLOAD.values()):
            def from_record(cls, record, _decode=kind.from_record.__func__):
                if decoded_by_dbm:
                    decoded_by_dbm[-1].append(record)
                return _decode(cls, record)
            monkeypatch.setattr(kind, "from_record", classmethod(from_record))

        janus = Janus(compile_workload(name), JanusConfig(n_threads=4))
        result = janus.run(SelectionMode.JANUS, training=janus.train())
        assert result.stats["loop_invocations_parallel"] >= 1
        assert any(decoded_by_dbm)
        for records in decoded_by_dbm:
            counts = Counter(id(record) for record in records)
            assert max(counts.values(), default=1) == 1
