"""End-to-end parallelisation tests: the correctness oracle.

Every test builds a program, runs it natively, runs it under full Janus
(static analysis -> schedule -> DBM + thread pool), and asserts identical
observable behaviour (printed outputs and final data memory).
"""

import pytest

from repro.isa import Imm, Mem, Opcode as O, Reg
from repro.isa.operands import Label, LabelRef
from repro.isa.registers import R
from repro.jbin import layout, syscalls
from repro.jbin.asm import Assembler
from repro.jbin.loader import load
from repro.dbm.executor import run_native
from repro.dbm.modifier import run_under_dbm
from repro.pipeline import Janus, JanusConfig, SelectionMode

RAX, RBX, RCX, RDX = Reg(R.rax), Reg(R.rbx), Reg(R.rcx), Reg(R.rdx)
RDI, RSI = Reg(R.rdi), Reg(R.rsi)
XMM0, XMM1 = Reg(R.xmm0), Reg(R.xmm1)


def emit_print_int(a, src):
    a.emit(O.MOV, RDI, src)
    a.emit(O.MOV, RAX, Imm(syscalls.PRINT_INT))
    a.emit(O.SYSCALL)


def emit_print_f64(a):
    a.emit(O.MOV, RAX, Imm(syscalls.PRINT_F64))
    a.emit(O.SYSCALL)


def build_image(build):
    a = Assembler()
    build(a)
    return a.assemble(entry="_start")


def assert_equivalent(image, inputs=None, n_threads=4,
                      mode=SelectionMode.JANUS, expect_parallel=True,
                      train=True):
    """The oracle: native run == Janus parallel run, observably."""
    native = run_native(load(image, inputs=inputs))
    config = JanusConfig(n_threads=n_threads, coverage_threshold=0.0)
    janus = Janus(image, config)
    training = janus.train(train_inputs=inputs) if train else None
    result = janus.run(mode, inputs=inputs, training=training)
    assert result.outputs == native.outputs
    assert result.data_snapshot() == native.data_snapshot()
    assert result.exit_code == native.exit_code
    if expect_parallel:
        assert result.stats["loop_invocations_parallel"] >= 1
    return native, result


# -- plain DBM (DynamoRIO baseline) -------------------------------------------


class TestPlainDBM:
    def test_dbm_preserves_behaviour(self):
        def build(a):
            a.word("arr", *range(8))
            a.label("_start")
            a.emit(O.MOV, RCX, Imm(0))
            a.emit(O.MOV, RAX, Imm(0))
            a.label("loop")
            a.emit(O.ADD, RAX, Mem(index=R.rcx, scale=8, disp=Label("arr")))
            a.emit(O.INC, RCX)
            a.emit(O.CMP, RCX, Imm(8))
            a.emit(O.JL, Label("loop"))
            emit_print_int(a, RAX)
            a.emit(O.RET)

        image = build_image(build)
        native = run_native(load(image))
        dbm = run_under_dbm(load(image))
        assert dbm.outputs == native.outputs
        assert dbm.cycles > native.cycles  # translation overhead exists
        assert dbm.stats["translation_cycles"] > 0

    def test_dbm_overhead_amortises_with_reuse(self):
        """Hot loops re-execute from the code cache: relative overhead
        shrinks as iteration counts grow."""

        def make(n):
            def build(a):
                a.label("_start")
                a.emit(O.MOV, RCX, Imm(0))
                a.label("loop")
                a.emit(O.INC, RCX)
                a.emit(O.CMP, RCX, Imm(n))
                a.emit(O.JL, Label("loop"))
                a.emit(O.RET)

            return build_image(build)

        overheads = []
        for n in (10, 10_000):
            image = make(n)
            native = run_native(load(image))
            dbm = run_under_dbm(load(image))
            overheads.append(dbm.cycles / native.cycles)
        assert overheads[1] < overheads[0]
        assert overheads[1] < 1.10


# -- static DOALL parallelisation -----------------------------------------------


class TestStaticDoallParallel:
    def test_array_fill(self):
        def build(a):
            arr = a.space("arr", 128)
            a.label("_start")
            a.emit(O.MOV, RCX, Imm(0))
            a.label("loop")
            a.emit(O.MOV, Mem(index=R.rcx, scale=8, disp=arr), RCX)
            a.emit(O.INC, RCX)
            a.emit(O.CMP, RCX, Imm(128))
            a.emit(O.JL, Label("loop"))
            emit_print_int(a, Mem(disp=LabelRef("arr", 8 * 100)))
            emit_print_int(a, RCX)  # final iterator value
            a.emit(O.RET)

        assert_equivalent(build_image(build))

    def test_parallel_is_faster_in_cycles(self):
        """A hot enough loop must beat native even after pool startup."""

        def build(a):
            arr = a.space("arr", 4000)
            a.label("_start")
            a.emit(O.MOV, RCX, Imm(0))
            a.label("loop")
            a.emit(O.MOV, RAX, RCX)
            a.emit(O.IMUL, RAX, RCX)
            a.emit(O.IMUL, RAX, RCX)
            a.emit(O.IDIV, RAX, Imm(7))
            a.emit(O.MOV, Mem(index=R.rcx, scale=8, disp=arr), RAX)
            a.emit(O.INC, RCX)
            a.emit(O.CMP, RCX, Imm(4000))
            a.emit(O.JL, Label("loop"))
            emit_print_int(a, Mem(disp=LabelRef("arr", 8 * 3999)))
            a.emit(O.RET)

        native, result = assert_equivalent(build_image(build), n_threads=8)
        assert result.cycles < native.cycles  # actual speedup
        # Most of the residual is the one-time pool startup; the parallel
        # region itself must be well under half the native time.
        parallel_region = result.stats["parallel_cycles"]
        assert parallel_region < 0.5 * native.cycles

    def test_integer_reduction(self):
        def build(a):
            a.word("arr", *range(300))
            a.label("_start")
            a.emit(O.MOV, RAX, Imm(1000))  # non-zero initial accumulator
            a.emit(O.MOV, RCX, Imm(0))
            a.label("loop")
            a.emit(O.ADD, RAX, Mem(index=R.rcx, scale=8, disp=Label("arr")))
            a.emit(O.INC, RCX)
            a.emit(O.CMP, RCX, Imm(300))
            a.emit(O.JL, Label("loop"))
            emit_print_int(a, RAX)
            a.emit(O.RET)

        native, result = assert_equivalent(build_image(build))
        assert native.outputs == [("i", 1000 + sum(range(300)))]

    def test_float_reduction(self):
        def build(a):
            a.double("arr", *[float(i) * 0.5 for i in range(64)])
            a.label("_start")
            a.emit(O.XORPD, XMM0, XMM0)
            a.emit(O.MOV, RCX, Imm(0))
            a.label("loop")
            a.emit(O.ADDSD, XMM0,
                   Mem(index=R.rcx, scale=8, disp=Label("arr")))
            a.emit(O.INC, RCX)
            a.emit(O.CMP, RCX, Imm(64))
            a.emit(O.JL, Label("loop"))
            emit_print_f64(a)
            a.emit(O.RET)

        native, result = assert_equivalent(build_image(build))
        (kind, value), = native.outputs
        assert value == pytest.approx(sum(float(i) * 0.5 for i in range(64)))

    def test_downward_strided_loop(self):
        def build(a):
            arr = a.space("arr", 256)
            a.label("_start")
            a.emit(O.MOV, RCX, Imm(255))
            a.label("loop")
            a.emit(O.MOV, Mem(index=R.rcx, scale=8, disp=arr), RCX)
            a.emit(O.SUB, RCX, Imm(3))
            a.emit(O.CMP, RCX, Imm(0))
            a.emit(O.JGE, Label("loop"))
            emit_print_int(a, Mem(disp=LabelRef("arr", 0)))
            emit_print_int(a, Mem(disp=LabelRef("arr", 8 * 255)))
            a.emit(O.RET)

        assert_equivalent(build_image(build))

    def test_two_invocations_with_different_bounds(self):
        """The TLS-bound design must survive cache reuse across calls."""

        def build(a):
            arr = a.space("arr", 600)
            a.label("_start")
            a.emit(O.MOV, RSI, Imm(200))
            a.emit(O.CALL, Label("fill"))
            a.emit(O.MOV, RSI, Imm(600))
            a.emit(O.CALL, Label("fill"))
            emit_print_int(a, Mem(disp=LabelRef("arr", 8 * 599)))
            a.emit(O.RET)
            a.label("fill")
            a.emit(O.MOV, RCX, Imm(0))
            a.label("loop")
            a.emit(O.MOV, Mem(index=R.rcx, scale=8, disp=arr), RCX)
            a.emit(O.INC, RCX)
            a.emit(O.CMP, RCX, RSI)
            a.emit(O.JL, Label("loop"))
            a.emit(O.RET)

        native, result = assert_equivalent(build_image(build))
        assert result.stats["loop_invocations_parallel"] == 2

    def test_readonly_stack_slot_redirected_to_main_stack(self):
        def build(a):
            arr = a.space("arr", 96)
            a.label("_start")
            a.emit(O.SUB, Reg(R.rsp), Imm(16))
            a.emit(O.MOV, Mem(base=R.rsp, disp=0), Imm(7))
            a.emit(O.MOV, RCX, Imm(0))
            a.label("loop")
            a.emit(O.MOV, RAX, Mem(base=R.rsp, disp=0))
            a.emit(O.IMUL, RAX, RCX)
            a.emit(O.MOV, Mem(index=R.rcx, scale=8, disp=arr), RAX)
            a.emit(O.INC, RCX)
            a.emit(O.CMP, RCX, Imm(96))
            a.emit(O.JL, Label("loop"))
            a.emit(O.ADD, Reg(R.rsp), Imm(16))
            emit_print_int(a, Mem(disp=LabelRef("arr", 8 * 95)))
            a.emit(O.RET)

        assert_equivalent(build_image(build))

    def test_multiple_induction_variables(self):
        """Pointer-strided secondary IV must get per-chunk initial values."""

        def build(a):
            a.space("arr", 128)
            a.label("_start")
            a.emit(O.MOV, RCX, Imm(0))
            a.emit(O.MOV, RDX, Imm(0x10000000))  # &arr
            a.label("loop")
            a.emit(O.MOV, Mem(base=R.rdx), RCX)
            a.emit(O.ADD, RDX, Imm(8))
            a.emit(O.INC, RCX)
            a.emit(O.CMP, RCX, Imm(128))
            a.emit(O.JL, Label("loop"))
            emit_print_int(a, Mem(disp=Imm(0x10000000 + 8 * 127).value))
            a.emit(O.RET)

        assert_equivalent(build_image(build))


# -- dynamic DOALL: runtime checks ------------------------------------------------


class TestBoundsChecks:
    def _copy_image(self, src_ptr, dst_ptr):
        def build(a):
            a.word("pa", dst_ptr)
            a.word("pb", src_ptr)
            a.space("data", 1024)
            a.label("_start")
            a.emit(O.MOV, Reg(R.r8), Mem(disp=Label("pa")))
            a.emit(O.MOV, Reg(R.r9), Mem(disp=Label("pb")))
            a.emit(O.MOV, RCX, Imm(0))
            a.label("loop")
            a.emit(O.MOV, RAX, Mem(base=R.r9, index=R.rcx, scale=8))
            a.emit(O.ADD, RAX, Imm(5))
            a.emit(O.MOV, Mem(base=R.r8, index=R.rcx, scale=8), RAX)
            a.emit(O.INC, RCX)
            a.emit(O.CMP, RCX, Imm(256))
            a.emit(O.JL, Label("loop"))
            emit_print_int(a, Mem(base=R.r8, disp=8 * 255))
            a.emit(O.RET)

        return build_image(build)

    def test_disjoint_arrays_run_parallel(self):
        from repro.jbin.layout import DATA_BASE

        data = DATA_BASE + 16  # address of "data"
        image = self._copy_image(src_ptr=data, dst_ptr=data + 8 * 512)
        native, result = assert_equivalent(image)
        assert result.stats["checks_passed"] >= 1

    def test_overlapping_arrays_fall_back_to_sequential(self):
        """Without training (the dependence was never profiled), the
        runtime check is the only line of defence: it must fail and the
        loop must run sequentially, preserving the recurrence."""
        from repro.jbin.layout import DATA_BASE

        data = DATA_BASE + 16
        # dst overlaps src shifted by one word: a genuine recurrence.
        image = self._copy_image(src_ptr=data, dst_ptr=data + 8)
        native, result = assert_equivalent(image, expect_parallel=False,
                                           train=False)
        assert result.stats["checks_failed"] >= 1
        assert result.stats["loop_invocations_parallel"] == 0
        assert result.stats["loop_invocations_sequential"] >= 1

    def test_training_deselects_observed_dependence(self):
        """With training inputs that exhibit the dependence, the loop is
        classified Type D and never selected at all."""
        from repro.jbin.layout import DATA_BASE

        data = DATA_BASE + 16
        image = self._copy_image(src_ptr=data, dst_ptr=data + 8)
        native, result = assert_equivalent(image, expect_parallel=False)
        assert result.stats.get("checks_failed", 0) == 0  # no rules emitted
        assert result.stats["loop_invocations_parallel"] == 0


# -- STM: dynamically discovered code ----------------------------------------------


class TestSTM:
    def test_library_call_in_loop(self):
        """bwaves-style: the hot loop calls pow@plt; Janus wraps it in a
        transaction (11 reads / 0 writes -> no conflicts, commits cleanly)."""

        def build(a):
            powf = a.import_symbol("pow")
            a.double("arr", *[0.001 * i for i in range(64)])
            a.double("two", 2.0)
            a.label("_start")
            a.emit(O.MOV, RDX, Imm(0))
            a.label("loop")
            a.emit(O.MOVSD, XMM0,
                   Mem(index=R.rdx, scale=8, disp=Label("arr")))
            a.emit(O.MOVSD, XMM1, Mem(disp=Label("two")))
            a.emit(O.CALL, powf)
            a.emit(O.MOVSD, Mem(index=R.rdx, scale=8, disp=Label("arr")),
                   XMM0)
            a.emit(O.INC, RDX)
            a.emit(O.CMP, RDX, Imm(64))
            a.emit(O.JL, Label("loop"))
            a.emit(O.MOVSD, XMM0, Mem(disp=LabelRef("arr", 8 * 63)))
            emit_print_f64(a)
            a.emit(O.RET)

        # rdx is caller-saved; the analyser must reject it... unless the
        # compiler used a callee-saved register.  Use rbx instead.
        def build_ok(a):
            powf = a.import_symbol("pow")
            a.double("arr", *[0.001 * i for i in range(64)])
            a.double("two", 2.0)
            a.label("_start")
            a.emit(O.MOV, RDX, Imm(0))  # rbx alias below
            a.emit(O.MOV, Reg(R.rbx), Imm(0))
            a.label("loop")
            a.emit(O.MOVSD, XMM0,
                   Mem(index=R.rbx, scale=8, disp=Label("arr")))
            a.emit(O.MOVSD, XMM1, Mem(disp=Label("two")))
            a.emit(O.CALL, powf)
            a.emit(O.MOVSD, Mem(index=R.rbx, scale=8, disp=Label("arr")),
                   XMM0)
            a.emit(O.INC, Reg(R.rbx))
            a.emit(O.CMP, Reg(R.rbx), Imm(64))
            a.emit(O.JL, Label("loop"))
            a.emit(O.MOVSD, XMM0, Mem(disp=LabelRef("arr", 8 * 63)))
            emit_print_f64(a)
            a.emit(O.RET)

        native, result = assert_equivalent(build_image(build_ok))
        assert result.stats["stm_cycles"] > 0


# -- violation detection --------------------------------------------------------------


class TestViolationDetection:
    def test_forced_bad_parallelisation_is_caught(self):
        """If a dependent loop is forced through the generator, the shadow
        conflict detector must catch the cross-thread dependence."""
        from repro.analysis import LoopCategory, analyze_image
        from repro.dbm.modifier import JanusDBM
        from repro.dbm.runtime import ParallelRuntime
        from repro.dbm.rtcalls import DependenceViolationError
        from repro.rewrite import generate_parallel_schedule

        def build(a):
            arr = a.word("arr", *([1] * 256))
            a.label("_start")
            a.emit(O.MOV, RCX, Imm(1))
            a.label("loop")
            a.emit(O.MOV, RAX,
                   Mem(index=R.rcx, scale=8, disp=LabelRef("arr", -8)))
            a.emit(O.ADD, RAX, Imm(1))
            a.emit(O.MOV, Mem(index=R.rcx, scale=8, disp=arr), RAX)
            a.emit(O.INC, RCX)
            a.emit(O.CMP, RCX, Imm(256))
            a.emit(O.JL, Label("loop"))
            emit_print_int(a, Mem(disp=LabelRef("arr", 8 * 255)))
            a.emit(O.RET)

        image = build_image(build)
        analysis = analyze_image(image)
        loop = analysis.loops[0]
        assert loop.category is LoopCategory.STATIC_DEPENDENCE
        # Force it through the generator as if analysis had blessed it.
        loop.category = LoopCategory.STATIC_DOALL
        loop.alias.dependences.clear()
        schedule = generate_parallel_schedule(analysis, [loop.loop_id])
        dbm = JanusDBM(load(image), schedule=schedule, n_threads=4)
        ParallelRuntime(dbm)
        with pytest.raises(DependenceViolationError) as excinfo:
            dbm.run()
        # Thread 1 runs i = 1..64 and writes arr[64]; thread 2 reads it as
        # arr[i - 1] at i = 65.  arr is the first global (DATA_BASE).
        address = layout.DATA_BASE + 8 * 64
        assert str(excinfo.value) == (
            f"cross-thread conflict on {address:#x} between threads 1 "
            f"and 2 in loop {loop.loop_id}")
