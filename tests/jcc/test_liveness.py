"""The allocator's block liveness against a per-position reference, and the
AST invariant behind ``ast.clone``.

``build_intervals`` solves liveness per basic block and derives each vreg's
extent from block facts.  The reference below is the allocator's earlier
per-position fixpoint: a frozenset per instruction per round and a touch
of every live vreg at every position.  Both must give the same
``(vreg, start, end, crosses_call)`` for every function jcc compiles and
for generated streams.
"""

import copy

from hypothesis import given, settings, strategies as st
import pytest

from repro.isa.instructions import Instruction, Opcode as O
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.jcc import CompileOptions, ast
from repro.jcc.codegen import VREG_BASE, FunctionCodegen, ModuleContext
from repro.jcc.optimizer import optimise
from repro.jcc.parser import parse
from repro.jcc.regalloc import build_intervals, vreg_uses_defs
from repro.jcc.sema import analyse
from repro.workloads import all_benchmarks
from repro.workloads.suite import get_workload, workload_source

from tests.jcc.test_image_golden import OPTION_SETS


def reference_intervals(stream: list) -> dict[int, tuple]:
    """Per-position liveness fixpoint; vreg -> (start, end, crosses_call)."""
    instructions = [(i, item[1]) for i, item in enumerate(stream)
                    if item[0] == "ins"]
    label_positions = {item[1]: i for i, item in enumerate(stream)
                       if item[0] == "label"}
    successors: dict[int, list[int]] = {}
    for position, ins in instructions:
        succs = []
        target = None
        if ins.opcode is O.JMP or ins.is_cond_branch:
            operand = ins.operands[0]
            if isinstance(operand, Label):
                target = label_positions.get(operand.name)
        if ins.opcode is O.JMP:
            if target is not None:
                succs.append(target)
        else:
            succs.append(position + 1)
            if ins.is_cond_branch and target is not None:
                succs.append(target)
        if ins.opcode in (O.RET, O.HLT):
            succs = []
        successors[position] = succs

    def live_at(position: int) -> frozenset:
        # A successor may be a label; the live set flows through it.
        while position < len(stream) and position not in live_in:
            position += 1
        return live_in.get(position, frozenset())

    use_def = {p: ({r for r in ins.reg_uses() if r >= VREG_BASE},
                   {r for r in ins.reg_defs() if r >= VREG_BASE})
               for p, ins in instructions}
    live_in: dict[int, frozenset] = {p: frozenset() for p, _ in instructions}
    changed = True
    while changed:
        changed = False
        for position, _ in reversed(instructions):
            uses, defs = use_def[position]
            live_out: set = set()
            for succ in successors[position]:
                live_out |= live_at(succ)
            new_live = frozenset(uses | (live_out - defs))
            if new_live != live_in[position]:
                live_in[position] = new_live
                changed = True

    extent: dict[int, list[int]] = {}
    for position, _ in instructions:
        uses, defs = use_def[position]
        for vreg in uses | defs | live_in[position]:
            span = extent.setdefault(vreg, [position, position])
            span[0] = min(span[0], position)
            span[1] = max(span[1], position)
    calls = [p for p, ins in instructions if ins.opcode in (O.CALL, O.CALLI)]
    return {vreg: (start, end, any(start < call < end for call in calls))
            for vreg, (start, end) in extent.items()}


def block_intervals(stream: list) -> dict[int, tuple]:
    intervals = build_intervals(stream, vreg_uses_defs(stream))
    assert all(vreg == iv.vreg for vreg, iv in intervals.items())
    return {vreg: (iv.start, iv.end, iv.crosses_call)
            for vreg, iv in intervals.items()}


def front_end(name: str, config: str, stage: str) -> ast.Program:
    program = parse(workload_source(get_workload(name)))
    analyse(program)
    if stage == "optimise":
        optimise(program, CompileOptions(**OPTION_SETS[config]))
    return program


# -- every function jcc compiles -------------------------------------------------


@pytest.mark.parametrize("config", list(OPTION_SETS))
def test_block_liveness_matches_reference_on_every_workload(config):
    options = CompileOptions(**OPTION_SETS[config])
    checked = 0
    for name in all_benchmarks():
        program = front_end(name, config, "optimise")
        module = ModuleContext(program=program, options=options)
        for fn in program.functions:
            stream = FunctionCodegen(module, fn).generate().stream
            assert block_intervals(stream) == reference_intervals(stream), (
                name, fn.name)
            checked += 1
    assert checked >= len(all_benchmarks())


# -- generated streams -------------------------------------------------------------

N_VREGS = 16
N_LIVE = 14  # vregs live across the body: more than 12 and than the pools
N_LABELS = 6  # label ids >= N_LABELS are branch targets that never appear


def _vreg(n: int) -> int:
    return VREG_BASE + 2 * n


_item = st.one_of(
    st.tuples(st.just("def"), st.integers(0, N_VREGS - 1)),
    st.tuples(st.just("use"), st.integers(0, N_VREGS - 1)),
    st.tuples(st.just("add"), st.integers(0, N_VREGS - 1),
              st.integers(0, N_VREGS - 1)),
    st.tuples(st.just("load"), st.integers(0, N_VREGS - 1),
              st.integers(0, N_VREGS - 1), st.integers(0, N_VREGS - 1)),
    st.tuples(st.just("label"), st.integers(0, N_LABELS - 1)),
    st.tuples(st.just("jmp"), st.integers(0, N_LABELS + 1)),
    st.tuples(st.just("jl"), st.integers(0, N_LABELS + 1)),
    st.tuples(st.just("call")),
    st.tuples(st.just("ret")),
)


def _lower(item: tuple) -> tuple:
    kind, *args = item
    if kind == "label":
        return ("label", f"L{args[0]}")
    if kind == "def":
        ins = Instruction(O.MOV, (Reg(_vreg(args[0])), Imm(args[0])))
    elif kind == "use":
        ins = Instruction(O.CMP, (Reg(_vreg(args[0])), Imm(0)))
    elif kind == "add":
        ins = Instruction(O.ADD, (Reg(_vreg(args[0])), Reg(_vreg(args[1]))))
    elif kind == "load":
        ins = Instruction(O.MOV, (Reg(_vreg(args[0])),
                                  Mem(base=_vreg(args[1]),
                                      index=_vreg(args[2]), scale=8)))
    elif kind == "jmp":
        ins = Instruction(O.JMP, (Label(f"L{args[0]}"),))
    elif kind == "jl":
        ins = Instruction(O.JL, (Label(f"L{args[0]}"),))
    elif kind == "call":
        ins = Instruction(O.CALL, (Label("callee"),))
    else:
        ins = Instruction(O.RET)
    return ("ins", ins)


def _stream(body: list) -> list:
    # The first N_LIVE vregs are defined up front and read at the end, so
    # they are live across the generated body; the rest may first become
    # live anywhere in it.
    prologue = [("def", n) for n in range(N_LIVE)]
    epilogue = [("use", n) for n in range(N_LIVE)] + [("ret",)]
    return [_lower(item) for item in prologue + body + epilogue]


@settings(max_examples=300, deadline=None)
@given(st.lists(_item, max_size=40))
def test_block_liveness_matches_reference_on_generated_streams(body):
    stream = _stream(body)
    assert block_intervals(stream) == reference_intervals(stream)


def test_generated_streams_keep_more_than_12_vregs_live():
    stream = _stream([("label", 0), ("call",), ("jl", 0)])
    intervals = block_intervals(stream)
    first_use = len(stream) - N_LIVE - 1
    assert sum(start < first_use <= end
               for start, end, _ in intervals.values()) == N_LIVE > 12
    assert all(crosses for _, _, crosses in intervals.values())


def test_vreg_first_live_at_a_call_does_not_cross_it():
    # v15 is live into the block at L1, which starts with the call, and
    # nowhere before it: the interval starts at the call.
    stream = _stream([("jmp", 2), ("label", 1), ("call",), ("use", 15),
                      ("ret",), ("label", 2), ("def", 15), ("jmp", 1)])
    call = next(p for p, (kind, ins) in enumerate(stream)
                if kind == "ins" and ins.opcode is O.CALL)
    intervals = block_intervals(stream)
    assert intervals == reference_intervals(stream)
    start, end, crosses = intervals[_vreg(15)]
    assert (start, crosses) == (call, False) and end > call


# -- the invariant behind ast.clone ---------------------------------------------------

SCALARS = (int, float, str, bool, type(None))


def _walk(value, seen: list) -> None:
    """Append every node reachable from ``value`` (repeats included) and
    check that nothing but nodes, lists and immutable scalars hangs off
    a node, so a field-wise copy is a deep copy."""
    if isinstance(value, list):
        for item in value:
            _walk(item, seen)
    elif isinstance(value, (ast.Expr, ast.Stmt)):
        seen.append(value)
        for child in vars(value).values():
            _walk(child, seen)
    else:
        assert isinstance(value, SCALARS), type(value)


@pytest.mark.parametrize("stage", ["analyse", "optimise"])
@pytest.mark.parametrize("config", list(OPTION_SETS))
def test_no_ast_node_is_reachable_twice(config, stage):
    for name in all_benchmarks():
        program = front_end(name, config, stage)
        seen: list = []
        for fn in program.functions:
            _walk(fn.body, seen)
        assert len({id(node) for node in seen}) == len(seen), name


def _dump(value):
    """Structure, node types and every attribute (``type`` included)."""
    if isinstance(value, list):
        return [_dump(item) for item in value]
    if isinstance(value, (ast.Expr, ast.Stmt)):
        return (type(value).__name__,
                {key: _dump(child) for key, child in vars(value).items()})
    return value


def test_clone_equals_deepcopy_and_shares_no_node():
    program = front_end("470.lbm", "gcc-O3-mavx", "optimise")
    for fn in program.functions:
        cloned = ast.clone(fn.body)
        assert _dump(cloned) == _dump(copy.deepcopy(fn.body))
        original: list = []
        copied: list = []
        _walk(fn.body, original)
        _walk(cloned, copied)
        assert not {id(n) for n in original} & {id(n) for n in copied}
