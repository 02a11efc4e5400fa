"""Induction-variable recognition and symbolic iteration ranges (paper II-D).

"The loop's iterator is identified by constructing a cyclic expression
starting from the phi node of the loop start block": for every header phi we
canonicalise the latch-side value with the phi itself as a symbol; a result
of the form ``phi + c`` (constant ``c``) is a basic induction variable.
"By examining the loop exit conditions, we can solve the range of each loop
iterator, symbolically representing it as a start, step and final value."

``trip_count``/``chunk_bounds`` are shared with the Janus runtime, which
evaluates the same formulas with concrete register values at loop entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import CONDITION_OF, NEGATED_CONDITION, Opcode
from repro.isa.operands import Imm, Mem, Reg
from repro.analysis.expr import ExprBuilder, Poly
from repro.analysis.loops import Loop
from repro.analysis.ssa import Phi, SSAForm


@dataclass
class BasicIV:
    """A register/slot that advances by a constant step each iteration."""

    var: object  # register id or ("stack", offset)
    phi: Phi
    step: int
    init_version: int  # SSA version flowing in from outside the loop


@dataclass
class IteratorInfo:
    """The loop's controlling iterator with its solved symbolic range."""

    iv: BasicIV
    # The conditional branch (block start, instruction index, address) that
    # tests the iterator, and the cmp feeding it.
    cmp_block: int
    cmp_index: int
    cmp_address: int
    jcc_address: int
    # Which cmp operand holds the iterator (0 or 1); the other is the bound.
    iv_operand_index: int
    bound_operand: object  # Imm / Reg / Mem, read at runtime for chunking
    bound_poly: Poly
    # Condition under which the loop *continues*, normalised as
    # ``(iterator + test_offset) <cond> bound``.
    cond: str
    # Constant difference between the tested value and the iterator's
    # header value in the same iteration (e.g. +step after a post-inc).
    test_offset: int
    # "bottom": the test sits at a latch (do-while shape, >= 1 iteration);
    # "top": the test is in the header before any update (while shape).
    test_position: str
    # Target address where execution resumes after a normal exit.
    exit_target: int
    # Statically known trip count and initial value, when init and bound
    # canonicalise to constants at function scope.
    static_trip_count: int | None = None
    static_init: int | None = None
    init_poly: Poly | None = None


@dataclass
class InductionAnalysis:
    """All induction facts for one loop."""

    basic_ivs: list[BasicIV] = field(default_factory=list)
    iterator: IteratorInfo | None = None
    # Header phis that are neither IVs nor handled elsewhere.
    other_phis: list[Phi] = field(default_factory=list)
    # True when the loop has exit edges beyond the iterator test.
    has_side_exits: bool = False


_FLIPPED = {"l": "g", "le": "ge", "g": "l", "ge": "le", "e": "e", "ne": "ne"}


def trip_count(start: int, bound: int, step: int, cond: str) -> int:
    """Number of iterations of ``for (i = start; i cond bound; i += step)``.

    Supports the conditions the analyser emits: ``l``/``le`` with positive
    step, ``g``/``ge`` with negative step, and ``ne`` with either sign.
    Returns 0 when the loop would not execute.
    """
    if step == 0:
        raise ValueError("zero-step iterator")
    if cond == "l":
        distance = bound - start
    elif cond == "le":
        distance = bound - start + 1
    elif cond == "g":
        distance = start - bound
    elif cond == "ge":
        distance = start - bound + 1
    elif cond == "ne":
        distance = abs(bound - start)
        return 0 if distance % abs(step) else distance // abs(step)
    else:
        raise ValueError(f"unsupported loop condition {cond!r}")
    if cond in ("g", "ge"):
        if step >= 0:
            return 0
        step = -step
    elif step < 0:
        return 0
    if distance <= 0:
        return 0
    return (distance + step - 1) // step


def loop_iterations(init: int, bound: int, step: int, cond: str,
                    test_offset: int, test_position: str) -> int:
    """Number of loop-body executions, given the concrete init/bound.

    For a top-tested (while-shaped) loop the body runs
    ``trip_count(init, bound, step, cond)`` times; for a bottom-tested
    (do-while-shaped) loop the body runs at least once and the tested value
    in iteration ``i`` is ``init + test_offset + step*i``.
    """
    if test_position == "top":
        return trip_count(init, bound, step, cond)
    return 1 + trip_count(init + test_offset, bound, step, cond)


def patched_bound(chunk_init: int, n_iterations: int, step: int, cond: str,
                  test_offset: int, test_position: str) -> int:
    """The bound immediate a thread's cmp must use to run exactly
    ``n_iterations`` iterations starting from ``chunk_init``.

    This is what the LOOP_UPDATE_BOUND handler encodes into each thread's
    private code cache (paper Fig. 2b: the modified ``cmp`` immediate).
    Requires ``n_iterations >= 1``.
    """
    if n_iterations < 1:
        raise ValueError("threads with empty chunks must not be scheduled")
    if test_position == "top":
        first_failing = chunk_init + step * n_iterations
    else:
        first_failing = chunk_init + test_offset + step * (n_iterations - 1)
    if cond == "le":
        return first_failing - 1
    if cond == "ge":
        return first_failing + 1
    return first_failing  # l / g / ne fail exactly at equality


def vector_trip_split(total_trips: int, lanes: int) -> tuple[int, int]:
    """Split a concrete trip count into (packed_trips, scalar_remainder).

    The vector runtime runs ``packed_trips`` lane-stepped iterations of the
    widened body, then ``scalar_remainder`` iterations of the *original*
    scalar code as the epilogue peel.  At least one iteration is always
    peeled so the loop's final architectural state (iterator, flags from
    the last compare) comes from genuine scalar execution — that is what
    keeps packed runs bit-identical to the reference.
    """
    if total_trips < 1:
        raise ValueError("vector split needs a loop that executes")
    if lanes < 2:
        raise ValueError("vector lanes must be >= 2")
    packed = max((total_trips - 1) // lanes, 0)
    return packed, total_trips - packed * lanes


def chunk_bounds(total_trips: int, n_threads: int) -> list[tuple[int, int]]:
    """Split [0, total_trips) into contiguous per-thread chunks.

    Mirrors the paper's default policy: each thread runs an equal number of
    contiguous iterations (#iterations / #threads), with the remainder
    spread over the first threads.
    """
    base, extra = divmod(total_trips, n_threads)
    chunks = []
    start = 0
    for t in range(n_threads):
        size = base + (1 if t < extra else 0)
        chunks.append((start, start + size))
        start += size
    return chunks


def round_robin_bounds(total_trips: int, n_threads: int,
                       block: int = 8) -> list[list[tuple[int, int]]]:
    """Distribute [0, total_trips) as round-robin blocks per thread.

    The paper's alternative policy: "a small number of contiguous
    iterations from the total iteration space in a round-robin fashion" —
    better load balance when per-iteration cost varies.  Returns, per
    thread, the ordered list of (start, end) blocks it executes.
    """
    if block < 1:
        raise ValueError("block size must be positive")
    assignments: list[list[tuple[int, int]]] = [[] for _ in range(n_threads)]
    position = 0
    index = 0
    while position < total_trips:
        end = min(position + block, total_trips)
        assignments[index % n_threads].append((position, end))
        position = end
        index += 1
    return assignments


def analyse_induction(ssa: SSAForm, loop: Loop,
                      known_liveins: dict | None = None) -> InductionAnalysis:
    """Find basic IVs, pick the controlling iterator, solve its range.

    ``known_liveins`` maps variables to exact version-0 values (e.g. the
    machine's boot register state in the entry function); they are
    substituted when solving for a static initial value and trip count.

    The result is a pure function of its arguments, memoised on the SSA
    form: every caller asking about the same loop shares one object and
    must not mutate it.  A failing analysis is not memoised.
    """
    key = (loop.header, frozenset(loop.body),
           frozenset((known_liveins or {}).items()))
    result = ssa.inductions.get(key)
    if result is None:
        result = _analyse_induction(ssa, loop, known_liveins)
        ssa.inductions[key] = result
    return result


def _analyse_induction(ssa: SSAForm, loop: Loop,
                       known_liveins: dict | None) -> InductionAnalysis:
    result = InductionAnalysis()
    builder = ExprBuilder(ssa, loop)
    header_phis = ssa.phis.get(loop.header, [])

    for phi in header_phis:
        iv = _try_basic_iv(ssa, loop, builder, phi)
        if iv is not None:
            result.basic_ivs.append(iv)
        else:
            result.other_phis.append(phi)

    iterator_exits = []
    other_exits = []
    for src, dst in loop.exit_edges:
        info = _match_iterator_exit(ssa, loop, builder, result.basic_ivs,
                                    src, dst)
        if info is not None:
            iterator_exits.append(info)
        else:
            other_exits.append((src, dst))

    if iterator_exits:
        result.iterator = iterator_exits[0]
        result.has_side_exits = bool(other_exits) or len(iterator_exits) > 1
        _solve_static_trip_count(ssa, loop, builder, result.iterator,
                                 known_liveins)
    else:
        result.has_side_exits = bool(other_exits)
    return result


def _try_basic_iv(ssa: SSAForm, loop: Loop, builder: ExprBuilder,
                  phi: Phi) -> BasicIV | None:
    init_versions = [v for pred, v in phi.sources.items()
                     if pred not in loop.body]
    latch_versions = [v for pred, v in phi.sources.items()
                      if pred in loop.body]
    if len(set(init_versions)) != 1 or not latch_versions:
        return None
    theta = ("phi", phi.var, phi.dest)
    step = None
    for version in set(latch_versions):
        poly = builder.value_of((phi.var, version))
        decomposed = poly.linear_in(theta)
        if decomposed is None:
            return None
        coeff, rest = decomposed
        if coeff != 1 or not rest.is_constant or rest.is_zero:
            return None
        this_step = rest.constant_value
        if step is None:
            step = this_step
        elif step != this_step:
            return None
    return BasicIV(var=phi.var, phi=phi, step=step,
                   init_version=init_versions[0])


def _match_iterator_exit(ssa: SSAForm, loop: Loop, builder: ExprBuilder,
                         ivs: list[BasicIV], src: int, dst: int
                         ) -> IteratorInfo | None:
    block = ssa.cfg.blocks[src]
    term = block.terminator
    if not term.is_cond_branch:
        return None
    # Find the cmp that feeds this branch (the last flag producer).
    cmp_index = None
    for index in range(len(block.instructions) - 2, -1, -1):
        ins = block.instructions[index]
        if ins.opcode is Opcode.CMP:
            cmp_index = index
            break
        if ins.opcode in (Opcode.TEST, Opcode.UCOMISD):
            return None  # not an integer-iterator comparison
    if cmp_index is None:
        return None
    cmp = block.instructions[cmp_index]

    for iv in ivs:
        theta = ("phi", iv.phi.var, iv.phi.dest)
        lhs = builder.operand_value(src, cmp_index, cmp.operands[0])
        rhs = builder.operand_value(src, cmp_index, cmp.operands[1])
        lhs_dec = lhs.linear_in(theta)
        rhs_dec = rhs.linear_in(theta)
        if lhs_dec is None or rhs_dec is None:
            continue
        # The tested value must be "iterator + constant offset": the offset
        # is the accumulated update before the cmp (e.g. +step post-inc).
        if (lhs_dec[0] == 1 and rhs_dec[0] == 0
                and lhs_dec[1].is_constant):
            iv_side, bound_poly = 0, rhs
            offset = lhs_dec[1].constant_value
        elif (rhs_dec[0] == 1 and lhs_dec[0] == 0
                and rhs_dec[1].is_constant):
            iv_side, bound_poly = 1, lhs
            offset = rhs_dec[1].constant_value
        else:
            continue
        if bound_poly.mentions(theta):
            continue
        # Where does the test sit?  Bottom (latch) tests run the body at
        # least once; top (header, before any update) tests may run zero
        # iterations.  Anything else is treated as a side exit.
        if src in loop.latches:
            position = "bottom"
        elif src == loop.header and offset == 0:
            position = "top"
        else:
            continue
        # Normalise the *continue* condition to "iterator cond bound".
        taken_cond = CONDITION_OF[term.opcode]
        target = term.branch_target()
        if target in loop.body:
            continue_cond = taken_cond
        else:
            continue_cond = NEGATED_CONDITION[taken_cond]
        if iv_side == 1:
            continue_cond = _FLIPPED[continue_cond]
        if continue_cond not in ("l", "le", "g", "ge", "ne"):
            continue
        bound_operand = cmp.operands[1 - iv_side]
        return IteratorInfo(
            iv=iv,
            cmp_block=src,
            cmp_index=cmp_index,
            cmp_address=cmp.address,
            jcc_address=term.address,
            iv_operand_index=iv_side,
            bound_operand=bound_operand,
            bound_poly=bound_poly,
            cond=continue_cond,
            test_offset=offset,
            test_position=position,
            exit_target=dst,
        )
    return None


def _solve_static_trip_count(ssa: SSAForm, loop: Loop, builder: ExprBuilder,
                             info: IteratorInfo,
                             known_liveins: dict | None = None) -> None:
    from repro.analysis.vrange import substitute_liveins

    info.init_poly = builder.value_of((info.iv.var, info.iv.init_version))
    # Re-canonicalise init and bound at function scope: values set up in the
    # preheader (e.g. "mov rcx, 0") resolve to constants there.  Known
    # live-in values (the boot register state in the entry function) make
    # loops whose init/bound come straight from function arguments constant.
    fn_builder = ExprBuilder(ssa, loop, scope="function")
    init_fn = substitute_liveins(
        fn_builder.value_of((info.iv.var, info.iv.init_version)),
        known_liveins)
    bound_fn = substitute_liveins(
        fn_builder.operand_value(info.cmp_block, info.cmp_index,
                                 info.bound_operand),
        known_liveins)
    if init_fn.is_constant:
        info.static_init = init_fn.constant_value
    if init_fn.is_constant and bound_fn.is_constant:
        try:
            info.static_trip_count = loop_iterations(
                init_fn.constant_value, bound_fn.constant_value,
                info.iv.step, info.cond, info.test_offset,
                info.test_position)
        except ValueError:
            info.static_trip_count = None
