"""Distance-vector alias analysis and bounds-check planning (paper II-D).

Memory accesses inside a loop are canonicalised to address polynomials and
decomposed as ``coeff * theta + base`` over the loop iterator ``theta``.

* Accesses sharing a symbolic base form an *access group*; within a group
  the distance vector between a write and any other access is a constant,
  and "we solve the equation when the distance vector is zero" — a
  cross-iteration dependence exists iff the distance is a feasible non-zero
  multiple of the per-iteration stride.
* Across groups whose bases cannot be proven distinct, a
  ``MEM_BOUNDS_CHECK`` plan is produced when the base polynomials are
  runtime-evaluable (paper Fig. 4), or the loop is left to the dynamic
  categories when they are not.
* Loop-invariant-address groups are classified as privatisable
  (write-before-read each iteration → ``MEM_PRIVATISE``), as memory
  reductions (load-add-store of the same word), or as true static
  dependences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.operands import Mem
from repro.analysis.depend import (
    DependContext,
    Verdict,
    coefficient_verdict,
    delta_range,
    make_context,
)
from repro.analysis.dominators import DominatorInfo
from repro.analysis.expr import ExprBuilder, Poly, runtime_evaluable
from repro.analysis.induction import InductionAnalysis
from repro.analysis.loops import Loop
from repro.analysis.ssa import SSAForm
from repro.analysis.stack import slot_of
from repro.analysis.vrange import FunctionRanges, Interval

WORD = 8


@dataclass
class MemAccess:
    """One non-stack-slot memory access inside the loop."""

    block: int
    index: int
    address: int  # instruction address (rewrite rules attach here)
    operand: Mem
    is_write: bool
    lanes: int
    poly: Poly
    # Linear decomposition over the iterator: poly = theta_coeff*theta + base.
    theta_coeff: int | None = None
    base: Poly | None = None

    @property
    def const_offset(self) -> int:
        return self.base.constant_value if self.base is not None else 0

    def __repr__(self) -> str:
        kind = "W" if self.is_write else "R"
        return f"<{kind} @{self.address:#x} {self.poly}>"


@dataclass
class AccessGroup:
    """Accesses sharing one symbolic base *and* iterator coefficient.

    Same base + same coefficient means every pairwise distance is a
    constant, so the exact distance-vector test applies within a group.
    Pairs across groups are handled by static range separation or a
    runtime bounds check.
    """

    base_struct_key: tuple
    base_struct: Poly  # symbolic part of the base (no constant term)
    theta_coeff: int = 0
    accesses: list[MemAccess] = field(default_factory=list)

    @property
    def has_write(self) -> bool:
        return any(a.is_write for a in self.accesses)

    @property
    def is_invariant(self) -> bool:
        return all(a.theta_coeff == 0 for a in self.accesses)

    def extent_offsets(self) -> tuple[int, int]:
        """(min, max+1) constant byte offsets across the group's accesses."""
        lo = min(a.const_offset for a in self.accesses)
        hi = max(a.const_offset + WORD * a.lanes for a in self.accesses)
        return lo, hi


@dataclass
class BoundsCheckPair:
    """One runtime check: the write group's range must not overlap the other's."""

    write_group: AccessGroup
    other_group: AccessGroup


@dataclass
class Dependence:
    """A proven (or conservatively assumed) cross-iteration dependence."""

    source: MemAccess
    sink: MemAccess
    distance: int | None  # iterations, when known
    reason: str


@dataclass
class DischargedPair:
    """A pair the dependence engine proved conflict-free, with evidence.

    These feed ``repro racecheck``: every discharged pair surfaces as a
    PROVEN_DISJOINT finding whose explanation chain is the verdict's.
    """

    source: MemAccess
    sink: MemAccess
    verdict: Verdict


@dataclass
class MemReduction:
    """A load-op-store reduction on one loop-invariant word."""

    group: AccessGroup
    op: str  # "+" (subtraction folds into the added polynomial's sign)


@dataclass
class PrivatisableGroup:
    """An invariant-address group safe to privatise per thread."""

    group: AccessGroup
    first_access_is_write: bool
    live_out: bool = True  # conservatively copy back after the loop


@dataclass
class AliasAnalysis:
    """Everything the classifier and rule generators need about memory."""

    accesses: list[MemAccess] = field(default_factory=list)
    groups: list[AccessGroup] = field(default_factory=list)
    dependences: list[Dependence] = field(default_factory=list)
    bounds_checks: list[BoundsCheckPair] = field(default_factory=list)
    unanalysable: list[MemAccess] = field(default_factory=list)
    # Cross-group pairs that would need a check but are not evaluable.
    unprovable_pairs: int = 0
    reductions: list[MemReduction] = field(default_factory=list)
    privatisable: list[PrivatisableGroup] = field(default_factory=list)
    # Pairs the symbolic dependence engine proved disjoint, with evidence.
    discharged: list[DischargedPair] = field(default_factory=list)


def collect_accesses(ssa: SSAForm, loop: Loop,
                     builder: ExprBuilder) -> list[MemAccess]:
    """All heap/global memory accesses in the loop body (stack slots excluded)."""
    accesses: list[MemAccess] = []
    for start in sorted(loop.body):
        block = ssa.cfg.blocks[start]
        for index, ins in enumerate(block.instructions):
            _, _, reads, writes = ins.facts()
            if not (reads or writes):
                continue
            delta = ssa.delta_at(start, index)
            for is_write, mems in ((False, reads), (True, writes)):
                for mem in mems:
                    if slot_of(delta, mem) is not None:
                        continue  # private stack slot, handled via SSA
                    poly = builder.address_of(start, index, mem)
                    accesses.append(MemAccess(
                        block=start, index=index, address=ins.address,
                        operand=mem, is_write=is_write, lanes=ins.lanes,
                        poly=poly))
    return accesses


def analyse_aliases(ssa: SSAForm, loop: Loop, dom: DominatorInfo,
                    induction: InductionAnalysis,
                    builder: ExprBuilder,
                    ranges: FunctionRanges | None = None) -> AliasAnalysis:
    """Run the full alias pipeline for one loop.

    ``ranges`` feeds the symbolic dependence engine with iterator and
    live-in intervals; without it the engine still works off the loop's
    static induction facts alone.
    """
    result = AliasAnalysis()
    result.accesses = collect_accesses(ssa, loop, builder)
    ctx = make_context(induction, ranges, loop=loop)

    iterator = induction.iterator
    theta = None
    step = 1
    trips = None
    if iterator is not None:
        theta = ("phi", iterator.iv.phi.var, iterator.iv.phi.dest)
        step = iterator.iv.step
        trips = iterator.static_trip_count

    groups: dict[tuple, AccessGroup] = {}
    for access in result.accesses:
        decomposed = access.poly.linear_in(theta) if theta is not None else None
        if theta is None or decomposed is None:
            result.unanalysable.append(access)
            continue
        coeff, base = decomposed
        if any(s[0] in ("opaque", "phi") for s in base.symbols()):
            result.unanalysable.append(access)
            continue
        access.theta_coeff = coeff
        access.base = base
        struct = Poly({m: c for m, c in base.terms.items() if m != ()})
        key = (struct.key(), coeff)
        group = groups.get(key)
        if group is None:
            group = AccessGroup(base_struct_key=key, base_struct=struct,
                                theta_coeff=coeff)
            groups[key] = group
        group.accesses.append(access)
    result.groups = sorted(groups.values(),
                           key=lambda g: g.accesses[0].address)

    for group in result.groups:
        _within_group(result, group, step, trips, ctx)
    _across_groups(result, dom, induction, ctx)
    _invariant_groups(result, ssa, loop, dom, builder)
    return result


def _within_group(result: AliasAnalysis, group: AccessGroup, step: int,
                  trips: int | None, ctx: DependContext) -> None:
    """Distance-vector test for every write/other pair sharing a base.

    A pair whose distance could only be bridged by a long-enough iteration
    space (trip count unknown statically) becomes a *runtime* range check
    rather than a hard dependence — unless the dependence engine can bound
    the iteration space from the value-range analysis and discharge the
    pair outright.
    """
    flagged_writes: list[MemAccess] = []
    flagged_others: list[MemAccess] = []
    for wi, write in enumerate(group.accesses):
        if not write.is_write:
            continue
        for oi, other in enumerate(group.accesses):
            if oi == wi:
                continue
            if other.is_write and oi < wi:
                continue  # each write-write pair once
            verdict = _pair_dependence(write, other, step, trips)
            if verdict is None:
                continue
            engine = _engine_pair_verdict(ctx, write, other)
            if engine.independent:
                result.discharged.append(
                    DischargedPair(source=write, sink=other,
                                   verdict=engine))
                continue
            kind, payload = verdict
            if kind == "dep":
                result.dependences.append(payload)
            else:  # "check": decidable only with the runtime trip count
                if write not in flagged_writes:
                    flagged_writes.append(write)
                if other not in flagged_others:
                    flagged_others.append(other)
    if flagged_writes:
        # One consolidated check for the whole group: the union of the
        # flagged write ranges against the union of the flagged others.
        result.bounds_checks.append(BoundsCheckPair(
            write_group=_subset_group(group, flagged_writes),
            other_group=_subset_group(group, flagged_others)))


def _subset_group(group: AccessGroup, accesses: list) -> AccessGroup:
    return AccessGroup(base_struct_key=group.base_struct_key,
                       base_struct=group.base_struct,
                       theta_coeff=accesses[0].theta_coeff,
                       accesses=list(accesses))


def _pair_dependence(a: MemAccess, b: MemAccess, step: int,
                     trips: int | None):
    """("dep", Dependence) for a proven dependence, ("check", None) when
    only the runtime iteration count can decide, None when independent."""
    ca, cb = a.theta_coeff, b.theta_coeff
    if ca == 0 and cb == 0:
        return None  # invariant addresses: handled by _invariant_groups
    if ca != cb:
        return ("dep", Dependence(a, b, None,
                                  "differing iterator coefficients"))
    stride = ca * step
    if stride == 0:
        return ("dep", Dependence(a, b, None,
                                  "zero stride with varying base"))
    # Word-level distance test, expanding packed lanes.
    needs_check = False
    for la in range(a.lanes):
        for lb in range(b.lanes):
            distance = (b.const_offset + WORD * lb) - (
                a.const_offset + WORD * la)
            if distance == 0:
                continue  # same word in the same iteration: not cross-iter
            if distance % stride:
                continue  # never coincide on the integer lattice
            iters = distance // stride
            if trips is not None:
                if abs(iters) >= trips:
                    continue  # outside the iteration space
                return ("dep", Dependence(
                    a, b, iters, f"distance {distance} = {iters} iterations"))
            needs_check = True
    if needs_check:
        return ("check", None)
    return None


def _engine_pair_verdict(ctx: DependContext, a: MemAccess,
                         b: MemAccess) -> Verdict:
    """Run the symbolic dependence engine on one decomposed access pair."""
    if a.base is None or b.base is None \
            or a.theta_coeff is None or b.theta_coeff is None:
        return Verdict.dependent("access not decomposed over the iterator")
    delta = delta_range(ctx, a.base, b.base)
    return coefficient_verdict(ctx, a.theta_coeff, b.theta_coeff, delta,
                               WORD * a.lanes, WORD * b.lanes)


def _engine_group_discharge(ctx: DependContext, ga: AccessGroup,
                            gb: AccessGroup
                            ) -> list[DischargedPair] | None:
    """Discharge every write/other pair across two groups, or ``None``.

    All pairs must prove disjoint for the group pair to need no runtime
    check; a single surviving pair keeps the conservative treatment.
    """
    discharged: list[DischargedPair] = []
    for x in ga.accesses:
        for y in gb.accesses:
            if not (x.is_write or y.is_write):
                continue
            verdict = _engine_pair_verdict(ctx, x, y)
            if not verdict.independent:
                return None
            discharged.append(DischargedPair(source=x, sink=y,
                                             verdict=verdict))
    return discharged


def _across_groups(result: AliasAnalysis, dom: DominatorInfo,
                   induction: InductionAnalysis,
                   ctx: DependContext) -> None:
    """Resolve cross-group pairs: statically via the dependence engine
    (GCD / Banerjee / range separation over symbolic bases), then by the
    legacy whole-range comparison, otherwise by planning a
    MEM_BOUNDS_CHECK."""
    iterator = induction.iterator
    theta_first = theta_last = None
    if (iterator is not None and iterator.static_trip_count
            and iterator.static_init is not None):
        theta_first = iterator.static_init
        theta_last = iterator.static_init + iterator.iv.step * (
            iterator.static_trip_count - 1)

    for i, ga in enumerate(result.groups):
        for gb in result.groups[i + 1:]:
            if not (ga.has_write or gb.has_write):
                continue
            write_group, other = (ga, gb) if ga.has_write else (gb, ga)
            # The symbolic engine sees through constant *and* symbolic
            # base differences (shared symbols cancel; residual ranges
            # come from the value-range analysis).
            discharged = _engine_group_discharge(ctx, write_group, other)
            if discharged is not None:
                result.discharged.extend(discharged)
                continue
            # Same symbolic base and a concrete iteration space: the two
            # ranges differ only by constants -- decide statically.
            if (write_group.base_struct == other.base_struct
                    and theta_first is not None):
                range_a = _relative_range(write_group, theta_first,
                                          theta_last)
                range_b = _relative_range(other, theta_first, theta_last)
                if range_a[1] <= range_b[0] or range_b[1] <= range_a[0]:
                    continue  # provably disjoint
                result.dependences.append(Dependence(
                    write_group.accesses[0], other.accesses[0], None,
                    "overlapping ranges with differing strides"))
                continue
            if (runtime_evaluable(write_group.base_struct)
                    and runtime_evaluable(other.base_struct)):
                result.bounds_checks.append(
                    BoundsCheckPair(write_group=write_group,
                                    other_group=other))
            else:
                result.unprovable_pairs += 1


def _relative_range(group: AccessGroup, theta_first: int,
                    theta_last: int) -> tuple[int, int]:
    """[lo, hi) byte range relative to the group's symbolic base value."""
    lo = None
    hi = None
    for access in group.accesses:
        for theta in (theta_first, theta_last):
            start = access.theta_coeff * theta + access.const_offset
            end = start + WORD * access.lanes
            lo = start if lo is None else min(lo, start)
            hi = end if hi is None else max(hi, end)
    assert lo is not None and hi is not None
    return lo, hi


def _invariant_groups(result: AliasAnalysis, ssa: SSAForm, loop: Loop,
                      dom: DominatorInfo, builder: ExprBuilder) -> None:
    """Classify invariant-address *words*: reduction / privatisable / dep.

    An invariant group may span several unrelated scalars (e.g. an
    accumulator next to a read-only constant): each word is classified
    independently, and words that are never written need no treatment.
    """
    for group in result.groups:
        if not group.is_invariant or not group.has_write:
            continue
        for word_group in _split_by_word(group):
            if not word_group.has_write:
                continue  # read-only word: no cross-iteration traffic
            _classify_invariant_word(result, word_group, ssa, loop, dom,
                                     builder)


def _split_by_word(group: AccessGroup) -> list[AccessGroup]:
    by_offset: dict[int, list[MemAccess]] = {}
    for access in group.accesses:
        by_offset.setdefault(access.const_offset, []).append(access)
    return [AccessGroup(base_struct_key=group.base_struct_key,
                        base_struct=group.base_struct,
                        theta_coeff=0, accesses=accesses)
            for _, accesses in sorted(by_offset.items())]


def _classify_invariant_word(result: AliasAnalysis, group: AccessGroup,
                             ssa: SSAForm, loop: Loop, dom: DominatorInfo,
                             builder: ExprBuilder) -> None:
    overlapping = _words_overlap(group)
    if not overlapping:
        # Write-only (WAW-only) scalar: no read ever sees the value
        # inside the loop.  Privatise if the write executes every
        # iteration (the last thread's copy-back then equals the last
        # sequential write); otherwise the conditional write is a true
        # cross-iteration output dependence.
        if _write_first(group, ssa, loop, dom):
            result.privatisable.append(PrivatisableGroup(
                group=group, first_access_is_write=True))
        else:
            writes = [a for a in group.accesses if a.is_write]
            result.dependences.append(Dependence(
                writes[0], writes[-1], None,
                "conditional loop-carried scalar write"))
        return
    reduction_op = _match_reduction(group, ssa, builder)
    if reduction_op is not None:
        result.reductions.append(MemReduction(group=group,
                                              op=reduction_op))
        return
    if _write_first(group, ssa, loop, dom):
        result.privatisable.append(
            PrivatisableGroup(group=group, first_access_is_write=True))
        return
    writes = [a for a in group.accesses if a.is_write]
    others = [a for a in group.accesses if a is not writes[0]]
    sink = others[0] if others else writes[0]
    result.dependences.append(Dependence(
        writes[0], sink, None, "loop-carried scalar memory dependence"))


def _words_overlap(group: AccessGroup) -> bool:
    writes = [a for a in group.accesses if a.is_write]
    for write in writes:
        w_words = {write.const_offset + WORD * k for k in range(write.lanes)}
        for other in group.accesses:
            if other is write:
                continue
            o_words = {other.const_offset + WORD * k
                       for k in range(other.lanes)}
            if w_words & o_words:
                return True
    return False


def _match_reduction(group: AccessGroup, ssa: SSAForm,
                     builder: ExprBuilder) -> str | None:
    """Detect load-add-store of the same invariant word.

    The stored value's polynomial must be ``load(same address) + delta``:
    then per-thread partial sums combine associatively at LOOP_FINISH.
    """
    writes = [a for a in group.accesses if a.is_write]
    if len(writes) != 1:
        return None
    write = writes[0]
    if write.lanes != 1:
        return None
    block = ssa.cfg.blocks[write.block]
    ins = block.instructions[write.index]
    from repro.isa.instructions import Opcode

    if ins.opcode in (Opcode.ADD, Opcode.ADDSD, Opcode.SUB, Opcode.SUBSD):
        # add [addr], value - read-modify-write of the word itself.
        return "+"
    if ins.opcode in (Opcode.MOV, Opcode.MOVSD):
        stored = builder.operand_value(write.block, write.index,
                                       ins.operands[1])
        load_sym = ("load", write.poly.key())
        decomposed = stored.linear_in(load_sym)
        if decomposed is not None and decomposed[0] == 1:
            return "+"
    return None


def _write_first(group: AccessGroup, ssa: SSAForm, loop: Loop,
                 dom: DominatorInfo) -> bool:
    """True if some write dominates every read and every latch.

    That write then re-defines the word on every iteration before any read
    sees it, so per-thread private copies are safe (WAR/WAW only).
    """
    reads = [a for a in group.accesses if not a.is_write]
    for write in group.accesses:
        if not write.is_write:
            continue
        # A read-modify-write consumes the previous value: not write-first.
        ins = ssa.cfg.blocks[write.block].instructions[write.index]
        if any(m == write.operand for m in ins.mem_reads()):
            continue
        def before(w: MemAccess, r: MemAccess) -> bool:
            if w.block == r.block:
                return w.index < r.index
            return dom.dominates(w.block, r.block)

        if all(before(write, r) for r in reads) and all(
                dom.dominates(write.block, latch)
                for latch in loop.latches):
            return True
    return False
