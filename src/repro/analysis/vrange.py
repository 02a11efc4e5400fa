"""Value-range analysis over SSA (interval lattice with widening).

The dependence engine (``analysis/depend.py``) needs sound integer ranges
for the symbols that appear in address polynomials: loop iterators, header
phis, live-in registers.  This module provides them as a classic interval
lattice with three feeds:

* **loop bounds** from ``induction.py`` — the iterator's header value lies
  in ``[init, last]`` where each side is derived from the initial value and
  the continue condition (one-sided ranges when only one end is known);
* **dominating branches** — a conditional ``cmp reg, imm`` that dominates a
  use refines the SSA name it tested (SSA names are immutable, so a
  constraint established on a dominating edge holds at every later use);
* **entry-state constants** — in the image's entry function (when it is
  provably never called back into) the version-0 live-in registers hold the
  machine's boot values: zero for every GPR except rsp/r15.

General phis are resolved by a bounded ascending fixpoint with widening to
±∞ after :data:`WIDEN_AFTER` rounds, then a narrowing meet against the
branch constraints on the phi's sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from repro.isa.instructions import Opcode
from repro.isa.operands import Imm, Reg
from repro.analysis.dominators import DominatorInfo
from repro.analysis.expr import ExprBuilder, Poly
from repro.analysis.loops import Loop
from repro.analysis.ssa import SSAForm, SSAName

WIDEN_AFTER = 4
MAX_PHI_ROUNDS = 8


@dataclass(frozen=True)
class Interval:
    """A (never-empty) integer interval; ``None`` means unbounded."""

    lo: Optional[int] = None
    hi: Optional[int] = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def top(cls) -> "Interval":
        return cls(None, None)

    @classmethod
    def const(cls, value: int) -> "Interval":
        return cls(value, value)

    # -- predicates ---------------------------------------------------------

    @property
    def is_bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    @property
    def is_const(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    @property
    def width(self) -> Optional[int]:
        """hi - lo when bounded."""
        if self.lo is None or self.hi is None:
            return None
        return self.hi - self.lo

    def contains(self, value: int) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    # -- arithmetic ----------------------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None \
            else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None \
            else self.hi + other.hi
        return Interval(lo, hi)

    def shift(self, delta: int) -> "Interval":
        return Interval(None if self.lo is None else self.lo + delta,
                        None if self.hi is None else self.hi + delta)

    def neg(self) -> "Interval":
        return Interval(None if self.hi is None else -self.hi,
                        None if self.lo is None else -self.lo)

    def sub(self, other: "Interval") -> "Interval":
        return self.add(other.neg())

    def scale(self, factor: int) -> "Interval":
        if factor == 0:
            return Interval.const(0)
        if factor > 0:
            return Interval(None if self.lo is None else self.lo * factor,
                            None if self.hi is None else self.hi * factor)
        return Interval(None if self.hi is None else self.hi * factor,
                        None if self.lo is None else self.lo * factor)

    def mul(self, other: "Interval") -> "Interval":
        """Conservative interval product (corner analysis)."""
        if self.is_const:
            return other.scale(self.lo)  # type: ignore[arg-type]
        if other.is_const:
            return self.scale(other.lo)  # type: ignore[arg-type]
        if not (self.is_bounded and other.is_bounded):
            return Interval.top()
        corners = [a * b for a in (self.lo, self.hi)
                   for b in (other.lo, other.hi)]
        return Interval(min(corners), max(corners))

    # -- lattice -------------------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None \
            else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None \
            else max(self.hi, other.hi)
        return Interval(lo, hi)

    def meet(self, other: "Interval") -> "Optional[Interval]":
        """Intersection; ``None`` when empty."""
        lo = self.lo if other.lo is None else (
            other.lo if self.lo is None else max(self.lo, other.lo))
        hi = self.hi if other.hi is None else (
            other.hi if self.hi is None else min(self.hi, other.hi))
        if lo is not None and hi is not None and lo > hi:
            return None
        return Interval(lo, hi)

    def widen(self, newer: "Interval") -> "Interval":
        """Standard interval widening: drop any bound that moved outward."""
        lo = self.lo
        if lo is not None and (newer.lo is None or newer.lo < lo):
            lo = None
        hi = self.hi
        if hi is not None and (newer.hi is None or newer.hi > hi):
            hi = None
        return Interval(lo, hi)

    def __repr__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


def disjoint(a: Interval, b: Interval) -> bool:
    """True when two *half-open byte ranges* ``[lo, hi)`` cannot intersect.

    Callers encode ranges with ``hi`` already exclusive.
    """
    if a.hi is not None and b.lo is not None and a.hi <= b.lo:
        return True
    if b.hi is not None and a.lo is not None and b.hi <= a.lo:
        return True
    return False


# ---------------------------------------------------------------------------
# Iterator header-value ranges
# ---------------------------------------------------------------------------


def iterator_range(info, init_range: Interval,
                   bound_range: Interval,
                   include_exit: bool = True) -> Interval:
    """Sound range of the iterator's *header value*.

    ``info`` is an :class:`repro.analysis.induction.IteratorInfo`.  The
    continue condition is ``(theta + test_offset) <cond> bound``; for a
    bottom test the first iteration runs unchecked, so the bound-derived
    limit is joined with the initial value.

    With ``include_exit`` (the default) the result covers *every*
    evaluation of the header phi: a top-tested loop evaluates it once more
    with the value that fails the test — one step past the limit, or the
    initial value itself when the loop never runs — and post-loop uses of
    the phi observe exactly that value.  Pass ``include_exit=False`` for
    the range over iterations that execute the loop body (the test already
    passed); a bottom-tested loop never re-evaluates the header phi after
    a failing test, so the two variants coincide there.
    """
    step = info.iv.step
    lo: Optional[int] = None
    hi: Optional[int] = None
    if step > 0:
        lo = init_range.lo
        hi = _forward_limit(info, bound_range)
        if info.test_position == "bottom":
            # First header value is init, unchecked.
            if hi is not None and init_range.hi is None:
                hi = None
            elif hi is not None and init_range.hi is not None:
                hi = max(hi, init_range.hi)
        elif include_exit and hi is not None:
            # The failing evaluation: one step past the last passing
            # value, or init itself when even the first test fails.
            hi = None if init_range.hi is None \
                else max(hi + step, init_range.hi)
    elif step < 0:
        hi = init_range.hi
        lo = _backward_limit(info, bound_range)
        if info.test_position == "bottom":
            if lo is not None and init_range.lo is None:
                lo = None
            elif lo is not None and init_range.lo is not None:
                lo = min(lo, init_range.lo)
        elif include_exit and lo is not None:
            lo = None if init_range.lo is None \
                else min(lo + step, init_range.lo)
    # Exact range when the trip count resolved statically.
    if info.static_init is not None and info.static_trip_count:
        first = info.static_init
        last = first + step * (info.static_trip_count - 1)
        values = [first, last]
        if include_exit and info.test_position != "bottom":
            values.append(last + step)
        exact = Interval(min(values), max(values))
        met = exact.meet(Interval(lo, hi))
        return met if met is not None else exact
    return Interval(lo, hi)


def _forward_limit(info, bound_range: Interval) -> Optional[int]:
    """Largest header value permitted by the continue test (step > 0)."""
    if bound_range.hi is None:
        return None
    step = info.iv.step
    if info.cond == "l":
        tested_max = bound_range.hi - 1
    elif info.cond == "le":
        tested_max = bound_range.hi
    else:
        return None
    # tested value = header + test_offset; a bottom test constrains the
    # *previous* iteration, whose header is step lower.
    limit = tested_max - info.test_offset
    if info.test_position == "bottom":
        limit += step
    return limit


def _backward_limit(info, bound_range: Interval) -> Optional[int]:
    """Smallest header value permitted by the continue test (step < 0)."""
    if bound_range.lo is None:
        return None
    step = info.iv.step
    if info.cond == "g":
        tested_min = bound_range.lo + 1
    elif info.cond == "ge":
        tested_min = bound_range.lo
    else:
        return None
    limit = tested_min - info.test_offset
    if info.test_position == "bottom":
        limit += step
    return limit


def max_trip_distance(theta: Interval, step: int) -> Optional[int]:
    """Largest |i - j| in iterations for two header values in ``theta``."""
    if theta.width is None or step == 0:
        return None
    return theta.width // abs(step)


def substitute_liveins(poly: Poly, known: Mapping[object, int] | None) -> Poly:
    """Replace version-0 live-in symbols with their known constant values.

    Returns the original polynomial unchanged when nothing substitutes or a
    substitution overflows the polynomial caps.
    """
    if not known:
        return poly
    result = poly
    for sym in list(result.symbols()):
        if sym[0] == "livein" and sym[2] == 0 and sym[1] in known:
            replaced = result.substitute(sym, Poly.const(known[sym[1]]))
            if replaced is None:
                return poly
            result = replaced
    return result


# ---------------------------------------------------------------------------
# Entry-state live-in constants
# ---------------------------------------------------------------------------


def entry_livein_values(cfgs: Mapping[int, object],
                        entry: int) -> dict[object, int]:
    """Boot-time register values for the image entry function, or ``{}``.

    Sound only when the entry function provably executes with the machine's
    initial register state: it must never be the target of an internal call
    or tail call, and no function in the image may contain indirect control
    flow (which could re-enter it with arbitrary registers).
    """
    from repro.isa.registers import NUM_GPR, STACK_REG, TLS_REG

    if entry not in cfgs:
        return {}
    for fn_entry, cfg in cfgs.items():
        if cfg.has_indirect:  # type: ignore[attr-defined]
            return {}
        calls = cfg.internal_calls  # type: ignore[attr-defined]
        if entry in calls.values():
            return {}
        if fn_entry == entry:
            continue
        for block in cfg.blocks.values():  # type: ignore[attr-defined]
            term = block.instructions[-1]
            if term.opcode is Opcode.JMP and term.branch_target() == entry:
                return {}  # tail call back into the entry
    return {reg: 0 for reg in range(NUM_GPR)
            if reg not in (STACK_REG, TLS_REG)}


def allocation_site(cfg, sym: tuple) -> tuple[int, int] | None:
    """(block, index) when an ``("opaque", "call", block, index, var)``
    symbol is the return value of the library bump allocator.

    The stdlib ``malloc`` never reuses memory (``free`` is a no-op), so
    every dynamic call returns a block disjoint from all others and from
    every statically-addressed region.
    """
    if not (len(sym) == 5 and sym[0] == "opaque" and sym[1] == "call"
            and sym[4] == 0):  # rax, the return register
        return None
    block_addr, index = sym[2], sym[3]
    block = cfg.blocks.get(block_addr)
    if block is None or index >= len(block.instructions):
        return None
    ins = block.instructions[index]
    if cfg.external_calls.get(ins.address) != "malloc":
        return None
    return block_addr, index


# ---------------------------------------------------------------------------
# Branch-derived refinements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _NoLoopPlaceholder:
    """Stands in for a Loop when evaluating values outside any loop: no
    header phi is kept symbolic, everything resolves or goes opaque."""

    header: int = -1
    body: frozenset = frozenset()


_NO_LOOP = _NoLoopPlaceholder()


_CC_INTERVAL = {
    # value <cc> imm  =>  interval for value
    "l": lambda imm: Interval(None, imm - 1),
    "le": lambda imm: Interval(None, imm),
    "g": lambda imm: Interval(imm + 1, None),
    "ge": lambda imm: Interval(imm, None),
    "e": lambda imm: Interval(imm, imm),
    "ne": lambda imm: None,  # a hole is not an interval
}


class FunctionRanges:
    """Interval ranges for SSA values of one function.

    One instance per (SSA form, dominator info); queries are memoised.
    ``known_liveins`` maps variables to their exact version-0 value (the
    entry-state feed).
    """

    def __init__(self, ssa: SSAForm, dom: DominatorInfo,
                 known_liveins: Mapping[object, int] | None = None,
                 loops: Iterable[Loop] | None = None) -> None:
        self.ssa = ssa
        self.dom = dom
        self.known = dict(known_liveins or {})
        # Keyed by (phi symbol, body-only flag).
        self._phi_cache: dict[tuple, Interval] = {}
        self._phi_in_progress: dict[tuple, Interval] = {}
        self._builders: dict[int, ExprBuilder] = {}
        self._iterators: dict[tuple, object] | None = None
        self._loops = list(loops) if loops is not None else None

    # -- loop iterators ------------------------------------------------------

    def _iterator_map(self) -> dict[tuple, object]:
        """phi symbol -> ("iter", info, loop) for controlling iterators,
        ("biv", iv, info|None, loop) for other basic induction variables."""
        if self._iterators is not None:
            return self._iterators
        from repro.analysis.induction import analyse_induction
        from repro.analysis.loops import find_loops

        loops = self._loops
        if loops is None:
            loops = find_loops(self.ssa.cfg, self.dom)
            self._loops = loops
        iterators: dict[tuple, object] = {}
        for loop in loops:
            try:
                induction = analyse_induction(self.ssa, loop,
                                              known_liveins=self.known)
            except Exception:
                continue
            info = induction.iterator
            iter_phi = info.iv.phi if info is not None else None
            if info is not None:
                sym = ("phi", iter_phi.var, iter_phi.dest)
                iterators[sym] = ("iter", info, loop)
            for iv in induction.basic_ivs:
                if iv.phi is iter_phi:
                    continue
                sym = ("phi", iv.phi.var, iv.phi.dest)
                iterators[sym] = ("biv", iv, info, loop)
        self._iterators = iterators
        return iterators

    def _builder_for(self, loop: Loop) -> ExprBuilder:
        builder = self._builders.get(loop.header)
        if builder is None:
            builder = ExprBuilder(self.ssa, loop, scope="function")
            self._builders[loop.header] = builder
        return builder

    # -- public API -----------------------------------------------------------

    def poly_range(self, poly: Poly, at_block: int | None = None) -> Interval:
        """Sound interval for a polynomial's value.

        ``at_block`` applies dominating-branch refinements valid at that
        block to every symbol in the polynomial.
        """
        total = Interval.const(0)
        for mono, coeff in poly.terms.items():
            if not mono:
                total = total.shift(coeff)
                continue
            value = Interval.const(1)
            for sym in mono:
                value = value.mul(self.symbol_range(sym, at_block))
                if value.lo is None and value.hi is None:
                    break
            total = total.add(value.scale(coeff))
            if total.lo is None and total.hi is None:
                return Interval.top()
        return total

    def symbol_range(self, sym: tuple, at_block: int | None = None
                     ) -> Interval:
        kind = sym[0]
        if kind == "livein":
            var, version = sym[1], sym[2]
            if version == 0 and var in self.known:
                return Interval.const(self.known[var])
            base = Interval.top()
            return self._refine((var, version), base, at_block)
        if kind == "phi":
            base = self.phi_range(sym, at_block)
            return self._refine((sym[1], sym[2]), base, at_block)
        if kind == "opaque" and len(sym) == 4 and sym[1] == "phi":
            # A phi outside the builder's scope: same phi, opaque spelling.
            return self.phi_range(("phi", sym[2], sym[3]), at_block)
        if kind == "opaque" and len(sym) == 5 and sym[1] == "call":
            alloc = allocation_site(self.ssa.cfg, sym)
            if alloc is not None:
                from repro.jbin.layout import HEAP_BASE, LIB_DATA_BASE

                return Interval(HEAP_BASE, LIB_DATA_BASE - 1)
        return Interval.top()  # load / opaque

    def phi_range(self, sym: tuple, at_block: int | None = None) -> Interval:
        """Range of a loop-header phi over *every* evaluation — including
        the final failing-test value of a top-tested loop, which post-loop
        uses of the phi observe.

        When ``at_block`` lies in the part of the loop body that only runs
        after the iterator test passed, the failing evaluation is excluded
        and the tight in-body range is returned instead (see
        :meth:`iterator_body_range`).  Iterator bounds are used when
        recognisable, otherwise an ascending fixpoint with widening.
        """
        body = at_block is not None and self._executes_body_at(sym, at_block)
        return self._phi_range_variant(sym, body)

    def iterator_body_range(self, sym: tuple) -> Interval:
        """Header-value range over iterations that execute the loop body.

        Excludes the final failing-test evaluation of a top-tested loop —
        the sound iterator range for cross-iteration dependence tests over
        in-body accesses.  Falls back to the general evaluation range for
        phis that are not recognised loop iterators.
        """
        return self._phi_range_variant(sym, True)

    def _phi_range_variant(self, sym: tuple, body: bool) -> Interval:
        key = (sym, body)
        cached = self._phi_cache.get(key)
        if cached is not None:
            return cached
        if sym in self._phi_in_progress:
            return self._phi_in_progress[sym]
        provisional = bool(self._phi_in_progress)
        entry = self._iterator_map().get(sym)
        if entry is not None and entry[0] == "iter":
            result = self._iterator_phi_range(sym, entry[1], entry[2],
                                              include_exit=not body)
        elif entry is not None and entry[0] == "biv":
            result = self._basic_iv_range(sym, entry[1], entry[2], entry[3],
                                          body)
        else:
            result = self._general_phi_range(sym)
        if not provisional:
            # A result computed while another phi was mid-fixpoint may rest
            # on a provisional estimate; recompute it on the next toplevel
            # query instead of caching it.
            self._phi_cache[key] = result
        return result

    def _executes_body_at(self, sym: tuple, block: int) -> bool:
        """True when ``block`` runs only in iterations whose test passed,
        so the header phi cannot hold the final failing-test value there."""
        entry = self._iterator_map().get(sym)
        if entry is None:
            return False
        info = entry[1] if entry[0] == "iter" else entry[2]
        loop = entry[2] if entry[0] == "iter" else entry[3]
        if info is None or block not in loop.body:
            return False
        if info.test_position == "bottom":
            return True  # every header evaluation runs the body
        branch = self.ssa.cfg.blocks.get(info.cmp_block)
        if branch is None:
            return False
        cont = [s for s in branch.succs if s in loop.body]
        if len(cont) != 1 or block == info.cmp_block:
            return False
        return self.dom.dominates(cont[0], block)

    def _iterator_phi_range(self, sym: tuple, info, loop: Loop,
                            include_exit: bool = True) -> Interval:
        builder = self._builder_for(loop)
        # Guard against self-reference through an outer construct.
        self._phi_in_progress[sym] = Interval.top()
        try:
            init_range = self._entry_value_range(info.iv.phi, loop, builder)
            if init_range is None:
                init_poly = builder.value_of(
                    (info.iv.var, info.iv.init_version))
                init_range = self.poly_range(init_poly)
            bound_range = self.poly_range(info.bound_poly)
        finally:
            del self._phi_in_progress[sym]
        return iterator_range(info, init_range, bound_range,
                              include_exit=include_exit)

    def _entry_value_range(self, phi, loop: Loop,
                           builder: ExprBuilder) -> Interval | None:
        """Constraint-refined join of a header phi's entry-edge sources.

        A guarded loop entry (``cmp r, n; jl header``) bounds the initial
        value even when the init polynomial itself is unbounded — e.g. the
        remainder loop after an unrolled main loop starts at the main
        loop's exit value, but the guard clips it below the bound.
        """
        joined: Interval | None = None
        for pred, version in sorted(phi.sources.items()):
            if pred in loop.body:
                continue  # back edge: handled by the bound-derived limit
            value = self.poly_range(builder.value_of((phi.var, version)))
            constraint = self._edge_constraint(pred, (phi.var, version),
                                               succ=loop.header)
            if constraint is not None:
                met = value.meet(constraint)
                if met is None:
                    continue  # branch makes this entry unreachable
                value = met
            joined = value if joined is None else joined.join(value)
        return joined

    def _basic_iv_range(self, sym: tuple, iv, info, loop: Loop,
                        body: bool = False) -> Interval:
        """Range of a non-controlling basic IV: its header value at
        evaluation ``i`` is exactly ``init + step*i``, and ``i`` is
        bounded by the controlling iterator's evaluation distance (every
        header phi advances once more on a top-tested loop's failing
        evaluation, so the ``body`` flag follows the iterator's)."""
        builder = self._builder_for(loop)
        init_poly = builder.value_of((iv.var, iv.init_version))
        self._phi_in_progress[sym] = Interval.top()
        try:
            init_range = self.poly_range(init_poly)
            if info is not None:
                iter_sym = ("phi", info.iv.phi.var, info.iv.phi.dest)
                n_max = max_trip_distance(
                    self._phi_range_variant(iter_sym, body), info.iv.step)
            else:
                n_max = None
        finally:
            del self._phi_in_progress[sym]
        result = init_range.add(Interval(0, n_max).scale(iv.step))
        if result.is_bounded:
            return result
        general = self._general_phi_range(sym)
        met = result.meet(general)
        return met if met is not None else result

    def _join_phi_range(self, sym: tuple) -> Interval:
        """Range of a non-loop (control-flow join) phi: the constraint-
        refined join of its source values — no fixpoint needed since no
        back edge reaches the phi's block."""
        var, dest = sym[1], sym[2]
        site = self.ssa.def_sites.get((var, dest))
        if site is None or site[0] != "phi":
            return Interval.top()
        block = site[1]
        phi = self.ssa.phi_for(block, var)
        if phi is None or phi.dest != dest:
            return Interval.top()
        builder = self._no_loop_builder()
        self._phi_in_progress[sym] = Interval.top()
        joined: Interval | None = None
        try:
            for pred, version in sorted(phi.sources.items()):
                value = self.poly_range(builder.value_of((var, version)))
                constraint = self._edge_constraint(pred, (var, version),
                                                   succ=block)
                if constraint is not None:
                    met = value.meet(constraint)
                    if met is None:
                        continue  # branch makes this source unreachable
                    value = met
                joined = value if joined is None else joined.join(value)
        finally:
            del self._phi_in_progress[sym]
        return joined if joined is not None else Interval.top()

    def _no_loop_builder(self) -> ExprBuilder:
        builder = self._builders.get(-1)
        if builder is None:
            builder = ExprBuilder(self.ssa, _NO_LOOP, scope="function")
            self._builders[-1] = builder
        return builder

    def _loop_of_header_phi(self, sym: tuple) -> Loop | None:
        self._iterator_map()  # ensures self._loops
        for loop in self._loops or []:
            phi = self.ssa.phi_for(loop.header, sym[1])
            if phi is not None and phi.dest == sym[2]:
                return loop
        return None

    def _general_phi_range(self, sym: tuple) -> Interval:
        """Ascending fixpoint over the phi's source values with widening."""
        loop = self._loop_of_header_phi(sym)
        if loop is None:
            return self._join_phi_range(sym)
        phi = self.ssa.phi_for(loop.header, sym[1])
        if phi is None:
            return Interval.top()
        builder = self._builder_for(loop)
        estimate: Interval | None = None  # bottom
        for round_no in range(MAX_PHI_ROUNDS):
            self._phi_in_progress[sym] = \
                estimate if estimate is not None else Interval.top()
            try:
                new = self._phi_sources_join(phi, loop, builder, estimate)
            finally:
                del self._phi_in_progress[sym]
            if new is None:
                new = Interval.top()
            if estimate is not None and round_no >= WIDEN_AFTER:
                new = estimate.widen(new)
            if new == estimate:
                break
            estimate = new
        return estimate if estimate is not None else Interval.top()

    def _phi_sources_join(self, phi, loop: Loop, builder: ExprBuilder,
                          estimate: Interval | None) -> Interval | None:
        sym = ("phi", phi.var, phi.dest)
        joined: Interval | None = None
        for pred, version in sorted(phi.sources.items()):
            poly = builder.value_of((phi.var, version))
            if estimate is None and poly.mentions(sym):
                continue  # bottom: the recursive source contributes nothing
            value = self.poly_range(poly)
            constraint = self._edge_constraint(pred, (phi.var, version))
            if constraint is not None:
                met = value.meet(constraint)
                if met is None:
                    continue  # branch makes this source unreachable
                value = met
            joined = value if joined is None else joined.join(value)
        return joined

    # -- branch refinements --------------------------------------------------

    def _refine(self, name: SSAName, base: Interval,
                at_block: int | None) -> Interval:
        if at_block is None:
            return base
        result = base
        node: int | None = at_block
        while node is not None:
            block = self.ssa.cfg.blocks.get(node)
            if block is not None:
                outside = [p for p in block.preds
                           if not self.dom.dominates(node, p)]
                if len(outside) == 1:
                    constraint = self._edge_constraint(outside[0], name,
                                                      succ=node)
                    if constraint is not None:
                        met = result.meet(constraint)
                        if met is not None:
                            result = met
            node = self.dom.idom.get(node)
        return result

    def _edge_constraint(self, pred: int, name: SSAName,
                         succ: int | None = None) -> Interval | None:
        """Constraint on ``name`` implied by taking the edge pred -> succ.

        Without ``succ`` the *taken* direction of a latch-style continue
        branch is assumed (used for phi latch sources, where the branch
        target is the header).
        """
        from repro.isa.instructions import (
            COND_BRANCHES, CONDITION_OF, NEGATED_CONDITION)

        block = self.ssa.cfg.blocks.get(pred)
        if block is None or not block.instructions:
            return None
        term = block.instructions[-1]
        if term.opcode not in COND_BRANCHES:
            return None
        target = term.branch_target()
        if succ is not None:
            fall = term.address + term.size
            if succ == target and succ != fall:
                cc = CONDITION_OF[term.opcode]
            elif succ == fall and succ != target:
                cc = NEGATED_CONDITION[CONDITION_OF[term.opcode]]
            else:
                return None
        else:
            cc = CONDITION_OF[term.opcode]
        cmp_ins, cmp_index = self._flag_setter(block)
        if cmp_ins is None or cmp_ins.opcode is not Opcode.CMP:
            return None
        ops = cmp_ins.operands
        fact = self.ssa.facts.get((pred, cmp_index))
        if fact is None:
            return None
        reg_op, imm_op, flipped = None, None, False
        if isinstance(ops[0], Reg) and isinstance(ops[1], Imm):
            reg_op, imm_op = ops[0], ops[1]
        elif isinstance(ops[0], Imm) and isinstance(ops[1], Reg):
            reg_op, imm_op, flipped = ops[1], ops[0], True
        if reg_op is None or imm_op is None:
            return None
        version = fact.uses.get(reg_op.id)
        if version is None or (reg_op.id, version) != name:
            return None
        if flipped:
            cc = {"l": "g", "le": "ge", "g": "l", "ge": "le",
                  "e": "e", "ne": "ne"}[cc]
        make = _CC_INTERVAL.get(cc)
        return make(imm_op.value) if make is not None else None

    @staticmethod
    def _flag_setter(block):
        """The last flag-writing instruction before the terminator."""
        from repro.isa.instructions import FLAG_WRITERS

        for index in range(len(block.instructions) - 2, -1, -1):
            ins = block.instructions[index]
            if ins.opcode is Opcode.CMP:
                return ins, index
            if ins.opcode in FLAG_WRITERS:
                return None, -1  # some other ALU op set the flags: give up
        return None, -1
