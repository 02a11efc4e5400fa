"""Interprocedural function summaries.

A loop containing a call needs to know what the callee might do: write
non-local memory (then the call must be speculated via the JIT STM), perform
IO/syscalls or indirect control flow (then the loop is incompatible).
Summaries are computed bottom-up over the call graph with a fixpoint for
recursion; anything unresolvable is treated conservatively.

Beyond the boolean facts, each function gets **access-region summaries**:
every non-frame memory access is reduced to a byte interval anchored to a
live-in register, ``scale * reg + [lo, hi)`` (``reg = None`` for absolute
addresses), with callee regions composed transitively through call-site
argument polynomials.  When ``regions_exact`` holds, the regions cover
*everything* the function (and its callees) can touch outside its own
frame — which lets the loop classifier prove a call conflict-free across
iterations and release it from STM scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.analysis.cfg import FunctionCFG
from repro.analysis.stack import slot_of

if TYPE_CHECKING:
    from repro.analysis.analyzer import FunctionAnalysis
    from repro.analysis.loops import Loop
    from repro.analysis.ssa import SSAForm
    from repro.analysis.vrange import FunctionRanges


@dataclass(frozen=True)
class Region:
    """Byte interval ``scale*var + [lo, hi)`` a function may access.

    ``var`` is a live-in register id (the value it holds on function
    entry), or ``None`` when the base is absolute.  ``is_write`` separates
    written regions from read-only ones.
    """

    var: int | None
    scale: int
    lo: int
    hi: int  # exclusive
    is_write: bool

    def describe(self) -> str:
        kind = "writes" if self.is_write else "reads"
        if self.var is None:
            return f"{kind} [{self.lo:#x}, {self.hi:#x})"
        return f"{kind} {self.scale}*r{self.var} + [{self.lo}, {self.hi})"


@dataclass
class FunctionSummary:
    """Conservative behaviour summary of one function."""

    entry: int
    writes_memory: bool = False  # writes anything that is not its own frame
    has_syscall: bool = False
    has_indirect: bool = False
    irregular_stack: bool = False
    external_calls: set[str] = field(default_factory=set)
    internal_calls: set[int] = field(default_factory=set)
    # Access regions (self + transitive callees); meaningful only when
    # ``regions_exact`` — otherwise some access escaped the region model.
    regions: tuple[Region, ...] = ()
    regions_exact: bool = False

    @property
    def is_pure_enough(self) -> bool:
        """Safe to treat as an opaque value producer inside a DOALL loop."""
        return not (self.writes_memory or self.has_syscall
                    or self.has_indirect or self.external_calls)

    @property
    def write_regions(self) -> tuple[Region, ...]:
        return tuple(r for r in self.regions if r.is_write)


def summarise_functions(cfgs: dict[int, FunctionCFG],
                        fronts: Mapping[int, FunctionAnalysis] | None = None
                        ) -> dict[int, FunctionSummary]:
    """Local summaries followed by transitive propagation to a fixpoint.

    ``fronts`` holds every function's front end (dominators, SSA, loops);
    it is built here when not given.
    """
    if fronts is None:
        from repro.analysis.analyzer import analyse_front_end

        fronts = {entry: analyse_front_end(cfg)
                  for entry, cfg in cfgs.items()}
    summaries = {entry: _local_summary(fronts[entry]) for entry in cfgs}

    changed = True
    while changed:
        changed = False
        for summary in summaries.values():
            for callee_entry in summary.internal_calls:
                callee = summaries.get(callee_entry)
                if callee is None:
                    # Call into undiscovered code: assume the worst.
                    updates = dict(writes_memory=True, has_syscall=True,
                                   has_indirect=True)
                else:
                    updates = dict(
                        writes_memory=callee.writes_memory,
                        has_syscall=callee.has_syscall,
                        has_indirect=callee.has_indirect,
                    )
                    if callee.external_calls - summary.external_calls:
                        summary.external_calls |= callee.external_calls
                        changed = True
                for attr, value in updates.items():
                    if value and not getattr(summary, attr):
                        setattr(summary, attr, value)
                        changed = True

    _summarise_regions(fronts, summaries)
    return summaries


def _local_summary(fa: FunctionAnalysis) -> FunctionSummary:
    cfg, ssa = fa.cfg, fa.ssa
    summary = FunctionSummary(entry=cfg.entry)
    summary.has_syscall = cfg.has_syscall
    summary.has_indirect = cfg.has_indirect
    summary.external_calls = set(cfg.external_calls.values())
    summary.internal_calls = set(cfg.internal_calls.values())
    if ssa is None:
        summary.irregular_stack = True
        summary.writes_memory = True
        return summary
    for start, block in cfg.blocks.items():
        for index, ins in enumerate(block.instructions):
            for mem in ins.mem_writes():
                if slot_of(ssa.delta_at(start, index), mem) is None:
                    summary.writes_memory = True
    return summary


# ---------------------------------------------------------------------------
# Access-region summaries
# ---------------------------------------------------------------------------


@dataclass
class _RegionScope:
    """Region extraction's own value ranges and expression builders over
    one function's front end (never shared with classification: an
    ExprBuilder's memo depends on query order)."""

    ssa: SSAForm
    loops: list[Loop]
    ranges: FunctionRanges

    _builders: dict = field(default_factory=dict)

    def builder_for_block(self, block: int):
        """Function-scope ExprBuilder for the innermost loop containing
        ``block`` (or a no-loop placeholder)."""
        from repro.analysis.expr import ExprBuilder
        from repro.analysis.vrange import _NO_LOOP

        innermost = None
        for loop in self.loops:
            if block in loop.body:
                if innermost is None or len(loop.body) < len(innermost.body):
                    innermost = loop
        key = innermost.header if innermost is not None else None
        builder = self._builders.get(key)
        if builder is None:
            loop = innermost if innermost is not None else _NO_LOOP
            builder = ExprBuilder(self.ssa, loop, scope="function")
            self._builders[key] = builder
        return builder


def reaching_name(ssa, block: int, index: int, var) -> tuple:
    """The SSA name of ``var`` reaching instruction ``index`` of ``block``.

    Calls do not "use" argument registers in the SSA (see
    :func:`repro.analysis.ssa.instruction_vars`), so the facts table has no
    entry — reconstruct the reaching version by scanning backwards, then
    walking the dominator tree (any def on a non-dominating path would
    have planted a phi at a join that dominates the site).
    """
    node: int | None = block
    limit: int | None = index
    while node is not None:
        blk = ssa.cfg.blocks[node]
        last = (limit if limit is not None else len(blk.instructions)) - 1
        for i in range(last, -1, -1):
            fact = ssa.facts.get((node, i))
            if fact is not None and var in fact.defs:
                return (var, fact.defs[var])
        phi = ssa.phi_for(node, var)
        if phi is not None:
            return (var, phi.dest)
        node = ssa.dom.idom.get(node)
        limit = None
    return (var, 0)


def _poly_region_base(poly, ranges, at_block: int | None = None):
    """Reduce an address polynomial to ``(var, scale, span)`` or ``None``.

    ``span`` is the interval of the residual (constant plus bounded loop
    phis); phi symbols are bounded by the value-range analysis, so an
    access marching over ``base + 8*i`` with ``i in [0, 10)`` collapses to
    one 80-byte interval.  ``at_block`` refines phi ranges with branch
    conditions dominating the access site — a top-tested loop's iterator
    is ``[0, n-1]`` inside the body even though the phi reaches ``n``.
    """
    from repro.analysis.vrange import Interval

    var = None
    scale = 0
    span = Interval.const(0)
    for mono, coeff in sorted(poly.terms.items(), key=repr):
        if mono == ():
            span = span.shift(coeff)
            continue
        if len(mono) != 1:
            return None  # non-linear address
        sym = mono[0]
        if sym[0] == "livein" and sym[2] == 0:
            if var is not None and var != sym[1]:
                return None  # two independent live-in bases
            var = sym[1]
            scale += coeff
            continue
        is_phi = sym[0] == "phi" or (sym[0] == "opaque" and len(sym) == 4
                                     and sym[1] == "phi")
        if is_phi and ranges is not None:
            # Either spelling resolves through phi_range; outside the
            # loop body that range includes the phi's final failing-test
            # evaluation, so post-loop uses of the exit value stay inside
            # the span.
            rng = ranges.symbol_range(sym, at_block)
            if rng.is_bounded:
                span = span.add(rng.scale(coeff))
                continue
            return None
        return None  # load / opaque / unresolvable
    if var is not None and scale == 0:
        var = None
    if span.lo is None or span.hi is None:
        return None
    return var, scale, span


def _merge_regions(regions: list[Region]) -> tuple[Region, ...]:
    """Hull regions per (var, scale, kind) to keep summaries compact."""
    hulls: dict[tuple, Region] = {}
    for region in regions:
        key = (region.var, region.scale, region.is_write)
        seen = hulls.get(key)
        if seen is None:
            hulls[key] = region
        else:
            hulls[key] = Region(var=region.var, scale=region.scale,
                                lo=min(seen.lo, region.lo),
                                hi=max(seen.hi, region.hi),
                                is_write=region.is_write)
    return tuple(sorted(hulls.values(),
                        key=lambda r: (r.is_write, r.var is None,
                                       r.var or 0, r.scale, r.lo)))


def _summarise_regions(fronts: Mapping[int, FunctionAnalysis],
                       summaries: dict[int, FunctionSummary]) -> None:
    """Bottom-up (callee-first) region extraction and composition.

    Recursive cycles and anything the region model cannot express leave
    ``regions_exact`` False — the conservative STM treatment then stands.
    """
    state: dict[int, str] = {}  # entry -> "visiting" | "done"

    def resolve(entry: int) -> None:
        if state.get(entry) == "done":
            return
        if state.get(entry) == "visiting":
            return  # recursion: caller will see regions_exact False
        state[entry] = "visiting"
        summary = summaries[entry]
        for callee in sorted(summary.internal_calls):
            if callee in summaries:
                resolve(callee)
        _compute_regions(fronts[entry], summaries)
        state[entry] = "done"

    for entry in sorted(fronts):
        resolve(entry)


def _compute_regions(fa: FunctionAnalysis,
                     summaries: dict[int, FunctionSummary]) -> None:
    from repro.isa.instructions import Opcode
    from repro.analysis.vrange import FunctionRanges

    summary = summaries[fa.cfg.entry]
    cfg, ssa = fa.cfg, fa.ssa
    if (summary.has_syscall or summary.has_indirect
            or summary.irregular_stack or summary.external_calls
            or ssa is None):
        return  # regions_exact stays False
    art = _RegionScope(ssa, fa.loops,
                       FunctionRanges(ssa, fa.dom, loops=fa.loops))
    regions: list[Region] = []
    exact = True

    for start in sorted(cfg.blocks):
        block = cfg.blocks[start]
        for index, ins in enumerate(block.instructions):
            _, _, reads, writes = ins.facts()
            if not (reads or writes):
                continue
            delta = ssa.delta_at(start, index)
            for is_write, mems in ((False, reads), (True, writes)):
                for mem in mems:
                    if slot_of(delta, mem) is not None:
                        continue  # own frame
                    builder = art.builder_for_block(start)
                    poly = builder.address_of(start, index, mem)
                    base = _poly_region_base(poly, art.ranges, at_block=start)
                    if base is None:
                        exact = False
                        continue
                    var, scale, span = base
                    width = 8 * ins.lanes
                    regions.append(Region(
                        var=var, scale=scale, lo=span.lo,
                        hi=span.hi + width, is_write=is_write))
            if ins.opcode is Opcode.CALL:
                target = cfg.internal_calls.get(ins.address)
                callee = summaries.get(target)
                if callee is None:
                    exact = False
                    continue
                mapped = _map_callee_regions(ssa, art, start, index, callee)
                if mapped is None:
                    exact = False
                else:
                    regions.extend(mapped)

    summary.regions = _merge_regions(regions)
    summary.regions_exact = exact


def _map_callee_regions(ssa, art: _RegionScope, block: int, index: int,
                        callee: FunctionSummary) -> list[Region] | None:
    """Express a callee's regions in the caller's live-in frame.

    Each argument-anchored callee region is rebased through the polynomial
    of the register's reaching value at the call site.
    """
    if not callee.regions_exact:
        return None
    mapped: list[Region] = []
    builder = art.builder_for_block(block)
    for region in callee.regions:
        if region.var is None:
            mapped.append(region)
            continue
        name = reaching_name(ssa, block, index, region.var)
        value = builder.value_of(name)
        base = _poly_region_base(value.scale(region.scale), art.ranges,
                                 at_block=block)
        if base is None:
            return None
        var, scale, span = base
        mapped.append(Region(var=var, scale=scale,
                             lo=span.lo + region.lo,
                             hi=span.hi + region.hi,
                             is_write=region.is_write))
    return mapped
