"""Loop categorisation and variable classification (paper II-D).

Loops fall into the paper's five categories:

* **Type A — Static DOALL**: no cross-iteration dependences except through
  induction variables and add/sub reductions; everything proven statically.
* **Type B — Static Dependence**: a cross-iteration dependence proven
  statically (register loop-carried value or memory distance vector).
* **Type C — Dynamic DOALL**: induction variable recognised, but some
  accesses escape static analysis (unprovable bases, calls into unknown
  code); runtime checks / STM make parallelisation safe, and dependence
  profiling is expected to show no aliasing.
* **Type D — Dynamic Dependence**: like C but profiling observed an actual
  cross-iteration dependence.
* **Incompatible**: IO/syscalls, indirect control flow, irregular stacks,
  unrecognisable induction variables.

Static classification distinguishes A / B / dynamic-candidate /
incompatible; the C/D split is made once dependence-profile data exists
(:meth:`LoopAnalysisResult.apply_dependence_profile`), exactly as in the
paper's training stage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.isa.instructions import Opcode
from repro.analysis.alias import AliasAnalysis, analyse_aliases
from repro.analysis.cfg import FunctionCFG
from repro.analysis.depend import (
    DependContext,
    RegionInterval,
    Verdict,
    make_context,
    regions_disjoint,
)
from repro.analysis.dominators import DominatorInfo
from repro.analysis.expr import ExprBuilder, Poly, runtime_evaluable
from repro.analysis.induction import InductionAnalysis, analyse_induction
from repro.analysis.loops import Loop
from repro.analysis.ssa import Phi, SSAForm
from repro.analysis.summaries import FunctionSummary, reaching_name
from repro.analysis.vrange import (
    FunctionRanges,
    Interval,
    allocation_site,
    disjoint,
)


class LoopCategory(enum.Enum):
    STATIC_DOALL = "static_doall"
    STATIC_DEPENDENCE = "static_dependence"
    DYNAMIC_DOALL = "dynamic_doall"
    DYNAMIC_DEPENDENCE = "dynamic_dependence"
    INCOMPATIBLE = "incompatible"


class VariableClass(enum.Enum):
    INDUCTION = "induction"
    REDUCTION = "reduction"
    PRIVATE = "private"
    READ_ONLY = "read_only"


@dataclass
class VariableInfo:
    """Classification of one register or stack-slot variable in a loop."""

    var: object
    vclass: VariableClass
    # Induction extras.
    step: int | None = None
    # Reduction extras ("+" covers add/sub since the sign folds into the
    # accumulated polynomial, matching the paper's add/sub-only reductions).
    reduction_op: str | None = None
    is_float: bool = False


@dataclass
class LoopAnalysisResult:
    """Everything the rewrite-schedule generators need for one loop."""

    loop: Loop
    category: LoopCategory
    reasons: list[str] = field(default_factory=list)
    induction: InductionAnalysis | None = None
    alias: AliasAnalysis | None = None
    variables: dict = field(default_factory=dict)  # var -> VariableInfo
    # Stack slot offsets only read in the loop -> list of reader addresses.
    readonly_slot_readers: dict[int, list[int]] = field(default_factory=dict)
    written_slots: set[int] = field(default_factory=set)
    # Calls inside the body.
    external_calls: list[tuple[int, str]] = field(default_factory=list)
    internal_calls: list[tuple[int, int]] = field(default_factory=list)
    # Call sites (addresses) that must run under the JIT STM.
    stm_call_sites: list[int] = field(default_factory=list)
    # Call sites the interprocedural region summaries proved conflict-free
    # (they run bare, outside any STM scope), with the proof chains.
    released_call_sites: list[int] = field(default_factory=list)
    call_release_chains: dict[int, list[str]] = field(default_factory=dict)
    # True when some unprovable base pair exists (cannot even bounds-check).
    has_unprovable_aliasing: bool = False
    static_instruction_count: int = 0
    # Filled by the profiling stages.
    coverage_fraction: float | None = None
    profiled_dependence: bool | None = None

    @property
    def loop_id(self) -> int:
        return self.loop.loop_id

    @property
    def is_parallelisable(self) -> bool:
        """Can the Janus runtime actually run this loop in parallel?"""
        if self.category not in (LoopCategory.STATIC_DOALL,
                                 LoopCategory.DYNAMIC_DOALL):
            return False
        if self.induction is None or self.induction.iterator is None:
            return False
        if self.induction.has_side_exits:
            return False
        if self.has_unprovable_aliasing:
            return False
        return True

    def apply_dependence_profile(self, has_dependence: bool) -> None:
        """Resolve the C/D split from dependence-profiling results."""
        self.profiled_dependence = has_dependence
        if self.category is LoopCategory.DYNAMIC_DOALL and has_dependence:
            self.category = LoopCategory.DYNAMIC_DEPENDENCE
            self.reasons.append("dependence observed during profiling")


def classify_loop(loop: Loop, cfg: FunctionCFG, dom: DominatorInfo,
                  ssa: SSAForm | None,
                  summaries: dict[int, FunctionSummary],
                  known_liveins: dict | None = None,
                  engine: bool = True,
                  loops: list[Loop] | None = None) -> LoopAnalysisResult:
    """Full static classification of one loop.

    ``known_liveins`` feeds exact version-0 register values (the entry
    state) into induction solving and the value-range analysis; ``engine``
    gates the symbolic dependence engine and interprocedural call release
    (off reproduces the purely local classification).  ``loops`` are all
    loops of the function, when already found.
    """
    result = LoopAnalysisResult(loop=loop,
                                category=LoopCategory.STATIC_DOALL)
    body_instructions = []
    if ssa is not None:
        for start in loop.body:
            body_instructions.extend(cfg.blocks[start].instructions)
    result.static_instruction_count = len(body_instructions)

    # -- hard incompatibilities ------------------------------------------------
    if ssa is None:
        _mark_incompatible(result, "irregular stack discipline")
        return result
    if cfg.has_indirect:
        _mark_incompatible(result, "indirect control flow in function")
        return result
    for ins in body_instructions:
        if ins.opcode is Opcode.SYSCALL:
            _mark_incompatible(result, "system call in loop body")
            return result
        if ins.is_indirect:
            _mark_incompatible(result, "indirect branch in loop body")
            return result
    # The Janus runtime steals r14 (scratch) and r15 (TLS base) for its
    # rewrites; application code touching them inside a candidate loop
    # would be corrupted.  The paper's MEM_SPILL_REG/RECOVER_REG rules
    # exist for this; we take the conservative route and reject.
    from repro.isa.registers import SCRATCH_REG, TLS_REG

    reserved = {SCRATCH_REG, TLS_REG}
    for ins in body_instructions:
        uses, defs, _, _ = ins.facts()
        if not (reserved.isdisjoint(uses) and reserved.isdisjoint(defs)):
            _mark_incompatible(
                result, "loop uses the Janus-reserved registers r14/r15")
            return result

    for start in loop.body:
        for addr, target in cfg.internal_calls.items():
            if _addr_in_block(cfg, start, addr):
                result.internal_calls.append((addr, target))
        for addr, name in cfg.external_calls.items():
            if _addr_in_block(cfg, start, addr):
                result.external_calls.append((addr, name))

    for _, target in result.internal_calls:
        summary = summaries.get(target)
        if summary is None or summary.has_syscall or summary.has_indirect:
            _mark_incompatible(
                result, f"call to unanalysable function {target:#x}")
            return result
    for addr, name in result.external_calls:
        # IO-flavoured library calls inherit the syscall incompatibility.
        if name in ("print_int", "print_double", "read_int", "exit"):
            _mark_incompatible(result, f"IO library call {name}")
            return result

    # -- induction --------------------------------------------------------------
    induction = analyse_induction(ssa, loop, known_liveins=known_liveins)
    result.induction = induction
    if induction.iterator is None:
        _mark_incompatible(result, "no recognisable induction variable")
        return result

    builder = ExprBuilder(ssa, loop)
    ranges = (_function_ranges(ssa, dom, known_liveins, loops)
              if engine else None)
    result.alias = analyse_aliases(ssa, loop, dom, induction, builder,
                                   ranges=ranges)

    dynamic = False
    dependent = False

    # -- register-level loop-carried values -------------------------------------
    # SSA here is unpruned: a variable that is simply re-defined every
    # iteration gets a *dead* header phi.  Dead phis carry nothing across
    # iterations; the variable is private.  The induction analysis is
    # shared through the SSA memo, so the narrowed one is a copy.
    live_phis = [phi for phi in induction.other_phis
                 if _phi_is_live(ssa, phi)]
    result.induction = replace(induction, other_phis=live_phis)
    _classify_variables(result, ssa, loop, builder)
    for phi in live_phis:
        info = result.variables.get(phi.var)
        if info is None or info.vclass is not VariableClass.REDUCTION:
            dependent = True
            result.reasons.append(
                f"loop-carried register value {phi.var!r}")

    # -- memory ------------------------------------------------------------------
    alias = result.alias
    if alias.dependences:
        dependent = True
        result.reasons.extend(d.reason for d in alias.dependences[:4])
    if alias.unanalysable:
        dynamic = True
        result.reasons.append(
            f"{len(alias.unanalysable)} unanalysable memory accesses")
    if alias.bounds_checks:
        dynamic = True
        result.reasons.append(
            f"{len(alias.bounds_checks)} array-base pairs need runtime checks")
    if alias.unprovable_pairs:
        dynamic = True
        result.has_unprovable_aliasing = True
        result.reasons.append("base separation cannot be checked at runtime")
    for priv in alias.privatisable:
        if not runtime_evaluable(priv.group.base_struct):
            dependent = True
            result.reasons.append("privatisable group address not evaluable")

    # -- calls become STM sites ----------------------------------------------------
    for addr, name in result.external_calls:
        result.stm_call_sites.append(addr)
        dynamic = True
        result.reasons.append(f"shared-library call {name} needs speculation")
    for addr, target in result.internal_calls:
        summary = summaries[target]
        if not summary.is_pure_enough:
            chain = None
            if engine and ranges is not None:
                chain = _try_release_call(result, ssa, builder, ranges,
                                          addr, target, summaries)
            if chain is not None:
                result.released_call_sites.append(addr)
                result.call_release_chains[addr] = chain
                result.reasons.append(
                    f"call to {target:#x} released from STM: region "
                    f"summaries proved it conflict-free")
                continue
            result.stm_call_sites.append(addr)
            dynamic = True
            result.reasons.append(
                f"call to memory-writing function {target:#x}")

    if dependent:
        result.category = LoopCategory.STATIC_DEPENDENCE
    elif dynamic:
        result.category = LoopCategory.DYNAMIC_DOALL
    else:
        result.category = LoopCategory.STATIC_DOALL
    return result


def _function_ranges(ssa: SSAForm, dom: DominatorInfo,
                     known_liveins: dict | None,
                     loops: list[Loop] | None = None) -> FunctionRanges:
    """One FunctionRanges per SSA form, memoised on the form: the first
    caller's live-in feed stands, so later readers (racecheck) see the
    ranges classification used."""
    if ssa.function_ranges is None:
        ssa.function_ranges = FunctionRanges(
            ssa, dom, known_liveins=known_liveins, loops=loops)
    return ssa.function_ranges


def _try_release_call(result: LoopAnalysisResult, ssa: SSAForm,
                      builder: ExprBuilder, ranges: FunctionRanges,
                      addr: int, target: int,
                      summaries: dict[int, FunctionSummary]
                      ) -> list[str] | None:
    """Prove one in-loop call conflict-free from its region summary.

    Returns the explanation chain on success, ``None`` when any proof
    obligation fails.  Obligations (all cross-iteration unless noted):

    * the callee's transitive access regions are exact;
    * every other loop access is analysable, and there are no external
      calls (whose effects have no region summary);
    * the callee's write-involving region pairs are self-disjoint across
      iterations;
    * write-involving (region, plain access group) pairs are disjoint
      across iterations — same-iteration overlap is sequential execution;
    * write-involving pairs against privatised and reduction groups are
      *fully* disjoint, same iteration included: the body redirects those
      addresses to a private copy, the callee would still hit the shared
      original;
    * write-involving pairs against every other non-pure call's regions
      are disjoint across iterations (requiring those regions exact too).
    """
    alias = result.alias
    summary = summaries[target]
    if not summary.regions_exact:
        return None
    if alias is None or alias.unanalysable:
        return None
    if result.external_calls:
        return None
    ctx = make_context(result.induction, ranges, loop=result.loop)
    if ctx.theta is None:
        return None

    site = _call_instruction_site(ssa, result.loop, addr)
    if site is None:
        return None
    regions = _instantiate_regions(ssa, result.loop, builder, site,
                                   summary.regions)

    chain: list[str] = [
        f"callee {target:#x} access regions exact "
        f"({len(summary.regions)} regions)"]
    if not regions:
        chain.append("callee performs no non-stack memory accesses")
        return chain

    # Self-disjointness across iterations (including each write region
    # against itself at iteration distance d != 0).
    for i, ri in enumerate(regions):
        for rj in regions[i:]:
            if not (ri.is_write or rj.is_write):
                continue
            verdict = _callee_pair_verdict(ctx, ri, rj)
            if not verdict.independent:
                return None
            chain.extend(verdict.chain)

    # Against the loop body's access groups.
    special = ({id(p.group) for p in alias.privatisable}
               | {id(r.group) for r in alias.reductions})
    for group in alias.groups:
        lo, hi = group.extent_offsets()
        gbase = Poly.sym(ctx.theta).scale(group.theta_coeff) \
            + group.base_struct
        greg = RegionInterval(base=gbase, span=Interval(lo, hi))
        for ri in regions:
            if not (ri.is_write or group.has_write):
                continue
            if id(group) in special:
                if not _fully_disjoint(ranges, ri, greg,
                                       at_block=site[0]):
                    return None
                chain.append(
                    f"callee region {ri.fn_ri.describe()} fully disjoint "
                    f"from privatised/reduction group at {greg.describe()}")
            else:
                verdict = _region_vs_group_verdict(ctx, ri, greg)
                if not verdict.independent:
                    return None
                chain.extend(verdict.chain)

    # Against every other non-pure call in the loop.
    for other_addr, other_target in result.internal_calls:
        if other_addr == addr:
            continue
        other = summaries[other_target]
        if other.is_pure_enough:
            continue
        if not other.regions_exact:
            return None
        other_site = _call_instruction_site(ssa, result.loop, other_addr)
        if other_site is None:
            return None
        other_regions = _instantiate_regions(ssa, result.loop, builder,
                                             other_site, other.regions)
        for ri in regions:
            for rj in other_regions:
                if not (ri.is_write or rj.is_write):
                    continue
                verdict = _callee_pair_verdict(ctx, ri, rj)
                if not verdict.independent:
                    return None
                chain.extend(verdict.chain)

    deduped: list[str] = []
    for line in chain:
        if line not in deduped:
            deduped.append(line)
    return deduped


def _call_instruction_site(ssa: SSAForm, loop: Loop,
                           addr: int) -> tuple[int, int] | None:
    for start in loop.body:
        block = ssa.cfg.blocks[start]
        for index, ins in enumerate(block.instructions):
            if ins.address == addr:
                return start, index
    return None


@dataclass
class _CalleeRegion:
    """One callee region instantiated at a call site, in both scopes.

    The loop-scope base lets symbols shared with the loop's own access
    groups cancel; the function-scope base resolves loop-invariant values
    further (to constants or heap-allocation identities).
    """

    loop_ri: RegionInterval
    fn_ri: RegionInterval
    is_write: bool
    # (alloc sym, byte offset into the block, requested size) when the
    # function-scope base is a bump-allocator result.
    alloc: tuple | None = None

    @property
    def within_alloc(self) -> bool:
        """Does the region stay inside its allocation's requested bytes?"""
        if self.alloc is None:
            return False
        _, offset, size = self.alloc
        span = self.fn_ri.span
        return (span.lo is not None and span.hi is not None
                and offset + span.lo >= 0 and offset + span.hi <= size)


def _instantiate_regions(ssa: SSAForm, loop: Loop, builder: ExprBuilder,
                         site: tuple[int, int], regions
                         ) -> list[_CalleeRegion]:
    """Rebase callee regions onto the caller's value space at one call
    site, through the argument registers' reaching definitions."""
    block, index = site
    fn_builder = _fn_scope_builder(ssa, loop)
    instantiated: list[_CalleeRegion] = []
    for region in regions:
        span = Interval(region.lo, region.hi)
        if region.var is None:
            base = fn_base = Poly.const(0)
        else:
            name = reaching_name(ssa, block, index, region.var)
            base = builder.value_of(name)
            fn_base = fn_builder.value_of(name)
            if region.scale != 1:
                base = base.scale(region.scale)
                fn_base = fn_base.scale(region.scale)
        instantiated.append(_CalleeRegion(
            loop_ri=RegionInterval(base=base, span=span),
            fn_ri=RegionInterval(base=fn_base, span=span),
            is_write=region.is_write,
            alloc=_alloc_info(ssa, loop, fn_builder, fn_base)))
    return instantiated


def _fn_scope_builder(ssa: SSAForm, loop: Loop) -> ExprBuilder:
    builder = ssa.fn_builders.get(loop.header)
    if builder is None:
        builder = ExprBuilder(ssa, loop, scope="function")
        ssa.fn_builders[loop.header] = builder
    return builder


def _alloc_info(ssa: SSAForm, loop: Loop, fn_builder: ExprBuilder,
                fn_base: Poly) -> tuple | None:
    """(sym, offset, size) when ``fn_base`` is ``malloc_result + offset``
    for a malloc call outside the loop with a constant requested size."""
    terms = {m: c for m, c in fn_base.terms.items() if m != ()}
    offset = fn_base.terms.get((), 0)
    if len(terms) != 1:
        return None
    (mono, coeff), = terms.items()
    if coeff != 1 or len(mono) != 1:
        return None
    sym = mono[0]
    site = allocation_site(ssa.cfg, sym)
    if site is None:
        return None
    block, index = site
    if block in loop.body:
        return None  # a fresh block per iteration: identity is not stable
    from repro.isa.registers import ARG_REGS

    size_name = reaching_name(ssa, block, index, ARG_REGS[0])
    size_poly = fn_builder.value_of(size_name)
    if not size_poly.is_constant:
        return None
    return sym, offset, size_poly.constant_value


def _callee_pair_verdict(ctx: DependContext, a: _CalleeRegion,
                         b: _CalleeRegion) -> Verdict:
    """Disjointness of two instantiated callee regions, strongest first:
    distinct-heap-allocation separation, then the symbolic engine at loop
    scope (shared loop symbols cancel), then at function scope (constants
    and heap intervals resolve)."""
    if (a.alloc is not None and b.alloc is not None
            and a.alloc[0] != b.alloc[0]
            and a.within_alloc and b.within_alloc):
        return Verdict(True, "separation", (
            f"regions live in distinct heap allocations "
            f"({a.alloc[2]} and {b.alloc[2]} bytes; the bump allocator "
            f"never reuses memory) and stay within their blocks",))
    verdict = regions_disjoint(ctx, a.loop_ri, b.loop_ri)
    if verdict.independent:
        return verdict
    return regions_disjoint(ctx, a.fn_ri, b.fn_ri)


def _region_vs_group_verdict(ctx: DependContext, region: _CalleeRegion,
                             greg: RegionInterval) -> Verdict:
    verdict = regions_disjoint(ctx, region.loop_ri, greg)
    if verdict.independent:
        return verdict
    return regions_disjoint(ctx, region.fn_ri, greg)


def _fully_disjoint(ranges: FunctionRanges, region: _CalleeRegion,
                    greg: RegionInterval,
                    at_block: int | None = None) -> bool:
    """Absolute-interval disjointness over ALL iterations (d = 0 too).

    ``at_block`` (the call-site block) keeps the iterator symbols on
    their tight in-body ranges now that the raw phi range includes the
    loop's exit evaluation.
    """
    for ri in (region.loop_ri, region.fn_ri):
        if ri.span.lo is None or greg.span.lo is None:
            continue
        ia = ranges.poly_range(ri.base, at_block).add(ri.span)
        ib = ranges.poly_range(greg.base, at_block).add(greg.span)
        if disjoint(ia, ib):
            return True
    return False


@dataclass
class VectorLegality:
    """Outcome of the packed-rewrite legality assessment for one loop.

    The vector mode (paper section III-F) only widens loops whose packed
    execution is provably bit-identical to the scalar reference: lane ``k``
    of every packed op must compute exactly what scalar iteration ``i + k``
    computed, on the same inputs, in an order no dependence can observe.
    """

    loop_id: int
    ok: bool = True
    lanes: int = 0
    aligned: bool = False
    reasons: list[str] = field(default_factory=list)
    # Addresses of scalar FP instructions to widen, in body order.
    convert_addresses: list[int] = field(default_factory=list)
    # Address of the single induction-variable update to scale by ``lanes``.
    iv_update_address: int | None = None
    # Loop-invariant xmm registers whose lane 0 must be broadcast across
    # the packed lanes on loop entry.
    broadcast_regs: list[int] = field(default_factory=list)
    # xmm registers written by widened ops (their high lanes get dirtied).
    packed_def_regs: list[int] = field(default_factory=list)


def _vec_reject(legality: VectorLegality, reason: str) -> VectorLegality:
    legality.ok = False
    legality.reasons.append(reason)
    return legality


def assess_vector_legality(result: LoopAnalysisResult, cfg: FunctionCFG,
                           max_lanes: int = 4) -> VectorLegality:
    """Decide whether (and how wide) a loop can be packed-vectorised.

    Legality facts established here, consumed by ``rewrite/gen_vector.py``:

    * the loop is a proven static DOALL with a register iterator stepping
      by one, tested at the bottom of a single-block body;
    * the body is exactly: widenable scalar FP ops, one iterator update,
      the loop compare, and the backedge jump — nothing else;
    * every FP memory access is unit-stride (``theta_coeff == WORD``) so
      lanes read/write consecutive words;
    * every xmm source is either packed-defined earlier in the body or
      loop-invariant (the latter become broadcast registers);
    * no write/other pair within one base group falls inside the vector
      width, so lanes cannot observe each other's effects;
    * 4 lanes additionally require every access to be provably 32-byte
      aligned at the first iteration; otherwise width falls back to 2.
    """
    from repro.isa.instructions import VECTOR_WIDEN
    from repro.isa.operands import Imm, Mem, Reg
    from repro.isa.registers import is_xmm

    WORD = 8
    legality = VectorLegality(loop_id=result.loop_id)
    if result.category is not LoopCategory.STATIC_DOALL:
        return _vec_reject(
            legality, f"loop is {result.category.value}, not a static DOALL")
    if not result.is_parallelisable:
        return _vec_reject(legality, "loop is not parallelisable")
    induction = result.induction
    assert induction is not None and induction.iterator is not None
    iterator = induction.iterator
    iv = iterator.iv
    if not isinstance(iv.var, int) or is_xmm(iv.var):
        return _vec_reject(legality, "iterator is not an integer register")
    if iv.step != 1:
        return _vec_reject(legality,
                           f"non-unit induction step {iv.step}")
    if (iterator.test_position != "bottom"
            or iterator.test_offset != iv.step):
        return _vec_reject(
            legality,
            "loop test shape unsupported (need a bottom test of the "
            "updated iterator)")
    if len(result.loop.body) != 1:
        return _vec_reject(legality, "multi-block loop body")
    if result.loop.preheader is None:
        return _vec_reject(legality, "loop has no preheader to anchor "
                                     "the vector entry trap")
    if any(info.vclass is VariableClass.REDUCTION
           for info in result.variables.values()):
        return _vec_reject(legality, "register reduction in body")
    alias = result.alias
    assert alias is not None
    if alias.reductions:
        return _vec_reject(legality, "memory reduction in body")

    access_by_site: dict[tuple[int, bool], object] = {}
    for acc in alias.accesses:
        access_by_site[(acc.address, acc.is_write)] = acc

    block = cfg.blocks[result.loop.header]
    widenable = VECTOR_WIDEN[2]  # same opcode set at every width
    packed_defs: set[int] = set()
    broadcast: list[int] = []
    last = len(block.instructions) - 1
    for index, ins in enumerate(block.instructions):
        if index == last:
            if ins.address != iterator.jcc_address:
                return _vec_reject(
                    legality, "terminator is not the iterator test jump")
            continue
        if ins.address == iterator.cmp_address:
            continue  # the loop compare; VECT_BOUND repoints its bound
        if ins.opcode in widenable:
            for is_write, mems in ((False, ins.mem_reads()),
                                   (True, ins.mem_writes())):
                for _ in mems:
                    acc = access_by_site.get((ins.address, is_write))
                    if acc is None or acc.theta_coeff != WORD:
                        return _vec_reject(
                            legality,
                            f"FP access at {ins.address:#x} is not "
                            "analysed unit-stride")
            dst, src = ins.operands
            if type(src) is Reg and is_xmm(src.id):
                if src.id not in packed_defs and src.id not in broadcast:
                    broadcast.append(src.id)
            if type(dst) is Reg and is_xmm(dst.id):
                # Read-modify-write FP ops consume the destination too.
                if ins.opcode is not Opcode.MOVSD \
                        and dst.id not in packed_defs:
                    return _vec_reject(
                        legality,
                        f"xmm{dst.id} read at {ins.address:#x} before "
                        "any packed definition (loop-carried value)")
                packed_defs.add(dst.id)
            legality.convert_addresses.append(ins.address)
            continue
        from repro.isa.instructions import FLAGS_REG

        defs = ins.reg_defs() - {FLAGS_REG}
        if defs == {iv.var}:
            ops = ins.operands
            is_update = (
                (ins.opcode is Opcode.INC and len(ops) == 1)
                or (ins.opcode is Opcode.ADD and len(ops) == 2
                    and type(ops[1]) is Imm)
                or (ins.opcode is Opcode.LEA and len(ops) == 2
                    and type(ops[1]) is Mem and ops[1].base == iv.var
                    and ops[1].index is None))
            if is_update:
                if legality.iv_update_address is not None:
                    return _vec_reject(legality,
                                       "multiple iterator updates")
                legality.iv_update_address = ins.address
                continue
        return _vec_reject(
            legality,
            f"unsupported instruction {ins.opcode.name} "
            f"at {ins.address:#x}")

    if not legality.convert_addresses:
        return _vec_reject(legality, "no widenable FP operations")
    if legality.iv_update_address is None:
        return _vec_reject(legality, "iterator update not found in body")

    # Overlap within the vector width: a write and another access to the
    # same base whose constant offsets differ by fewer than ``lanes``
    # words would let lanes of one packed chunk observe each other.
    # (Static DOALL proof makes this unreachable in practice — a
    # same-base pair that close is a cross-iteration dependence — but
    # the width must never silently rely on that.)
    allowed = max_lanes
    for group in alias.groups:
        if group.theta_coeff != WORD or not group.has_write:
            continue
        for write in group.accesses:
            if not write.is_write:
                continue
            for other in group.accesses:
                if other is write:
                    continue
                delta = abs(other.const_offset - write.const_offset)
                if delta:
                    allowed = min(allowed, delta // WORD)
    if allowed < 2:
        return _vec_reject(
            legality, "write/read pair overlaps within the vector width")

    # Alignment fact for the 4-lane width: every access must sit at a
    # statically known address that is 32-byte aligned on iteration one.
    aligned = iterator.static_init is not None
    if aligned:
        for acc in alias.accesses:
            base = acc.base
            if base is None or any(m != () for m in base.terms):
                aligned = False
                break
            first = WORD * iterator.static_init + acc.const_offset
            if first % 32:
                aligned = False
                break
    legality.aligned = aligned

    # Packed widths come in powers of two only: an ``allowed`` of three
    # must fall back to two lanes, not a nonexistent three-lane form.
    lanes = 4 if (allowed >= 4 and max_lanes >= 4 and aligned) else 2
    legality.lanes = lanes
    legality.broadcast_regs = broadcast
    legality.packed_def_regs = sorted(packed_defs)
    return legality


def _phi_is_live(ssa: SSAForm, phi: Phi) -> bool:
    """True if the phi's value can reach a real instruction use.

    Transitive over the phi graph: a phi consumed only by other *dead*
    phis is dead too (unpruned SSA plants chains of phantom phis for
    variables that are simply re-defined every iteration — e.g. an inner
    loop's temporaries seen from the outer loop's header).
    """
    live = _live_phi_names(ssa)
    return (phi.var, phi.dest) in live


def _live_phi_names(ssa: SSAForm) -> frozenset:
    if ssa.live_phi_names is not None:
        return ssa.live_phi_names
    used_versions = set()
    for fact in ssa.facts.values():
        for var, version in fact.uses.items():
            used_versions.add((var, version))
    all_phis = [phi for phis in ssa.phis.values() for phi in phis]
    by_name = {(phi.var, phi.dest): phi for phi in all_phis}
    live: set = set()
    worklist = [phi for phi in all_phis
                if (phi.var, phi.dest) in used_versions]
    while worklist:
        phi = worklist.pop()
        name = (phi.var, phi.dest)
        if name in live:
            continue
        live.add(name)
        # Phis feeding a live phi become live in turn.
        for source_version in phi.sources.values():
            producer = by_name.get((phi.var, source_version))
            if producer is not None \
                    and (producer.var, producer.dest) not in live:
                worklist.append(producer)
    ssa.live_phi_names = frozenset(live)
    return ssa.live_phi_names


def _mark_incompatible(result: LoopAnalysisResult, reason: str) -> None:
    result.category = LoopCategory.INCOMPATIBLE
    result.reasons.append(reason)


def _addr_in_block(cfg: FunctionCFG, start: int, addr: int) -> bool:
    block = cfg.blocks[start]
    return block.start <= addr < block.end


def _classify_variables(result: LoopAnalysisResult, ssa: SSAForm,
                        loop: Loop, builder: ExprBuilder) -> None:
    """Assign induction/reduction/private/read-only classes (paper II-D)."""
    from repro.isa.registers import STACK_REG, is_xmm

    induction = result.induction
    assert induction is not None

    defined: set = set()
    used: set = set()
    livein_used: set = set()
    for start in loop.body:
        block = ssa.cfg.blocks[start]
        for index in range(len(block.instructions)):
            fact = ssa.facts.get((start, index))
            if fact is None:
                continue
            for var, version in fact.uses.items():
                used.add(var)
                site = ssa.def_sites.get((var, version), ("entry",))
                if site[0] == "entry" or (
                        site[0] == "phi" and site[1] not in loop.body) or (
                        site[0] == "ins" and site[1] not in loop.body):
                    livein_used.add(var)
            defined.update(fact.defs)
    for phi in ssa.phis.get(loop.header, []):
        defined.add(phi.var)

    for iv in induction.basic_ivs:
        result.variables[iv.var] = VariableInfo(
            var=iv.var, vclass=VariableClass.INDUCTION, step=iv.step)

    for phi in induction.other_phis:
        if _is_reduction_phi(ssa, loop, builder, phi):
            result.variables[phi.var] = VariableInfo(
                var=phi.var, vclass=VariableClass.REDUCTION,
                reduction_op="+",
                is_float=_reduction_is_float(ssa, loop, phi))

    for var in sorted(used | defined, key=repr):
        if var in result.variables or var == STACK_REG:
            continue
        if isinstance(var, tuple) and var[0] == "stack":
            continue  # slots handled below
        if var in defined:
            result.variables[var] = VariableInfo(
                var=var, vclass=VariableClass.PRIVATE)
        else:
            result.variables[var] = VariableInfo(
                var=var, vclass=VariableClass.READ_ONLY)

    # Stack slots: read-only ones are redirected to the main stack
    # (MEM_MAIN_STACK); written ones live on each thread's private stack.
    readonly_slots = set()
    for var in used:
        if isinstance(var, tuple) and var[0] == "stack":
            if var in defined:
                result.written_slots.add(var[1])
            else:
                readonly_slots.add(var[1])
    if not readonly_slots:
        return
    from repro.analysis.stack import slot_of

    for start in loop.body:
        block = ssa.cfg.blocks[start]
        for index, ins in enumerate(block.instructions):
            reads = ins.mem_reads()
            if not reads:
                continue
            delta = ssa.delta_at(start, index)
            for mem in reads:
                slot = slot_of(delta, mem)
                if slot is not None and slot in readonly_slots:
                    result.readonly_slot_readers.setdefault(
                        slot, []).append(ins.address)


def _reduction_is_float(ssa: SSAForm, loop: Loop, phi: Phi) -> bool:
    """Is the reduction's value a double?

    xmm registers are trivially float.  A *spilled* accumulator lives in a
    stack slot: the slot is float-valued when the in-loop definition that
    feeds the latch is a floating-point store (``movsd [rsp+k], xmm``).
    """
    from repro.isa.registers import is_xmm

    if isinstance(phi.var, int):
        return is_xmm(phi.var)
    float_ops = {Opcode.MOVSD, Opcode.ADDSD, Opcode.SUBSD, Opcode.MULSD,
                 Opcode.DIVSD}
    for pred, version in phi.sources.items():
        if pred not in loop.body:
            continue
        site = ssa.def_sites.get((phi.var, version))
        if site is not None and site[0] == "ins":
            ins = ssa.cfg.blocks[site[1]].instructions[site[2]]
            if ins.opcode in float_ops:
                return True
    return False


def _is_reduction_phi(ssa: SSAForm, loop: Loop, builder: ExprBuilder,
                      phi: Phi) -> bool:
    """update == phi + delta (delta free of phi), and the running value is
    consumed only by its own accumulation chain inside the loop."""
    theta = ("phi", phi.var, phi.dest)
    latch_versions = {v for pred, v in phi.sources.items()
                      if pred in loop.body}
    init_versions = {v for pred, v in phi.sources.items()
                     if pred not in loop.body}
    if len(init_versions) != 1 or not latch_versions:
        return False
    for version in latch_versions:
        poly = builder.value_of((phi.var, version))
        decomposed = poly.linear_in(theta)
        if decomposed is None:
            return False
        coeff, rest = decomposed
        if coeff != 1 or rest.mentions(theta) or rest.is_zero:
            return False
        # Note: ``rest`` may contain opaque symbols (e.g. an
        # iteration-varying load like a[i]); that is the common
        # ``sum += a[i]`` shape and is fine.  A pathological a[sum]-style
        # self-reference would add a second use of the running value and
        # is rejected by the use count below.
    # The running value must feed only the accumulation itself.
    uses = 0
    for start in loop.body:
        block = ssa.cfg.blocks[start]
        for index in range(len(block.instructions)):
            fact = ssa.facts.get((start, index))
            if fact is not None and fact.uses.get(phi.var) == phi.dest:
                uses += 1
    return uses <= 1
