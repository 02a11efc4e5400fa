"""Tier 3: the DOALL oracle — an adversarial replay of classification claims.

Every loop the classifier marked STATIC_DOALL / DYNAMIC_DOALL (and that the
schedule generator would accept) is replayed *single-threaded* under the
DBM, recording every access of its first iterations into the run's access
log and checking per-iteration read/write sets against a shadow word map
(:class:`~repro.profiling.shadow.IterationShadowChecker`).  A
cross-iteration W→R, W→W or R→W conflict contradicts the independence
claim.

Not every conflict is unsoundness, though: the claim each category makes is
conditional on the guards the pipeline installs, and the oracle judges a
conflict against exactly those guards:

* accesses inside a **speculated call** (``stm_call_sites`` — TX_START /
  TX_FINISH wrap them in the parallel schedule) never feed the shadow: the
  STM validates and serialises them at runtime;
* a conflict where both instructions are **visible to the dependence
  profiler** (the ``PROF_MEM_ACCESS`` set) is profile-gated: every
  selection path that can pick a DYNAMIC_DOALL loop runs that profiler
  first, which observes the dependence and demotes the loop — reported as
  a ``WARNING``, not unsoundness;
* a conflict where both instructions belong to **bounds-checked groups**
  is caught by the runtime range check, which falls back to sequential
  execution — reported as ``INFO``;
* anything else — any conflict in a STATIC_DOALL loop, or one invisible
  to both the profiler and the runtime checks — is ``CONFIRMED_UNSOUND``:
  parallel execution could silently compute wrong answers.  With
  ``demote=True`` (``repro verify --demote``), such loops are demoted in
  place.

The shadow machinery is the dependence profiler's
(:mod:`repro.profiling.profiler`), but where the profiler trusts the static
analyser to tell it *which* accesses to watch, the oracle watches every
access the program performs while a claimed loop is active, exempting
only the thread-private traffic the parallel transformation removes (own
stack, privatised words, reduction slots).

Replay is bounded: per loop invocation only the first ``max_iterations``
iterations feed the shadow, and the whole run is capped by
``max_instructions``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.classify import LoopCategory
from repro.dbm.interp import ExecutionLimitExceeded
from repro.dbm.modifier import JanusDBM
from repro.dbm.rtcalls import RTCallID
from repro.jbin import layout
from repro.jbin.loader import load
from repro.profiling.shadow import IterationShadowChecker, LoopShadow
from repro.rewrite.gen_profile import (
    DEPENDENCE_STAGE,
    generate_profile_schedule,
)
from repro.telemetry.core import get_recorder
from repro.verify.findings import Finding, Severity

DEFAULT_ORACLE_ITERATIONS = 128
DEFAULT_ORACLE_INSTRUCTIONS = 20_000_000
_MAX_SAMPLES = 8

#: guard kind -> finding severity for guarded (non-confirmed) conflicts.
_GUARD_SEVERITY = {
    "profile": Severity.WARNING,
    "bounds": Severity.INFO,
}

_GUARD_EXPLANATION = {
    "profile": ("visible to the dependence profiler: training observes the "
                "dependence and demotes the loop before selection"),
    "bounds": ("covered by runtime bounds checks: overlapping ranges fall "
               "back to sequential execution"),
}


def claimed_doall_loops(analysis) -> list:
    """The loops whose independence claim the oracle must test.

    This is every loop the parallel generator would accept if selected —
    stronger than checking only the loops one selection policy picked.
    """
    return [result for result in analysis.loops
            if result.category in (LoopCategory.STATIC_DOALL,
                                   LoopCategory.DYNAMIC_DOALL)
            and result.is_parallelisable
            and result.loop.preheader is not None]


class _Tracked:
    """Static facts about one claimed loop, precomputed for the checker."""

    __slots__ = ("loop_id", "category", "static_claim", "exempt_pcs",
                 "profiled_pcs", "checked_pcs")

    def __init__(self, result) -> None:
        self.loop_id = result.loop_id
        self.category = result.category.value
        self.static_claim = result.category is LoopCategory.STATIC_DOALL
        exempt: set[int] = set()
        profiled: set[int] = set()
        checked: set[int] = set()
        alias = result.alias
        if alias is not None:
            for reduction in alias.reductions:
                exempt.update(a.address for a in reduction.group.accesses)
            for priv in alias.privatisable:
                exempt.update(a.address for a in priv.group.accesses)
            # Exactly the PROF_MEM_ACCESS instrumentation set
            # (gen_profile._add_dependence_rules).
            profiled.update(a.address for a in alias.accesses)
            profiled -= exempt
            for check in alias.bounds_checks:
                checked.update(
                    a.address for a in check.write_group.accesses)
                checked.update(
                    a.address for a in check.other_group.accesses)
        self.exempt_pcs = frozenset(exempt)
        self.profiled_pcs = frozenset(profiled)
        self.checked_pcs = frozenset(checked)


@dataclass(frozen=True)
class OracleConflict:
    """One observed cross-iteration dependence."""

    loop_id: int
    word: int
    kind: str  # "W->R" (flow), "W->W" (output), "R->W" (anti)
    from_iteration: int
    to_iteration: int
    from_pc: int
    to_pc: int
    guard: str | None  # None (confirmed unsound), "profile", "bounds"


@dataclass
class OracleLoopStats:
    loop_id: int
    category: str
    invocations: int = 0
    iterations: int = 0
    shadowed_accesses: int = 0
    speculated_accesses: int = 0
    confirmed: int = 0
    guarded: int = 0


@dataclass
class OracleResult:
    """The outcome of one oracle replay."""

    loops: dict[int, OracleLoopStats] = field(default_factory=dict)
    conflicts: list[OracleConflict] = field(default_factory=list)
    confirmed_totals: dict[int, int] = field(default_factory=dict)
    guarded_totals: dict[int, dict] = field(default_factory=dict)
    instructions: int = 0
    demoted: list[int] = field(default_factory=list)

    @property
    def unsound_loop_ids(self) -> list[int]:
        return sorted(self.confirmed_totals)

    def findings(self) -> list[Finding]:
        out: list[Finding] = []
        for loop_id in self.unsound_loop_ids:
            stats = self.loops.get(loop_id)
            samples = [c for c in self.conflicts
                       if c.loop_id == loop_id and c.guard is None]
            kinds = sorted({c.kind for c in samples})
            words = sorted({c.word for c in samples})[:4]
            out.append(Finding(
                tier="oracle", check="oracle.cross-iteration-dependence",
                severity=Severity.CONFIRMED_UNSOUND,
                location=f"loop {loop_id} "
                         f"({stats.category if stats else '?'})",
                message=(
                    f"{self.confirmed_totals[loop_id]} unguarded "
                    f"cross-iteration conflicts ({'/'.join(kinds)}) over "
                    f"{stats.iterations if stats else '?'} replayed "
                    f"iterations; sample words "
                    f"{[hex(w) for w in words]}")))
        for loop_id, by_guard in sorted(self.guarded_totals.items()):
            stats = self.loops.get(loop_id)
            for guard, count in sorted(by_guard.items()):
                out.append(Finding(
                    tier="oracle", check=f"oracle.guarded-{guard}",
                    severity=_GUARD_SEVERITY[guard],
                    location=f"loop {loop_id} "
                             f"({stats.category if stats else '?'})",
                    message=(
                        f"{count} cross-iteration conflicts "
                        f"{_GUARD_EXPLANATION[guard]}")))
        return out


class DOALLOracle(IterationShadowChecker):
    """Registers the profiling-bracket rtcalls and records every access.

    While at least one claimed loop is inside its first
    ``max_iterations`` iterations, the oracle keeps a recording window
    open: every Mem-operand access (never the stack words
    PUSH/POP/CALL/RET move) lands in the access log and is checked at the
    next drain.  Outside it the replay runs on the fast
    tiers.  PROF_MEM sites of the dependence-stage schedule are ignored
    (no charge, no entry): the window watches every access anyway.
    """

    anti_first = False  # W->W before R->W

    def __init__(self, dbm: JanusDBM, claimed,
                 max_iterations: int = DEFAULT_ORACLE_ITERATIONS) -> None:
        # Replay is single-threaded: each worker thread would get its
        # own private stack, so the main stack's traffic is never
        # recorded.
        top = layout.thread_stack_top(0)
        super().__init__(dbm, sites=False,
                         private=(top - layout.THREAD_STACK_SIZE, top))
        self.max_iterations = max_iterations
        self.result = OracleResult()
        self._tracked: dict[int, _Tracked] = {}
        # Samples kept per (loop, guard): at most _MAX_SAMPLES each.
        self._samples: dict[tuple, int] = {}
        for result in claimed:
            self._tracked[result.loop_id] = _Tracked(result)
            self.result.loops[result.loop_id] = OracleLoopStats(
                loop_id=result.loop_id, category=result.category.value)
        dbm.register_rtcall(RTCallID.PROF_LOOP_START, self._loop_start)
        dbm.register_rtcall(RTCallID.PROF_LOOP_ITER, self._loop_iter)
        dbm.register_rtcall(RTCallID.PROF_LOOP_FINISH, self._loop_finish)
        dbm.register_rtcall(RTCallID.PROF_EXCALL_START, self._excall_start)
        dbm.register_rtcall(RTCallID.PROF_EXCALL_FINISH, self._excall_finish)

    def _update_window(self) -> None:
        limit = self.max_iterations
        self.set_recording(any(frame.iteration <= limit
                               for frame in self.frames))

    # -- loop bracket rtcalls -------------------------------------------------

    def _loop_start(self, ctx, loop_id: int):
        if loop_id in self.result.loops:
            self.drain()
            self.result.loops[loop_id].invocations += 1
            self.frames.append(LoopShadow(loop_id))
            self._update_window()
        return None

    def _loop_iter(self, ctx, loop_id: int):
        self.drain()
        frame = self.frame_of(loop_id)
        if frame is not None:
            frame.iteration += 1
            if frame.iteration <= self.max_iterations:
                self.result.loops[loop_id].iterations += 1
            self._update_window()
        return None

    def _loop_finish(self, ctx, loop_id: int):
        self.drain()
        if self.pop(loop_id):
            self._update_window()
        return None

    # -- speculated call windows (TX_START/TX_FINISH at parallel runtime) ------

    def _excall_start(self, ctx, record_index: int):
        self.drain()
        frame = self.frame_of(self.excalls[record_index].loop_id)
        if frame is not None:
            frame.spec_depth += 1
        return None

    def _excall_finish(self, ctx, record_index: int):
        self.drain()
        frame = self.frame_of(self.excalls[record_index].loop_id)
        if frame is not None and frame.spec_depth > 0:
            frame.spec_depth -= 1
        return None

    # -- the adversarial replay ----------------------------------------------------

    def _consume(self, entries: list) -> None:
        # Frames past their replay bound see nothing; inside an
        # STM-speculated call a frame only counts what the STM would
        # validate.  Neither changes between drains.
        limit = self.max_iterations
        loops = self.result.loops
        watched = [frame for frame in self.frames
                   if frame.iteration <= limit]
        replayed = [(frame, loops[frame.loop_id],
                     self._tracked[frame.loop_id].exempt_pcs)
                    for frame in watched if not frame.spec_depth]
        check = self.check
        for (_, pc, is_write, lanes), addr in entries:
            for frame, stats, exempt_pcs in replayed:
                if pc in exempt_pcs:
                    continue  # privatised/reduction traffic for this loop
                stats.shadowed_accesses += lanes
                check(frame, addr, lanes, is_write, pc)
        if len(replayed) < len(watched):
            speculated = sum(key[3] for key, _ in entries)
            for frame in watched:
                if frame.spec_depth:
                    loops[frame.loop_id].speculated_accesses += speculated

    def _classify(self, tracked: _Tracked, pc: int,
                  prev_pc: int) -> str | None:
        """Which runtime/pipeline guard covers this conflict, if any."""
        if tracked.static_claim:
            return None  # a static claim admits no runtime guards
        if pc in tracked.profiled_pcs and prev_pc in tracked.profiled_pcs:
            return "profile"
        if pc in tracked.checked_pcs and prev_pc in tracked.checked_pcs:
            return "bounds"
        return None

    def report(self, frame: LoopShadow, word: int, kind: str,
               earlier: tuple, pc: int) -> None:
        prev_iteration, prev_pc = earlier
        loop_id = frame.loop_id
        guard = self._classify(self._tracked[loop_id], pc, prev_pc)
        result = self.result
        stats = result.loops[loop_id]
        if guard is None:
            stats.confirmed += 1
            result.confirmed_totals[loop_id] = \
                result.confirmed_totals.get(loop_id, 0) + 1
        else:
            stats.guarded += 1
            by_guard = result.guarded_totals.setdefault(loop_id, {})
            by_guard[guard] = by_guard.get(guard, 0) + 1
        kept = self._samples.get((loop_id, guard), 0)
        if kept < _MAX_SAMPLES:
            self._samples[(loop_id, guard)] = kept + 1
            result.conflicts.append(OracleConflict(
                loop_id=loop_id, word=word, kind=kind,
                from_iteration=prev_iteration,
                to_iteration=frame.iteration,
                from_pc=prev_pc, to_pc=pc, guard=guard))


def run_doall_oracle(image, analysis, inputs=None, claimed=None,
                     max_iterations: int = DEFAULT_ORACLE_ITERATIONS,
                     max_instructions: int = DEFAULT_ORACLE_INSTRUCTIONS,
                     demote: bool = False) -> OracleResult:
    """Replay the claimed-DOALL loops of one binary against one input set.

    With ``demote=True`` every confirmed-unsound loop's category is
    downgraded in place (STATIC_DOALL → STATIC_DEPENDENCE, DYNAMIC_DOALL →
    DYNAMIC_DEPENDENCE), which removes it from the selector's candidate
    set — the ``repro verify --demote`` behaviour.
    """
    if claimed is None:
        claimed = claimed_doall_loops(analysis)
    if not claimed:
        return OracleResult()
    # The dependence-stage schedule brackets loops AND speculated call
    # sites (PROF_EXCALL around external and memory-writing internal
    # calls) — exactly the windows the oracle must treat as STM-guarded.
    schedule = generate_profile_schedule(
        analysis, stage=DEPENDENCE_STAGE,
        loop_ids=[result.loop_id for result in claimed])
    process = load(image, inputs=list(inputs) if inputs else None)
    dbm = JanusDBM(process, schedule=schedule)
    oracle = DOALLOracle(dbm, claimed, max_iterations=max_iterations)
    with get_recorder().span("verify.oracle", cat="verify",
                             loops=len(claimed),
                             max_iterations=max_iterations) as span:
        result = oracle.result
        try:
            execution = oracle.run(max_instructions)
            result.instructions = execution.instructions
        except ExecutionLimitExceeded:
            # A bounded replay is still a replay: judge what was seen.
            result.instructions = max_instructions
        span.set(instructions=result.instructions,
                 confirmed=sum(result.confirmed_totals.values()),
                 guarded=sum(sum(g.values())
                             for g in result.guarded_totals.values()))
    if demote:
        by_id = {r.loop_id: r for r in claimed}
        for loop_id in result.unsound_loop_ids:
            loop_result = by_id.get(loop_id)
            if loop_result is None:
                continue
            if loop_result.category is LoopCategory.STATIC_DOALL:
                loop_result.category = LoopCategory.STATIC_DEPENDENCE
            elif loop_result.category is LoopCategory.DYNAMIC_DOALL:
                loop_result.category = LoopCategory.DYNAMIC_DEPENDENCE
            loop_result.reasons.append(
                "demoted: verification oracle observed an unguarded "
                "cross-iteration dependence")
            result.demoted.append(loop_id)
    return result
