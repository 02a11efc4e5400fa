"""The profiling runtime attached to the DBM during training runs.

Profiling runs execute on the ordinary *fast* compiled tiers
(:mod:`repro.dbm.jit`), superblocks included, because nothing
is instrumented per block or per access:

* loop **coverage** is attributed from ``ctx.instructions`` by the
  bracket RTCALLs themselves (:meth:`Profiler._attribute`); the
  loop-iteration bracket, which only counts the iteration and drains the
  log, is registered inline, so a profiled hot loop's superblock calls it
  in line and never leaves compiled code (the start, finish and window
  RTCALLs end superblock formation);
* each PROF_MEM site is a ``RECORD`` pseudo-instruction that the block
  runner compiles into an inline append of the site's address to the
  run's ordered access log (:mod:`repro.dbm.accesslog`), charging
  ``prof_event_cycles`` per site;
* an **external-call window** sets ``Interpreter.recording``, which keeps
  the dispatcher off superblocks and makes the fast block runner append
  every Mem-operand access (never the stack words PUSH/POP/CALL/RET move)
  to the same log.

The shared :class:`~repro.profiling.shadow.IterationShadowChecker` drains
the log in program order at every bracket and window RTCALL, so the
profiles come out exactly as if every access had been checked on the
spot.  The reference dispatch (a block's first entry, and every entry
under ``force_reference``) appends the same entries one instruction at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dbm.accesslog import SITE
from repro.dbm.rtcalls import RTCallID
from repro.profiling.shadow import IterationShadowChecker, LoopShadow
from repro.telemetry.core import get_recorder


@dataclass
class ExCallProfile:
    """Observed behaviour of one external call site inside a loop."""

    name: str
    invocations: int = 0
    instructions: int = 0
    heap_reads: int = 0
    heap_writes: int = 0

    @property
    def instructions_per_call(self) -> float:
        return self.instructions / self.invocations if self.invocations else 0.0

    @property
    def reads_per_call(self) -> float:
        return self.heap_reads / self.invocations if self.invocations else 0.0

    @property
    def writes_per_call(self) -> float:
        return self.heap_writes / self.invocations if self.invocations else 0.0


@dataclass
class LoopProfile:
    """Everything profiling learned about one loop."""

    loop_id: int
    invocations: int = 0
    iterations: int = 0
    instructions: int = 0  # dynamic instructions while the loop was active
    # Instructions attributed only while this loop was the *innermost*
    # active one (non-overlapping across loops; used by paper Fig. 6).
    instructions_exclusive: int = 0
    has_dependence: bool = False
    dependence_samples: list = field(default_factory=list)
    excalls: dict[int, ExCallProfile] = field(default_factory=dict)


@dataclass
class ProfileResult:
    """The outcome of one training-stage profiling run."""

    total_instructions: int = 0
    loops: dict[int, LoopProfile] = field(default_factory=dict)

    def coverage(self, loop_id: int) -> float:
        """Fraction of all dynamic instructions spent inside the loop."""
        profile = self.loops.get(loop_id)
        if profile is None or not self.total_instructions:
            return 0.0
        return profile.instructions / self.total_instructions

    def exclusive_coverage(self, loop_id: int) -> float:
        """Non-overlapping coverage (innermost-loop attribution)."""
        profile = self.loops.get(loop_id)
        if profile is None or not self.total_instructions:
            return 0.0
        return profile.instructions_exclusive / self.total_instructions

    def loops_above_coverage(self, threshold: float) -> list[int]:
        return sorted(loop_id for loop_id in self.loops
                      if self.coverage(loop_id) >= threshold)


class _Window:
    """One open external-call window (PROF_EXCALL_START .. FINISH)."""

    __slots__ = ("record_index", "loop_id", "name", "instructions_before",
                 "counters", "frame", "profile")

    def __init__(self, record_index, loop_id, name, instructions_before,
                 frame, profile) -> None:
        self.record_index = record_index
        self.loop_id = loop_id
        self.name = name
        self.instructions_before = instructions_before
        self.counters = [0, 0]  # heap reads, writes (indexed by is_write)
        # The enclosing loop's frame when the window opened (None when
        # the loop was not active); the call's accesses feed its shadow.
        self.frame = frame
        self.profile = profile


class Profiler(IterationShadowChecker):
    """Registers the PROF_* rtcalls on a DBM and accumulates profiles."""

    def __init__(self, dbm) -> None:
        super().__init__(dbm, site_cycles=dbm.cost.prof_event_cycles)
        self.profiles: dict[int, LoopProfile] = {}
        self._windows: list[_Window] = []
        # Coverage is attributed up to this instruction count.
        self._attributed = 0
        dbm.register_rtcall(RTCallID.PROF_LOOP_START, self._loop_start)
        # The iteration bracket only counts and drains: superblocks call
        # it in line, so profiled loops stay on the hot-loop tier.
        dbm.register_rtcall(RTCallID.PROF_LOOP_ITER, self._loop_iter,
                            inline=True)
        dbm.register_rtcall(RTCallID.PROF_LOOP_FINISH, self._loop_finish)
        dbm.register_rtcall(RTCallID.PROF_EXCALL_START, self._excall_start)
        dbm.register_rtcall(RTCallID.PROF_EXCALL_FINISH, self._excall_finish)

    # -- profile collection ---------------------------------------------------

    def _profile(self, loop_id: int) -> LoopProfile:
        profile = self.profiles.get(loop_id)
        if profile is None:
            profile = LoopProfile(loop_id=loop_id)
            self.profiles[loop_id] = profile
        return profile

    def _charge(self, ctx) -> None:
        ctx.cycles += self.dbm.cost.prof_event_cycles

    def _loop_start(self, ctx, loop_id: int):
        self._charge(ctx)
        self.drain()
        self._attribute(ctx.entry_instructions)
        profile = self._profile(loop_id)
        profile.invocations += 1
        self.frames.append(LoopShadow(loop_id))
        return None

    def _loop_iter(self, ctx, loop_id: int):
        self._charge(ctx)
        self.drain()
        frame = self.frame_of(loop_id)
        if frame is not None:
            frame.iteration += 1
            self._profile(loop_id).iterations += 1
        return None

    def _loop_finish(self, ctx, loop_id: int):
        self._charge(ctx)
        self.drain()
        if self.frame_of(loop_id) is not None:
            self._attribute(ctx.entry_instructions)
            self.pop(loop_id)
        return None

    def _attribute(self, upto: int) -> None:
        """Charge the instructions before ``upto`` to the active loops.

        Called just before the loop stack changes, with the instruction
        count at the start of the changing block: every block since the
        last change ended under the current stack, and a block counts
        for the loops active when it *ends* (the changing block itself
        goes to the stack it leaves behind).  Each loop is counted once
        however often recursion re-activated it; the innermost active
        loop also gets the exclusive count.
        """
        count = upto - self._attributed
        self._attributed = upto
        frames = self.frames
        if not frames or not count:
            return
        if len(frames) == 1:
            profile = self._profile(frames[0].loop_id)
            profile.instructions += count
            profile.instructions_exclusive += count
            return
        for loop_id in {frame.loop_id for frame in frames}:
            self._profile(loop_id).instructions += count
        self._profile(frames[-1].loop_id).instructions_exclusive += count

    # -- the access log -----------------------------------------------------------

    def _consume(self, entries: list) -> None:
        # Innermost occurrence wins: the frame a PROF_MEM site checks.
        frames = {frame.loop_id: frame for frame in self.frames}
        # An access inside nested windows (two instrumented loops sharing
        # a call site) counts for every open window, innermost first.
        windows = self._windows[::-1]
        check = self.check
        for (kind, loop_id, is_write, lanes), addr in entries:
            if kind == SITE:
                frame = frames.get(loop_id)
                if frame is not None:
                    check(frame, addr, lanes, is_write, None)
                continue
            for window in windows:
                window.counters[is_write] += lanes
                # The call's accesses also feed the enclosing loop's
                # dependence shadow: dynamically discovered code can carry
                # cross-iteration dependences (e.g. overlapping halos).
                if window.frame is not None:
                    check(window.frame, addr, lanes, is_write, None)

    def report(self, frame: LoopShadow, word: int, kind: str,
               earlier: tuple, pc) -> None:
        profile = self.profiles[frame.loop_id]
        profile.has_dependence = True
        if len(profile.dependence_samples) < 8:
            profile.dependence_samples.append(
                (word, earlier[0], frame.iteration))

    # -- external call windows ---------------------------------------------------

    def _excall_start(self, ctx, record_index: int):
        self._charge(ctx)
        self.drain()
        excall = self.dbm.payloads[record_index]
        loop_id = excall.loop_id
        self._windows.append(_Window(
            record_index, loop_id, excall.name, ctx.instructions,
            self.frame_of(loop_id), self._profile(loop_id)))
        self.set_recording(True)
        return None

    def _excall_finish(self, ctx, record_index: int):
        self._charge(ctx)
        if not self._windows:
            return None
        self.drain()
        window = self._windows.pop()
        self.set_recording(bool(self._windows))
        excalls = window.profile.excalls
        excall = excalls.get(window.record_index)
        if excall is None:
            excall = excalls[window.record_index] = ExCallProfile(
                name=window.name)
        excall.invocations += 1
        # The window spans the call; subtract the two rtcall instructions.
        excall.instructions += max(
            0, ctx.instructions - window.instructions_before - 2)
        reads, writes = window.counters
        excall.heap_reads += reads
        excall.heap_writes += writes
        return None

    # -- result ------------------------------------------------------------------

    def result(self, execution) -> ProfileResult:
        self.drain()
        self._attribute(execution.instructions)
        return ProfileResult(total_instructions=execution.instructions,
                             loops=dict(self.profiles))


def run_profiling(process, schedule, cost_model=None,
                  max_instructions=None) -> tuple[ProfileResult, object]:
    """Run one training-stage pass; returns (profile, execution result)."""
    from repro.dbm.executor import DEFAULT_INSTRUCTION_LIMIT
    from repro.dbm.modifier import JanusDBM

    dbm = JanusDBM(process, schedule=schedule, cost_model=cost_model)
    profiler = Profiler(dbm)
    limit = max_instructions if max_instructions is not None \
        else DEFAULT_INSTRUCTION_LIMIT
    with get_recorder().span("profiling.run", cat="profiling",
                             rules=len(schedule.rules)) as span:
        execution = profiler.run(limit)
        profile = profiler.result(execution)
        span.set(loops_profiled=len(profile.loops),
                 instructions=execution.instructions)
    return profile, execution
