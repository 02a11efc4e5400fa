"""The iteration-shadow checker shared by training and the DOALL oracle.

Both the dependence profiler (:mod:`repro.profiling.profiler`) and the
DOALL oracle (:mod:`repro.verify.oracle`) ask one question of a loop: does
an iteration touch a word that an *earlier* iteration of the same loop
invocation wrote (or, for a write, read)?  They answer it the same way:

* a :class:`LoopShadow` per active loop invocation holds the iteration
  counter and the last iteration (and pc) to read and to write each word;
* the run's block runners append the watched accesses to one ordered
  :class:`~repro.dbm.accesslog.AccessLog` instead of calling back into
  Python per access;
* :class:`IterationShadowChecker` owns the frame stack and the log, and
  *drains* the log — in program order — at each of its RTCALL handlers
  (loop brackets and external-call windows), at the end of the run, and
  when the run stops at its instruction limit.  Only those handlers
  change the frames, windows and ``Interpreter.recording``, and each
  drains first, so every entry is judged against exactly the state it was
  recorded under: samples, conflict counts, kinds and pcs come out as if
  each access had been checked the moment it happened.

Subclasses say what the entries mean (``_consume``) and how a conflict is
reported (``report``).
"""

from __future__ import annotations

from repro.dbm.accesslog import AccessLog


class LoopShadow:
    """One active loop invocation: its iteration and per-word shadow."""

    __slots__ = ("loop_id", "iteration", "reads", "writes", "spec_depth")

    def __init__(self, loop_id: int) -> None:
        self.loop_id = loop_id
        self.iteration = 0
        # word -> (iteration, pc) of the last read / write of the word.
        self.reads: dict[int, tuple] = {}
        self.writes: dict[int, tuple] = {}
        # Open STM-speculated call windows (the oracle's guard).
        self.spec_depth = 0


class IterationShadowChecker:
    """Loop frames plus the access log they are checked against.

    ``site_cycles``, ``sites`` and ``private`` configure the log (see
    :class:`~repro.dbm.accesslog.AccessLog`).  Attach before the DBM
    runs: block runners bind the log when they are compiled.
    """

    def __init__(self, dbm, site_cycles: int = 0, sites: bool = True,
                 private: tuple[int, int] | None = None) -> None:
        self.dbm = dbm
        self.frames: list[LoopShadow] = []
        self.log = AccessLog(site_cycles=site_cycles, sites=sites,
                             private=private)
        dbm.interp.access_log = self.log

    # -- the log -----------------------------------------------------------

    def drain(self) -> None:
        """Check every access recorded since the last drain, in order."""
        entries = self.log.entries
        if entries:
            self._consume(entries)
            entries.clear()

    def _consume(self, entries: list) -> None:
        raise NotImplementedError

    def set_recording(self, live: bool) -> None:
        """Open or close the window in which every access is recorded."""
        self.dbm.interp.recording = live

    def run(self, max_instructions: int):
        """Run the DBM; the log is drained however the run ends."""
        try:
            return self.dbm.run(max_instructions=max_instructions)
        finally:
            self.drain()

    # -- the shadow check ------------------------------------------------------

    # Report order for a write that follows both an earlier-iteration
    # read and an earlier-iteration write of its word: the anti (R->W)
    # conflict first when true, the output (W->W) one first when false.
    anti_first = True

    def check(self, frame: LoopShadow, addr: int, lanes: int,
              is_write: bool, pc) -> None:
        """Shadow one access (``lanes`` words from ``addr``) in ``frame``.

        Reports each cross-iteration conflict — W->R for a read, R->W
        and W->W for a write — through :meth:`report`.
        """
        if lanes != 1:
            for k in range(lanes):
                self.check(frame, addr + 8 * k, 1, is_write, pc)
            return
        iteration = frame.iteration
        writes = frame.writes
        previous = writes.get(addr)
        if is_write:
            read = frame.reads.get(addr)
            writes[addr] = (iteration, pc)
            if previous is not None and previous[0] == iteration:
                previous = None
            if read is not None and read[0] == iteration:
                read = None
            if previous is None and read is None:
                return
            if self.anti_first:
                pairs = (("R->W", read), ("W->W", previous))
            else:
                pairs = (("W->W", previous), ("R->W", read))
            for kind, earlier in pairs:
                if earlier is not None:
                    self.report(frame, addr, kind, earlier, pc)
        else:
            frame.reads[addr] = (iteration, pc)
            if previous is not None and previous[0] != iteration:
                self.report(frame, addr, "W->R", previous, pc)

    def report(self, frame: LoopShadow, word: int, kind: str,
               earlier: tuple, pc) -> None:
        """One conflict: ``earlier`` is the (iteration, pc) it follows."""
        raise NotImplementedError

    # -- the frame stack ------------------------------------------------------

    def frame_of(self, loop_id: int) -> LoopShadow | None:
        """The innermost active invocation of ``loop_id``."""
        for frame in reversed(self.frames):
            if frame.loop_id == loop_id:
                return frame
        return None

    def pop(self, loop_id: int) -> bool:
        """Leave ``loop_id`` (and every loop opened inside it).

        Exit targets are reachable from outside the loop too: only the
        innermost active occurrence is popped, and nothing when the loop
        is not active.
        """
        frames = self.frames
        for index in range(len(frames) - 1, -1, -1):
            if frames[index].loop_id == loop_id:
                del frames[index:]
                return True
        return False
