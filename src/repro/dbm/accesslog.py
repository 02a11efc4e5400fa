"""The ordered per-run access log that profiling and the DOALL oracle read.

Training and the DOALL oracle watch memory accesses without a Python
call per access: the block runners of a run with an :class:`AccessLog`
attached append ``(key, address)`` entries to one flat list, in program
order (the reference dispatch appends the same entries), and the consumer
(:class:`repro.profiling.shadow.IterationShadowChecker`) drains it at its
own RTCALLs.  Two kinds of entry exist:

* ``(SITE, loop_id, is_write, lanes)`` — a PROF_MEM site: a ``RECORD``
  pseudo-instruction inserted before a profiled access at translation
  time, its operand decoded once into a :class:`RecordSite`.  Sites are
  compiled into every runner variant (fast, recording, superblock), so the
  profiled run stays on the fast tiers.
* ``(ACCESS, pc, is_write, lanes)`` — an application access recorded
  while ``Interpreter.recording`` is set (an external-call window or an
  oracle replay window): every Mem-operand read or write (one entry per
  packed access, at its base address), never the stack words
  PUSH/POP/CALL/RET move.

``address`` is the effective address; a consumer expands ``lanes`` into
the words ``address + 8*k``.  Between two drains neither the consumer's
loop frames nor its windows change (only its RTCALL handlers change
them, and each drains first), so every entry is judged against exactly
the state it was recorded under.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.operands import Mem

SITE = 1
ACCESS = 0


@dataclass(frozen=True)
class RecordSite:
    """A PROF_MEM site decoded at translation: the operand of a ``RECORD``."""

    loop_id: int
    operand: Mem
    is_write: bool
    lanes: int

    @property
    def key(self) -> tuple:
        return (SITE, self.loop_id, self.is_write, self.lanes)


@dataclass(eq=False)
class AccessLog:
    """One run's log, and how its ``RECORD`` sites compile.

    ``site_cycles`` is charged per executed site (the profiler's
    ``prof_event_cycles``); with ``sites`` false a site only charges and
    counts — the oracle ignores PROF_MEM sites and watches every access
    itself.  ``private`` = ``(low, high)`` leaves every access to an
    address in ``(low, high]`` out of the window (the oracle's own stack,
    which each parallel worker would have to itself).  The runners bind
    ``entries.append`` and ``private`` at compile time, so a consumer
    empties ``entries`` in place and never replaces either.
    """

    site_cycles: int = 0
    sites: bool = True
    private: tuple[int, int] | None = None
    entries: list = field(default_factory=list)
