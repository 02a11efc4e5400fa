"""Rewrite-rule IDs and the fixed-length rule structure (paper Fig. 3).

Six profiling rules, twelve parallelisation rules, and the vectorisation /
prefetch families (upstream Janus's ``-v`` and ``-f`` modes share this same
schedule interface).  Every rule is a fixed-length record: a 64-bit trigger
address in the original binary, a 16-bit rule ID, and a 64-bit data field
whose meaning is rule-specific — either an immediate (register number, slot
offset, lane count) or an index into the schedule's data pool.

Every ID on disk must be a :class:`RuleID` member: the DBM has a handler
for each member and for nothing else, so an unknown ID is a format error
at read time rather than a crash at rewrite time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum


class RuleID(IntEnum):
    """All Janus rewrite-rule IDs (values are the on-disk encoding)."""

    # -- profiling rules (blue in paper Fig. 3) ---------------------------
    PROF_LOOP_START = 1    # start profiling a loop
    PROF_LOOP_FINISH = 2   # finish profiling a loop
    PROF_LOOP_ITER = 3     # start another loop iteration
    PROF_EXCALL_START = 4  # start profiling an external call within a loop
    PROF_EXCALL_FINISH = 5  # finish profiling an external call
    PROF_MEM_ACCESS = 6    # check a memory access for data dependences

    # -- parallelisation rules (orange in paper Fig. 3) --------------------
    THREAD_SCHEDULE = 10   # schedule threads to jump to a code address
    THREAD_YIELD = 11      # send threads back to the thread pool
    LOOP_INIT = 12         # initialise loop context for each thread
    LOOP_FINISH = 13       # combine loop contexts from all threads
    LOOP_UPDATE_BOUND = 14  # update a loop bound for a thread
    MEM_MAIN_STACK = 15    # redirect a stack access to the main stack
    MEM_PRIVATISE = 16     # redirect a memory access to a private address
    MEM_BOUNDS_CHECK = 17  # bounds-check two array extents before the loop
    MEM_SPILL_REG = 18     # spill a set of registers to private storage
    MEM_RECOVER_REG = 19   # recover a set of registers from private storage
    TX_START = 20          # start a software transaction
    TX_FINISH = 21         # validate and commit a software transaction

    # -- vectorisation rules (upstream -v mode) ----------------------------
    VECT_INIT = 30         # runtime trap: compute packed trip split
    VECT_BOUND = 31        # point the loop compare at the packed bound word
    VECT_CONVERT = 32      # widen one scalar FP op to its packed form
    VECT_INDUCTION_UPDATE = 33  # scale the induction step by the lane count
    VECT_FINISH = 34       # runtime trap: run the scalar epilogue peel

    # -- prefetch rules (upstream -f mode) --------------------------------
    MEM_PREFETCH = 40      # insert a PREFETCH hint ahead of a striding access


PROFILING_RULES = frozenset((
    RuleID.PROF_LOOP_START, RuleID.PROF_LOOP_FINISH, RuleID.PROF_LOOP_ITER,
    RuleID.PROF_EXCALL_START, RuleID.PROF_EXCALL_FINISH,
    RuleID.PROF_MEM_ACCESS,
))

PARALLEL_RULES = frozenset((
    RuleID.THREAD_SCHEDULE, RuleID.THREAD_YIELD, RuleID.LOOP_INIT,
    RuleID.LOOP_FINISH, RuleID.LOOP_UPDATE_BOUND, RuleID.MEM_MAIN_STACK,
    RuleID.MEM_PRIVATISE, RuleID.MEM_BOUNDS_CHECK, RuleID.MEM_SPILL_REG,
    RuleID.MEM_RECOVER_REG, RuleID.TX_START, RuleID.TX_FINISH,
))

VECTOR_RULES = frozenset((
    RuleID.VECT_INIT, RuleID.VECT_BOUND, RuleID.VECT_CONVERT,
    RuleID.VECT_INDUCTION_UPDATE, RuleID.VECT_FINISH,
))

PREFETCH_RULES = frozenset((RuleID.MEM_PREFETCH,))

_RULE_STRUCT = struct.Struct("<QHq")
RULE_SIZE = _RULE_STRUCT.size  # 18 bytes


class ScheduleFormatError(ValueError):
    """Malformed rewrite-rule bytes: wrong size or unknown rule ID."""


@dataclass(frozen=True)
class RewriteRule:
    """One fixed-length rewrite rule."""

    address: int
    rule_id: RuleID
    data: int = 0

    def pack(self) -> bytes:
        return _RULE_STRUCT.pack(self.address, int(self.rule_id), self.data)

    @classmethod
    def unpack(cls, raw: bytes, offset: int = 0) -> "RewriteRule":
        """Decode one record starting at ``offset`` in a larger buffer."""
        if offset < 0:
            raise ScheduleFormatError(f"negative rule offset {offset}")
        if offset + RULE_SIZE > len(raw):
            raise ScheduleFormatError(
                f"truncated rule record: need {RULE_SIZE} bytes at offset "
                f"{offset}, buffer holds {len(raw)}")
        address, rule_id, data = _RULE_STRUCT.unpack_from(raw, offset)
        try:
            rule_id = RuleID(rule_id)
        except ValueError:
            raise ScheduleFormatError(
                f"unknown rule id {rule_id} at offset {offset}") from None
        return cls(address=address, rule_id=rule_id, data=data)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "RewriteRule":
        """Decode exactly one record; rejects truncated AND oversized input."""
        if len(raw) != RULE_SIZE:
            raise ScheduleFormatError(
                f"rule record must be exactly {RULE_SIZE} bytes, "
                f"got {len(raw)}")
        return cls.unpack(raw)

    def __repr__(self) -> str:
        name = getattr(self.rule_id, "name", f"RULE_{int(self.rule_id)}")
        return f"<{name} @{self.address:#x} data={self.data}>"
