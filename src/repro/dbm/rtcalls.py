"""RTCALL ids: the trap interface between modified code and the runtime.

Rewrite-rule handlers insert ``RTCALL <id>, <arg>`` pseudo-instructions into
code-cache blocks; executing one traps into the registered runtime handler.
This models the dynamically generated handler code of the real Janus (paper
section II-E) without pretending Python closures are machine code.
"""

from __future__ import annotations

from enum import IntEnum


class RTCallID(IntEnum):
    # Parallelisation runtime.
    BOUNDS_CHECK = 1     # arg: bounds-check record index
    LOOP_ENTER = 2       # arg: loop metadata record index
    THREAD_YIELD = 3     # arg: loop metadata record index
    LOOP_FINISH_MARK = 4  # arg: loop metadata record index (bookkeeping)
    TX_START = 5         # arg: loop metadata record index
    TX_FINISH = 6        # arg: loop metadata record index
    # Vectorisation runtime (main thread only; see rewrite/gen_vector.py).
    VECTOR_LOOP_ENTER = 20  # arg: vector metadata record index
    VECTOR_EPILOGUE = 21    # arg: vector metadata record index
    # Profiling runtime.
    PROF_LOOP_START = 10  # arg: loop id
    PROF_LOOP_ITER = 11   # arg: loop id
    PROF_LOOP_FINISH = 12  # arg: loop id
    # (PROF_MEM sites are RECORD pseudo-instructions, not traps.)
    PROF_EXCALL_START = 14  # arg: ExCallDesc record index
    PROF_EXCALL_FINISH = 15  # arg: record index


class WorkerYield(Exception):
    """Raised when a pool thread reaches its THREAD_YIELD point."""


class DependenceViolationError(Exception):
    """A parallel execution exhibited a cross-thread data conflict.

    It aborts the run: it means a loop was selected whose iterations were
    not actually independent — an analysis or selection bug, not a legal
    outcome.
    """
