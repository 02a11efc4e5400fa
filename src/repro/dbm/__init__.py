"""JDBM: the dynamic binary modifier and the Janus parallel runtime.

This package is the reproduction of both DynamoRIO (block discovery, code
caches, translation) and the Janus client inside it (rewrite-rule handlers,
thread pool, parallel loop runtime, runtime checks, JIT STM glue).

Module map:

* :mod:`repro.dbm.memory` — sparse 64-bit word memory with bit-cast helpers.
* :mod:`repro.dbm.machine` — register files, flags, thread contexts.
* :mod:`repro.dbm.interp` — instruction semantics + cycle accounting (the
  reference per-instruction dispatch the compiled tiers are tested against).
* :mod:`repro.dbm.blocks` — basic-block containers and block decoding.
* :mod:`repro.dbm.editor` — the block editor rewrite-rule handlers use.
* :mod:`repro.dbm.modifier` — ``JanusDBM`` (per-thread code caches, block
  translation, rewrite-rule application) and ``run_under_dbm``.
* :mod:`repro.dbm.handlers` — one handler per rewrite-rule ID (paper Fig. 3).
* :mod:`repro.dbm.rtcalls` — RTCALL ids between modified code and runtime.
* :mod:`repro.dbm.tracecache` — the dispatch loop shared by every mode.
* :mod:`repro.dbm.jit` — block runners (one fast and one shadow runner
  per block) and the per-image translation memo.
* :mod:`repro.dbm.superblock` — hot multi-block loop bodies as one runner.
* :mod:`repro.dbm.accesslog` — the per-run access log profiling reads.
* :mod:`repro.dbm.shadow` — per-worker shadow-memory events and views.
* :mod:`repro.dbm.runtime` — parallel loop execution (paper section II-E).
* :mod:`repro.dbm.checks` — runtime array-base bounds checks (II-E1).
* :mod:`repro.dbm.executor` — ``run_native`` and ``ExecutionResult``.
"""

from repro.dbm.memory import Memory, f64_to_i64, i64_to_f64, s64
from repro.dbm.machine import Machine, ThreadContext
from repro.dbm.executor import ExecutionResult, run_native
from repro.dbm.modifier import JanusDBM, run_under_dbm
from repro.dbm.runtime import ParallelRuntime

__all__ = [
    "Memory",
    "f64_to_i64",
    "i64_to_f64",
    "s64",
    "Machine",
    "ThreadContext",
    "ExecutionResult",
    "run_native",
    "JanusDBM",
    "run_under_dbm",
    "ParallelRuntime",
]
