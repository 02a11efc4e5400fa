"""The trace-cache dispatch loop shared by all execution modes.

This is the analogue of DynamoRIO's dispatcher: it hands control to a
block's compiled runner and only regains it at an unlinked transfer, a
halt, or a superblock exit.  A runner may return the *compiled
successor block itself* (a link), in which case the loop re-enters compiled
code immediately — no code-cache lookup.

A code cache serves one tier, so each block has one runner slot: the
main thread's cache holds *fast* runners; a parallel worker's cache
(thread ids >= 1), which only runs while the worker's
:class:`~repro.dbm.shadow.ShadowSink` is installed, holds *shadow*
runners, which link like fast ones while recording filtered raw events
into the sink (:mod:`repro.dbm.jit`); shadow superblocks form exactly
like fast ones.  The dispatcher reads which tier it compiles for once
per call.  A block's runner is compiled only when the block is entered a
second time: the first entry runs through the reference dispatch
(``Interpreter.execute_block_reference`` with this loop's ``lookup``),
which returns the successor exactly as the runner would — a linked
``Block``, an ``int`` after an RTCALL redirect, ``-1`` on halt — and
records the same access-log entries and shadow events, so heat counting,
superblock formation and the recorded footprints cannot tell the two
apart.  Many blocks run once, and they are never compiled.  Under
``interp.force_reference`` every entry takes that path: nothing is
compiled and no heat is counted, which makes the run the oracle the
compiled tiers are tested against.

Neither runner needs the dispatcher to know about
recording windows or transactions: in a run with an access log attached
(:mod:`repro.dbm.accesslog`: training and the DOALL oracle) the fast
runner re-reads the window state at entry and after each RTCALL, the
only instruction whose handler opens or closes a window, and the shadow
runner does the same with the open transaction (only parallel workers
open one).  Outside the windows, profiling runs execute exactly like
plain runs — superblocks, inline ``RECORD`` sites and the profiler's
inline loop-iteration brackets included; loop coverage is attributed
from ``ctx.instructions`` by the bracket RTCALLs, not here.

On top of the block tier, the dispatcher drives **superblock promotion**
(:mod:`repro.dbm.superblock`).  The fast path, the only place
superblocks run, is legal while no transaction is open and no recording
window is live, and is re-checked at every block boundary.  On it the
dispatcher records each block's most-recently-taken successor and
counts loop-head heat on backward transfers (a self-loop's back edge is
one, so a single long invocation of a one-block loop is promoted too).
When a head crosses ``interp.superblock_threshold`` the superblock
former stitches the biased loop body into one compiled function; from
then on the head's ``jit_super`` runner is preferred whenever the fast
path is legal.  Nothing a superblock runs can open a transaction or a
window, so the test is made only here, at entry; superblock side exits
and budget bailouts land back in this loop at clean block boundaries.
"""

from __future__ import annotations

from functools import partial

from repro.dbm.blocks import Block
from repro.dbm.jit import compile_block_fn
from repro.dbm.superblock import maybe_form_superblock


def run_loop(interp, ctx, pc: int, lookup,
             max_instructions: int | None = None) -> None:
    """Run from ``pc`` until the program halts.

    ``lookup(pc, ctx) -> Block`` is the caller's code-cache lookup
    (translating on miss); it must stay stable for the life of the blocks
    it returns, because compiled runners capture it in their link slots.

    Raises :class:`~repro.dbm.interp.ExecutionLimitExceeded` when
    ``max_instructions`` is crossed (checked at block boundaries; a
    superblock bails out at least every ``interp.trace_budget``
    iterations, bounding the overshoot).  The overshoot never crosses an
    RTCALL other than an inline one (a profiler's loop-iteration bracket;
    a profiling run that hits its limit raises and returns no profile),
    and while a recording window is live no superblock runs, so
    everything the DOALL oracle observes stops at the same block
    boundary as under per-block dispatch.
    """
    from repro.dbm.interp import ExecutionLimitExceeded

    # Only a run with an access log can open a recording window: in a
    # plain run one local flag short-circuits the window test.
    plain = interp.access_log is None
    # Only a parallel worker installs a sink, and only around its own
    # code cache: the whole call compiles for one tier.
    shadow = interp.shadow_sink is not None
    reference = interp.force_reference
    threshold = interp.superblock_threshold
    counting = threshold > 0 and not reference
    # Loop-head heat and most-recently-taken successors, both keyed by
    # block start; scoped to this invocation like the code cache itself.
    hot: dict[int, int] = {}
    last_succ: dict[int, int] = {}

    block = lookup(pc, ctx)
    while True:
        # Superblocks run only where the fast path is legal: no open
        # transaction and no live recording window.
        fast = interp.active_tx is None and (plain or not interp.recording)
        run = block.jit_super if fast else None
        if run is None:
            run = block.jit
            if run is None:
                if block.entered and not reference:
                    run = block.jit = compile_block_fn(
                        block, interp, lookup, shadow=shadow)
                else:
                    # First entry: most blocks run once, so only a
                    # re-entered block is compiled.
                    block.entered = True
                    run = partial(interp.execute_block_reference,
                                  block=block, lookup=lookup)
        nxt = run(ctx)
        if max_instructions is not None \
                and ctx.instructions > max_instructions:
            raise ExecutionLimitExceeded(
                f"exceeded {max_instructions} instructions")
        if nxt.__class__ is Block:
            if fast and counting:
                start = nxt.start
                last_succ[block.start] = start
                if nxt.jit_super is None and start <= block.start:
                    count = hot.get(start, 0) + 1
                    hot[start] = count
                    if count == threshold:
                        nxt.jit_super = maybe_form_superblock(
                            nxt, interp, lookup, ctx, last_succ,
                            shadow=shadow)
            block = nxt
        elif nxt == -1:
            return
        else:
            if fast and counting:
                last_succ[block.start] = nxt
            block = lookup(nxt, ctx)
