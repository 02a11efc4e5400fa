"""The trace-cache dispatch loop shared by all execution modes.

This is the analogue of DynamoRIO's dispatcher: it hands control to a
block's compiled runner and only regains it at an unlinked transfer, a
halt, or a trace-budget bailout.  A runner may return the *compiled
successor block itself* (a link), in which case the loop re-enters compiled
code immediately — no code-cache lookup.

Fast-path legality is re-checked at every block boundary: the fast variant
runs only while no transaction is open and — in a run with an access log
attached (:mod:`repro.dbm.accesslog`: training and the DOALL oracle) — no
recording window is live.  A live window selects the *recording* variant,
which appends every Mem-operand access to the log and links but never
traces.  Windows open and close only in RTCALL handlers, and in a run with
a log every RTCALL block compiles to a form that re-reads the window state
after each RTCALL, so the accesses after a window-opening RTCALL in the
same block are recorded too.  Outside the windows, profiling runs execute
exactly like plain runs — traces, superblocks and inline ``RECORD`` sites
included; loop coverage is attributed from ``ctx.instructions`` by the
bracket RTCALLs, not here.

When a :class:`~repro.dbm.shadow.ShadowSink` is installed (parallel
workers) the fast tier is replaced wholesale by the *shadow* tier —
``jit_super_shadow``/``jit_shadow`` runners that link, trace and form
superblocks exactly like the fast tier while recording filtered raw
events into the sink.  A block entered with a transaction open (only
parallel workers open one) runs its *dynamic* shadow form from the
``jit_tx`` slot: every access goes through the transaction, nothing is
recorded while it stays open, and accesses after a TX_FINISH in the same
block are recorded again.

Under ``interp.force_reference`` every block runs through the reference
per-instruction dispatch instead, which feeds the same access log and
shadow sink: it is the oracle the compiled tiers are tested against.

On top of the block tier, the dispatcher drives **superblock promotion**
(:mod:`repro.dbm.superblock`): while on the fast path it records each
block's most-recently-taken successor and counts loop-head heat — a
backward transfer, or any entry to a self-loop trace head (whose back
edges spin internally and are invisible here).  When a head crosses
``interp.superblock_threshold`` the superblock former stitches the biased
loop body into one compiled function; from then on the head's
``jit_super`` runner is preferred whenever the fast path is legal.
Superblock side exits, budget bailouts and legality deopts all land back
in this loop at clean block boundaries.
"""

from __future__ import annotations

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
    self-loop trace or superblock bails out at least every
    ``interp.trace_budget`` iterations, bounding the overshoot).  The
    overshoot never crosses an RTCALL, and while a recording window is
    live no block traces, so everything an access-log consumer observes
    stops at the same block boundary as under per-block dispatch.
    """
    from repro.dbm.interp import ExecutionLimitExceeded

    # Only a run with an access log can open a recording window: in a
    # plain run one local flag short-circuits the window test.
    plain = interp.access_log is None
    threshold = interp.superblock_threshold
    counting = interp.superblocks_enabled and threshold > 0
    # Loop-head heat and most-recently-taken successors, both keyed by
    # block start; scoped to this invocation like the code cache itself.
    hot: dict[int, int] = {}
    last_succ: dict[int, int] = {}

    block = lookup(pc, ctx)
    while True:
        if interp.force_reference:
            nxt = interp.execute_block_reference(ctx, block)
            if max_instructions is not None \
                    and ctx.instructions > max_instructions:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_instructions} instructions")
            if nxt is None:
                return
            block = lookup(nxt, ctx)
            continue
        fast = interp.active_tx is None and (plain or not interp.recording)
        sink = interp.shadow_sink
        if fast:
            if sink is None:
                run = block.jit_super
                if run is None:
                    run = block.jit_fast
                    if run is None:
                        run = block.jit_fast = compile_block_fn(
                            block, interp, lookup)
            else:
                run = block.jit_super_shadow
                if run is None:
                    run = block.jit_shadow
                    if run is None:
                        run = block.jit_shadow = compile_block_fn(
                            block, interp, lookup, shadow=True)
        elif interp.active_tx is None:
            # A recording window is live.
            run = block.jit_rec
            if run is None:
                run = block.jit_rec = compile_block_fn(
                    block, interp, lookup, record=True)
        else:
            # A transaction is open at entry (a parallel worker, so a sink
            # is installed).
            run = block.jit_tx
            if run is None:
                run = block.jit_tx = compile_block_fn(
                    block, interp, lookup, tx=True)
        nxt = run(ctx)
        if max_instructions is not None \
                and ctx.instructions > max_instructions:
            raise ExecutionLimitExceeded(
                f"exceeded {max_instructions} instructions")
        if nxt.__class__ is Block:
            if fast and counting:
                start = nxt.start
                last_succ[block.start] = start
                slot = (nxt.jit_super_shadow if sink is not None
                        else nxt.jit_super)
                if slot is None \
                        and (start <= block.start or nxt.is_self_loop):
                    count = hot.get(start, 0) + 1
                    hot[start] = count
                    if count == threshold:
                        formed = maybe_form_superblock(
                            nxt, interp, lookup, ctx, last_succ,
                            shadow=sink is not None)
                        if sink is not None:
                            nxt.jit_super_shadow = formed
                        else:
                            nxt.jit_super = formed
            block = nxt
        elif nxt == -1:
            return
        else:
            if fast and counting:
                last_succ[block.start] = nxt
            block = lookup(nxt, ctx)
