"""The Janus parallel runtime: thread pool and parallel loop execution
(paper section II-E).

When the main thread executes the ``LOOP_INIT`` trap at a selected loop's
preheader, the runtime

1. evaluates any pending array-base bounds checks (section II-E1) — on
   failure the loop falls back to sequential execution in the main thread's
   (unmodified) code cache;
2. reads the iterator's init value and the loop bound from the live
   context, computes the concrete iteration count, and splits it into
   contiguous per-thread chunks (the paper's default scheduling policy);
3. builds one pool-thread context per non-empty chunk: registers copied
   from main, a private stack with the written slots copied in, TLS
   populated (main rsp, chunk bound, privatised words), the iterator and
   every derived induction variable set to their chunk-start values, and
   reduction registers reset to the identity;
4. executes the threads in commit order through their private code caches
   (worker-specialised rewrite rules apply: patched bounds, privatised
   operands, main-stack redirection, STM around dynamically discovered
   code);
5. detects cross-thread conflicts on the shadow access maps — a conflict
   outside the STM means an unsound parallelisation and raises
   :class:`DependenceViolationError`; STM conflicts with later threads are
   modelled as abort + retry;
6. merges: last thread's registers and written slots become the main
   context, reductions combine associatively, privatised words write back,
   and the loop's elapsed time is the slowest thread plus init/finish
   overheads.

Timing: per-thread cycle counters start at zero for the invocation; the
invocation's wall-cycles are ``max`` over threads, charged to the main
thread's clock along with the modelled overheads (DESIGN.md section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.induction import (
    chunk_bounds,
    loop_iterations,
    patched_bound,
    round_robin_bounds,
    vector_trip_split,
)
from repro.dbm.blocks import discover_block
from repro.dbm.checks import evaluate_bounds_check, make_read_var
from repro.dbm.machine import ThreadContext
from repro.dbm.memory import f64_to_i64, i64_to_f64, s64
from repro.dbm.rtcalls import DependenceViolationError, RTCallID, WorkerYield
from repro.dbm.shadow import ShadowSink, StrideDescriptor, intervals_overlap
from repro.dbm.tracecache import run_loop
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import SCRATCH_REG, STACK_REG, TLS_REG, XMM_BASE
from repro.jbin import layout
from repro.jbin.layout import TLS_BOUND_SLOT, TLS_MAIN_RSP_SLOT, WORD
from repro.rewrite.metadata import (
    LoopMeta,
    VectorMeta,
    decode_operand,
    decode_payloads,
    decode_var,
    evaluate_runtime_poly,
)
from repro.rewrite.rules import RuleID
from repro.rewrite.schedule import RewriteSchedule
from repro.stm.stm import STMManager, STMStats
from repro.telemetry.core import get_recorder


# Refuse to parallelise invocations with fewer iterations than this:
# thread dispatch would dominate (the runtime's only greedy heuristic).
MIN_PARALLEL_ITERATIONS = 2


class RuntimeError_(Exception):
    """An internal Janus runtime error (bad metadata, worker misbehaviour)."""


def _cond_holds(left: int, right: int, cond: str) -> bool:
    if cond == "l":
        return left < right
    if cond == "le":
        return left <= right
    if cond == "g":
        return left > right
    if cond == "ge":
        return left >= right
    return left != right  # "ne"


@dataclass
class WorkerState:
    """One pool thread executing one chunk of one loop invocation."""

    thread_id: int
    ctx: ThreadContext
    # Ordered (start, end) iteration blocks this thread executes: a single
    # chunk under the default policy, several under round-robin.
    chunks: list
    meta: LoopMeta
    # The persistent per-thread shadow sink: this invocation's raw
    # events and stride descriptors outside transactions.
    sink: ShadowSink
    # (read set, write set) per finished transaction.  The STM validated
    # these words, so conflict detection subtracts them.
    tx_log: list = field(default_factory=list)


class ParallelRuntime:
    """Owns the thread pool and implements the parallel rtcalls."""

    def __init__(self, dbm) -> None:
        self.dbm = dbm
        # stm.* counters share the DBM's metric registry, so one
        # execution's jit.*/runtime.*/stm.* live side by side.
        self.stm = STMManager(memory=dbm.machine.memory, cost=dbm.cost,
                              stats=STMStats(dbm.registry))
        self.pool_started = False
        self.pending_checks: list[int] = []
        self.active_workers: list[WorkerState] = []
        self._current_worker: WorkerState | None = None
        # The payloads the traps read, decoded once per pool index (an
        # rtcall's argument is the index its rule carried).
        schedule = dbm.schedule or RewriteSchedule()
        self._loop_metas: dict[int, LoopMeta] = decode_payloads(
            schedule, RuleID.LOOP_INIT)
        self._bounds_checks = decode_payloads(schedule,
                                              RuleID.MEM_BOUNDS_CHECK)
        self._vector_metas: dict[int, VectorMeta] = decode_payloads(
            schedule, RuleID.VECT_INIT, RuleID.VECT_FINISH)
        # Shadow tracking: persistent per-thread event sinks (the
        # generated runners bind their list-append methods at compile
        # time, so one sink serves every invocation on that thread) and
        # the affine access sites summarisable per loop.  The flat set of
        # all summarised addresses parameterises shadow codegen via
        # ``interp.shadow_summarised``.
        self._sinks: dict[int, ShadowSink] = {}
        self._affine_by_loop: dict[int, list] = {
            meta.loop_id: meta.affine_accesses
            for meta in self._loop_metas.values() if meta.affine_accesses}
        dbm.interp.shadow_summarised = frozenset(
            access.address for accesses in self._affine_by_loop.values()
            for access in accesses)
        dbm.register_rtcall(RTCallID.BOUNDS_CHECK, self._rt_bounds_check)
        dbm.register_rtcall(RTCallID.LOOP_ENTER, self._rt_loop_enter)
        dbm.register_rtcall(RTCallID.THREAD_YIELD, self._rt_thread_yield)
        dbm.register_rtcall(RTCallID.LOOP_FINISH_MARK, self._rt_finish_mark)
        dbm.register_rtcall(RTCallID.TX_START, self._rt_tx_start)
        dbm.register_rtcall(RTCallID.TX_FINISH, self._rt_tx_finish)
        dbm.register_rtcall(RTCallID.VECTOR_LOOP_ENTER,
                            self._rt_vector_enter)
        dbm.register_rtcall(RTCallID.VECTOR_EPILOGUE,
                            self._rt_vector_epilogue)
        # Vector-mode state: per-loop pending epilogue peels and a cache
        # of *unmodified* blocks used to interpret original scalar code.
        self._vector_pending: dict[int, tuple] = {}
        self._plain_blocks: dict = {}
        dbm.runtime = self

    def _worker_lookup(self, pc: int, ctx):
        """Stable code-cache lookup for worker dispatch loops.

        Reads ``_current_worker`` dynamically so one bound method serves
        every worker run (compiled link slots capture it once per block);
        ``ctx.thread_id`` routes to the right per-thread cache.
        """
        return self.dbm.get_block(pc, ctx, worker=self._current_worker)

    # -- small rtcalls -----------------------------------------------------

    def _rt_bounds_check(self, ctx, arg):
        self.pending_checks.append(arg)
        return None

    def _rt_thread_yield(self, ctx, arg):
        raise WorkerYield()

    def _rt_finish_mark(self, ctx, arg):
        self.dbm.stats.loop_finish_marks += 1
        return None

    def _rt_tx_start(self, ctx, arg):
        worker = self._current_worker
        if worker is None:
            return None  # main thread never speculates
        self.dbm.interp.active_tx = self.stm.begin(worker.thread_id)
        return None

    def _rt_tx_finish(self, ctx, arg):
        worker = self._current_worker
        tx = self.dbm.interp.active_tx
        if worker is None or tx is None:
            return None
        self.dbm.interp.active_tx = None
        before = ctx.cycles
        self.stm.finish(tx, ctx)
        self.dbm.stats.stm_cycles += ctx.cycles - before
        worker.tx_log.append((set(tx.read_log), set(tx.write_buffer)))
        return None

    # -- vectorisation rtcalls ---------------------------------------------

    def _rt_vector_enter(self, ctx, arg):
        meta = self._vector_metas[arg]
        with get_recorder().span("runtime.vector_loop", cat="runtime",
                                 loop=meta.loop_id) as span:
            return self._vector_enter(ctx, meta, span)

    def _vector_enter(self, ctx, meta: VectorMeta, span):
        """Split the trip count and arm the packed loop body.

        The split always peels at least one scalar iteration (see
        :func:`repro.analysis.induction.vector_trip_split`): the loop's
        final compare/branch then executes in original code against the
        original bound, so the post-loop architectural state is
        bit-identical to a scalar run.
        """
        rsp0 = ctx.gregs[STACK_REG] - meta.delta_header
        init = self._read_iterator(ctx, meta, rsp0)
        bound = self._read_bound(ctx, meta, rsp0)
        # Bottom-test loops run at least once even when the condition
        # fails up front; loop_iterations models exactly that.
        trips = loop_iterations(init, bound, meta.step, meta.cond,
                                meta.test_offset, meta.test_position)
        packed, remainder = vector_trip_split(trips, meta.lanes)
        if packed == 0:
            # Too few iterations for one packed pass: run the loop in
            # its original scalar form and skip the rewritten body.
            self.dbm.registry.inc("runtime.vector.scalar_fallbacks")
            span.set(packed=0, trips=trips)
            self._interpret_original(ctx, meta.header_addr,
                                     meta.exit_target)
            return meta.exit_target
        scratch = layout.vector_scratch_address(meta.ordinal)
        bound_value = patched_bound(init, packed, meta.step * meta.lanes,
                                    meta.cond,
                                    meta.test_offset * meta.lanes,
                                    meta.test_position)
        self.dbm.machine.memory.write(scratch, s64(bound_value))
        # Snapshot every xmm high lane (packed ops dirty them), then
        # broadcast the loop-invariant registers across the lanes.
        saved_fregs = list(ctx.fregs)
        for reg in meta.broadcast_regs:
            base = (reg - XMM_BASE) * 4
            for lane in range(1, meta.lanes):
                ctx.fregs[base + lane] = ctx.fregs[base]
        self._vector_pending[meta.loop_id] = (remainder, saved_fregs)
        self.dbm.registry.inc("runtime.vector.packed_invocations")
        span.set(packed=packed, remainder=remainder, trips=trips,
                 lanes=meta.lanes)
        return None

    def _rt_vector_epilogue(self, ctx, arg):
        meta = self._vector_metas[arg]
        pending = self._vector_pending.pop(meta.loop_id, None)
        if pending is None:
            # Reached without an armed packed pass (scalar fallback, or
            # ordinary control flow into the exit block): nothing to peel.
            return None
        remainder, saved_fregs = pending
        # The iterator sits exactly packed*lanes steps in; the original
        # code's compare reads the original bound, so interpreting from
        # the header runs precisely the ``remainder`` peeled iterations.
        self._interpret_original(ctx, meta.header_addr, meta.exit_target)
        # Scalar code never reads or writes xmm lanes 1..3: restore the
        # pre-loop values so packed execution stays invisible.
        for base in range(0, len(saved_fregs), 4):
            ctx.fregs[base + 1:base + 4] = saved_fregs[base + 1:base + 4]
        self.dbm.registry.inc("runtime.vector.epilogue_peels", remainder)
        return None

    def _interpret_original(self, ctx, start_pc: int, stop_pc: int) -> None:
        """Execute *unmodified* image code from start_pc up to stop_pc.

        Used by the vector runtime for the scalar epilogue peel and the
        too-few-iterations fallback.  Original code contains no RTCALLs,
        so this can never re-enter the runtime.
        """
        interp = self.dbm.interp
        pc = start_pc
        while pc != stop_pc:
            block = self._plain_blocks.get(pc)
            if block is None:
                block = discover_block(self.dbm.process, pc)
                self._plain_blocks[pc] = block
            nxt = interp.execute_block_reference(ctx, block)
            if nxt is None:
                raise RuntimeError_(
                    f"original-code interpretation halted at {pc:#x}")
            pc = nxt

    # -- the main event ------------------------------------------------------

    def _rt_loop_enter(self, ctx, arg):
        meta = self._loop_metas[arg]
        with get_recorder().span("runtime.loop", cat="runtime",
                                 loop=meta.loop_id) as span:
            return self._loop_enter(ctx, meta, span)

    def _loop_enter(self, ctx, meta, span):
        checks = self.pending_checks
        self.pending_checks = []

        rsp0 = ctx.gregs[STACK_REG] - meta.delta_header
        read_var = make_read_var(ctx, self.dbm.machine.memory, rsp0)
        init = self._read_iterator(ctx, meta, rsp0)
        bound = self._read_bound(ctx, meta, rsp0)
        # The LOOP_INIT trap sits before the preheader's guard branch: a
        # not-taken guard (zero-trip loop) must fall through sequentially.
        if not _cond_holds(init, bound, meta.cond):
            self.dbm.stats.loop_invocations_sequential += 1
            span.set(parallel=False, reason="zero_trip")
            return None
        trips = loop_iterations(init, bound, meta.step, meta.cond,
                                meta.test_offset, meta.test_position)

        if not self._checks_pass(checks, read_var, init, trips, meta, ctx):
            self.dbm.stats.loop_invocations_sequential += 1
            span.set(parallel=False, reason="bounds_check_failed")
            return None
        if trips < max(MIN_PARALLEL_ITERATIONS, 2):
            self.dbm.stats.loop_invocations_sequential += 1
            span.set(parallel=False, reason="too_few_iterations",
                     trips=trips)
            return None

        cost = self.dbm.cost
        if not self.pool_started:
            self.pool_started = True
            ctx.cycles += cost.thread_pool_startup_cycles
            self.dbm.stats.init_finish_cycles += \
                cost.thread_pool_startup_cycles

        workers = self._spawn_workers(ctx, meta, init, trips, rsp0)
        self.active_workers = workers
        start_pc = self._thread_start_pc(meta)
        # Base values of the derived induction variables at loop entry
        # (needed to point each chunk at its starting values).
        memory = self.dbm.machine.memory
        iv_bases = {}
        for derived in meta.derived_ivs:
            var = decode_var(derived.var)
            iv_bases[repr(var)] = self._get_var(ctx, memory, rsp0, var)
        # Affine base addresses are loop-invariant: evaluate each
        # summarised site's base once per invocation against the entry
        # context; chunk setup then derives descriptors in O(1).
        affine_bases = []
        for desc in self._affine_by_loop.get(meta.loop_id, ()):
            affine_bases.append((desc, evaluate_runtime_poly(
                desc.base_form, read_var, memory.read)))
        for worker in workers:
            self._run_worker(worker, start_pc, meta, init, iv_bases,
                             affine_bases)

        self._check_conflicts(workers)
        self._charge_false_sharing(workers)

        ctx.instructions += sum(w.ctx.instructions for w in workers)
        elapsed = max(worker.ctx.cycles for worker in workers)
        overhead = (cost.loop_init_cycles + cost.loop_finish_cycles
                    + len(workers) * (cost.loop_init_per_thread_cycles
                                      + cost.loop_finish_per_thread_cycles))
        ctx.cycles += elapsed + overhead
        self.dbm.stats.parallel_cycles += elapsed
        self.dbm.stats.init_finish_cycles += overhead
        self.dbm.stats.loop_invocations_parallel += 1
        span.set(parallel=True, trips=trips, workers=len(workers),
                 elapsed_cycles=elapsed, overhead_cycles=overhead)

        self._merge(ctx, meta, workers, rsp0)
        self.active_workers = []
        return meta.exit_target

    # -- pieces ------------------------------------------------------------------

    def _checks_pass(self, checks, read_var, init, trips, meta, ctx) -> bool:
        if not checks:
            return True
        cost = self.dbm.cost
        theta_first = init
        theta_last = init + meta.step * max(trips - 1, 0)
        for index in checks:
            desc = self._bounds_checks[index]
            ctx.cycles += cost.bounds_check_pair_cycles
            self.dbm.stats.check_cycles += cost.bounds_check_pair_cycles
            if not evaluate_bounds_check(desc, read_var, theta_first,
                                         theta_last,
                                         self.dbm.machine.memory.read):
                self.dbm.stats.checks_failed += 1
                return False
        self.dbm.stats.checks_passed += len(checks)
        return True

    def _read_iterator(self, ctx, meta: LoopMeta, rsp0: int) -> int:
        var = decode_var(meta.iterator_var)
        if isinstance(var, int):
            return ctx.gregs[var]
        return self.dbm.machine.memory.read(rsp0 + var[1])

    def _read_bound(self, ctx, meta: LoopMeta, rsp0: int) -> int:
        kind = meta.bound_form[0]
        if kind == "imm":
            return meta.bound_form[1]
        if kind == "poly":
            read_var = make_read_var(ctx, self.dbm.machine.memory, rsp0)
            return evaluate_runtime_poly(meta.bound_form[1], read_var,
                                         self.dbm.machine.memory.read)
        operand = decode_operand(tuple(meta.bound_form[1]))
        if isinstance(operand, Imm):
            return operand.value
        if isinstance(operand, Reg):
            return ctx.gregs[operand.id]
        return self.dbm.machine.memory.read(self.dbm.interp.ea(ctx, operand))

    def _thread_start_pc(self, meta: LoopMeta) -> int:
        for rule in self.dbm.schedule.rules_of_kind(RuleID.THREAD_SCHEDULE):
            if rule.address == meta.header_addr:
                return rule.address
        return meta.header_addr

    def _chunk_assignments(self, trips: int) -> list[list[tuple[int, int]]]:
        """Iteration blocks per thread under the configured policy."""
        if self.dbm.scheduling == "round_robin":
            return round_robin_bounds(trips, self.dbm.n_threads,
                                      self.dbm.rr_block)
        return [[chunk] for chunk in chunk_bounds(trips, self.dbm.n_threads)]

    def _spawn_workers(self, ctx, meta: LoopMeta, init: int, trips: int,
                       rsp0: int) -> list[WorkerState]:
        memory = self.dbm.machine.memory
        assignments = self._chunk_assignments(trips)
        workers: list[WorkerState] = []
        main_rsp = ctx.gregs[STACK_REG]

        for index, blocks in enumerate(assignments):
            blocks = [(s, e) for s, e in blocks if e > s]
            if not blocks:
                continue
            thread_id = index + 1
            wctx = ThreadContext(thread_id=thread_id)
            wctx.copy_registers_from(ctx)
            wctx.cycles = 0
            wctx.instructions = 0
            wctx.install_tls()
            # Private stack at the same depth as the main thread's.
            depth = layout.STACK_TOP - main_rsp
            wctx.gregs[STACK_REG] = wctx.stack_top - depth
            worker_rsp0 = wctx.gregs[STACK_REG] - meta.delta_header
            for slot in meta.written_slots:
                memory.write(worker_rsp0 + slot, memory.read(rsp0 + slot))

            for red in meta.reductions:
                var = decode_var(red.var)
                if red.is_float and isinstance(var, int):
                    wctx.fregs[(var - XMM_BASE) * 4] = 0.0
                else:
                    # Integer identity, and also the float identity for
                    # spilled accumulators: zero bits are 0.0.
                    self._set_var(wctx, memory, worker_rsp0, var, 0)

            tls = wctx.tls_base
            memory.write(tls + WORD * TLS_MAIN_RSP_SLOT, main_rsp)
            read_var = make_read_var(ctx, memory, rsp0)
            for group in meta.priv_groups:
                addr = evaluate_runtime_poly(group.address_form, read_var,
                                             memory.read)
                slot_addr = tls + WORD * group.tls_slot
                if group.kind == "reduce":
                    memory.write(slot_addr, 0)  # identity (0 == 0.0 bits)
                else:
                    memory.write(slot_addr, memory.read(addr))
            sink = self._sinks.get(thread_id)
            if sink is None:
                sink = self._sinks[thread_id] = ShadowSink(
                    thread_id=thread_id,
                    tls_lo=wctx.tls_base,
                    tls_hi=wctx.tls_base + layout.TLS_THREAD_SIZE,
                    stack_lo=wctx.stack_top - layout.THREAD_STACK_SIZE,
                    stack_hi=wctx.stack_top, registry=self.dbm.registry)
            workers.append(WorkerState(thread_id=thread_id, ctx=wctx,
                                       chunks=blocks, meta=meta, sink=sink))
        return workers

    def _prepare_chunk(self, worker: WorkerState, meta: LoopMeta,
                       init: int, iv_bases: dict, start: int,
                       end: int) -> None:
        """Point the worker at one iteration block: iterator, derived
        induction variables, and its TLS bound slot."""
        memory = self.dbm.machine.memory
        wctx = worker.ctx
        worker_rsp0 = wctx.gregs[STACK_REG] - meta.delta_header
        chunk_init = init + meta.step * start
        bound_value = patched_bound(chunk_init, end - start, meta.step,
                                    meta.cond, meta.test_offset,
                                    meta.test_position)
        self._set_var(wctx, memory, worker_rsp0,
                      decode_var(meta.iterator_var), chunk_init)
        for derived in meta.derived_ivs:
            var = decode_var(derived.var)
            self._set_var(wctx, memory, worker_rsp0, var,
                          iv_bases[repr(var)] + derived.step * start)
        memory.write(wctx.tls_base + WORD * TLS_BOUND_SLOT, bound_value)

    @staticmethod
    def _get_var(ctx, memory, rsp0, var) -> int:
        if isinstance(var, int):
            if var >= XMM_BASE:
                return f64_to_i64(ctx.fregs[(var - XMM_BASE) * 4])
            return ctx.gregs[var]
        return memory.read(rsp0 + var[1])

    @staticmethod
    def _set_var(ctx, memory, rsp0, var, value: int) -> None:
        if isinstance(var, int):
            if var >= XMM_BASE:
                ctx.fregs[(var - XMM_BASE) * 4] = i64_to_f64(value)
            else:
                ctx.gregs[var] = s64(value)
        else:
            memory.write(rsp0 + var[1], s64(value))

    def _run_worker(self, worker: WorkerState, start_pc: int,
                    meta: LoopMeta, init: int, iv_bases: dict,
                    affine_bases: list) -> None:
        interp = self.dbm.interp
        self._current_worker = worker
        # The dispatcher sees the sink and compiles the worker's cache
        # for the shadow tier; first entries record through the
        # reference dispatch.
        worker.sink.clear()
        interp.shadow_sink = worker.sink
        with get_recorder().span("runtime.worker", cat="runtime",
                                 loop=meta.loop_id,
                                 thread=worker.thread_id,
                                 chunks=len(worker.chunks)) as span:
            try:
                for start, end in worker.chunks:
                    self._prepare_chunk(worker, meta, init, iv_bases,
                                        start, end)
                    if affine_bases:
                        self._record_descriptors(worker, meta, init,
                                                 affine_bases, start, end)
                    try:
                        run_loop(interp, worker.ctx, start_pc,
                                 self._worker_lookup)
                        # run_loop only returns on halt, which a pool
                        # thread must never do.
                        raise RuntimeError_(
                            f"pool thread {worker.thread_id} halted "
                            f"inside loop {worker.meta.loop_id}")
                    except WorkerYield:
                        pass
            finally:
                span.set(cycles=worker.ctx.cycles,
                         instructions=worker.ctx.instructions)
                interp.shadow_sink = None
                self._current_worker = None
                if interp.active_tx is not None:
                    # A transaction left open (e.g. worker error): drop it.
                    interp.active_tx = None
        self.dbm.registry.inc("runtime.shadow.events",
                              worker.sink.event_count())

    def _record_descriptors(self, worker: WorkerState, meta: LoopMeta,
                            init: int, affine_bases: list, start: int,
                            end: int) -> None:
        """Materialise one stride descriptor per summarised site for this
        chunk — or, when the access progression strays into the worker's
        own stack/TLS region, fall back to expanding it arithmetically
        into filtered raw events (the descriptor form has no per-address
        filter, so summaries must be provably outside the private
        regions)."""
        sink = worker.sink
        registry = self.dbm.registry
        for desc, base_val in affine_bases:
            first = base_val + desc.theta_coeff * (init + meta.step * start)
            stride = desc.theta_coeff * meta.step
            trips = (end - start) + (1 if desc.header_extra else 0)
            d = StrideDescriptor(first, stride, trips, desc.lanes,
                                 desc.is_write)
            lo, hi = d.interval()
            own_stack = lo <= sink.stack_hi and hi > sink.stack_lo
            own_tls = lo < sink.tls_hi and hi >= sink.tls_lo
            if own_stack or own_tls:
                registry.inc("runtime.shadow.descriptor_fallbacks")
                addr = first
                for _ in range(trips):
                    sink.record(addr, desc.is_write, desc.lanes)
                    addr += stride
            else:
                sink.descriptors.append(d)
                registry.inc("runtime.shadow.summarised")

    def _check_conflicts(self, workers: list[WorkerState]) -> None:
        """One pass over the invocation's shadow footprints.

        In commit order, each worker's finished transactions are checked
        against the younger workers' writes: one that read a word a
        younger thread wrote is charged an abort and retry (section
        II-E3).  Then each younger worker is checked against it.  Merged
        extents that cannot intersect dismiss a transaction or a pair
        without expanding any descriptor; otherwise the exact sets
        decide, so the verdict (and the reported address) is what exact
        per-access recording would give.  Words a finished transaction
        read or wrote were validated by the STM and are not violations.
        """
        reads = [w.sink.intervals(False) for w in workers]
        writes = [w.sink.intervals(True) for w in workers]
        for i, a in enumerate(workers):
            younger = range(i + 1, len(workers))
            if a.tx_log:
                younger_tx_writes: set[int] = set()
                for j in younger:
                    for _tx_reads, tx_writes in workers[j].tx_log:
                        younger_tx_writes |= tx_writes
                for tx_reads, tx_writes in a.tx_log:
                    if not tx_reads:
                        continue
                    extent = [(min(tx_reads), max(tx_reads))]
                    if not tx_reads.isdisjoint(younger_tx_writes) or any(
                            intervals_overlap(extent, writes[j])
                            and not tx_reads.isdisjoint(
                                workers[j].sink.exact(True))
                            for j in younger):
                        penalty = self.stm.abort(
                            a.thread_id, len(tx_reads), len(tx_writes),
                            late_conflict=True)
                        a.ctx.cycles += penalty
                        self.dbm.stats.stm_cycles += penalty
            for j in younger:
                if not (intervals_overlap(writes[i], writes[j])
                        or intervals_overlap(writes[i], reads[j])
                        or intervals_overlap(reads[i], writes[j])):
                    continue
                b = workers[j]
                a_writes, a_reads = a.sink.exact(True), a.sink.exact(False)
                b_writes, b_reads = b.sink.exact(True), b.sink.exact(False)
                conflict = ((a_writes & (b_reads | b_writes))
                            | (a_reads & b_writes))
                for tx in a.tx_log + b.tx_log:
                    conflict.difference_update(*tx)
                if conflict:
                    raise DependenceViolationError(
                        f"cross-thread conflict on {min(conflict):#x} "
                        f"between threads {a.thread_id} and {b.thread_id} "
                        f"in loop {a.meta.loop_id}")

    def _charge_false_sharing(self, workers: list[WorkerState]) -> None:
        if len(workers) < 2:
            return
        cost = self.dbm.cost
        line_counts = {w.thread_id: w.sink.line_counts()
                       for w in workers}
        touched: dict[int, int] = {}
        for counts in line_counts.values():
            for line in counts:
                touched[line] = touched.get(line, 0) + 1
        contested = {line for line, count in touched.items() if count > 1}
        if not contested:
            return
        for worker in workers:
            counts = line_counts[worker.thread_id]
            penalty = sum(count for line, count in counts.items()
                          if line in contested) * cost.false_sharing_cycles
            worker.ctx.cycles += penalty
            self.dbm.stats.false_sharing_cycles += penalty

    def _merge(self, ctx, meta: LoopMeta, workers: list[WorkerState],
               rsp0: int) -> None:
        memory = self.dbm.machine.memory
        # The worker owning the globally final iteration provides the
        # post-loop architectural state (under round-robin that is not
        # necessarily the last-spawned worker).
        last = max(workers, key=lambda w: w.chunks[-1][1])
        read_var = make_read_var(ctx, memory, rsp0)
        # Capture reduction initial values before the register adoption.
        reduction_inits = []
        for red in meta.reductions:
            var = decode_var(red.var)
            reduction_inits.append(self._get_var(ctx, memory, rsp0, var))

        # Privatised words write back *before* register adoption so address
        # polynomials still evaluate against the pre-loop context.
        for group in meta.priv_groups:
            addr = evaluate_runtime_poly(group.address_form, read_var,
                                         memory.read)
            if group.kind == "reduce":
                if group.is_float:
                    total = memory.read_f64(addr)
                    for worker in workers:
                        total += memory.read_f64(
                            worker.ctx.tls_base + WORD * group.tls_slot)
                    memory.write_f64(addr, total)
                else:
                    total = memory.read(addr)
                    for worker in workers:
                        total += memory.read(
                            worker.ctx.tls_base + WORD * group.tls_slot)
                    memory.write(addr, s64(total))
            else:
                memory.write(addr, memory.read(
                    last.ctx.tls_base + WORD * group.tls_slot))

        # Adopt the last thread's architectural state (the loop ran to its
        # global final iteration there), keeping main's own stack pointer
        # and the Janus-reserved registers.
        main_rsp = ctx.gregs[STACK_REG]
        main_tls = ctx.gregs[TLS_REG]
        main_scratch = ctx.gregs[SCRATCH_REG]
        ctx.gregs = list(last.ctx.gregs)
        ctx.fregs = list(last.ctx.fregs)
        ctx.flags = last.ctx.flags
        ctx.gregs[STACK_REG] = main_rsp
        ctx.gregs[TLS_REG] = main_tls
        ctx.gregs[SCRATCH_REG] = main_scratch

        # Written stack slots: copy the last thread's values back.
        last_rsp0 = last.ctx.stack_top - (
            layout.STACK_TOP - main_rsp) - meta.delta_header
        for slot in meta.written_slots:
            memory.write(rsp0 + slot, memory.read(last_rsp0 + slot))

        # Reductions: initial value plus every thread's partial.  The
        # accumulator may be an xmm register, a GPR, or a spilled stack
        # slot; a float slot is read and written as a double, and the
        # initial value arrives as int bits (``_get_var``).
        for red, init_bits in zip(meta.reductions, reduction_inits):
            var = decode_var(red.var)
            if red.is_float:
                total_f = i64_to_f64(init_bits)
                for worker in workers:
                    if isinstance(var, int):
                        total_f += worker.ctx.fregs[(var - XMM_BASE) * 4]
                    else:
                        worker_rsp0 = worker.ctx.stack_top - (
                            layout.STACK_TOP - main_rsp) - meta.delta_header
                        total_f += memory.read_f64(worker_rsp0 + var[1])
                if isinstance(var, int):
                    ctx.fregs[(var - XMM_BASE) * 4] = total_f
                else:
                    memory.write_f64(rsp0 + var[1], total_f)
                continue
            total = init_bits
            for worker in workers:
                if isinstance(var, int):
                    total += worker.ctx.gregs[var]
                else:
                    worker_rsp0 = worker.ctx.stack_top - (
                        layout.STACK_TOP - main_rsp) - meta.delta_header
                    total += memory.read(worker_rsp0 + var[1])
            self._set_var(ctx, memory, rsp0, var, total)
