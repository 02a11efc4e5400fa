"""JDBM: the dynamic binary modifier core (DynamoRIO + rewrite interpreter).

The modifier owns per-thread code caches.  Translating a block means:
discover it from the image (lazy decode), look every instruction address up
in the rewrite-rule hash table, run the matching handlers in schedule order
(paper Fig. 2b), recompute the block's cycle cost, and charge translation
overhead to the translating thread.

The cost model also charges the DBM's dispatch overhead: blocks ending in
indirect control transfers (ret / indirect jump or call) pay the
indirect-branch-lookup cost on every execution, while direct transfers are
almost always linked block-to-block (DynamoRIO's trace optimisation), which
is what makes call/return-heavy applications slow under a DBM (the paper's
h264ref, section III-B).
"""

from __future__ import annotations

from repro.dbm.blocks import Block, discover_block
from repro.dbm.editor import BlockEditor
from repro.dbm.executor import DEFAULT_INSTRUCTION_LIMIT, ExecutionResult
from repro.dbm.handlers import HANDLERS, TranslationContext
from repro.dbm.interp import Interpreter
from repro.dbm.machine import Machine, ThreadContext, make_main_context
from repro.dbm.tracecache import run_loop
from repro.isa.costs import DEFAULT_COST_MODEL, CostModel
from repro.jbin.loader import Process
from repro.rewrite.rules import ScheduleFormatError
from repro.rewrite.schedule import RewriteSchedule
from repro.telemetry.core import (
    MetricRegistry,
    RegistryView,
    get_recorder,
)


class DBMStats(RegistryView):
    """Counters for the execution-time breakdown (paper Fig. 8).

    Backed by the DBM's :class:`MetricRegistry` under ``runtime.*`` keys
    (the attributes are property views); ``as_dict()`` keeps the legacy
    unprefixed names in declaration order so ``ExecutionResult.stats``
    is byte-identical to the pre-telemetry layout.
    """

    _NAMESPACE = "runtime"
    _FIELDS = ("translated_blocks", "translated_instructions",
               "translation_cycles", "worker_translation_cycles",
               "check_cycles", "checks_passed", "checks_failed",
               "init_finish_cycles", "parallel_cycles",
               "loop_invocations_parallel", "loop_invocations_sequential",
               "loop_finish_marks", "stm_cycles", "false_sharing_cycles",
               "rules_applied")


class JanusDBM:
    """A process executing under dynamic binary modification."""

    def __init__(self, process: Process,
                 schedule: RewriteSchedule | None = None,
                 cost_model: CostModel | None = None,
                 n_threads: int = 1,
                 scheduling: str = "chunk",
                 rr_block: int = 8) -> None:
        self.process = process
        self.schedule = schedule
        self.rule_index = schedule.build_index() if schedule else {}
        # Block-splitting addresses: one frozenset for the whole run, so
        # the decode memo key (repro.dbm.blocks) costs nothing to build.
        self.stop_addresses = frozenset(self.rule_index)
        self.cost = cost_model or DEFAULT_COST_MODEL.copy()
        self.n_threads = n_threads
        # Iteration scheduling policy (paper II-E): "chunk" = equal
        # contiguous chunks (default); "round_robin" = small contiguous
        # blocks handed out cyclically.
        self.scheduling = scheduling
        self.rr_block = rr_block
        self.machine = Machine()
        self.machine.memory.load_words(process.initial_data())
        self.machine.inputs = list(process.inputs)
        # One registry per execution: runtime.* (this class), jit.* (the
        # interpreter's trace-cache tier) and stm.* (the parallel
        # runtime's STM manager) all count into it.
        self.registry = MetricRegistry()
        self.interp = Interpreter(self.machine, process,
                                  registry=self.registry)
        self.interp.rtcall_handler = self._dispatch_rtcall
        self.rtcall_handlers: dict[int, object] = {}
        self.caches: dict[int, dict[int, Block]] = {0: {}}
        self.stats = DBMStats(self.registry)
        if schedule is not None and schedule.rules:
            self._check_schedule()

    def _check_schedule(self) -> None:
        rules = self.schedule.rules
        for index, rule in enumerate(rules):
            if rule.rule_id not in HANDLERS:
                raise ScheduleFormatError(
                    f"rule {index} of {len(rules)}: unknown rule id "
                    f"{int(rule.rule_id)} at {rule.address:#x}")
        if not self.schedule.verify_against(self.process.image):
            raise ValueError(
                "rewrite schedule does not match this binary "
                "(text checksum mismatch)")

    # -- rtcall plumbing -----------------------------------------------------

    def register_rtcall(self, rtcall_id: int, handler,
                        inline: bool = False) -> None:
        """Route RTCALL ``rtcall_id`` to ``handler(ctx, arg)``.

        ``inline=True`` declares that the handler returns ``None``, leaves
        ``recording``, ``active_tx``, registers, flags and
        ``ctx.instructions`` untouched, and only adds to ``ctx.cycles``.
        Superblocks may then contain the RTCALL and call the handler in
        line (:mod:`repro.dbm.superblock`); any other RTCALL ends
        superblock formation.
        """
        rtcall_id = int(rtcall_id)
        self.rtcall_handlers[rtcall_id] = handler
        if inline:
            self.interp.inline_rtcalls.add(rtcall_id)
        else:
            self.interp.inline_rtcalls.discard(rtcall_id)

    def _dispatch_rtcall(self, ctx: ThreadContext, rtcall_id: int, arg: int):
        handler = self.rtcall_handlers.get(rtcall_id)
        if handler is None:
            raise RuntimeError(f"no runtime handler for RTCALL {rtcall_id}")
        return handler(ctx, arg)

    # -- translation ------------------------------------------------------------

    def get_block(self, pc: int, ctx: ThreadContext,
                  worker=None) -> Block:
        thread_id = ctx.thread_id
        cache = self.caches.setdefault(thread_id, {})
        block = cache.get(pc)
        if block is None:
            block = self._translate(pc, ctx, worker)
            cache[pc] = block
        return block

    def _main_lookup(self, pc: int, ctx: ThreadContext) -> Block:
        """Stable code-cache lookup for the main-thread dispatch loop.

        Compiled runners capture this in their link slots, so it must be
        one object for the DBM's lifetime (a bound method is).
        """
        return self.get_block(pc, ctx)

    def _translate(self, pc: int, ctx: ThreadContext, worker) -> Block:
        block = discover_block(self.process, pc,
                               stop_addresses=self.stop_addresses)
        cycles = (self.cost.translate_cycles_per_block
                  + len(block) * self.cost.translate_cycles_per_instruction)
        ctx.cycles += cycles
        self.stats.translated_blocks += 1
        self.stats.translated_instructions += len(block)
        self.stats.translation_cycles += cycles
        if ctx.thread_id != 0:
            self.stats.worker_translation_cycles += cycles
        rec = get_recorder()
        if rec.enabled:
            rec.instant("dbm.translate", cat="jit", pc=pc,
                        instructions=len(block), thread=ctx.thread_id)

        rules = []
        for ins in block.instructions:
            rules.extend(self.rule_index.get(ins.address, ()))
        if rules:
            editor = BlockEditor(block)
            tctx = TranslationContext(dbm=self, thread_id=ctx.thread_id,
                                      worker=worker)
            for rule in rules:
                HANDLERS[rule.rule_id](editor, rule, tctx)
                self.stats.rules_applied += 1
            block = editor.finish()
        # Dispatch overhead on every execution of this block: indirect
        # terminators always pay the lookup; direct ones are nearly always
        # linked (trace optimisation).
        terminator = block.terminator
        if terminator.is_indirect or terminator.is_ret:
            block.cost += self.cost.context_switch_cycles
        else:
            # Direct transfers are linked block-to-block by the trace
            # optimisation; the residual miss rate rounds to zero cost
            # for typical blocks.
            linked = self.cost.trace_link_rate
            block.cost += int(self.cost.context_switch_cycles * (1.0 - linked))
        return block

    # -- execution ----------------------------------------------------------------

    def run(self, max_instructions: int = DEFAULT_INSTRUCTION_LIMIT
            ) -> ExecutionResult:
        """Execute the whole program under the DBM on the main thread."""
        ctx = make_main_context(self.process.entry, self.machine.memory)
        rec = get_recorder()
        with rec.span("dbm.run", cat="dbm",
                      threads=self.n_threads) as span:
            run_loop(self.interp, ctx, ctx.pc, self._main_lookup,
                     max_instructions=max_instructions)
            span.set(cycles=ctx.cycles, instructions=ctx.instructions)
        if rec.enabled:
            rec.absorb(self.registry)
        self.machine.cycles = ctx.cycles
        stats = self.stats.as_dict()
        stats.update(self.interp.jit_stats.as_dict())
        stats.update(self.interp.sb_stats.as_dict())
        return ExecutionResult(
            cycles=ctx.cycles,
            instructions=ctx.instructions,
            outputs=self.machine.outputs,
            exit_code=ctx.exit_code,
            machine=self.machine,
            stats=stats,
        )


def run_under_dbm(process: Process,
                  schedule: RewriteSchedule | None = None,
                  cost_model: CostModel | None = None,
                  max_instructions: int = DEFAULT_INSTRUCTION_LIMIT
                  ) -> ExecutionResult:
    """Run a process under the plain DBM (no parallelisation runtime).

    With ``schedule=None`` this is the paper's "DynamoRIO" baseline bar:
    pure translation/dispatch overhead, no modification.
    """
    dbm = JanusDBM(process, schedule=schedule, cost_model=cost_model)
    if schedule is not None:
        # Attach runtimes so schedule rtcalls resolve even without threads.
        from repro.dbm.runtime import ParallelRuntime

        ParallelRuntime(dbm)
    return dbm.run(max_instructions=max_instructions)
