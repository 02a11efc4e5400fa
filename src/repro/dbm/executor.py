"""Top-level execution entry points.

``run_native`` executes a process exactly as hardware would: no modification,
no rewrite rules, just lazily discovered basic blocks.  Its results (outputs,
final memory, cycle count) are the baseline every other execution mode is
normalised against and checked against:

* paper Fig. 7's speedups are ``native_cycles / mode_cycles``;
* the correctness oracle asserts that outputs and final data are identical.

The DBM-based modes live in :mod:`repro.dbm.modifier` (plain DynamoRIO-style
execution) and :mod:`repro.dbm.runtime` (parallelisation); they reuse the
same interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dbm.blocks import Block, discover_block
from repro.dbm.interp import Interpreter
from repro.dbm.machine import Machine, make_main_context
from repro.dbm.tracecache import run_loop
from repro.jbin.loader import Process
from repro.telemetry.core import get_recorder

DEFAULT_INSTRUCTION_LIMIT = 500_000_000


@dataclass
class ExecutionResult:
    """Everything an experiment needs from one program execution."""

    cycles: int
    instructions: int
    outputs: list[tuple[str, object]]
    exit_code: int
    machine: Machine
    # Execution counters: every mode reports the trace-cache JIT tier
    # (blocks_translated, links_installed, fallback_instructions) and the
    # superblock tier (superblock_*); DBM/parallel modes add their own on
    # top.
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def output_text(self) -> str:
        lines = []
        for kind, value in self.outputs:
            if kind == "f":
                lines.append(f"{value:.9g}")
            elif kind == "c":
                lines.append(chr(value))
            else:
                lines.append(str(value))
        return "\n".join(lines)

    def data_snapshot(self) -> dict[int, int]:
        """Final non-zero globals/heap, excluding all stack regions."""
        from repro.jbin import layout

        low_stack = layout.STACK_TOP - 64 * layout.THREAD_STACK_SIZE
        return {addr: value
                for addr, value in self.machine.memory.words.items()
                if value != 0 and not low_stack <= addr <= layout.STACK_TOP
                and not layout.TLS_BASE <= addr < low_stack}


def run_native(process: Process,
               max_instructions: int = DEFAULT_INSTRUCTION_LIMIT,
               block_cache: dict[int, Block] | None = None
               ) -> ExecutionResult:
    """Execute the process unmodified, as native hardware would.

    ``block_cache`` (optional) is used as the code cache and is left
    populated after the run — ``repro jit-dump`` reads the compiled
    runners' generated sources out of it.
    """
    machine = Machine()
    machine.memory.load_words(process.initial_data())
    machine.inputs = list(process.inputs)
    ctx = make_main_context(process.entry, machine.memory)
    interp = Interpreter(machine, process)
    cache: dict[int, Block] = block_cache if block_cache is not None else {}

    def lookup(pc: int, _ctx) -> Block:
        block = cache.get(pc)
        if block is None:
            block = cache[pc] = discover_block(process, pc)
        return block

    rec = get_recorder()
    with rec.span("native.run", cat="native") as span:
        run_loop(interp, ctx, ctx.pc, lookup,
                 max_instructions=max_instructions)
        span.set(cycles=ctx.cycles, instructions=ctx.instructions)
    if rec.enabled:
        rec.absorb(interp.jit_stats.registry)
    machine.cycles = ctx.cycles
    stats = interp.jit_stats.as_dict()
    stats.update(interp.sb_stats.as_dict())
    return ExecutionResult(
        cycles=ctx.cycles,
        instructions=ctx.instructions,
        outputs=machine.outputs,
        exit_code=ctx.exit_code,
        machine=machine,
        stats=stats,
    )
