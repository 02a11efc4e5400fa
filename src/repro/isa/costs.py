"""Deterministic cycle cost model for JX.

Every performance number in the reproduction is a ratio of cycle counts
produced by this model (DESIGN.md section 2), so all tuning lives here and
nowhere else.  Latencies approximate a Sandy-Bridge-class core, matching the
paper's evaluation machine: cheap ALU ops, multi-cycle multiply, expensive
divide, a flat cache-hit memory cost, and per-cache-line extra cost used to
model false sharing (paper section III-F: vectorisation alleviated a
false-sharing bottleneck in bwaves).

The ``CostModel`` dataclass also carries the runtime-overhead parameters of
the dynamic binary modifier: translation cost per instruction, thread
init/finish costs, bounds-check cost, and STM per-access costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import Instruction, Opcode

# Base execution latency per opcode, in cycles.  Anything absent costs 1.
OPCODE_CYCLES: dict[Opcode, int] = {
    Opcode.IMUL: 3,
    Opcode.IDIV: 22,
    Opcode.IMOD: 22,
    Opcode.LEA: 1,
    Opcode.PUSH: 2,
    Opcode.POP: 2,
    Opcode.CALL: 3,
    Opcode.CALLI: 4,
    Opcode.RET: 3,
    Opcode.JMPI: 3,
    Opcode.MOVSD: 1,
    Opcode.ADDSD: 3,
    Opcode.SUBSD: 3,
    Opcode.MULSD: 5,
    Opcode.DIVSD: 20,
    Opcode.SQRTSD: 20,
    Opcode.MINSD: 3,
    Opcode.MAXSD: 3,
    Opcode.UCOMISD: 2,
    Opcode.CVTSI2SD: 4,
    Opcode.CVTTSD2SI: 4,
    # Packed ops cost the same as scalar: that is where vector speedup
    # comes from (2 or 4 lanes per instruction).
    Opcode.ADDPD: 3,
    Opcode.SUBPD: 3,
    Opcode.MULPD: 5,
    Opcode.DIVPD: 24,
    Opcode.VADDPD: 3,
    Opcode.VSUBPD: 3,
    Opcode.VMULPD: 5,
    Opcode.VDIVPD: 28,
    Opcode.SYSCALL: 150,
    Opcode.NOP: 1,
    Opcode.PREFETCH: 1,
    Opcode.RTCALL: 2,
    Opcode.RECORD: 2,
}

# Extra cycles for each memory operand touched (cache-hit cost).
MEM_OPERAND_CYCLES = 3

# Cycles credited back to a block for each access a PREFETCH hint covers:
# the access is modelled as hitting cache instead of paying the flat
# MEM_OPERAND_CYCLES.  Net effect per covered access per iteration is
# (PREFETCH issue cost - this), so prefetch is only profitable while
# this exceeds OPCODE_CYCLES[PREFETCH].
PREFETCH_SAVINGS_CYCLES = 2


def instruction_cycles(ins: Instruction) -> int:
    """Base cost of one dynamic execution of ``ins`` (no runtime overheads)."""
    cycles = OPCODE_CYCLES.get(ins.opcode, 1)
    if ins.opcode is Opcode.PREFETCH:
        # A hint only occupies an issue slot; its address is never
        # dereferenced, so it pays no memory-operand cost.
        return cycles
    n_mem = sum(1 for op in ins.operands if type(op).__name__ == "Mem")
    return cycles + MEM_OPERAND_CYCLES * n_mem


@dataclass
class CostModel:
    """All tunable runtime-cost parameters in one place.

    Instruction-level costs come from :func:`instruction_cycles`; this class
    holds the costs of the dynamic binary modifier and the Janus runtime.
    """

    # DBM (DynamoRIO-analogue) overheads -- paper Fig. 7 first bar.
    translate_cycles_per_instruction: int = 55
    translate_cycles_per_block: int = 220
    # Cost of a code-cache dispatch that misses the block-link fast path.
    context_switch_cycles: int = 30
    # Fraction of direct block-to-block transitions that DynamoRIO's trace
    # optimisation links directly (no dispatch cost).
    trace_link_rate: float = 0.97

    # Parallel runtime overheads -- paper Fig. 8 "Init/Finish" bars.
    # (Startup is scaled to the synthetic workloads' run lengths; on the
    # paper's minutes-long SPEC runs it amortises to zero.)
    thread_pool_startup_cycles: int = 5_000
    loop_init_cycles: int = 400
    loop_init_per_thread_cycles: int = 100
    loop_finish_cycles: int = 300
    loop_finish_per_thread_cycles: int = 80

    # Runtime array-base checks -- paper Fig. 8 "Dynamic Check" bars.
    bounds_check_pair_cycles: int = 55

    # JIT STM costs -- paper section II-E2.  Janus' STM is inlined
    # instrumentation (no API calls), so per-access costs are a handful of
    # cycles; the start cost covers the register checkpoint.
    stm_start_cycles: int = 60
    stm_read_cycles: int = 4
    stm_write_cycles: int = 8
    stm_validate_entry_cycles: int = 2
    stm_commit_entry_cycles: int = 3
    stm_abort_cycles: int = 400

    # Profiling instrumentation costs (training stage only).
    prof_event_cycles: int = 12

    # Prefetch rewrite mode: how many iterations ahead a generated
    # PREFETCH hint targets.  Purely a hint distance — it shifts the
    # prefetched address, never the modelled saving.
    prefetch_distance_iterations: int = 8

    # False-sharing penalty: extra cycles charged when two different threads
    # write words in the same cache line within a parallel loop.
    cache_line_words: int = 8
    false_sharing_cycles: int = 40

    def copy(self) -> "CostModel":
        """An independent copy (experiments tweak parameters locally)."""
        return CostModel(**self.__dict__)


DEFAULT_COST_MODEL = CostModel()
