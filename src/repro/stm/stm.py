"""STM management: per-thread transactions, commit order, abort modelling.

The deterministic simulator executes pool threads in commit order, so a
transaction's validation against shared memory reproduces exactly what the
oldest-thread-commits-first protocol of the paper produces.  Conflicts with
*later*-committing threads (which on real hardware could have raced ahead)
are detected against the invocation's cross-thread write sets and modelled
as an abort + non-speculative re-execution, whose cost is charged but whose
result equals the committed order — "execution rolls back to the checkpoint
and the code is re-executed, which will succeed because the thread is now
the oldest" (paper section II-E3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.costs import CostModel
from repro.stm.transaction import Transaction
from repro.telemetry.core import RegistryView, get_recorder


class STMStats(RegistryView):
    """Counters reported by experiments (paper section III-B).

    Stored in a :class:`~repro.telemetry.core.MetricRegistry` under
    ``stm.*`` keys; the attributes are property views so call sites are
    unchanged.  :class:`~repro.dbm.modifier.JanusDBM` passes its own
    registry in, putting STM counters beside ``runtime.*`` and ``jit.*``.
    """

    _NAMESPACE = "stm"
    _FIELDS = ("transactions", "reads", "writes", "aborts",
               "commit_cycles")


@dataclass
class STMManager:
    """Creates, validates and commits transactions for the parallel runtime."""

    memory: object
    cost: CostModel
    stats: STMStats = field(default_factory=STMStats)

    def begin(self, thread_id: int) -> Transaction:
        self.stats.transactions += 1
        return Transaction(memory=self.memory, thread_id=thread_id)

    def abort(self, thread_id: int, n_reads: int, n_writes: int,
              **detail) -> int:
        """Count one abort; returns its rollback and retry cycles.

        The retry runs non-speculatively as the oldest thread, so it pays
        roughly the same access work again (reads + writes).  ``detail``
        is extra arguments for the ``stm.abort`` instant.
        """
        self.stats.aborts += 1
        recorder = get_recorder()
        if recorder.enabled:
            recorder.instant("stm.abort", cat="stm", thread=thread_id,
                             reads=n_reads, writes=n_writes, **detail)
        cost = self.cost
        return (cost.stm_abort_cycles + n_reads * cost.stm_read_cycles
                + n_writes * cost.stm_write_cycles)

    def finish(self, tx: Transaction, ctx) -> int:
        """Validate and commit; returns the cycle cost charged.

        A failed validation aborts: the rollback and retry are charged,
        then the transaction commits.
        """
        cost = self.cost
        cycles = cost.stm_start_cycles
        cycles += tx.n_reads * cost.stm_read_cycles
        cycles += tx.n_writes * cost.stm_write_cycles
        cycles += tx.n_reads * cost.stm_validate_entry_cycles
        cycles += tx.n_writes * cost.stm_commit_entry_cycles
        if not tx.validate():
            cycles += self.abort(tx.thread_id, tx.n_reads, tx.n_writes)
        tx.commit()
        self.stats.reads += tx.n_reads
        self.stats.writes += tx.n_writes
        self.stats.commit_cycles += cycles
        ctx.cycles += cycles
        return cycles
