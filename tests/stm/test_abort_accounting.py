"""STM abort accounting: cycle charges and registry counters.

Satellite coverage for the telemetry PR: an abort must charge the
re-execution cycles on top of the clean commit cost, must increment
``stm.aborts`` exactly once per abort (a failed validation in ``finish``
or a late conflict charged through ``abort``), and must emit exactly one
``stm.abort`` instant when telemetry is recording.
"""

import pytest

from repro.dbm.machine import ThreadContext
from repro.dbm.memory import Memory
from repro.isa.costs import CostModel
from repro.stm import STMManager
from repro.stm.stm import STMStats
from repro.telemetry.core import MetricRegistry, Recorder, disable, \
    set_recorder


@pytest.fixture(autouse=True)
def _restore_recorder():
    yield
    disable()


def make_memory(contents=None):
    memory = Memory()
    for addr, value in (contents or {}).items():
        memory.write(addr, value)
    return memory


def run_tx(manager, thread_id=1, reads=(), writes=(), poison=None):
    """One begin/access/finish round; returns the cycles charged."""
    tx = manager.begin(thread_id)
    for addr in reads:
        tx.read(addr)
    for k, addr in enumerate(writes):
        tx.write(addr, 100 + k)
    if poison is not None:
        # A concurrent writer invalidates the read set before commit.
        manager.memory.write(poison, 12345)
    ctx = ThreadContext(thread_id=thread_id)
    return manager.finish(tx, ctx)


class TestAbortCycleCharge:
    def test_abort_charges_reexecution_cycles(self):
        cost = CostModel()
        memory = make_memory({0x100: 1, 0x108: 2})
        manager = STMManager(memory=memory, cost=cost)
        clean = run_tx(manager, reads=(0x100, 0x108), writes=(0x110,))
        conflicted = run_tx(manager, thread_id=2,
                            reads=(0x100, 0x108), writes=(0x110,),
                            poison=0x100)
        # The abort pays the rollback plus a non-speculative re-execution
        # of the access work (paper II-E3): reads + writes again.
        expected_penalty = (cost.stm_abort_cycles
                            + 2 * cost.stm_read_cycles
                            + 1 * cost.stm_write_cycles)
        assert conflicted - clean == expected_penalty

    def test_abort_cycles_land_in_ctx_and_stats(self):
        memory = make_memory({0x100: 1})
        manager = STMManager(memory=memory, cost=CostModel())
        tx = manager.begin(1)
        tx.read(0x100)
        memory.write(0x100, 99)
        ctx = ThreadContext(thread_id=1)
        charged = manager.finish(tx, ctx)
        assert ctx.cycles == charged
        assert manager.stats.commit_cycles == charged


class TestAbortCounting:
    def test_one_abort_per_aborted_transaction(self):
        memory = make_memory({0x100: 1, 0x108: 2})
        manager = STMManager(memory=memory, cost=CostModel())
        run_tx(manager, reads=(0x100,), poison=0x100)
        run_tx(manager, thread_id=2, reads=(0x108,), poison=0x108)
        assert manager.stats.aborts == 2
        assert manager.stats.transactions == 2

    def test_late_conflict_abort_counts_without_a_transaction(self):
        cost = CostModel()
        manager = STMManager(memory=make_memory(), cost=cost)
        charged = manager.abort(1, 2, 1, late_conflict=True)
        assert charged == (cost.stm_abort_cycles + 2 * cost.stm_read_cycles
                           + 1 * cost.stm_write_cycles)
        assert manager.stats.aborts == 1
        assert manager.stats.transactions == 0
        assert manager.stats.commit_cycles == 0

    def test_clean_commit_counts_no_abort(self):
        memory = make_memory({0x100: 1})
        manager = STMManager(memory=memory, cost=CostModel())
        run_tx(manager, reads=(0x100,), writes=(0x108,))
        assert manager.stats.aborts == 0

    def test_aborts_count_into_shared_registry(self):
        registry = MetricRegistry()
        memory = make_memory({0x100: 1})
        manager = STMManager(memory=memory, cost=CostModel(),
                             stats=STMStats(registry))
        run_tx(manager, reads=(0x100,), poison=0x100)
        assert registry.get("stm.aborts") == 1
        assert registry.get("stm.transactions") == 1


class TestAbortInstants:
    def test_one_instant_per_abort(self):
        recorder = set_recorder(Recorder(label="test"))
        memory = make_memory({0x100: 1})
        manager = STMManager(memory=memory, cost=CostModel())
        run_tx(manager, reads=(0x100,), writes=(0x108,), poison=0x100)
        run_tx(manager, thread_id=2, reads=(0x100,))
        aborts = [e for e in recorder.events if e["name"] == "stm.abort"]
        assert len(aborts) == 1
        assert aborts[0]["args"] == {"thread": 1, "reads": 1, "writes": 1}

    def test_no_instants_when_disabled(self):
        disable()
        memory = make_memory({0x100: 1})
        manager = STMManager(memory=memory, cost=CostModel())
        run_tx(manager, reads=(0x100,), poison=0x100)
        assert manager.stats.aborts == 1  # counters still work


class TestLateConflictCharges:
    def _runtime(self):
        from repro.dbm.modifier import JanusDBM
        from repro.dbm.runtime import ParallelRuntime
        from repro.jbin.loader import load
        from repro.jcc import CompileOptions, compile_source

        image = compile_source(
            "int main() { print_int(1); return 0; }",
            CompileOptions(opt_level=2))
        dbm = JanusDBM(load(image))
        return dbm, ParallelRuntime(dbm)

    def _worker(self, thread_id, tx_log, writes=frozenset()):
        """A finished worker whose shadow recorded ``writes`` raw."""
        from repro.dbm.runtime import WorkerState
        from repro.dbm.shadow import ShadowSink, ShadowView

        sink = ShadowSink(thread_id=thread_id, tls_lo=1 << 40,
                          tls_hi=(1 << 40) + 64, stack_lo=1 << 41,
                          stack_hi=(1 << 41) + 64)
        sink.writes.extend(sorted(writes))
        worker = WorkerState(thread_id=thread_id,
                             ctx=ThreadContext(thread_id=thread_id),
                             chunks=[], meta=None, sink=sink,
                             tx_log=list(tx_log))
        worker.view = ShadowView(thread_id, sink)
        return worker

    def test_late_conflict_aborts_and_charges_worker(self):
        dbm, runtime = self._runtime()
        early = self._worker(1, tx_log=[({0x100, 0x108}, {0x110})])
        late = self._worker(2, tx_log=[], writes={0x100})
        runtime._charge_stm_late_conflicts([early, late])
        cost = dbm.cost
        penalty = (cost.stm_abort_cycles + 2 * cost.stm_read_cycles
                   + 1 * cost.stm_write_cycles)
        assert runtime.stm.stats.aborts == 1
        assert dbm.registry.get("stm.aborts") == 1
        assert early.ctx.cycles == penalty
        assert dbm.stats.stm_cycles == penalty
        assert late.ctx.cycles == 0  # the younger thread is not charged

    def test_commit_order_is_respected(self):
        """Writes by *earlier*-committing threads never abort a later one."""
        dbm, runtime = self._runtime()
        early = self._worker(1, tx_log=[], writes={0x100})
        late = self._worker(2, tx_log=[({0x100}, set())])
        runtime._charge_stm_late_conflicts([early, late])
        assert runtime.stm.stats.aborts == 0

    def test_late_conflict_emits_instant(self):
        recorder = set_recorder(Recorder(label="test"))
        _dbm, runtime = self._runtime()
        early = self._worker(1, tx_log=[({0x100}, set())])
        late = self._worker(2, tx_log=[], writes={0x100})
        runtime._charge_stm_late_conflicts([early, late])
        aborts = [e for e in recorder.events if e["name"] == "stm.abort"]
        assert len(aborts) == 1
        assert aborts[0]["args"] == {"thread": 1, "reads": 1, "writes": 0,
                                     "late_conflict": True}
