"""STM abort accounting: cycle charges and registry counters.

Satellite coverage for the telemetry PR: an abort must charge the
re-execution cycles on top of the clean commit cost, must increment
``stm.aborts`` exactly once per abort (a failed validation in ``finish``
or a late conflict charged through ``abort``), and must emit exactly one
``stm.abort`` instant when telemetry is recording.
"""

from types import SimpleNamespace

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


def _runtime():
    from repro.dbm.modifier import JanusDBM
    from repro.dbm.runtime import ParallelRuntime
    from repro.jbin.loader import load
    from repro.jcc import CompileOptions, compile_source

    image = compile_source(
        "int main() { print_int(1); return 0; }",
        CompileOptions(opt_level=2))
    dbm = JanusDBM(load(image))
    return dbm, ParallelRuntime(dbm)


def _worker(thread_id, tx_log, reads=frozenset(), writes=frozenset(),
            descriptors=()):
    """A finished worker whose shadow recorded ``reads``/``writes`` raw
    and ``descriptors`` summarised."""
    from repro.dbm.runtime import WorkerState
    from repro.dbm.shadow import ShadowSink

    sink = ShadowSink(thread_id=thread_id, tls_lo=1 << 40,
                      tls_hi=(1 << 40) + 64, stack_lo=1 << 41,
                      stack_hi=(1 << 41) + 64)
    sink.reads.extend(sorted(reads))
    sink.writes.extend(sorted(writes))
    sink.descriptors.extend(descriptors)
    return WorkerState(thread_id=thread_id,
                       ctx=ThreadContext(thread_id=thread_id),
                       chunks=[], meta=SimpleNamespace(loop_id=7),
                       sink=sink, tx_log=list(tx_log))


class TestLateConflictCharges:
    def test_late_conflict_aborts_and_charges_worker(self):
        dbm, runtime = _runtime()
        early = _worker(1, tx_log=[({0x100, 0x108}, {0x110})])
        late = _worker(2, tx_log=[], writes={0x100})
        runtime._check_conflicts([early, late])
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
        dbm, runtime = _runtime()
        early = _worker(1, tx_log=[], writes={0x100})
        late = _worker(2, tx_log=[({0x100}, set())])
        runtime._check_conflicts([early, late])
        assert runtime.stm.stats.aborts == 0

    def test_late_conflict_emits_instant(self):
        recorder = set_recorder(Recorder(label="test"))
        _dbm, runtime = _runtime()
        early = _worker(1, tx_log=[({0x100}, set())])
        late = _worker(2, tx_log=[], writes={0x100})
        runtime._check_conflicts([early, late])
        aborts = [e for e in recorder.events if e["name"] == "stm.abort"]
        assert len(aborts) == 1
        assert aborts[0]["args"] == {"thread": 1, "reads": 1, "writes": 0,
                                     "late_conflict": True}

    def test_descriptor_summarised_writer(self):
        """Only member words of a younger worker's stride descriptor
        abort an older transaction, not every word of its extent."""
        from repro.dbm.shadow import StrideDescriptor

        first = 0x1000
        for read, aborts in ((first + 16 * 3, 1), (first + 8, 0)):
            _dbm, runtime = _runtime()
            early = _worker(1, tx_log=[({read}, set())])
            late = _worker(2, tx_log=[], descriptors=[
                StrideDescriptor(first, 16, 8, 1, True)])
            runtime._check_conflicts([early, late])
            assert runtime.stm.stats.aborts == aborts


WORD_ADDR = 0x2000


class TestTransactionCoveredWords:
    """Words a finished transaction read or wrote were validated by the
    STM: the same raw conflict is a violation only without the tx."""

    # (older raw accesses, older tx_log, younger raw accesses,
    # younger tx_log).
    CASES = {
        # The older worker writes the word raw; the younger worker reads
        # it raw and its finished transaction read it too.
        "younger_tx_read": (dict(writes={WORD_ADDR}), [],
                            dict(reads={WORD_ADDR}),
                            [({WORD_ADDR}, set())]),
        # The older worker reads the word raw and its own finished
        # transaction wrote it; the younger worker writes it raw.
        "older_tx_write": (dict(reads={WORD_ADDR}),
                           [(set(), {WORD_ADDR})],
                           dict(writes={WORD_ADDR}), []),
    }

    def _pair(self, case, with_tx):
        older, older_tx, younger, younger_tx = self.CASES[case]
        return [_worker(1, older_tx if with_tx else [], **older),
                _worker(2, younger_tx if with_tx else [], **younger)]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_covered_word_is_not_a_violation(self, case):
        _dbm, runtime = _runtime()
        runtime._check_conflicts(self._pair(case, with_tx=True))
        assert runtime.stm.stats.aborts == 0

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_uncovered_word_is_a_violation(self, case):
        from repro.dbm.rtcalls import DependenceViolationError

        _dbm, runtime = _runtime()
        with pytest.raises(DependenceViolationError) as err:
            runtime._check_conflicts(self._pair(case, with_tx=False))
        assert str(err.value) == (
            f"cross-thread conflict on {WORD_ADDR:#x} between threads 1 "
            f"and 2 in loop 7")
