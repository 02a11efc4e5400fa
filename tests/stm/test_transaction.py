"""Unit and property tests for the software transactional memory."""

from hypothesis import given, strategies as st

from repro.dbm.machine import ThreadContext
from repro.dbm.memory import Memory, i64_to_f64
from repro.isa.costs import CostModel
from repro.stm import STMManager, Transaction


def make_memory(contents=None):
    memory = Memory()
    for addr, value in (contents or {}).items():
        memory.write(addr, value)
    return memory


class TestTransaction:
    def test_reads_record_values(self):
        memory = make_memory({0x100: 7})
        tx = Transaction(memory=memory)
        assert tx.read(0x100) == 7
        assert tx.read_log == {0x100: 7}
        assert tx.n_reads == 1

    def test_writes_buffer_until_commit(self):
        memory = make_memory({0x100: 1})
        tx = Transaction(memory=memory)
        tx.write(0x100, 42)
        assert memory.read(0x100) == 1  # not yet visible
        tx.commit()
        assert memory.read(0x100) == 42

    def test_read_own_write(self):
        memory = make_memory({0x100: 1})
        tx = Transaction(memory=memory)
        tx.write(0x100, 5)
        assert tx.read(0x100) == 5
        assert tx.read_log == {}  # own writes are not validated reads

    def test_repeated_reads_hit_the_log(self):
        memory = make_memory({0x100: 9})
        tx = Transaction(memory=memory)
        tx.read(0x100)
        memory.write(0x100, 10)  # concurrent writer
        assert tx.read(0x100) == 9  # stable snapshot from the log

    def test_validation_value_based(self):
        memory = make_memory({0x100: 5})
        tx = Transaction(memory=memory)
        tx.read(0x100)
        memory.write(0x100, 6)
        assert not tx.validate()
        # Value-based: restoring the same bits revalidates (JudoSTM-style).
        memory.write(0x100, 5)
        assert tx.validate()

    def test_validation_compares_bits_of_float_words(self):
        """Words written as doubles are checked by bit pattern: -0.0
        over +0.0 is a change, the same NaN payload rewritten is not."""
        memory = make_memory()
        memory.write_f64(0x100, 0.0)
        tx = Transaction(memory=memory)
        assert tx.read(0x100) == 0
        memory.write_f64(0x100, -0.0)   # == 0.0 as a double
        assert not tx.validate()

        nan = i64_to_f64(0x7FF8000000000123)
        memory.write_f64(0x108, nan)
        tx = Transaction(memory=memory)
        assert tx.read(0x108) == 0x7FF8000000000123
        memory.write_f64(0x108, i64_to_f64(0x7FF8000000000123))
        assert tx.validate()            # nan != nan as a double
        memory.write(0x108, 0x7FF8000000000123)   # same bits as an int
        assert tx.validate()


class TestSTMManager:
    def _finish(self, manager, tx):
        ctx = ThreadContext(thread_id=1)
        return manager.finish(tx, ctx)

    def test_commit_charges_costs(self):
        memory = make_memory({0x100: 1})
        manager = STMManager(memory=memory, cost=CostModel())
        tx = manager.begin(1)
        tx.read(0x100)
        tx.write(0x108, 2)
        cycles = self._finish(manager, tx)
        assert cycles > 0
        assert memory.read(0x108) == 2
        assert manager.stats.transactions == 1
        assert manager.stats.reads == 1
        assert manager.stats.writes == 1
        assert manager.stats.aborts == 0

    def test_conflict_charges_abort_and_retry(self):
        memory = make_memory({0x100: 1})
        manager = STMManager(memory=memory, cost=CostModel())
        tx = manager.begin(1)
        tx.read(0x100)
        clean = self._finish(manager, tx)
        tx2 = manager.begin(2)
        tx2.read(0x100)
        memory.write(0x100, 99)  # a concurrent writer invalidates tx2
        conflicted = self._finish(manager, tx2)
        assert conflicted > clean
        assert manager.stats.aborts == 1

    def test_failed_validation_counts_as_abort(self):
        memory = make_memory({0x100: 1})
        manager = STMManager(memory=memory, cost=CostModel())
        tx = manager.begin(1)
        tx.read(0x100)
        memory.write(0x100, 99)
        self._finish(manager, tx)
        assert manager.stats.aborts == 1


@given(ops=st.lists(
    st.tuples(st.booleans(), st.integers(0, 7),
              st.integers(-1000, 1000)), max_size=40))
def test_transaction_equivalent_to_direct_execution(ops):
    """Running ops through a tx then committing == running them directly."""
    initial = {8 * k: k + 1 for k in range(8)}
    direct = make_memory(initial)
    staged = make_memory(initial)
    tx = Transaction(memory=staged)
    reads_direct = []
    reads_tx = []
    for is_write, slot, value in ops:
        addr = 8 * slot
        if is_write:
            direct.write(addr, value)
            tx.write(addr, value)
        else:
            reads_direct.append(direct.read(addr))
            reads_tx.append(tx.read(addr))
    tx.commit()
    assert reads_direct == reads_tx
    assert direct.words == staged.words
