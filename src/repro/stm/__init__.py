"""Just-in-time software transactional memory (paper section II-E2).

A light-weight word-based STM with lazy, value-based conflict checking in
the style of JudoSTM: transactions buffer writes, record the values they
read, validate reads against shared memory at commit time, and commit
buffered writes in thread order.  There are no static STM API routines —
the DBM's ``TX_START``/``TX_FINISH`` handlers flip the executing thread
into transactional mode and the interpreter redirects heap and
out-of-frame-stack accesses through the active transaction.
"""

from repro.stm.transaction import Transaction
from repro.stm.stm import STMManager, STMStats

__all__ = ["Transaction", "STMManager", "STMStats"]
