"""A single word-based software transaction."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Transaction:
    """Buffered reads and writes of one speculative region.

    * Reads record ``address -> value seen`` the first time an address is
      read (later reads hit the write buffer or the read log).
    * Writes are buffered, never touching shared memory until commit.
    * ``validate`` re-checks every logged read against shared memory —
      lazy *value-based* checking: a conflicting write that restored the
      same value does not abort (paper: "lazy value-based conflict
      checking, similar to JudoSTM").
    """

    memory: object  # shared Memory
    thread_id: int = 0
    read_log: dict[int, int] = field(default_factory=dict)
    write_buffer: dict[int, int] = field(default_factory=dict)

    def read(self, addr: int) -> int:
        if addr in self.write_buffer:
            return self.write_buffer[addr]
        if addr in self.read_log:
            return self.read_log[addr]
        value = self.memory.read(addr)
        self.read_log[addr] = value
        return value

    def write(self, addr: int, value: int) -> None:
        self.write_buffer[addr] = value

    @property
    def n_reads(self) -> int:
        return len(self.read_log)

    @property
    def n_writes(self) -> int:
        return len(self.write_buffer)

    def validate(self) -> bool:
        """True if every read value still matches shared memory."""
        read = self.memory.read
        return all(read(addr) == value
                   for addr, value in self.read_log.items())

    def commit(self) -> None:
        """Write back the buffer (caller must have validated)."""
        write = self.memory.write
        for addr, value in self.write_buffer.items():
            write(addr, value)
