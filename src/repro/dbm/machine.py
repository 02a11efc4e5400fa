"""Machine and per-thread execution state.

A :class:`Machine` owns the shared memory, the IO streams (syscall outputs /
inputs) and the global cycle clock.  Each :class:`ThreadContext` owns a full
register file, flags, a program counter, a private stack region and (under
Janus) thread-local storage — matching the paper's "each thread has
associated thread-local storage and a private code cache, as does the main
thread" (section II-E).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.registers import NUM_GPR, NUM_XMM, STACK_REG, TLS_REG
from repro.jbin import layout
from repro.dbm.memory import Memory

# The return address pre-pushed below the entry frame; returning to it halts.
HALT_ADDRESS = 0


class ThreadContext:
    """Architectural state of one (possibly simulated) hardware thread."""

    __slots__ = ("thread_id", "gregs", "fregs", "flags", "pc", "halted",
                 "exit_code", "cycles", "instructions", "stack_top",
                 "tls_base", "entry_instructions")

    def __init__(self, thread_id: int = 0) -> None:
        self.thread_id = thread_id
        self.gregs: list[int] = [0] * NUM_GPR
        # Four lanes per xmm register, stored flat: register i occupies
        # fregs[4*i : 4*i+4]; scalar operations use lane 0.
        self.fregs: list[float] = [0.0] * (4 * NUM_XMM)
        # Flags are modelled as the sign of the last comparison/ALU result:
        # -1, 0 or 1; every JX condition code is a predicate over this.
        self.flags = 0
        self.pc = 0
        self.halted = False
        self.exit_code = 0
        self.cycles = 0
        self.instructions = 0
        # ``instructions`` before the charge of the block now executing,
        # as seen by its RTCALL handlers (blocks charge up front): the
        # coverage profiler attributes a block as a whole from it.
        self.entry_instructions = 0
        self.stack_top = layout.thread_stack_top(thread_id)
        self.tls_base = layout.thread_tls_base(thread_id)

    def reset_stack(self) -> None:
        """Point rsp at this thread's stack (with the halt sentinel pushed)."""
        self.gregs[STACK_REG] = self.stack_top - 8

    def install_tls(self) -> None:
        """Point the TLS register (r15) at this thread's storage block."""
        self.gregs[TLS_REG] = self.tls_base

    def copy_registers_from(self, other: "ThreadContext") -> None:
        """Copy the architectural registers (not pc/stack identity)."""
        self.gregs = list(other.gregs)
        self.fregs = list(other.fregs)
        self.flags = other.flags

    def __repr__(self) -> str:
        return (f"<thread {self.thread_id} pc={self.pc:#x} "
                f"cycles={self.cycles}>")


@dataclass
class Machine:
    """Shared machine state: memory, IO, and the global clock."""

    memory: Memory = field(default_factory=Memory)
    outputs: list[tuple[str, object]] = field(default_factory=list)
    inputs: list[int] = field(default_factory=list)
    cycles: int = 0

    def print_int(self, value: int) -> None:
        self.outputs.append(("i", value))

    def print_f64(self, value: float) -> None:
        self.outputs.append(("f", value))

    def print_char(self, value: int) -> None:
        self.outputs.append(("c", value))

    def read_int(self) -> int:
        if not self.inputs:
            return -1  # EOF convention
        return self.inputs.pop(0)

    def output_text(self) -> str:
        """The program's output rendered as text (one value per line)."""
        lines = []
        for kind, value in self.outputs:
            if kind == "f":
                lines.append(f"{value:.9g}")
            elif kind == "c":
                lines.append(chr(value))
            else:
                lines.append(str(value))
        return "\n".join(lines)


def make_main_context(entry: int, memory: Memory) -> ThreadContext:
    """Create the main thread: stack with the halt sentinel, pc at entry."""
    ctx = ThreadContext(thread_id=0)
    ctx.reset_stack()
    memory.write(ctx.gregs[STACK_REG], HALT_ADDRESS)
    ctx.pc = entry
    return ctx
