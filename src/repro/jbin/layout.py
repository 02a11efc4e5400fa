"""Virtual address-space layout shared by the toolchain, loader and runtime.

All JX processes use one fixed layout (DESIGN.md section 5)::

    0x0040_0000  .text         application code
    0x004f_0000  .plt          import stubs (16 bytes apart, metadata only)
    0x0060_0000  lib .text     shared-library code (runtime-discovered)
    0x1000_0000  .data/.bss    application globals
    0x2000_0000  heap          bump allocator managed by the library
    0x3000_0000  lib .data     shared-library globals (coefficient tables, brk)
    0x6000_0000  TLS           per-thread storage carved by the Janus runtime
    0x7fff_0000  stack top     main stack; thread stacks below, 1 MiB apart

Addresses are 8-byte-word granular; every data access touches whole words.
"""

TEXT_BASE = 0x0040_0000
PLT_BASE = 0x004F_0000
PLT_ENTRY_SIZE = 16
LIB_TEXT_BASE = 0x0060_0000
DATA_BASE = 0x1000_0000
HEAP_BASE = 0x2000_0000
LIB_DATA_BASE = 0x3000_0000
TLS_BASE = 0x6000_0000
TLS_THREAD_SIZE = 0x1_0000  # 64 KiB of thread-local storage per thread
STACK_TOP = 0x7FFF_0000
THREAD_STACK_SIZE = 0x10_0000  # 1 MiB per thread stack

WORD = 8

# Thread-local storage slots (words from a thread's TLS base, which the
# runtime keeps in r15): the parallel rewrites redirect main-stack reads
# through slot 0 and patched loop compares through slot 1; the schedule
# generator hands out privatised words from slot 2 on.
TLS_MAIN_RSP_SLOT = 0  # the main thread's rsp
TLS_BOUND_SLOT = 1  # this thread's patched loop bound
TLS_FIRST_PRIVATE_SLOT = 2


def thread_stack_top(thread_id: int) -> int:
    """Top-of-stack address for a given runtime thread (0 = main)."""
    return STACK_TOP - thread_id * THREAD_STACK_SIZE


def thread_tls_base(thread_id: int) -> int:
    """Base of the thread-local storage block for a runtime thread."""
    return TLS_BASE + thread_id * TLS_THREAD_SIZE


# Vector mode parks each packed loop's patched bound in a scratch word of
# the main thread's TLS block, far above the slots the parallel rewrites
# use (see TLS_MAIN_RSP_SLOT and the ones after it).  The
# packed compare addresses the word absolutely, so no register is stolen.
VECTOR_SCRATCH_FIRST_SLOT = 32


def vector_scratch_address(ordinal: int) -> int:
    """Address of the packed-bound scratch word for the ``ordinal``-th
    vectorised loop (main thread only; vector mode is single-threaded)."""
    return thread_tls_base(0) + WORD * (VECTOR_SCRATCH_FIRST_SLOT + ordinal)
