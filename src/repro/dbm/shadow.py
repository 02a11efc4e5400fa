"""Shadow-memory artifacts for the parallel runtime.

Each parallel worker records the memory accesses of its chunk so the
runtime can detect cross-thread conflicts and charge false sharing.  The
records are two representations deep, both held by the worker's
:class:`ShadowSink`:

* raw events — flat per-worker lists.  The generated shadow runners
  (``repro.dbm.jit`` / ``repro.dbm.superblock``) append raw addresses to
  them behind an inlined filter on the worker's own stack/TLS bounds,
  which the runner's namespace binds per worker (the source is shared by
  all workers); the reference dispatch (a block's first entry, and every
  entry under ``Interpreter.force_reference``) appends the same events
  through :meth:`ShadowSink.record`.
* :class:`StrideDescriptor` — one ``(first, stride, trips, lanes)`` record
  summarising every execution of a statically-proven affine access site
  for one chunk.  Both dispatches skip these sites entirely; the runtime
  materialises the descriptor from loop metadata
  (``LoopMeta.affine_accesses``) at chunk setup, in O(1).  The
  differential test pins the descriptor math against exact per-access
  recording by withholding the summaries in a third run.

Conflict detection queries the sink: merged interval extents are a
conservative prefilter, and only when another worker's extent actually
overlaps are descriptors *lazily expanded* into exact address sets
(``runtime.shadow.lazy_expansions``).

The recorded semantics (DESIGN.md section 9): every Mem-operand access
is recorded, never the stack words PUSH/POP/CALL/RET move; an access
whose *base* address falls inside the worker's own stack or TLS region
is invisible, and so is every access made while a transaction is open
(the STM validates those); a packed access is one event at its base
address, expanded to ``lanes`` word addresses regardless of where the
upper lanes land; a store contributes one cache-line event at its base
per executed instruction (a packed store is a single event, which is why
vectorisation relieves false sharing, paper section III-F).
"""

from __future__ import annotations

from collections import Counter

WORD = 8
_LINE_SHIFT = 6  # 64-byte lines for the false-sharing model


class ShadowSink:
    """One worker thread's shadow footprint for one loop invocation.

    The generated shadow runners bind the ``append`` methods of the event
    lists at compile time; the lists are therefore cleared *in place*
    (never reassigned) so compiled code cached across loop invocations
    stays valid.  ``clear()`` also drops the descriptors and the exact
    sets memoised since the last invocation.
    """

    __slots__ = ("thread_id", "tls_lo", "tls_hi", "stack_lo", "stack_hi",
                 "reads", "writes", "packed_reads", "packed_writes",
                 "descriptors", "registry", "_exact")

    def __init__(self, thread_id: int, tls_lo: int, tls_hi: int,
                 stack_lo: int, stack_hi: int, registry=None) -> None:
        self.thread_id = thread_id
        self.tls_lo = tls_lo
        self.tls_hi = tls_hi
        self.stack_lo = stack_lo
        self.stack_hi = stack_hi
        # Scalar events: base addresses.  Packed events: (base, lanes).
        self.reads: list[int] = []
        self.writes: list[int] = []
        self.packed_reads: list[tuple[int, int]] = []
        self.packed_writes: list[tuple[int, int]] = []
        self.descriptors: list[StrideDescriptor] = []
        # Counts ``runtime.shadow.lazy_expansions`` when set.
        self.registry = registry
        self._exact: dict[bool, set[int]] = {}

    def passes_filter(self, addr: int) -> bool:
        """The recording predicate the generated runners inline."""
        return (addr <= self.stack_lo or addr > self.stack_hi) \
            and (addr < self.tls_lo or addr >= self.tls_hi)

    def record(self, addr: int, is_write: bool, lanes: int = 1) -> None:
        """Append one access at base ``addr`` if it passes the filter."""
        if self.passes_filter(addr):
            if lanes == 1:
                (self.writes if is_write else self.reads).append(addr)
            elif is_write:
                self.packed_writes.append((addr, lanes))
            else:
                self.packed_reads.append((addr, lanes))

    def clear(self) -> None:
        del self.reads[:]
        del self.writes[:]
        del self.packed_reads[:]
        del self.packed_writes[:]
        del self.descriptors[:]
        self._exact.clear()

    def event_count(self) -> int:
        return (len(self.reads) + len(self.writes)
                + len(self.packed_reads) + len(self.packed_writes))

    def intervals(self, is_write: bool) -> list[tuple[int, int]]:
        """Merged inclusive extents covering every read or written word."""
        raw = self.writes if is_write else self.reads
        packed = self.packed_writes if is_write else self.packed_reads
        intervals = [d.interval() for d in self.descriptors
                     if d.is_write == is_write]
        if raw:
            intervals.append((min(raw), max(raw)))
        for base, lanes in packed:
            intervals.append((base, base + WORD * (lanes - 1)))
        return _merge_intervals(intervals)

    def exact(self, is_write: bool) -> set[int]:
        """Every read or written word address, descriptors expanded."""
        out = self._exact.get(is_write)
        if out is not None:
            return out
        raw = self.writes if is_write else self.reads
        packed = self.packed_writes if is_write else self.packed_reads
        out = set(raw)
        for base, lanes in packed:
            out.update(base + WORD * k for k in range(lanes))
        expanded = False
        for desc in self.descriptors:
            if desc.is_write == is_write:
                out |= desc.addresses()
                expanded = True
        if expanded and self.registry is not None:
            self.registry.inc("runtime.shadow.lazy_expansions")
        self._exact[is_write] = out
        return out

    def line_counts(self) -> Counter:
        """Cache-line events of the writes, for the false-sharing model."""
        counter: Counter = Counter()
        for addr in self.writes:
            counter[addr >> _LINE_SHIFT] += 1
        for base, _lanes in self.packed_writes:
            counter[base >> _LINE_SHIFT] += 1
        for desc in self.descriptors:
            if desc.is_write:
                desc.add_line_counts(counter)
        return counter


class StrideDescriptor:
    """All executions of one affine access site within one chunk.

    Denotes the multiset of word accesses ``first + stride*k + 8*lane``
    for ``k in [0, trips)`` and ``lane in [0, lanes)``, plus (for writes)
    one cache-line event at ``first + stride*k`` per ``k``.
    """

    __slots__ = ("first", "stride", "trips", "lanes", "is_write")

    def __init__(self, first: int, stride: int, trips: int, lanes: int,
                 is_write: bool) -> None:
        self.first = first
        self.stride = stride
        self.trips = trips
        self.lanes = lanes
        self.is_write = is_write

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rw = "W" if self.is_write else "R"
        return (f"<stride {rw} first={self.first:#x} stride={self.stride} "
                f"trips={self.trips} lanes={self.lanes}>")

    def interval(self) -> tuple[int, int]:
        """Inclusive [lo, hi] bounds over every member word address."""
        span = self.stride * (self.trips - 1)
        lo = self.first + min(span, 0)
        hi = self.first + max(span, 0) + WORD * (self.lanes - 1)
        return lo, hi

    def addresses(self) -> set[int]:
        """Exact expansion (the lazy path; O(trips * lanes))."""
        first, stride = self.first, self.stride
        out: set[int] = set()
        for lane in range(self.lanes):
            base = first + WORD * lane
            out.update(base + stride * k for k in range(self.trips))
        return out

    def add_line_counts(self, counter: Counter) -> None:
        """Accumulate the per-``k`` base-address cache-line events.

        Closed-form per line for small strides (the common unit-stride
        array walk costs O(touched lines), ~8x fewer Python iterations
        than one counter update per store); per-``k`` for strides of
        a cache line or more (each event lands on a distinct line).
        """
        first, stride, trips = self.first, self.stride, self.trips
        if stride == 0:
            counter[first >> _LINE_SHIFT] += trips
            return
        if stride < 0:  # normalise to an ascending progression
            first += stride * (trips - 1)
            stride = -stride
        if stride >= (1 << _LINE_SHIFT):
            for k in range(trips):
                counter[(first + stride * k) >> _LINE_SHIFT] += 1
            return
        last = first + stride * (trips - 1)
        for line in range(first >> _LINE_SHIFT,
                          (last >> _LINE_SHIFT) + 1):
            # k with line*64 <= first + stride*k < (line+1)*64,
            # clamped to [0, trips).
            lo_num = (line << _LINE_SHIFT) - first
            k_lo = max(0, -(-lo_num // stride))
            k_hi = min(trips - 1,
                       (lo_num + (1 << _LINE_SHIFT) - 1) // stride)
            if k_hi >= k_lo:
                counter[line] += k_hi - k_lo + 1


def _merge_intervals(intervals: list[tuple[int, int]]) \
        -> list[tuple[int, int]]:
    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi + 1:
            if hi > last_hi:
                merged[-1] = (last_lo, hi)
        else:
            merged.append((lo, hi))
    return merged


def intervals_overlap(a: list[tuple[int, int]],
                      b: list[tuple[int, int]]) -> bool:
    """Whether two merged, sorted extent lists share any word."""
    i = j = 0
    while i < len(a) and j < len(b):
        a_lo, a_hi = a[i]
        b_lo, b_hi = b[j]
        if a_lo <= b_hi and b_lo <= a_hi:
            return True
        if a_hi < b_hi:
            i += 1
        else:
            j += 1
    return False
