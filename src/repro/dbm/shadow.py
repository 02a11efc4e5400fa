"""Shadow-memory artifacts for the parallel runtime.

Each parallel worker records the memory accesses of its chunk so the
runtime can detect cross-thread conflicts and charge false sharing.  The
records are three representations deep:

* :class:`ShadowSink` — flat per-worker event lists.  The generated
  shadow runners (``repro.dbm.jit`` / ``repro.dbm.superblock``) append raw
  addresses to them behind an inlined filter on the worker's own
  stack/TLS bounds, which the runner's namespace binds per worker (the
  source is shared by all workers); the reference dispatch
  (``Interpreter.force_reference``) appends the same events through
  :meth:`ShadowSink.record`.
* :class:`StrideDescriptor` — one ``(first, stride, trips, lanes)`` record
  summarising every execution of a statically-proven affine access site
  for one chunk.  The compiled runners skip these sites entirely; the
  runtime materialises the descriptor from loop metadata
  (``LoopMeta.affine_accesses``) at chunk setup, in O(1).  Under
  ``force_reference`` the runtime records no descriptors and the
  reference records those sites raw, so the differential test pins the
  descriptor math against exact per-access recording.
* :class:`ShadowView` — the query interface conflict detection runs on.
  It answers interval/membership/line-count queries from the raw events
  plus descriptors, and only *lazily expands* descriptors into exact
  address sets when another worker's interval summary actually overlaps
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
    """Flat raw-event storage for one worker thread.

    The generated shadow runners bind the ``append`` methods of these
    lists at compile time; the lists are therefore cleared *in place*
    (never reassigned) so compiled code cached across loop invocations
    stays valid.
    """

    __slots__ = ("thread_id", "tls_lo", "tls_hi", "stack_lo", "stack_hi",
                 "reads", "writes", "packed_reads", "packed_writes")

    def __init__(self, thread_id: int, tls_lo: int, tls_hi: int,
                 stack_lo: int, stack_hi: int) -> None:
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

    def event_count(self) -> int:
        return (len(self.reads) + len(self.writes)
                + len(self.packed_reads) + len(self.packed_writes))


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

    def contains(self, addr: int) -> bool:
        first, stride, trips = self.first, self.stride, self.trips
        for lane in range(self.lanes):
            d = addr - first - WORD * lane
            if stride == 0:
                if d == 0:
                    return True
            elif d % stride == 0 and 0 <= d // stride < trips:
                return True
        return False

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


def _intervals_overlap(a: list[tuple[int, int]],
                       b: list[tuple[int, int]]) -> bool:
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


class ShadowView:
    """One worker's shadow accesses behind the detection query API.

    Conflict detection (``ParallelRuntime._detect_violations`` and
    friends) runs entirely against this interface: the interval
    summaries are a conservative prefilter (never a false negative), and
    every positive is confirmed on the exact sets.
    """

    def __init__(self, thread_id: int, sink: ShadowSink, descriptors=(),
                 registry=None) -> None:
        self.thread_id = thread_id
        self.sink = sink
        self.descriptors = list(descriptors)
        self._registry = registry
        self._reads: set[int] | None = None
        self._writes: set[int] | None = None
        self._lines: Counter | None = None
        self._raw_writes: set[int] | None = None

    # -- interval summaries ----------------------------------------------

    def read_intervals(self) -> list[tuple[int, int]]:
        return self._intervals(False)

    def write_intervals(self) -> list[tuple[int, int]]:
        return self._intervals(True)

    def _intervals(self, is_write: bool) -> list[tuple[int, int]]:
        sink = self.sink
        raw = sink.writes if is_write else sink.reads
        packed = sink.packed_writes if is_write else sink.packed_reads
        intervals = [d.interval() for d in self.descriptors
                     if d.is_write == is_write]
        if raw:
            intervals.append((min(raw), max(raw)))
        for base, lanes in packed:
            intervals.append((base, base + WORD * (lanes - 1)))
        return _merge_intervals(intervals)

    # -- exact materialisation ------------------------------------------

    def _expand(self, is_write: bool) -> set[int]:
        sink = self.sink
        raw = sink.writes if is_write else sink.reads
        packed = sink.packed_writes if is_write else sink.packed_reads
        out = set(raw)
        for base, lanes in packed:
            out.update(base + WORD * k for k in range(lanes))
        expanded = False
        for desc in self.descriptors:
            if desc.is_write == is_write:
                out |= desc.addresses()
                expanded = True
        if expanded and self._registry is not None:
            self._registry.inc("runtime.shadow.lazy_expansions")
        return out

    def reads(self) -> set[int]:
        if self._reads is None:
            self._reads = self._expand(False)
        return self._reads

    def writes(self) -> set[int]:
        if self._writes is None:
            self._writes = self._expand(True)
        return self._writes

    # -- cheap membership (no full expansion) ---------------------------

    def has_writes(self) -> bool:
        sink = self.sink
        return bool(sink.writes or sink.packed_writes
                    or any(d.is_write for d in self.descriptors))

    def writes_contain(self, addr: int) -> bool:
        if self._writes is not None:
            return addr in self._writes
        if self._raw_writes is None:
            raw = set(self.sink.writes)
            for base, lanes in self.sink.packed_writes:
                raw.update(base + WORD * k for k in range(lanes))
            self._raw_writes = raw
        if addr in self._raw_writes:
            return True
        return any(d.is_write and d.contains(addr)
                   for d in self.descriptors)

    # -- false-sharing line counts --------------------------------------

    def line_counts(self) -> Counter:
        if self._lines is None:
            counter: Counter = Counter()
            for addr in self.sink.writes:
                counter[addr >> _LINE_SHIFT] += 1
            for base, _lanes in self.sink.packed_writes:
                counter[base >> _LINE_SHIFT] += 1
            for desc in self.descriptors:
                if desc.is_write:
                    desc.add_line_counts(counter)
            self._lines = counter
        return self._lines


def views_may_conflict(a: ShadowView, b: ShadowView) -> bool:
    """Conservative prefilter for the pairwise conflict formula.

    True whenever ``(a.W vs b.R|b.W) or (a.R vs b.W)`` *could* intersect.
    """
    aw, ar = a.write_intervals(), a.read_intervals()
    bw, br = b.write_intervals(), b.read_intervals()
    return (_intervals_overlap(aw, bw) or _intervals_overlap(aw, br)
            or _intervals_overlap(ar, bw))
