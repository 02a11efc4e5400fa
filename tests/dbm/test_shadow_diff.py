"""Differential sweep: the compiled shadow tier vs the reference dispatch.

Parallel workers record their memory accesses for conflict detection and
the false-sharing model (:mod:`repro.dbm.shadow`).  The compiled tier
records through generated shadow runners; the reference per-instruction
dispatch (``force_reference``) records every access one by one into the
same sink.  Both skip the statically summarised sites, which the runtime
covers with stride descriptors.  The contract is *observational
equivalence*: for every parallelised workload and both scheduling
policies, the shadow sets, line counters, conflict verdicts, outputs,
final memory and every counter outside the JIT tier must be identical.
A third run withholds the summaries, so the reference records every
access raw: its expanded sets pin the descriptor math against exact
per-access recording.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.dbm.executor import run_native
from repro.dbm.modifier import JanusDBM
from repro.dbm.runtime import ParallelRuntime, WorkerState
from repro.dbm.shadow import ShadowSink, StrideDescriptor, intervals_overlap
from repro.jbin.loader import load
from repro.pipeline import Janus, JanusConfig, SelectionMode
from repro.workloads import FIG7_BENCHMARKS, compile_workload, get_workload

# Counters that legitimately differ between the two dispatches: the JIT
# tier's (the reference compiles nothing).  Withholding the summaries
# also changes the shadow recorder's own.
VARYING_PREFIXES = ("jit.",)
EXACT_VARYING_PREFIXES = ("jit.", "runtime.shadow.")

WORD = 8


def _capture_detect(captures):
    """Wrap _check_conflicts to snapshot every worker's expanded sink."""
    original = ParallelRuntime._check_conflicts

    def wrapper(self, workers):
        snap = []
        for worker in workers:
            sink = worker.sink
            snap.append((worker.thread_id,
                         sorted(sink.exact(False)),
                         sorted(sink.exact(True)),
                         dict(sink.line_counts())))
        captures.append(snap)
        return original(self, workers)

    return original, wrapper


def run_dispatch(image, workload, schedule, scheduling, reference,
                 summaries=True):
    dbm = JanusDBM(load(image, inputs=list(workload.train_inputs)),
                   schedule=schedule, n_threads=4, scheduling=scheduling)
    dbm.interp.force_reference = reference
    runtime = ParallelRuntime(dbm)
    if not summaries:
        runtime._affine_by_loop = {}
        dbm.interp.shadow_summarised = frozenset()
    captures: list = []
    original, wrapper = _capture_detect(captures)
    ParallelRuntime._check_conflicts = wrapper
    try:
        result = dbm.run(max_instructions=500_000_000)
    finally:
        ParallelRuntime._check_conflicts = original
    return result, captures, dbm.registry.as_dict()


@pytest.fixture(scope="module")
def trained():
    cache = {}

    def get(name):
        if name not in cache:
            workload = get_workload(name)
            image = compile_workload(name)
            janus = Janus(image, JanusConfig(n_threads=4))
            training = janus.train(train_inputs=list(workload.train_inputs))
            schedule = janus.build_schedule(SelectionMode.JANUS, training)
            cache[name] = (workload, image, schedule)
        return cache[name]

    return get


def _stable(counters, varying=VARYING_PREFIXES):
    return {key: value for key, value in counters.items()
            if not key.startswith(varying)}


@pytest.mark.parametrize("scheduling", ["chunk", "round_robin"])
@pytest.mark.parametrize("name", FIG7_BENCHMARKS)
def test_compiled_matches_hook(trained, name, scheduling):
    """Compiled shadow recording matches the reference dispatch's."""
    workload, image, schedule = trained(name)
    ref, ref_caps, ref_counters = run_dispatch(image, workload, schedule,
                                               scheduling, reference=True)
    comp, comp_caps, comp_counters = run_dispatch(image, workload, schedule,
                                                  scheduling, reference=False)
    assert comp.outputs == ref.outputs
    assert comp.exit_code == ref.exit_code
    assert comp.data_snapshot() == ref.data_snapshot()
    # Identical shadow sets, per invocation, per worker.
    assert comp_caps == ref_caps
    assert ref_caps, f"{name} never entered parallel detection"
    assert ref_counters.get("runtime.shadow.summarised", 0) > 0
    # Identical counters outside the JIT tier.
    assert _stable(comp_counters) == _stable(ref_counters)
    # With the summaries withheld the reference records every access
    # raw: the descriptors must expand to exactly the same sets and line
    # counts.
    exact, exact_caps, exact_counters = run_dispatch(
        image, workload, schedule, scheduling, reference=True,
        summaries=False)
    assert exact_caps == ref_caps
    assert exact_counters.get("runtime.shadow.events", 0) > 0
    assert exact.outputs == ref.outputs
    assert exact.exit_code == ref.exit_code
    assert exact.data_snapshot() == ref.data_snapshot()
    assert exact_counters.get("runtime.shadow.summarised", 0) == 0
    assert _stable(exact_counters, EXACT_VARYING_PREFIXES) \
        == _stable(ref_counters, EXACT_VARYING_PREFIXES)
    # Outputs also match a native run (the oracle's base truth).
    native = run_native(load(image, inputs=list(workload.train_inputs)))
    assert comp.exit_code == native.exit_code


def test_workers_reach_superblock_tier():
    """Acceptance: compiled-mode workers execute on the superblock tier."""
    name = "462.libquantum"
    workload = get_workload(name)
    image = compile_workload(name)
    janus = Janus(image, JanusConfig(n_threads=4))
    training = janus.train(train_inputs=list(workload.train_inputs))
    schedule = janus.build_schedule(SelectionMode.JANUS, training)
    dbm = JanusDBM(load(image, inputs=list(workload.train_inputs)),
                   schedule=schedule, n_threads=4)
    ParallelRuntime(dbm)
    result = dbm.run(max_instructions=500_000_000)
    assert result.stats["loop_invocations_parallel"] > 0
    assert result.stats["superblock_entries"] > 0
    counters = dbm.registry.as_dict()
    assert counters.get("runtime.shadow.summarised", 0) > 0


def test_detection_verdicts_match_across_representations():
    """A synthetic conflict raises identically from raw events and from
    stride descriptors."""
    from repro.dbm.machine import ThreadContext
    from repro.dbm.rtcalls import DependenceViolationError
    from repro.jcc import CompileOptions, compile_source
    from repro.rewrite.metadata import LoopMeta

    image = compile_source("int main() { print_int(1); return 0; }",
                           CompileOptions(opt_level=2))
    runtime = ParallelRuntime(JanusDBM(load(image)))
    meta = LoopMeta(loop_id=0, header_addr=0, preheader_addr=0,
                    exit_target=0, iterator_var=("stack", 0), step=1,
                    cond="l", test_offset=0, test_position="top",
                    bound_form=("imm", 0), cmp_address=0, iv_operand_index=0,
                    static_trips=-1, delta_header=0)

    def worker(thread_id, reads=(), writes=(), descriptors=()):
        sink = ShadowSink(thread_id=thread_id, tls_lo=1 << 40,
                          tls_hi=(1 << 40) + 64, stack_lo=1 << 41,
                          stack_hi=(1 << 41) + 64)
        sink.reads.extend(reads)
        sink.writes.extend(writes)
        sink.descriptors.extend(descriptors)
        return WorkerState(thread_id=thread_id,
                           ctx=ThreadContext(thread_id=thread_id),
                           chunks=[(0, 1)], meta=meta, sink=sink)

    # Thread 1 writes [0x1000, 0x1040); thread 2 reads 0x1020: conflict.
    raw_pair = [worker(1, writes=[0x1000 + WORD * k for k in range(8)]),
                worker(2, reads=[0x1020])]
    descriptor_pair = [
        worker(1, descriptors=[StrideDescriptor(0x1000, 8, 8, 1, True)]),
        worker(2, reads=[0x1020])]

    messages = []
    for pair in (raw_pair, descriptor_pair):
        with pytest.raises(DependenceViolationError) as err:
            runtime._check_conflicts(pair)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "0x1020" in messages[0]


# -- hypothesis: descriptor math vs brute-force expansion -------------------

descriptor_st = st.builds(
    StrideDescriptor,
    st.integers(min_value=0x1000, max_value=0x2000).map(lambda a: a & ~7),
    st.sampled_from([-64, -24, -16, -8, 0, 8, 16, 24, 64, 72]),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([1, 2, 4]),
    st.booleans(),
)

addr_st = st.integers(min_value=0x1000 // 8, max_value=0x3000 // 8) \
    .map(lambda w: w * 8)

sink_contents_st = st.tuples(
    st.lists(addr_st, max_size=10),               # raw reads
    st.lists(addr_st, max_size=10),               # raw writes
    st.lists(st.tuples(addr_st, st.sampled_from([2, 4])), max_size=4),
    st.lists(descriptor_st, max_size=4),
)


def build_sink(thread_id, contents):
    reads, writes, packed_writes, descriptors = contents
    sink = ShadowSink(thread_id=thread_id, tls_lo=1 << 40,
                      tls_hi=(1 << 40) + 64, stack_lo=1 << 41,
                      stack_hi=(1 << 41) + 64)
    sink.reads.extend(reads)
    sink.writes.extend(writes)
    sink.packed_writes.extend(packed_writes)
    sink.descriptors.extend(descriptors)
    return sink


def brute_sets(contents):
    reads, writes, packed_writes, descriptors = contents
    read_set = set(reads)
    write_set = set(writes)
    lines = Counter()
    for addr in writes:
        lines[addr >> 6] += 1
    for base, lanes in packed_writes:
        lines[base >> 6] += 1
        write_set.update(base + WORD * k for k in range(lanes))
    for d in descriptors:
        target = write_set if d.is_write else read_set
        for lane in range(d.lanes):
            target.update(d.first + WORD * lane + d.stride * k
                          for k in range(d.trips))
        if d.is_write:
            for k in range(d.trips):
                lines[(d.first + d.stride * k) >> 6] += 1
    return read_set, write_set, lines


@settings(max_examples=120, deadline=None)
@given(sink_contents_st, sink_contents_st)
def test_sink_queries_match_bruteforce(contents_a, contents_b):
    sink_a, sink_b = build_sink(1, contents_a), build_sink(2, contents_b)
    reads_a, writes_a, lines_a = brute_sets(contents_a)
    reads_b, writes_b, lines_b = brute_sets(contents_b)
    # The interval prefilter is conservative: a real conflict always
    # passes it (expand-on-overlap can never miss an overlap).
    if writes_a & (reads_b | writes_b):
        assert intervals_overlap(sink_a.intervals(True),
                                 sink_b.intervals(True)) \
            or intervals_overlap(sink_a.intervals(True),
                                 sink_b.intervals(False))
    if reads_a & writes_b:
        assert intervals_overlap(sink_a.intervals(False),
                                 sink_b.intervals(True))
    # Exact expansion agrees with brute force.
    assert sink_a.exact(False) == reads_a
    assert sink_a.exact(True) == writes_a
    assert sink_a.line_counts() == lines_a
    assert sink_b.line_counts() == lines_b
    # The sink persists across invocations: clear() must also drop the
    # descriptors and the memoised exact sets.
    sink_a.clear()
    assert sink_a.exact(False) == sink_a.exact(True) == set()
    assert not sink_a.intervals(True) and not sink_a.line_counts()


@settings(max_examples=80, deadline=None)
@given(descriptor_st)
def test_descriptor_interval(desc):
    expanded = desc.addresses()
    lo, hi = desc.interval()
    assert min(expanded) == lo
    assert max(expanded) == hi
