"""The per-image translation memo (``repro.dbm.jit.translation_memo``).

Decoded instructions, block-runner code objects and stripped superblocks
are memoised per image and shared by every translation of it.  The contract
is that a memo hit is invisible: a run with a warm memo is identical —
outputs, simulated cycles, exit code and every stats counter — to one
that translates everything from scratch.
"""

import pytest

from repro.dbm import jit
from repro.dbm.blocks import discover_block
from repro.dbm.editor import BlockEditor
from repro.dbm.modifier import JanusDBM
from repro.dbm.runtime import ParallelRuntime
from repro.isa.costs import instruction_cycles
from repro.isa.instructions import Instruction, Opcode
from repro.jbin.loader import load
from repro.pipeline import Janus, JanusConfig, SelectionMode
from repro.workloads import compile_workload, get_workload

# The Fig. 7 execution cells: (mode, threads).
FIG7_CELLS = [
    (SelectionMode.NATIVE, 1),
    (SelectionMode.DBM_ONLY, 8),
    (SelectionMode.STATIC, 8),
    (SelectionMode.STATIC_PROFILE, 8),
    (SelectionMode.JANUS, 8),
    (SelectionMode.JANUS, 1),
]


def _clear_memo():
    jit._MEMO_SLOT[:] = [None, {}]


@pytest.fixture(scope="module")
def trained():
    cache = {}

    def get(name):
        if name not in cache:
            workload = get_workload(name)
            janus = Janus(compile_workload(name), JanusConfig(n_threads=8))
            training = janus.train(train_inputs=list(workload.train_inputs))
            cache[name] = (workload, janus, training)
        return cache[name]

    return get


def test_workers_share_shadow_code(trained):
    """Every worker of a JANUS@8 loop runs one code object per block,
    each bound to that worker's own filter bounds."""
    workload, janus, training = trained("470.lbm")
    schedule = janus.build_schedule(SelectionMode.JANUS, training)
    dbm = JanusDBM(load(janus.image, inputs=list(workload.ref_inputs)),
                   schedule=schedule, n_threads=8)
    ParallelRuntime(dbm)
    dbm.run()
    runners: dict[int, list] = {}
    for thread_id, cache in dbm.caches.items():
        if thread_id == 0:
            continue
        for pc, block in cache.items():
            if block.jit is not None:
                runners.setdefault(pc, []).append(block.jit)
    shared = {pc: fns for pc, fns in runners.items() if len(fns) > 1}
    assert shared, "no block ran on two workers"
    for fns in shared.values():
        assert len({id(fn.__code__) for fn in fns}) == 1
        assert len({id(fn) for fn in fns}) == len(fns)
        assert len({fn.__globals__["_slo"] for fn in fns}) == len(fns)


def test_editor_insert_does_not_leak_into_memo():
    process = load(compile_workload("470.lbm"))
    block = discover_block(process, process.entry)
    original = list(block.instructions)
    editor = BlockEditor(block)
    editor.insert_at_start(Instruction(Opcode.NOP))
    edited = editor.finish()
    assert len(edited) == len(original) + 1
    block.instructions.append(Instruction(Opcode.NOP))
    block.jit = object()
    again = discover_block(process, process.entry)
    assert again is not block
    assert again.instructions == original
    assert again.jit is None
    assert (again.end, again.cost) == (edited.end, block.cost)


def test_decode_is_shared_across_stop_addresses():
    """Each instruction is decoded once per image, wherever a run's stop
    addresses split its blocks."""
    process = load(compile_workload("470.lbm"))
    # The entry block calls main; main's first block is longer.
    call = discover_block(process, process.entry).terminator
    main = process.resolve_target(call.operands[0].value)
    whole = discover_block(process, main)
    assert len(whole) >= 2
    split = discover_block(process, main, stop_addresses=frozenset(
        {whole.instructions[1].address}))
    assert len(split) == 1 and split.end == whole.instructions[1].address
    assert split.instructions[0] is whole.instructions[0]
    assert split.cost == instruction_cycles(whole.instructions[0])


def test_switching_images_drops_previous_entries():
    lbm = load(compile_workload("470.lbm"))
    milc = load(compile_workload("433.milc"))
    discover_block(lbm, lbm.entry)
    memo = jit.translation_memo(lbm)
    assert memo
    # Another process of the same image shares the memo.
    assert jit.translation_memo(load(lbm.image, inputs=[1])) is memo
    discover_block(milc, milc.entry)
    assert jit._MEMO_SLOT[0] is milc.image
    fresh = jit.translation_memo(milc)
    assert fresh is not memo
    lbm_decoded = {id(value[0]) for key, value in memo.items()
                   if key[0] == "ins"}
    assert lbm_decoded
    assert not any(id(value[0]) in lbm_decoded
                   for key, value in fresh.items() if key[0] == "ins")
    assert jit.translation_memo(None) == {}


@pytest.mark.parametrize("mode,threads", FIG7_CELLS,
                         ids=[f"{m.name}@{t}" for m, t in FIG7_CELLS])
@pytest.mark.parametrize("name", ["410.bwaves", "470.lbm"])
def test_warm_memo_run_is_identical(trained, name, mode, threads):
    """A cell translated from a warm memo matches a from-scratch one."""
    workload, janus, training = trained(name)

    def run():
        return janus.run(mode, inputs=list(workload.ref_inputs),
                         training=training, n_threads=threads)

    _clear_memo()
    cold = run()
    memo = jit.translation_memo(load(janus.image))
    entries = len(memo)
    warm = run()
    # Every translation of the second run was a memo hit.
    assert len(memo) == entries
    assert warm.outputs == cold.outputs
    assert warm.cycles == cold.cycles
    assert warm.exit_code == cold.exit_code
    assert warm.stats == cold.stats
    assert warm.stats.get("blocks_translated", 0) > 0
