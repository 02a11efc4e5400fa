"""Committed expectations, the per-op comparison and the reference check.

``perfbench/expected/<workload>.json`` holds, for every op, the value a
pass must observe: output digest, simulated cycles and exit code of each
execution; figure rows; training-profile digests; oracle verdict counts;
schedule sha256 per family, loop-category histogram, racecheck verdict
counts and finding counts of each statically checked binary.  The files
are written by ``perfbench/record.py``, which first checks every program's
output against the reference interpreter.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def load_expected(path) -> dict:
    """The ``ops`` table of one expectation file."""
    with open(path) as fh:
        return json.load(fh)["ops"]


def for_binaries(expected: dict, names) -> dict:
    """The expected ops of the binaries ``names`` (op = ``<binary>/...``)."""
    names = set(names)
    return {op: value for op, value in expected.items()
            if op.split("/", 1)[0] in names}


def compare(observed: dict, expected: dict) -> list[tuple[str, str]]:
    """(op, message) for every observed op that differs from ``expected``
    and every expected op the pass did not run."""
    mismatches = []
    for op, value in observed.items():
        if op not in expected:
            mismatches.append((op, "no committed expectation"))
        elif value != expected[op]:
            mismatches.append((op, _difference(expected[op], value)))
    mismatches.extend((op, "not run") for op in expected
                      if op not in observed)
    return mismatches


def _difference(want, got) -> str:
    if isinstance(want, dict) and isinstance(got, dict):
        keys = sorted(k for k in set(want) | set(got)
                      if want.get(k) != got.get(k))
        return "; ".join(f"{k}: expected {want.get(k)!r}, got {got.get(k)!r}"
                         for k in keys)
    return f"expected {want!r}, got {got!r}"


def reference_run(image, inputs) -> dict:
    """Execute ``image`` on the per-instruction reference interpreter.

    Returns the same fields :func:`perfbench.workloads.execution_digest`
    records, plus the instruction count.  The compiled JIT tiers are
    pinned against this dispatch, so it is the ground truth for outputs.
    """
    from repro.dbm.blocks import discover_block
    from repro.dbm.executor import ExecutionResult
    from repro.dbm.interp import Interpreter
    from repro.dbm.machine import Machine, make_main_context
    from repro.dbm.tracecache import run_loop
    from repro.jbin.loader import load

    process = load(image, inputs=list(inputs))
    machine = Machine()
    machine.memory.load_words(process.initial_data())
    machine.inputs = list(process.inputs)
    ctx = make_main_context(process.entry, machine.memory)
    interp = Interpreter(machine, process)
    interp.force_reference = True
    cache: dict = {}

    def lookup(pc, _ctx):
        block = cache.get(pc)
        if block is None:
            block = cache[pc] = discover_block(process, pc)
        return block

    run_loop(interp, ctx, ctx.pc, lookup)
    result = ExecutionResult(cycles=ctx.cycles, instructions=ctx.instructions,
                             outputs=machine.outputs, exit_code=ctx.exit_code,
                             machine=machine)
    return {"output": hashlib.sha256(result.output_text.encode()).hexdigest(),
            "cycles": result.cycles, "exit": result.exit_code,
            "instructions": result.instructions}
