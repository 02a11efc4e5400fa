"""Microbenchmark: simulated-instructions-per-second of the execution tiers.

Runs two hot loops — a straight-line DOALL body (``xs[i] = xs[i] * 0.5 +
ys[i]``, which -O3 vectorises) and a *branchy* body (``if (xs[i] > t) ...
else ...``, the shape the superblock tier targets) — under:

* ``reference``           — per-instruction reference dispatch,
* ``linked``              — the trace-cache block tier (block linking) with
                            superblock promotion disabled
                            (``superblock_threshold = 0``),
* ``superblock``          — the full tier stack: hot multi-block loops are
                            stitched into guarded superblocks,
* ``recording_reference`` — reference dispatch with an access log attached
                            and a recording window open for the whole run
                            (every Mem-operand access is logged),
* ``recording``           — the compiled recording variant under the same
                            live window (what external-call and oracle
                            replay windows run).

The machine this runs on is noisy across processes, so the ratio-critical
JIT tiers are measured interleaved (round-robin within one process) with
best-of-N (minimum wall time) per mode; the slow baseline modes run once.

Run as a script to print a JSON report and write ``BENCH_throughput.json``
via the telemetry BENCH exporter::

    PYTHONPATH=src python benchmarks/bench_interp_throughput.py [out.json]

The pytest entry point runs a shortened loop and asserts the acceptance
ratios: linked >= 3x over the reference dispatch, recording >= 1.5x
over the recording reference, and superblock >= 1.1x (straight-line) /
>= 2x (branchy) over the linked tier.
"""

from __future__ import annotations

import json
import sys
import time

from repro.dbm.accesslog import AccessLog
from repro.dbm.blocks import Block, discover_block
from repro.dbm.interp import Interpreter
from repro.dbm.machine import Machine, make_main_context
from repro.dbm.tracecache import run_loop
from repro.jbin.loader import load
from repro.jcc import CompileOptions, compile_source
from repro.telemetry import core

STRAIGHT_TEMPLATE = """
double xs[2048];
double ys[2048];
int main() {{
    int i;
    int r;
    for (i = 0; i < 2048; i++) {{ ys[i] = 0.125 * i; }}
    for (r = 0; r < {reps}; r++) {{
        for (i = 0; i < 2048; i++) {{ xs[i] = xs[i] * 0.5 + ys[i]; }}
    }}
    print_double(xs[7]);
    return 0;
}}
"""

BRANCHY_TEMPLATE = """
double xs[2048];
double ys[2048];
int main() {{
    int i;
    int r;
    for (i = 0; i < 2048; i++) {{ ys[i] = 0.125 * i; xs[i] = 1.0; }}
    for (r = 0; r < {reps}; r++) {{
        for (i = 0; i < 2048; i++) {{
            if (xs[i] > 0.5) {{
                xs[i] = xs[i] * 0.5 + ys[i];
            }} else {{
                xs[i] = xs[i] + ys[i] + 1.0;
            }}
        }}
    }}
    print_double(xs[7]);
    return 0;
}}
"""

WORKLOADS = (
    ("straight", STRAIGHT_TEMPLATE),
    ("branchy", BRANCHY_TEMPLATE),
)

# Hot-loop promotion threshold used by the JIT-tier runners.  The default
# (16 entries) is a warm-up policy tuned for long runs; the benchmark
# measures steady-state tier throughput, so it promotes earlier to keep
# the warm-up tail from dominating the shortened pytest run.
BENCH_SUPERBLOCK_THRESHOLD = 4


def build_image(template: str, reps: int):
    return compile_source(template.format(reps=reps),
                          CompileOptions(opt_level=3))


def _fresh(image):
    process = load(image)
    machine = Machine()
    machine.memory.load_words(process.initial_data())
    machine.inputs = list(process.inputs)
    ctx = make_main_context(process.entry, machine.memory)
    interp = Interpreter(machine, process)
    return process, machine, ctx, interp


def _run_loop(process, ctx, interp) -> None:
    cache: dict[int, Block] = {}

    def lookup(pc, _ctx):
        block = cache.get(pc)
        if block is None:
            block = cache[pc] = discover_block(process, pc)
        return block

    run_loop(interp, ctx, ctx.pc, lookup)
    core.get_recorder().absorb(interp.jit_stats.registry)


def run_reference(image):
    process, machine, ctx, interp = _fresh(image)
    interp.force_reference = True
    _run_loop(process, ctx, interp)
    return ctx, machine


def run_linked(image):
    """The block tier alone: superblock promotion switched off."""
    process, machine, ctx, interp = _fresh(image)
    interp.superblock_threshold = 0
    _run_loop(process, ctx, interp)
    return ctx, machine


def run_superblock(image):
    """The full tier stack with early hot-loop promotion."""
    process, machine, ctx, interp = _fresh(image)
    interp.superblock_threshold = BENCH_SUPERBLOCK_THRESHOLD
    _run_loop(process, ctx, interp)
    return ctx, machine


def _open_window(interp) -> None:
    interp.access_log = AccessLog()
    interp.recording = True


def run_recording_reference(image):
    process, machine, ctx, interp = _fresh(image)
    interp.force_reference = True
    _open_window(interp)
    _run_loop(process, ctx, interp)
    return ctx, machine


def run_recording(image):
    process, machine, ctx, interp = _fresh(image)
    _open_window(interp)
    _run_loop(process, ctx, interp)
    return ctx, machine


# (name, runner, rounds): ratio-critical JIT tiers get best-of-N rounds,
# interleaved with each other; the slow baselines run once.
MODES = (
    ("reference", run_reference, 1),
    ("linked", run_linked, 3),
    ("superblock", run_superblock, 3),
    ("recording_reference", run_recording_reference, 1),
    ("recording", run_recording, 2),
)


def _ratio(modes: dict, a: str, b: str) -> float:
    return round(modes[a]["ins_per_sec"] / modes[b]["ins_per_sec"], 2)


def measure_workload(name: str, template: str, reps: int) -> dict:
    image = build_image(template, reps)
    rec = core.get_recorder()
    best: dict[str, float] = {}
    instructions: dict[str, int] = {}
    outputs = None
    max_rounds = max(rounds for _n, _r, rounds in MODES)
    for round_no in range(max_rounds):
        for mode, runner, rounds in MODES:
            if round_no >= rounds:
                continue
            with rec.span(f"bench.{name}.{mode}", cat="bench"):
                start = time.perf_counter()
                result, machine = runner(image)
                elapsed = time.perf_counter() - start
            if outputs is None:
                outputs = machine.outputs
            else:
                assert machine.outputs == outputs, f"{name}/{mode} diverged"
            instructions[mode] = result.instructions
            if mode not in best or elapsed < best[mode]:
                best[mode] = elapsed
    report: dict = {"workload": name, "reps": reps, "modes": {}}
    for mode, _runner, rounds in MODES:
        ips = round(instructions[mode] / best[mode])
        report["modes"][mode] = {
            "seconds": round(best[mode], 4),
            "rounds": rounds,
            "instructions": instructions[mode],
            "ins_per_sec": ips,
        }
        rec.gauge(f"bench.{name}.{mode}.mips", round(ips / 1e6, 3))
    report["ratios"] = {
        "linked_vs_reference": _ratio(
            report["modes"], "linked", "reference"),
        "superblock_vs_linked": _ratio(
            report["modes"], "superblock", "linked"),
        "recording_vs_recording_reference": _ratio(
            report["modes"], "recording", "recording_reference"),
    }
    for key, value in report["ratios"].items():
        rec.gauge(f"bench.{name}.{key}", value)
    return report


def measure(reps: int) -> dict:
    return {"reps": reps,
            "workloads": {name: measure_workload(name, template, reps)
                          for name, template in WORKLOADS}}


def test_throughput_smoke():
    """CI smoke: every tier must hold its PR's speedup floor."""
    report = measure(reps=32)
    straight = report["workloads"]["straight"]["ratios"]
    branchy = report["workloads"]["branchy"]["ratios"]
    assert straight["linked_vs_reference"] >= 3.0, report
    assert straight["recording_vs_recording_reference"] >= 1.5, report
    assert straight["superblock_vs_linked"] >= 1.1, report
    assert branchy["superblock_vs_linked"] >= 2.0, report


def main(argv: list[str]) -> int:
    from repro.telemetry import aggregate, export

    out = argv[1] if len(argv) > 1 else "BENCH_throughput.json"
    recorder = core.enable(label="bench_interp_throughput")
    report = measure(reps=60)
    merged = aggregate.merge([recorder.dump()])
    core.disable()
    export.write_bench_snapshot(out, merged, name="interp_throughput")
    print(json.dumps(report, indent=2))
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
