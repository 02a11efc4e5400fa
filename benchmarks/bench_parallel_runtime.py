"""Microbenchmark: parallel-worker throughput of the shadow tiers.

Runs a DOALL-dominated program (repeated invocations of two
parallelised array loops — a branchy multi-block body that the
superblock tier stitches, and a straight store-dense body) under the
full Janus system with both dispatches:

* ``reference`` — the per-instruction reference dispatch
                  (``Interpreter.force_reference``): workers return to
                  the dispatcher at every block boundary, and every
                  memory access at a site that is not summarised is
                  filtered and appended to the worker's shadow sink one
                  by one,
* ``compiled``  — the generated shadow runners: workers stay on the
                  linked/superblock JIT tiers.

Both dispatches skip the summarised sites, which the runtime covers
with per-chunk stride descriptors, and record the same raw events for
the rest, so the ratio measures dispatch and execution, not what is
recorded.

The two runs must produce identical outputs (the differential sweep in
``tests/dbm/test_shadow_diff.py`` additionally proves identical shadow
sets and conflict verdicts).  The headline metric is **worker
throughput**: simulated instructions per second inside the pool
threads, measured over the ``runtime.worker`` telemetry spans so main
thread serial phases and the invocation bookkeeping shared by both
modes do not dilute the comparison.  End-to-end wall time is reported
alongside.

Run as a script to print a JSON report and write ``BENCH_parallel.json``
via the telemetry BENCH exporter::

    PYTHONPATH=src python benchmarks/bench_parallel_runtime.py [out.json]

The pytest entry point runs a shortened loop and asserts the acceptance
floor: compiled worker throughput >= 24x over the reference dispatch,
with superblocks forming inside the compiled-mode workers.
"""

from __future__ import annotations

import json
import sys
import time

from repro.dbm.modifier import JanusDBM
from repro.dbm.runtime import ParallelRuntime
from repro.jbin.loader import load
from repro.pipeline import Janus, JanusConfig, SelectionMode
from repro.telemetry import core

# The branchy kernel hoists its loads above the branch and sinks the
# store below the join, so every access dominates the latch and is
# summarisable; the condition stays true, so the superblock's biased
# path never side-exits.
TEMPLATE = """
double xs[16384];
double ys[16384];
double zs[16384];
double ws[16384];
double acc[16384];
int main() {{
    int i;
    int r;
    double t;
    double u;
    double v;
    double total;
    for (i = 0; i < 16384; i++) {{
        ys[i] = 0.125 * i;
        zs[i] = 0.5 * i;
        ws[i] = 2.0;
        xs[i] = 1.0;
    }}
    for (r = 0; r < {reps}; r++) {{
        for (i = 0; i < 16384; i++) {{
            t = xs[i];
            u = ys[i];
            if (t > 0.5) {{
                v = t * 0.5 + u;
            }} else {{
                v = t + u + 1.0;
            }}
            acc[i] = v;
            xs[i] = v * 0.25 + 1.0;
        }}
        for (i = 0; i < 16384; i++) {{
            t = acc[i];
            u = ys[i];
            if (t > u) {{
                v = t - u * 0.5;
            }} else {{
                v = u - t * 0.5;
            }}
            zs[i] = v;
            ws[i] = v * 0.25 + 1.0;
        }}
    }}
    total = 0.0;
    for (i = 0; i < 16384; i++) {{ total = total + ws[i]; }}
    print_double(total);
    return 0;
}}
"""

N_THREADS = 4

MODES = ("reference", "compiled")
# Compiled worker throughput floor over the reference dispatch: 84% of
# the ratio six smoke runs (reps=3) measured on a 2-core Intel Xeon
# (27.2x-32.7x, median 28.9x) — the proportion the earlier floor against
# a per-access callback baseline kept to its measured ratio (3x against
# 3.56x), so the check is no looser.
FLOOR = 24.0
ROUNDS = 2  # best-of-N, interleaved within one process


def build_image(reps: int):
    from repro.jcc import CompileOptions, compile_source

    return compile_source(TEMPLATE.format(reps=reps),
                          CompileOptions(opt_level=3))


def _worker_totals(dump: dict) -> tuple[float, int]:
    """(wall seconds, simulated instructions) over runtime.worker spans."""
    total_ns = 0
    instructions = 0
    for event in dump["events"]:
        if event.get("name") == "runtime.worker" and "dur" in event:
            total_ns += event["dur"]
            instructions += event.get("args", {}).get("instructions", 0)
    return total_ns / 1e9, instructions


def measure(reps: int) -> tuple[dict, list[dict]]:
    image = build_image(reps)
    best: dict[str, dict] = {}
    results: dict[str, object] = {}
    dumps: list[dict] = []
    for _round in range(ROUNDS):
        for mode in MODES:
            janus = Janus(image, JanusConfig(n_threads=N_THREADS))
            recorder = core.enable(label=f"bench_parallel_{mode}")
            start = time.perf_counter()
            dbm = JanusDBM(load(image),
                           schedule=janus.build_schedule(SelectionMode.STATIC),
                           n_threads=N_THREADS)
            dbm.interp.force_reference = mode == "reference"
            ParallelRuntime(dbm)
            result = dbm.run(max_instructions=janus.config.max_instructions)
            elapsed = time.perf_counter() - start
            dump = recorder.dump()
            core.disable()
            dumps.append(dump)
            previous = results.get(mode)
            if previous is not None:
                assert result.outputs == previous.outputs, \
                    f"{mode} diverged between rounds"
            results[mode] = result
            worker_seconds, worker_instructions = _worker_totals(dump)
            sample = {"seconds": elapsed,
                      "worker_seconds": worker_seconds,
                      "worker_instructions": worker_instructions}
            if mode not in best \
                    or worker_seconds < best[mode]["worker_seconds"]:
                best[mode] = sample
    reference, compiled = results["reference"], results["compiled"]
    assert reference.outputs == compiled.outputs, "dispatches diverged"
    report: dict = {"reps": reps, "n_threads": N_THREADS, "modes": {}}
    for mode in MODES:
        result = results[mode]
        sample = best[mode]
        workers_ips = round(sample["worker_instructions"]
                            / sample["worker_seconds"])
        report["modes"][mode] = {
            "seconds": round(sample["seconds"], 4),
            "worker_seconds": round(sample["worker_seconds"], 4),
            "worker_instructions": sample["worker_instructions"],
            "worker_ins_per_sec": workers_ips,
            "parallel_invocations":
                result.stats["loop_invocations_parallel"],
            "superblock_entries": result.stats["superblock_entries"],
        }
    ratio = round(report["modes"]["compiled"]["worker_ins_per_sec"]
                  / report["modes"]["reference"]["worker_ins_per_sec"], 2)
    end_to_end = round(report["modes"]["reference"]["seconds"]
                       / report["modes"]["compiled"]["seconds"], 2)
    report["ratios"] = {"worker_compiled_vs_reference": ratio,
                        "end_to_end_compiled_vs_reference": end_to_end}
    return report, dumps


def test_parallel_smoke():
    """CI smoke: the compiled shadow tier must hold its speedup floor."""
    report, _dumps = measure(reps=3)
    compiled = report["modes"]["compiled"]
    assert compiled["parallel_invocations"] > 0, report
    assert compiled["superblock_entries"] > 0, report
    assert report["ratios"]["worker_compiled_vs_reference"] >= FLOOR, report


def main(argv: list[str]) -> int:
    from repro.telemetry import aggregate, export

    out = argv[1] if len(argv) > 1 else "BENCH_parallel.json"
    report, dumps = measure(reps=8)
    recorder = core.enable(label="bench_parallel_runtime")
    for mode in MODES:
        entry = report["modes"][mode]
        recorder.gauge(f"bench.parallel.{mode}.worker_mips",
                       round(entry["worker_ins_per_sec"] / 1e6, 3))
    for key, value in report["ratios"].items():
        recorder.gauge(f"bench.parallel.{key}", value)
    dumps.append(recorder.dump())
    core.disable()
    merged = aggregate.merge(dumps)
    export.write_bench_snapshot(out, merged, name="parallel_runtime")
    print(json.dumps(report, indent=2))
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
