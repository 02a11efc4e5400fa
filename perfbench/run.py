"""Run one workload of the Janus end-to-end benchmark and print its metrics.

    python3 perfbench/run.py --workload fig7-figures --seed 1 --seconds 36 \\
        --trace 0

Run from anywhere inside a checkout: the script finds ``src/`` and
``BENCHMARK.json`` beside its own directory.  One process does all the work
with ``jobs=1``; simulated threads run in-process.  A set-up round imports
``repro`` and compiles every binary with jcc.  One round runs at process
start; before every pass, rounds repeat from an empty ``sys.modules`` until
they have taken ``SETUP_SECONDS``.  Passes repeat while the next one is
expected to end within ``--seconds``, and at least ``MIN_PASSES`` run.
Every pass is checked op by op against ``perfbench/expected/<workload>.json``;
each mismatch, and each expected op the pass did not run, is printed by op
name and counted as failed.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported:
timings are scaled to a nominal machine by the probe of
``perfbench/calibrate.py``; ``setup_s`` is the median over the set-up
rounds, and the pass timings sum each op's fastest time over the passes
(see :func:`_end_to_end`).  With
``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are reported (see perfbench/tracing.py and README.md);
the spans of the last traced pass are written to
``.perfbench/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "BENCHMARK.json"
SCRATCH = ROOT / ".perfbench"
# Every run measures at least this many passes (with --trace 1: untraced
# and traced alternate), however long they take.
MIN_PASSES = 2
# Before every pass, set-up rounds repeat until they have taken this long.
SETUP_SECONDS = 1.0
# Calibration probes after each set-up round; their median scales it.
SETUP_PROBES = 5


def parse_args(argv, run_seconds):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--binaries",
                        help="comma-separated subset of the workload's "
                             "benchmarks (for quick checks)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    for needed in (MANIFEST, ROOT / "src" / "repro"):
        if not needed.exists():
            print(f"perfbench: {needed} not found; run from a checkout of "
                  f"the repository", file=sys.stderr)
            return 2
    manifest = json.loads(MANIFEST.read_text())
    args = parse_args(argv, manifest["run_seconds"])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import checks, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    only = args.binaries.split(",") if args.binaries else None
    expected = checks.load_expected(checks.expected_path(args.workload))
    units = {metric["name"]: metric["unit"] for metric in
             manifest["per_layer" if args.trace else "end_to_end"]}
    SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        return _bench(args, only, expected, units, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _bench(args, only, expected, units, scratch) -> int:
    from perfbench import checks, tracing, workloads

    inputs = workloads.set_up(args.workload, only)
    setup_times = [_scaled(time.perf_counter() - START)]
    if only:
        expected = checks.for_binaries(expected, only)
    plain, traced = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        index = len(plain) + len(traced)
        tracer = setup_tracer = None
        if args.trace and index % 2:
            tracer, setup_tracer = tracing.Tracer(), tracing.Tracer()
        # Set-up rounds before every pass spread the set-up samples over the
        # whole run, as the pass samples are.  Only the first is traced.
        round_tracer = setup_tracer
        rounds_began = time.perf_counter()
        while True:
            del inputs
            workloads.forget_repro()
            gc.collect()
            began = time.perf_counter()
            inputs = workloads.set_up(args.workload, only, round_tracer)
            setup_times.append(_scaled(time.perf_counter() - began))
            round_tracer = None
            if time.perf_counter() - rounds_began >= SETUP_SECONDS:
                break
        gc.collect()
        rng = random.Random(f"{args.seed}:{index}")
        result = workloads.run_pass(args.workload, inputs, rng, scratch,
                                    tracer)
        if tracer is not None:
            traced.append((result, tracer, setup_tracer))
        else:
            plain.append(result)
        print(f"pass {index + 1}{' traced' if tracer else ''}: "
              f"{result.seconds:.3f} s (set-up {setup_times[-1]:.3f} s)")
        mismatches = checks.compare(result.observed, expected)
        attempted += len(set(result.observed) | set(expected))
        failed += len(mismatches)
        for op, message in mismatches:
            print(f"FAILED {op}: {message}")
        now = time.perf_counter()
        if index + 1 >= MIN_PASSES and now + (now - rounds_began) > deadline:
            break

    if args.trace:
        values = _per_layer(plain, traced)
        for layer, share in _layer_shares(traced).items():
            print(f"share of traced pass  {layer:14s} {share:7.1%}")
        _write_trace(args, traced[-1])
    else:
        values = _end_to_end(setup_times, plain)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:14.6f} {metric['unit']}")
    print(f"{'ops':36s} {attempted:14d} count")
    print(f"{'ops_failed':36s} {failed:14d} count")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _scaled(seconds: float) -> float:
    """A set-up round's ``seconds`` on the nominal machine, by the median
    of ``SETUP_PROBES`` calibration probes run right after it."""
    from perfbench import calibrate

    probes = [calibrate.probe() for _ in range(SETUP_PROBES)]
    return seconds * calibrate.NOMINAL_PROBE_S / statistics.median(probes)


def _end_to_end(setup_times, passes) -> dict:
    """The end-to-end metrics.  Each pass's times are scaled to the nominal
    machine by the median of its calibration probes; the pass timings then
    rest on each op's fastest scaled time over the passes, since what the
    scaling leaves of machine noise mostly adds time (README.md, "Run-to-run
    spread and bounds").  ``pass_s`` adds the fastest scaled time a pass
    spent between ops; ``binary_geomean_s`` sums the fastest op times of
    each binary."""
    from perfbench import calibrate

    scales = [calibrate.NOMINAL_PROBE_S / statistics.median(p.probe_seconds)
              for p in passes]
    fastest = {op: min(p.op_seconds[op] * scale
                       for p, scale in zip(passes, scales))
               for op in passes[0].op_seconds}
    between_ops = min((p.seconds - sum(p.op_seconds.values())) * scale
                      for p, scale in zip(passes, scales))
    per_binary = Counter()
    for op, seconds in fastest.items():
        per_binary[op.split("/")[0]] += seconds
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": sum(fastest.values()) + between_ops,
        "binary_geomean_s": math.exp(statistics.fmean(
            math.log(v) for v in per_binary.values())),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# Per-layer metrics that are sums of a tracer count over one traced pass.
_COUNTS = ("analysis.functions", "analysis.loops", "analysis.static_doall",
           "analysis.dynamic_doall", "rewrite.rules",
           "rewrite.schedule_bytes", "profiling.sim_instructions",
           "verify.oracle_iterations", "verify.race_pairs",
           "dbm.sim_instructions")
# Per-layer timings: metric -> span-name prefix whose self time it sums.
_SELF_TIMES = {
    "jbin.load_s": "jbin",
    "analysis.s": "analysis",
    "rewrite.schedule_s": "rewrite",
    "profiling.train_s": "profiling.train",
    "profiling.fig6_s": "profiling.fig6",
    "verify.oracle_s": "verify.oracle",
    "verify.static_s": "verify.static",
    "dbm.native_s": "dbm.native",
    "dbm.dbm_only_s": "dbm.dbm_only",
    "dbm.parallel_s": "dbm.parallel",
}
LAYERS = ("jbin", "analysis", "rewrite", "profiling", "verify", "dbm", "eval")


def _ratio(top, bottom) -> float:
    return top / bottom if bottom else 0.0


def _per_layer(plain, traced) -> dict:
    """Per-layer metrics: timings are medians over the traced passes (jcc:
    over the set-up rounds before them); counts, which repeat exactly, come
    from the last traced pass."""

    def median(fn):
        return statistics.median(fn(result, tracer)
                                 for result, tracer, _ in traced)

    values = {name: median(lambda r, t, prefix=prefix: t.self_seconds(prefix))
              for name, prefix in _SELF_TIMES.items()}
    values.update({
        "jcc.compile_s": statistics.median(
            setup.self_seconds("jcc") for _, _, setup in traced),
        "profiling.mips": median(lambda r, t: _ratio(
            t.counts["profiling.sim_instructions"] / 1e6,
            t.self_seconds("profiling"))),
        "dbm.mips": median(lambda r, t: _ratio(
            t.counts["dbm.sim_instructions"] / 1e6, t.self_seconds("dbm"))),
        "eval.cold_self_s":
            median(lambda r, t: t.self_seconds("eval", phase="cold")),
        "eval.warm_s": median(lambda r, t: r.phases.get("warm", 0.0)),
        "trace.pass_s": median(lambda r, t: r.seconds),
        "trace.unattributed_s":
            median(lambda r, t: r.seconds - t.attributed_seconds()),
    })
    result, tracer, setup = traced[-1]
    counts = tracer.counts
    values.update({name: counts[name] for name in _COUNTS})
    values["jcc.text_bytes"] = setup.counts["jcc.text_bytes"]

    def stat(key):
        return counts[f"stats.{key}"]

    passed = stat("checks_passed")
    values.update({
        "dbm.blocks_translated": stat("blocks_translated"),
        "dbm.superblock_entries": stat("superblock_entries"),
        "dbm.instrumented_blocks": stat("instrumented_blocks"),
        "dbm.fallback_share": _ratio(stat("fallback_instructions"),
                                     counts["exec.instructions"]),
        "runtime.loop_invocations_parallel":
            stat("loop_invocations_parallel"),
        "runtime.check_pass_ratio":
            _ratio(passed, passed + stat("checks_failed")),
        "runtime.stm_cycles": stat("stm_cycles"),
        "eval.cache_bytes": result.cache_bytes,
        "trace.overhead_ratio": _ratio(
            values["trace.pass_s"],
            statistics.median(p.seconds for p in plain)),
    })
    return values


def _layer_shares(traced) -> dict:
    """Each layer's share of the last traced pass (self time / pass)."""
    result, tracer, _ = traced[-1]
    shares = {layer: tracer.self_seconds(layer) / result.seconds
              for layer in LAYERS}
    shares["unattributed"] = 1.0 - sum(shares.values())
    return shares


def _write_trace(args, last_traced) -> None:
    _, tracer, setup = last_traced
    path = SCRATCH / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps({
        "setup": [span.to_dict() for span in setup.spans],
        "pass": [span.to_dict() for span in tracer.spans],
    }))


if __name__ == "__main__":
    sys.exit(main())
