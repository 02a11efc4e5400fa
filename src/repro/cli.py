"""Command-line interface: the analyser and DBM as separate tools.

Mirrors the paper's deployment: the static side produces artefacts
(`compile`, `analyze`, `schedule`), the dynamic side consumes them (`run`),
and `figures` regenerates the evaluation.

    python -m repro compile program.jc -o app.jelf -O3 --personality gcc
    python -m repro analyze app.jelf
    python -m repro schedule app.jelf -o app.jrs --train-input 2
    python -m repro run app.jelf --mode native --input 4
    python -m repro run app.jelf --schedule app.jrs --threads 8 --input 4
    python -m repro figures fig7
    python -m repro trace 470.lbm -o trace.json --mode janus
    python -m repro stats trace.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis import analyze_image
from repro.dbm.executor import DEFAULT_INSTRUCTION_LIMIT, run_native
from repro.dbm.modifier import JanusDBM, run_under_dbm
from repro.dbm.runtime import ParallelRuntime
from repro.jbin.image import JELF
from repro.jbin.loader import load
from repro.jcc import CompileOptions, compile_source
from repro.pipeline import Janus, JanusConfig, SelectionMode
from repro.rewrite.schedule import RewriteSchedule
from repro.util import atomic_write_bytes, atomic_write_text, image_digest


def _load_binary(path: str) -> tuple:
    """(image, content digest) for one binary argument.

    The digest is :func:`repro.util.image_digest`, the identity the eval
    cache keys by.
    """
    image = JELF.deserialize(open(path, "rb").read())
    return image, image_digest(image)


def _cmd_compile(args) -> int:
    source = open(args.source).read()
    options = CompileOptions(opt_level=args.opt_level,
                             personality=args.personality,
                             mavx=args.mavx, parallel=args.parallel)
    image = compile_source(source, options)
    atomic_write_bytes(args.output, image.serialize())
    print(f"wrote {args.output}: {len(image.text.data)} bytes of code, "
          f"{len(image.imports)} imports [{options.comment}]")
    return 0


def _cmd_analyze(args) -> int:
    image, digest = _load_binary(args.binary)
    analysis = analyze_image(image)
    print(f"{args.binary}: {len(analysis.functions)} functions, "
          f"{len(analysis.loops)} loops [sha256:{digest[:16]}]")
    print(f"{'loop':>4s} {'function':>10s} {'header':>10s} "
          f"{'category':20s} {'trips':>8s} {'checks':>6s} notes")
    for result in analysis.loops:
        iterator = result.induction.iterator if result.induction else None
        trips = "-"
        if iterator is not None:
            trips = (str(iterator.static_trip_count)
                     if iterator.static_trip_count is not None
                     else "runtime")
        checks = (len(result.alias.bounds_checks)
                  if result.alias is not None else 0)
        note = result.reasons[0] if result.reasons else ""
        print(f"{result.loop_id:4d} {result.loop.function_entry:#10x} "
              f"{result.loop.header:#10x} {result.category.value:20s} "
              f"{trips:>8s} {checks:6d} {note}")
    if args.mode == "vector":
        from repro.rewrite import vector_candidates

        print()
        print(f"{'loop':>4s} {'vector':>7s} {'lanes':>5s} {'aligned':>7s} "
              f"reason")
        for verdict in vector_candidates(analysis):
            status = "legal" if verdict.ok else "reject"
            reason = "" if verdict.ok else (verdict.reasons[0]
                                            if verdict.reasons else "")
            print(f"{verdict.loop_id:4d} {status:>7s} {verdict.lanes:5d} "
                  f"{str(verdict.aligned):>7s} {reason}")
    elif args.mode == "prefetch":
        from repro.rewrite import generate_prefetch_schedule

        schedule = generate_prefetch_schedule(analysis)
        by_loop: dict[int, int] = {}
        for rule in schedule.rules:
            record = schedule.record(rule.data)
            by_loop[record[1]] = by_loop.get(record[1], 0) + 1
        print()
        print(f"prefetch: {len(schedule.rules)} hint rules across "
              f"{len(by_loop)} loops")
        for loop_id in sorted(by_loop):
            print(f"{loop_id:4d} {by_loop[loop_id]:3d} hints")
    return 0


def _cmd_schedule(args) -> int:
    image, digest = _load_binary(args.binary)
    janus = Janus(image, JanusConfig(n_threads=args.threads))
    training = None
    if not args.no_train:
        training = janus.train(train_inputs=args.train_input)
    mode = SelectionMode(args.mode)
    schedule = janus.build_schedule(mode, training)
    atomic_write_bytes(args.output, schedule.serialize())
    selected = janus.select_loops(mode, training)
    print(f"wrote {args.output}: {len(schedule)} rules, "
          f"{schedule.size_bytes} bytes, loops {selected} "
          f"[sha256:{digest[:16]}]")
    return 0


def _cmd_run(args) -> int:
    image = JELF.deserialize(open(args.binary, "rb").read())
    process = load(image, inputs=args.input)
    if args.schedule:
        schedule = RewriteSchedule.deserialize(
            open(args.schedule, "rb").read())
        dbm = JanusDBM(process, schedule=schedule, n_threads=args.threads,
                       scheduling=args.scheduling)
        ParallelRuntime(dbm)
        result = dbm.run()
        label = f"janus x{args.threads}"
    elif args.mode == "dbm":
        result = run_under_dbm(process)
        label = "dbm"
    else:
        result = run_native(process)
        label = "native"
    print(result.output_text)
    print(f"[{label}] {result.cycles} cycles, "
          f"{result.instructions} instructions, exit {result.exit_code}",
          file=sys.stderr)
    if result.stats:
        # Stable machine-readable form on stderr; --stats-json writes the
        # full (zeros included) counter set to a file for scripting.
        interesting = {k: v for k, v in sorted(result.stats.items()) if v}
        print("[stats] " + json.dumps(interesting, sort_keys=True),
              file=sys.stderr)
    if args.stats_json:
        payload = {
            "label": label,
            "cycles": result.cycles,
            "instructions": result.instructions,
            "exit_code": result.exit_code,
            "stats": dict(sorted(result.stats.items())),
        }
        atomic_write_text(args.stats_json,
                          json.dumps(payload, indent=1) + "\n")
    return result.exit_code


def _cmd_figures(args) -> int:
    from repro.eval import figures, reporting
    from repro.eval.harness import EvalHarness

    cache_dir = None if args.no_cache else args.cache_dir
    harness = EvalHarness(cache_dir=cache_dir, jobs=args.jobs,
                          telemetry=args.telemetry)
    benchmarks = None
    if args.benchmarks:
        benchmarks = [name.strip()
                      for name in args.benchmarks.split(",") if name.strip()]
    producers = {
        "fig6": (figures.fig6_classification, reporting.render_fig6),
        "fig7": (figures.fig7_speedups, reporting.render_fig7),
        "fig8": (figures.fig8_breakdown, reporting.render_fig8),
        "fig9": (figures.fig9_scaling, reporting.render_fig9),
        "fig10": (figures.fig10_schedule_size, reporting.render_fig10),
        "fig11": (figures.fig11_compiler_comparison,
                  reporting.render_fig11),
        "fig12": (figures.fig12_opt_levels, reporting.render_fig12),
        "table1": (figures.table1_bounds_checks, reporting.render_table1),
        "table2": (lambda _h=None, benchmarks=None:
                   figures.table2_features(),
                   reporting.render_table2),
        "verify": (figures.verify_rows, reporting.render_verify),
    }
    # The default is every figure and table; the verifier runs only when
    # named.
    names = args.which or [n for n in sorted(producers) if n != "verify"]
    unknown = [name for name in names if name not in producers]
    if unknown:
        print(f"unknown figures: {', '.join(unknown)}", file=sys.stderr)
        return 2

    recorder = None
    if args.telemetry:
        from repro.telemetry import aggregate, core

        recorder = core.enable(label="figures")
        if harness.telemetry_dir() is not None:
            aggregate.clear(harness.telemetry_dir())

    # Fan the needed executions out over worker processes first (no-op at
    # --jobs 1 or --no-cache); the figures below then assemble from warm
    # cache hits, bit-identical to a serial run.  Telemetry rides along:
    # workers flush recorder dumps beside the cache and the parent merges
    # them below, so figure *output* is unchanged by tracing.
    harness.warm([name for name in names if name not in ("table2", "verify")],
                 benchmarks=benchmarks)
    verify_confirmed = 0
    for name in names:
        produce, render = producers[name]
        rows = produce(harness, benchmarks=benchmarks)
        print(render(rows))
        print()
        if name == "verify":
            verify_confirmed += sum(row["confirmed_unsound"] for row in rows)

    if recorder is not None:
        from repro.telemetry import aggregate, core, export

        merged = aggregate.collect(recorder, harness.telemetry_dir())
        trace = export.write_chrome_trace(args.trace_out, merged)
        print(f"[telemetry] wrote {args.trace_out}: "
              f"{trace['meta']['spans']} spans from "
              f"{trace['meta']['processes']} processes, "
              f"{len(trace['metrics']['counters'])} counters",
              file=sys.stderr)
        core.disable()
    return 1 if verify_confirmed else 0


def _cmd_verify(args) -> int:
    from repro.verify import Severity, exit_code, verify_workload
    from repro.workloads import all_benchmarks

    names = args.workloads or all_benchmarks()
    reports = []
    for name in names:
        report = verify_workload(name, train=not args.no_train,
                                 max_iterations=args.max_iterations,
                                 max_instructions=args.max_instructions,
                                 demote=args.demote)
        reports.append(report)
        verdict = "UNSOUND" if report.confirmed else "ok"
        print(f"{name:18s} {verdict:8s} "
              f"functions={report.functions_checked} "
              f"loops={report.loops_checked} rules={report.rules_linted} "
              f"oracle={report.oracle_loops} loops/"
              f"{report.oracle_iterations} iters "
              f"warnings={len(report.by_severity(Severity.WARNING))} "
              f"errors={len(report.errors)} "
              f"unsound={len(report.confirmed)}")
        for finding in report.findings:
            if finding.severity is not Severity.INFO:
                print(f"  {finding}")
        if report.demoted_loops:
            print(f"  demoted loops: {report.demoted_loops}")
    if args.output:
        payload = {
            "workloads": [report.to_dict() for report in reports],
            "confirmed": sum(len(r.confirmed) for r in reports),
            "errors": sum(len(r.errors) for r in reports),
        }
        atomic_write_text(args.output, json.dumps(payload, indent=1) + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    return exit_code(reports)


def _cmd_racecheck(args) -> int:
    from repro.verify.racecheck import (
        RaceVerdict,
        exit_code,
        racecheck_workload,
    )
    from repro.workloads import all_benchmarks

    names = args.workloads or all_benchmarks()
    modes = args.mode or ["parallel", "vector"]
    reports = []
    for name in names:
        for mode in modes:
            report = racecheck_workload(name, mode=mode)
            reports.append(report)
            d = report.to_dict()
            verdict = "ok" if report.ok else "RACE"
            print(f"{name:18s} {mode:9s} {verdict:5s} "
                  f"loops={d['loops_checked']} pairs={d['pairs_total']} "
                  f"proven={d['proven_disjoint']} guarded={d['guarded']} "
                  f"possible={d['possible_races']}")
            for pair in report.by_verdict(RaceVerdict.POSSIBLE_RACE):
                print(f"  possible race: fn {pair.function:#x} "
                      f"loop {pair.loop_id} {pair.source:#x}/{pair.sink:#x}")
    if args.output:
        payload = {
            "reports": [report.to_dict() for report in reports],
            "possible_races": sum(
                len(r.by_verdict(RaceVerdict.POSSIBLE_RACE))
                for r in reports),
            "unsound_static_loops": sum(
                len(r.unsound_static_loops) for r in reports),
        }
        atomic_write_text(args.output,
                          json.dumps(payload, indent=1, sort_keys=True)
                          + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    return exit_code(reports)


def _cmd_trace(args) -> int:
    from repro.eval.harness import EvalHarness
    from repro.telemetry import aggregate, core, export

    recorder = core.enable(label="trace")
    harness = EvalHarness(n_threads=args.threads)
    mode = SelectionMode(args.mode)
    if mode is SelectionMode.NATIVE:
        result = harness.native(args.workload)
    else:
        result = harness.run(args.workload, mode, n_threads=args.threads)
    merged = aggregate.merge([recorder.dump()])
    trace = export.write_chrome_trace(args.output, merged)
    if args.metrics_out:
        export.write_metrics(args.metrics_out, merged)
    core.disable()
    print(f"wrote {args.output}: {trace['meta']['spans']} spans, "
          f"{len(trace['metrics']['counters'])} counters "
          f"[{mode.value}: {result.cycles} cycles, "
          f"{result.instructions} instructions]")
    return 0


_JIT_TIERS = (("fast", "jit"),
              ("superblock", "jit_super"))


def _cmd_jit_dump(args) -> int:
    from repro.dbm.interp import Interpreter
    from repro.dbm.jit import compile_block_fn
    from repro.dbm.machine import Machine
    from repro.workloads import compile_workload, get_workload

    try:
        workload = get_workload(args.workload)
    except KeyError:
        print(f"unknown workload: {args.workload}", file=sys.stderr)
        return 2
    target = None
    if args.pc is not None:
        try:
            target = int(args.pc, 0)
        except ValueError:
            print(f"bad --pc value: {args.pc}", file=sys.stderr)
            return 2
    image = compile_workload(args.workload)
    inputs = args.input or list(workload.train_inputs)
    process = load(image, inputs=inputs)
    cache: dict = {}
    run_native(process, max_instructions=args.max_instructions,
               block_cache=cache)
    if target is not None and target not in cache:
        print(f"no block at {target:#x} in the code cache "
              f"({len(cache)} blocks)", file=sys.stderr)
        return 1
    pcs = sorted(cache) if target is None else [target]
    # A block entered only once ran through the reference dispatch and
    # has no runner: compile it as its second entry would have.
    interp = Interpreter(Machine(), process)
    shown = 0
    for pc in pcs:
        block = cache[pc]
        if block.entered and block.jit is None:
            block.jit = compile_block_fn(block, interp, None)
        for tier, attr in _JIT_TIERS:
            source = getattr(getattr(block, attr), "__jit_source__", None)
            if source is None:
                continue
            shown += 1
            print(f"-- {pc:#x} [{tier}] "
                  f"{len(block.instructions)} instructions")
            print(source)
    print(f"[jit-dump] {len(cache)} blocks in code cache, "
          f"{shown} compiled runners printed", file=sys.stderr)
    return 0


def _stats_views(payload: dict) -> tuple[dict, dict, dict]:
    """(counters, gauges, span aggregates) from any telemetry JSON shape.

    Accepts an exported Chrome trace (``traceEvents`` + ``metrics``), a
    merged dump (``processes``), a single recorder dump (``events``) or a
    flat metrics file (``counters``/``gauges``).
    """
    from repro.telemetry import aggregate, export

    if "traceEvents" in payload:
        metrics = payload.get("metrics", {})
        spans: dict[str, dict] = {}
        for event in payload["traceEvents"]:
            if event.get("ph") != "X":
                continue
            entry = spans.setdefault(
                event["name"], {"count": 0, "total_ms": 0.0, "max_ms": 0.0})
            ms = event.get("dur", 0) / 1000.0  # trace files are in us
            entry["count"] += 1
            entry["total_ms"] += ms
            entry["max_ms"] = max(entry["max_ms"], ms)
        spans = {name: {"count": entry["count"],
                        "total_ms": round(entry["total_ms"], 3),
                        "max_ms": round(entry["max_ms"], 3)}
                 for name, entry in sorted(spans.items())}
        return (metrics.get("counters", {}), metrics.get("gauges", {}),
                spans)
    if "metrics" in payload and isinstance(payload["metrics"], dict):
        # BENCH_*.json perf snapshot: span aggregates + flat metrics.
        metrics = payload["metrics"]
        return (metrics.get("counters", {}), metrics.get("gauges", {}),
                payload.get("spans", {}))
    if "events" in payload:
        payload = aggregate.merge([payload])
    if isinstance(payload.get("processes"), list):
        metrics = export.metrics(payload)
        return (metrics["counters"], metrics["gauges"],
                export.span_aggregates(payload))
    return (payload.get("counters", {}), payload.get("gauges", {}), {})


def _cmd_stats(args) -> int:
    try:
        with open(args.path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(payload, dict):
        print(f"{args.path}: not a telemetry JSON object", file=sys.stderr)
        return 2
    counters, gauges, spans = _stats_views(payload)
    if counters:
        print("counters")

        def _namespace(key: str) -> str:
            # The worker shadow tier gets its own section so `repro stats`
            # surfaces recording/summarisation behaviour at a glance.
            if key.startswith("runtime.shadow."):
                return "runtime.shadow"
            return key.split(".", 1)[0]

        group = None
        for key in sorted(counters, key=lambda k: (_namespace(k), k)):
            namespace = _namespace(key)
            if namespace != group:
                group = namespace
                print(f"  [{namespace}]")
            print(f"    {key:44s} {counters[key]:>14}")
    if gauges:
        print("gauges")
        for key in sorted(gauges):
            print(f"    {key:44s} {gauges[key]:>14g}")
    if spans:
        print("spans")
        print(f"    {'name':32s} {'count':>7s} "
              f"{'total_ms':>11s} {'max_ms':>11s}")
        for name, entry in spans.items():
            print(f"    {name:32s} {entry['count']:7d} "
                  f"{entry['total_ms']:11.3f} {entry['max_ms']:11.3f}")
    if not (counters or gauges or spans):
        print("no telemetry data found")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Janus reproduction toolchain")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile JC source to a JELF binary")
    c.add_argument("source")
    c.add_argument("-o", "--output", required=True)
    c.add_argument("-O", "--opt-level", type=int, default=3,
                   choices=(0, 2, 3))
    c.add_argument("--personality", default="gcc", choices=("gcc", "icc"))
    c.add_argument("--mavx", action="store_true")
    c.add_argument("--parallel", action="store_true",
                   help="compiler auto-parallelisation baseline")
    c.set_defaults(func=_cmd_compile)

    a = sub.add_parser("analyze", help="static loop analysis of a binary")
    a.add_argument("binary")
    a.add_argument("--mode", default="parallel",
                   choices=("parallel", "vector", "prefetch"),
                   help="also report the named rewrite family's "
                        "per-loop legality (vector) or hint plan "
                        "(prefetch)")
    a.set_defaults(func=_cmd_analyze)

    s = sub.add_parser("schedule",
                       help="generate a parallelisation rewrite schedule")
    s.add_argument("binary")
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--mode", default="janus",
                   choices=("static", "static_profile", "janus"))
    s.add_argument("--threads", type=int, default=8)
    s.add_argument("--train-input", type=int, action="append", default=[])
    s.add_argument("--no-train", action="store_true")
    s.set_defaults(func=_cmd_schedule)

    r = sub.add_parser("run", help="execute a binary")
    r.add_argument("binary")
    r.add_argument("--schedule", help="rewrite schedule (enables Janus)")
    r.add_argument("--mode", default="native", choices=("native", "dbm"))
    r.add_argument("--threads", type=int, default=8)
    r.add_argument("--scheduling", default="chunk",
                   choices=("chunk", "round_robin"),
                   help="iteration scheduling policy (paper II-E)")
    r.add_argument("--input", type=int, action="append", default=[])
    r.add_argument("--stats-json",
                   help="write cycles/instructions and the full stats "
                        "counter set to this file as JSON")
    r.set_defaults(func=_cmd_run)

    f = sub.add_parser("figures", help="regenerate paper figures/tables")
    f.add_argument("which", nargs="*",
                   help="fig6..fig12, table1, table2 (default: all), or "
                        "verify: run the soundness verifier over the "
                        "benchmarks and print its summary table (exit 1 "
                        "on confirmed unsoundness)")
    f.add_argument("--cache-dir", default=".repro-cache",
                   help="directory for persisted run results")
    f.add_argument("--no-cache", action="store_true",
                   help="recompute every run; touch no on-disk cache")
    f.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes for the evaluation fan-out "
                        "(default: all cores; figure output is identical "
                        "at any value; needs the on-disk cache)")
    f.add_argument("--benchmarks",
                   help="comma-separated workload subset (default: each "
                        "figure's full benchmark list)")
    f.add_argument("--telemetry", action="store_true",
                   help="record spans/counters across the run (workers "
                        "included) and write one merged Chrome trace; "
                        "figure output is unchanged")
    f.add_argument("--trace-out", default="trace.json",
                   help="Chrome trace path for --telemetry "
                        "(default: trace.json)")
    f.set_defaults(func=_cmd_figures)

    v = sub.add_parser("verify",
                       help="soundness-check analysis results, rewrite "
                            "schedules and DOALL claims (exit 1 on "
                            "confirmed unsoundness)")
    v.add_argument("workloads", nargs="*",
                   help="suite workload names (default: all)")
    v.add_argument("-o", "--output",
                   help="write the full findings JSON to this file")
    v.add_argument("--max-iterations", type=int, default=128,
                   help="oracle replay bound per loop invocation")
    v.add_argument("--max-instructions", type=int, default=None,
                   help="instruction cap per oracle/profiling run")
    v.add_argument("--no-train", action="store_true",
                   help="skip the profiling passes; verify the untrained "
                        "pipeline's claims")
    v.add_argument("--demote", action="store_true",
                   help="demote confirmed-unsound loops")
    v.set_defaults(func=_cmd_verify)

    rc = sub.add_parser("racecheck",
                        help="static race check over the loops a schedule "
                             "family parallelises: classify every residual "
                             "shared access pair as proven-disjoint, "
                             "guarded, or a possible race (exit 1 on a "
                             "possible race in a claimed STATIC_DOALL "
                             "loop)")
    rc.add_argument("workloads", nargs="*",
                    help="suite workload names (default: all)")
    rc.add_argument("--mode", action="append", default=[],
                    choices=("parallel", "vector"),
                    help="schedule families to check (default: both)")
    rc.add_argument("-o", "--output",
                    help="write the deterministic findings JSON to this "
                         "file")
    rc.set_defaults(func=_cmd_racecheck)

    t = sub.add_parser("trace",
                       help="run one suite workload under telemetry and "
                            "write a Chrome trace (chrome://tracing)")
    t.add_argument("workload", help="suite workload name, e.g. 470.lbm")
    t.add_argument("-o", "--output", default="trace.json")
    t.add_argument("--mode", default="janus",
                   choices=[m.value for m in SelectionMode])
    t.add_argument("--threads", type=int, default=8)
    t.add_argument("--metrics-out",
                   help="also write the flat metrics JSON here")
    t.set_defaults(func=_cmd_trace)

    jd = sub.add_parser("jit-dump",
                        help="run a suite workload natively and print the "
                             "generated-Python source of its compiled "
                             "blocks and superblocks")
    jd.add_argument("workload", help="suite workload name, e.g. 470.lbm")
    jd.add_argument("--pc",
                    help="only the block at this address (0x-hex or "
                         "decimal; must be a block start)")
    jd.add_argument("--input", type=int, action="append", default=[],
                    help="program input (default: the workload's "
                         "train inputs)")
    jd.add_argument("--max-instructions", type=int,
                    default=DEFAULT_INSTRUCTION_LIMIT,
                    help="instruction cap for the warm-up run")
    jd.set_defaults(func=_cmd_jit_dump)

    st = sub.add_parser("stats",
                        help="summarise a telemetry JSON (trace, metrics "
                             "or recorder dump) as a table")
    st.add_argument("path")
    st.set_defaults(func=_cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
