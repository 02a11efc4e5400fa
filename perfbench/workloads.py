"""The three benchmark workloads: their binaries, set-up and one pass.

A pass drives Janus only through public entry points and returns what it
observed for each *op*, one (binary, configuration) cell, so that
:mod:`perfbench.checks` can compare it with the committed expectations.
The seed only permutes the order in which binaries and configurations run;
binaries and program inputs are fixed, which keeps every output checkable.

Passes reach ``repro`` through the module namespace returned by
:func:`import_api` and look every entry point up at call time, so the
wrappers :mod:`perfbench.tracing` installs on those modules see each call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace

from perfbench import calibrate

FIG7_FIGURES = "fig7-figures"
SUITE_PROFILE = "suite-profile"
STATIC_MATRIX = "static-matrix"

# Why each workload exists is written in BENCHMARK.json and README.md.
WORKLOADS = (FIG7_FIGURES, SUITE_PROFILE, STATIC_MATRIX)

# static-matrix compile configurations: label -> CompileOptions fields.
CONFIGS = {
    "gcc-O3": {},
    "gcc-O2": {"opt_level": 2},
    "gcc-O3-mavx": {"mavx": True},
    "icc-O3": {"personality": "icc"},
}
DEFAULT_CONFIG = "gcc-O3"

# fig7-figures execution cells of one binary: label -> (SelectionMode name,
# threads); ``None`` is the native run.  Thread counts match the ones the
# figure functions ask the harness for, so the figures hit the memo.
FIG7_CELLS = {
    "native": (None, 0),
    "dbm_only": ("DBM_ONLY", 8),
    "static": ("STATIC", 8),
    "static_profile": ("STATIC_PROFILE", 8),
    "janus@8": ("JANUS", 8),
    "janus@1": ("JANUS", 1),
}

SCHEDULE_FAMILIES = ("parallel", "vector", "prefetch")

_API_MODULES = {
    "workloads": "repro.workloads",
    "jcc": "repro.jcc",
    "harness": "repro.eval.harness",
    "figures": "repro.eval.figures",
    "pipeline": "repro.pipeline",
    "verify": "repro.verify",
    "racecheck": "repro.verify.racecheck",
    "stdlib": "repro.jbin.stdlib",
    "util": "repro.util",
}


def import_api() -> SimpleNamespace:
    """Import ``repro`` and return the modules the passes call into."""
    return SimpleNamespace(**{key: importlib.import_module(name)
                              for key, name in _API_MODULES.items()})


def forget_repro() -> None:
    """Drop every ``repro`` module so the next import starts from scratch.

    Each set-up round re-imports the package, so import cost is measured
    in every round, and the module-level caches start empty.
    """
    for name in [n for n in sys.modules
                 if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


def binaries(api, workload: str, only=None) -> list[tuple[str, str]]:
    """The (benchmark, configuration) pairs a workload uses.

    ``only`` restricts the benchmarks (the benchmark's own tests run small
    subsets); an unknown name is an error.
    """
    if workload == FIG7_FIGURES:
        names, configs = list(api.workloads.FIG7_BENCHMARKS), [DEFAULT_CONFIG]
    elif workload == SUITE_PROFILE:
        names, configs = api.workloads.all_benchmarks(), [DEFAULT_CONFIG]
    elif workload == STATIC_MATRIX:
        names, configs = api.workloads.all_benchmarks(), list(CONFIGS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if only:
        unknown = sorted(set(only) - set(names))
        if unknown:
            raise ValueError(f"{workload} does not use {', '.join(unknown)}")
        names = [n for n in names if n in only]
    return [(name, config) for name in names for config in configs]


def compile_options(api, config: str):
    return api.jcc.CompileOptions(**CONFIGS[config])


@dataclass
class Inputs:
    """What set-up leaves ready for the passes."""

    api: SimpleNamespace
    binaries: list[tuple[str, str]]


class NullTracer:
    """The tracer interface set-up and the passes call; records nothing."""

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass

    def at(self, binary: str = "", config: str = "",
           phase: str | None = None) -> None:
        pass


def set_up(workload: str, only=None, tracer=None) -> Inputs:
    """One set-up round: import ``repro`` and compile every binary.

    Compiling fills ``workloads.suite._IMAGE_CACHE``; the same round fills
    the other lazy module caches (``util._DIGEST_MEMO`` and
    ``jbin.stdlib._CACHED``) so no pass pays for them.
    """
    api = import_api()
    pairs = binaries(api, workload, only)
    tracer = tracer or NullTracer()
    tracer.install()
    try:
        for name, config in pairs:
            tracer.at(name, config)
            image = api.workloads.compile_workload(
                name, compile_options(api, config))
            api.util.cached_image_digest(image.serialize())
    finally:
        tracer.uninstall()
    api.stdlib.standard_library()
    return Inputs(api=api, binaries=pairs)


# -- one pass -----------------------------------------------------------------


@dataclass
class PassResult:
    """What one pass took and observed.

    ``op_seconds`` holds the wall time of each timed op, keyed by op name
    (``<binary>/...``); the ops of a pass are disjoint parts of
    ``seconds``.  ``probe_seconds`` holds the calibration probe run before
    each op (:mod:`perfbench.calibrate`); ``seconds`` leaves the probes
    out.
    """

    seconds: float
    op_seconds: dict[str, float] = field(default_factory=dict)
    probe_seconds: list[float] = field(default_factory=list)
    observed: dict[str, object] = field(default_factory=dict)
    phases: dict[str, float] = field(default_factory=dict)
    cache_bytes: int = 0

    @contextmanager
    def timing(self, op: str):
        self.probe_seconds.append(calibrate.probe())
        began = time.perf_counter()
        yield
        self.op_seconds[op] = time.perf_counter() - began


def run_pass(workload: str, inputs: Inputs, rng, scratch: str,
             tracer=None) -> PassResult:
    """One pass of ``workload``; ``rng`` fixes the order binaries run in.

    ``tracer`` (if given) is installed for the pass and removed after it.
    """
    passes = {FIG7_FIGURES: _fig7_pass, SUITE_PROFILE: _suite_pass,
              STATIC_MATRIX: _static_pass}
    tracer = tracer or NullTracer()
    tracer.install()
    try:
        out = passes[workload](inputs, rng, scratch, tracer)
    finally:
        tracer.uninstall()
    out.seconds -= sum(out.probe_seconds)
    return out


def _shuffled(rng, items) -> list:
    items = list(items)
    return rng.sample(items, len(items))


def _fig7_pass(inputs: Inputs, rng, scratch: str, tracer) -> PassResult:
    api = inputs.api
    modes = api.pipeline.SelectionMode
    names = [name for name, _ in inputs.binaries]
    cache = tempfile.mkdtemp(prefix="eval-cache-", dir=scratch)
    out = PassResult(seconds=0.0)
    try:
        start = time.perf_counter()
        tracer.at(phase="cold")
        cold = api.harness.EvalHarness(cache_dir=cache)
        for name in _shuffled(rng, names):
            for label in _shuffled(rng, FIG7_CELLS):
                mode, threads = FIG7_CELLS[label]
                tracer.at(name, f"{DEFAULT_CONFIG}/{label}")
                with out.timing(f"{name}/{label}"):
                    if mode is None:
                        result = cold.native(name)
                    else:
                        result = cold.run(name, modes[mode],
                                          n_threads=threads)
                out.observed[f"{name}/{label}"] = execution_digest(result)
            tracer.at(name, f"{DEFAULT_CONFIG}/figures")
            with out.timing(f"{name}/figures"):
                out.observed[f"{name}/figures"] = figure_rows(api, cold,
                                                              name)
        warm_start = time.perf_counter()
        tracer.at(phase="warm")
        warm = api.harness.EvalHarness(cache_dir=cache)
        for name in _shuffled(rng, names):
            tracer.at(name, f"{DEFAULT_CONFIG}/figures-warm")
            with out.timing(f"{name}/figures-warm"):
                out.observed[f"{name}/figures-warm"] = figure_rows(
                    api, warm, name)
        end = time.perf_counter()
        out.seconds = end - start
        out.phases = {"cold": warm_start - start, "warm": end - warm_start}
        out.cache_bytes = _tree_bytes(cache)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return out


def _suite_pass(inputs: Inputs, rng, scratch: str, tracer) -> PassResult:
    api = inputs.api
    out = PassResult(seconds=0.0)
    start = time.perf_counter()
    # No cache directory: this workload never touches the eval cache.
    harness = api.harness.EvalHarness()
    for name, config in _shuffled(rng, inputs.binaries):
        tracer.at(name, f"{config}/fig6")
        # The Fig. 6 row trains the binary; <name>/training only reads the
        # memoised training back, so it has no time of its own.
        with out.timing(f"{name}/fig6"):
            row = api.figures.fig6_classification(harness, [name])[0]
        out.observed[f"{name}/fig6"] = _plain(row)
        out.observed[f"{name}/training"] = training_digest(
            harness.training(name))
        # The oracle runs after training, on the categories the selector
        # acts on, as ``repro verify`` does.
        tracer.at(name, f"{config}/oracle")
        with out.timing(f"{name}/oracle"):
            janus = harness.janus_for(name)
            workload = api.workloads.get_workload(name)
            oracle = api.verify.run_doall_oracle(
                janus.image, janus.analysis,
                inputs=list(workload.train_inputs))
        out.observed[f"{name}/oracle"] = oracle_counts(oracle)
    out.seconds = time.perf_counter() - start
    return out


def _static_pass(inputs: Inputs, rng, scratch: str, tracer) -> PassResult:
    api = inputs.api
    static = api.pipeline.SelectionMode.STATIC
    out = PassResult(seconds=0.0)
    start = time.perf_counter()
    for name, config in _shuffled(rng, inputs.binaries):
        tracer.at(name, config)
        with out.timing(f"{name}/{config}"):
            image = api.workloads.compile_workload(
                name, compile_options(api, config))
            janus = api.pipeline.Janus(image, api.pipeline.JanusConfig())
            analysis = janus.analysis
            findings = list(api.verify.check_analysis(analysis))
            schedules = {}
            for family in SCHEDULE_FAMILIES:
                janus.config.mode = family
                schedule = janus.build_schedule(static)
                findings.extend(api.verify.lint_schedule(analysis, schedule))
                schedules[family] = hashlib.sha256(
                    schedule.serialize()).hexdigest()
            race = api.racecheck.racecheck_analysis(
                analysis, mode="parallel", workload=name)
        out.observed[f"{name}/{config}"] = {
            "schedules": schedules,
            "categories": {category.value: count for category, count
                           in analysis.category_histogram().items()},
            "race": _counts(pair.verdict.value for pair in race.pairs),
            "findings": _counts(f.severity.value for f in findings),
        }
    out.seconds = time.perf_counter() - start
    return out


# -- what an op observes ---------------------------------------------------------


def execution_digest(result) -> dict:
    """Output digest, simulated cycles and exit code of one execution."""
    return {"output": hashlib.sha256(result.output_text.encode()).hexdigest(),
            "cycles": result.cycles, "exit": result.exit_code}


def figure_rows(api, harness, name: str) -> dict:
    """This binary's rows of Fig. 7, Fig. 8, Table I and Fig. 10."""
    figures = api.figures
    table1 = figures.table1_bounds_checks(harness, [name])
    return _plain({
        "fig7": figures.fig7_speedups(harness, [name])[0],
        "fig8": figures.fig8_breakdown(harness, [name])[0],
        "table1": table1[0] if table1 else None,
        "fig10": figures.fig10_schedule_size(harness, [name])[0],
    })


def training_digest(training) -> dict:
    return {"coverage": _profile_digest(training.coverage),
            "dependence": (_profile_digest(training.dependence)
                           if training.dependence is not None else None)}


def _profile_digest(profile) -> dict:
    loops = [[loop_id, p.invocations, p.iterations, p.instructions,
              p.instructions_exclusive, p.has_dependence]
             for loop_id, p in sorted(profile.loops.items())]
    return {"instructions": profile.total_instructions,
            "loops": hashlib.sha256(
                json.dumps(loops).encode()).hexdigest()}


def oracle_counts(result) -> dict:
    """Verdict counts of one DOALL-oracle replay."""
    stats = result.loops.values()
    return {
        "loops": len(result.loops),
        "iterations": sum(s.iterations for s in stats),
        "shadowed_accesses": sum(s.shadowed_accesses for s in stats),
        "confirmed": sum(result.confirmed_totals.values()),
        "guarded": sum(sum(g.values())
                       for g in result.guarded_totals.values()),
        "unsound_loops": len(result.unsound_loop_ids),
        "instructions": result.instructions,
    }


def _counts(values) -> dict:
    return dict(sorted(Counter(values).items()))


def _plain(value):
    """The JSON form of a figure row, as the expectation file stores it."""
    return json.loads(json.dumps(value))


def _tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name))
               for path, _, files in os.walk(root) for name in files)
