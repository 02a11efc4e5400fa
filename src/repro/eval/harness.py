"""Caching execution harness for the evaluation.

Every figure needs some subset of {native run, DBM-only run, training,
Janus run at N threads} per (workload, compiler options).  The harness
memoises all of them, so regenerating the full set of figures costs each
execution exactly once.

With ``cache_dir`` set, finished ``native()``/``run()``/``training()``/
``fig6_profile()`` results also persist on disk (pickle), keyed by
workload name, compile options, mode, thread count and a content hash of
the compiled image — so a recompiled or edited workload never serves a
stale result.  ``python -m repro figures`` uses this by default;
``--no-cache`` is the escape hatch.

With ``jobs > 1`` the disk cache doubles as the IPC medium for the
process-parallel evaluation fan-out (:mod:`repro.eval.scheduler`):
``warm()`` enumerates every execution cell the requested figures need,
executes them in worker processes (each warming the shared cache with
atomic writes), after which the parent assembles figures from warm cache
hits.  Results are bit-identical to a serial run because every cell is
deterministic and the cache key is independent of who computed it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import pickle

from dataclasses import dataclass, field
from pathlib import Path

from repro.dbm.executor import ExecutionResult, run_native
from repro.isa.costs import DEFAULT_COST_MODEL
from repro.jbin.loader import load
from repro.jcc import CompileOptions
from repro.pipeline import Janus, JanusConfig, SelectionMode
from repro.pipeline.janus import TrainingData
from repro.profiling import ProfileResult, run_profiling
from repro.rewrite import generate_profile_schedule
from repro.telemetry.core import get_recorder, lane_label
from repro.util import (
    atomic_write_bytes,
    image_digest,
    read_digest_file,
    write_digest_file,
)
from repro.workloads import compile_workload, get_workload
from repro.workloads.suite import workload_source

MAX_INSTRUCTIONS = 20_000_000

# Bump when ExecutionResult or the cached payload layout changes shape.
_CACHE_FORMAT = 1

# The code that turns workload source into image bytes.
_COMPILER_PACKAGES = ("repro.jcc", "repro.jbin", "repro.isa")


@functools.cache
def compiler_identity() -> str:
    """sha256 over the ``.py`` sources of :data:`_COMPILER_PACKAGES`.

    Computed once per process.  It keys the image-digest sidecars, so
    after a compiler edit a warm cache recompiles instead of trusting a
    digest the old compiler produced.
    """
    digest = hashlib.sha256()
    for package in _COMPILER_PACKAGES:
        root = Path(importlib.import_module(package).__file__).parent
        for path in sorted(root.rglob("*.py")):
            digest.update(f"{package}/{path.relative_to(root)}\0".encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _options_key(options: CompileOptions) -> tuple:
    return (options.opt_level, options.personality, options.mavx,
            options.parallel, options.parallel_threads)


def options_from_key(key: tuple) -> CompileOptions:
    """Rebuild the ``CompileOptions`` a key was derived from."""
    opt_level, personality, mavx, parallel, parallel_threads = key
    return CompileOptions(opt_level=opt_level, personality=personality,
                          mavx=mavx, parallel=parallel,
                          parallel_threads=parallel_threads)


@dataclass
class EvalHarness:
    """Memoised runs of the workload suite."""

    n_threads: int = 8
    cache_dir: str | None = None
    # Worker-process count for the evaluation fan-out (``warm``).
    # 1 = fully serial.
    jobs: int = 1
    # When true (and a cache_dir is set), ``warm`` threads a telemetry
    # dump directory through the fan-out so worker spans can be merged
    # into one trace (see repro.telemetry.aggregate).
    telemetry: bool = False
    _natives: dict = field(default_factory=dict)
    _janus: dict = field(default_factory=dict)
    _trainings: dict = field(default_factory=dict)
    _runs: dict = field(default_factory=dict)
    _profiles: dict = field(default_factory=dict)
    _digests: dict = field(default_factory=dict)

    # -- building blocks -------------------------------------------------------

    def image(self, name: str, options: CompileOptions | None = None):
        return compile_workload(name, options or CompileOptions())

    def janus_for(self, name: str,
                  options: CompileOptions | None = None) -> Janus:
        options = options or CompileOptions()
        key = (name, _options_key(options))
        instance = self._janus.get(key)
        if instance is None:
            config = JanusConfig(n_threads=self.n_threads,
                                 max_instructions=MAX_INSTRUCTIONS)
            instance = Janus(self.image(name, options), config)
            self._janus[key] = instance
        return instance

    def training(self, name: str,
                 options: CompileOptions | None = None) -> TrainingData:
        options = options or CompileOptions()
        key = (name, _options_key(options))
        training = self._trainings.get(key)
        if training is not None:
            return training
        entry = None
        if self.cache_dir is not None:
            entry = self._cache_entry("training", name, options)
            training = self._disk_get(*entry)
            if training is not None:
                self._replay_training(name, options, training)
                self._trainings[key] = training
                return training
        workload = get_workload(name)
        with get_recorder().span("exec.training", cat="exec",
                                 lane=lane_label("training", name),
                                 benchmark=name):
            training = self.janus_for(name, options).train(
                train_inputs=list(workload.train_inputs))
        self._trainings[key] = training
        if entry is not None:
            self._disk_put(*entry, training)
        return training

    def _replay_training(self, name: str, options: CompileOptions,
                         training: TrainingData) -> None:
        """Re-apply profile annotations a cached training run made.

        ``Janus.train`` resolves the C/D split and records per-loop
        coverage on the live analysis; a disk hit must leave the analysis
        in exactly the state the original run did.
        """
        analysis = self.janus_for(name, options).analysis
        if training.dependence is not None:
            for loop_id, profile in sorted(training.dependence.loops.items()):
                analysis.loop(loop_id).apply_dependence_profile(
                    profile.has_dependence)
        for loop_id in training.coverage.loops:
            analysis.loop(loop_id).coverage_fraction = \
                training.coverage.coverage(loop_id)

    # -- on-disk persistence -----------------------------------------------------

    def _image_digest(self, name: str, options: CompileOptions) -> str:
        key = (name, _options_key(options))
        digest = self._digests.get(key)
        if digest is not None:
            return digest
        side = None
        if self.cache_dir is not None:
            side = self._digest_path(name, options)
            # A truncated or corrupt sidecar reads as None: recompute.
            digest = read_digest_file(side)
        if digest is None:
            digest = image_digest(self.image(name, options))
            if side is not None:
                write_digest_file(side, digest)
        self._digests[key] = digest
        return digest

    def _digest_path(self, name: str, options: CompileOptions) -> str:
        """Side-cache file for one workload's image digest.

        Keyed by the workload *source* text and the compiler's own source
        (:func:`compiler_identity`) rather than the compiled image, so a
        cache hit never has to compile at all and a compiler edit misses.
        """
        source = hashlib.sha256(
            workload_source(get_workload(name)).encode()).hexdigest()
        tag = "|".join(("digest", str(_CACHE_FORMAT), name,
                        repr(_options_key(options)), source,
                        compiler_identity()))
        fname = hashlib.sha256(tag.encode()).hexdigest()[:32]
        return os.path.join(self.cache_dir, "digest-" + fname + ".txt")

    def _cache_entry(self, kind: str, name: str, options: CompileOptions,
                     mode: str = "", threads: int = 0) -> tuple[str, str]:
        """(path, tag) for one persisted result; the tag detects collisions."""
        tag = "|".join((str(_CACHE_FORMAT), kind, name,
                        repr(_options_key(options)), mode, str(threads),
                        self._image_digest(name, options)))
        fname = hashlib.sha256(tag.encode()).hexdigest()[:32]
        return os.path.join(self.cache_dir, fname + ".pkl"), tag

    def _disk_get(self, path: str, tag: str):
        # A corrupt or stale cache entry must never take the harness
        # down: pickle.load raises a grab-bag of exception types on
        # malformed input (ValueError, EOFError, UnpicklingError, ...).
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except Exception:
            return None
        if not isinstance(payload, dict) or payload.get("tag") != tag:
            return None
        return payload.get("result")

    def _disk_put(self, path: str, tag: str, result) -> None:
        # Unique-temp-name atomic write (repro.util): concurrent workers
        # produce the same cell, and a shared "path.tmp" would let one
        # writer rename the other's half-written file into place.
        atomic_write_bytes(path, pickle.dumps({"tag": tag,
                                               "result": result}))

    # -- runs ---------------------------------------------------------------------

    def native(self, name: str,
               options: CompileOptions | None = None) -> ExecutionResult:
        options = options or CompileOptions()
        key = (name, _options_key(options))
        result = self._natives.get(key)
        if result is not None:
            return result
        entry = None
        if self.cache_dir is not None:
            entry = self._cache_entry("native", name, options)
            result = self._disk_get(*entry)
            if result is not None:
                self._natives[key] = result
                return result
        workload = get_workload(name)
        process = load(self.image(name, options),
                       inputs=list(workload.ref_inputs))
        with get_recorder().span("exec.native", cat="exec",
                                 lane=lane_label("native", name),
                                 benchmark=name) as span:
            result = run_native(process, max_instructions=MAX_INSTRUCTIONS)
            span.set(cycles=result.cycles,
                     instructions=result.instructions)
        self._natives[key] = result
        if entry is not None:
            self._disk_put(*entry, result)
        return result

    def run(self, name: str, mode: SelectionMode,
            options: CompileOptions | None = None,
            n_threads: int | None = None) -> ExecutionResult:
        options = options or CompileOptions()
        threads = n_threads if n_threads is not None else self.n_threads
        key = (name, _options_key(options), mode, threads)
        result = self._runs.get(key)
        if result is not None:
            return result
        entry = None
        if self.cache_dir is not None:
            entry = self._cache_entry("run", name, options,
                                      mode=mode.name, threads=threads)
            result = self._disk_get(*entry)
            if result is not None:
                self._runs[key] = result
                return result
        workload = get_workload(name)
        janus = self.janus_for(name, options)
        training = None
        if mode in (SelectionMode.STATIC_PROFILE, SelectionMode.JANUS):
            training = self.training(name, options)
        with get_recorder().span("exec.run", cat="exec",
                                 lane=lane_label("run", name, mode.name,
                                                 threads),
                                 benchmark=name, mode=mode.name,
                                 threads=threads) as span:
            result = janus.run(mode, inputs=list(workload.ref_inputs),
                               training=training, n_threads=threads)
            span.set(cycles=result.cycles,
                     instructions=result.instructions)
        self._runs[key] = result
        if entry is not None:
            self._disk_put(*entry, result)
        return result

    def fig6_profile(self, name: str,
                     options: CompileOptions | None = None) -> ProfileResult:
        """Coverage profile bracketing *every* loop, incompatible included.

        Only Fig. 6 needs this (per-category execution-time fractions);
        the schedule is independent of the training stage because training
        never reclassifies a loop as incompatible.  For a binary with no
        bracketable incompatible loop it is the training's coverage
        schedule, and a training already run in this harness serves the
        profile (:meth:`_training_coverage`).
        """
        options = options or CompileOptions()
        key = (name, _options_key(options))
        profile = self._profiles.get(key)
        if profile is not None:
            return profile
        entry = None
        if self.cache_dir is not None:
            entry = self._cache_entry("fig6profile", name, options)
            profile = self._disk_get(*entry)
            if profile is not None:
                self._profiles[key] = profile
                return profile
        janus = self.janus_for(name, options)
        schedule = generate_profile_schedule(janus.analysis,
                                             include_incompatible=True)
        profile = self._training_coverage(key, janus, schedule)
        if profile is None:
            workload = get_workload(name)
            process = load(janus.image, inputs=list(workload.train_inputs))
            with get_recorder().span("exec.fig6profile", cat="exec",
                                     lane=lane_label("fig6profile", name),
                                     benchmark=name):
                profile, _ = run_profiling(process, schedule,
                                           max_instructions=MAX_INSTRUCTIONS)
        self._profiles[key] = profile
        if entry is not None:
            self._disk_put(*entry, profile)
        return profile

    def _training_coverage(self, key: tuple, janus: Janus,
                           schedule) -> ProfileResult | None:
        """The memoised training's coverage profile, if it is this run.

        Both runs load ``janus.image`` with the workload's training
        inputs.  When the Fig. 6 schedule also serialises to the coverage
        pass's bytes, under the same instruction limit and cost model,
        the two runs are one run, so its profile is returned.  ``None``
        when training has not run in this harness or anything differs.
        """
        training = self._trainings.get(key)
        config = janus.config
        if training is None \
                or config.max_instructions != MAX_INSTRUCTIONS \
                or config.cost_model != DEFAULT_COST_MODEL \
                or janus.coverage_schedule().serialize() \
                != schedule.serialize():
            return None
        return training.coverage

    def speedup(self, name: str, mode: SelectionMode,
                options: CompileOptions | None = None,
                n_threads: int | None = None) -> float:
        """Whole-program speedup over the native run of the same binary."""
        native = self.native(name, options)
        run = self.run(name, mode, options, n_threads)
        return native.cycles / run.cycles

    # -- parallel fan-out ---------------------------------------------------------

    def warm(self, which=None, benchmarks=None) -> int:
        """Execute the cells the given figures need, ``jobs`` at a time.

        No-op (returns 0) unless ``jobs > 1`` and a cache directory is
        configured — the disk cache is the medium through which worker
        results reach this process.
        """
        if self.jobs <= 1 or self.cache_dir is None:
            return 0
        from repro.eval import scheduler
        cells = scheduler.plan(which, benchmarks=benchmarks,
                               n_threads=self.n_threads)
        if not cells:
            return 0
        telemetry_dir = self.telemetry_dir() if self.telemetry else None
        scheduler.execute(cells, self.cache_dir, jobs=self.jobs,
                          n_threads=self.n_threads,
                          telemetry_dir=telemetry_dir)
        return len(cells)

    def telemetry_dir(self) -> str | None:
        """Where worker recorder dumps live (beside the disk cache)."""
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, "telemetry")


_DEFAULT: EvalHarness | None = None


def default_harness() -> EvalHarness:
    """The process-wide shared harness (figures share each other's runs)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = EvalHarness()
    return _DEFAULT
