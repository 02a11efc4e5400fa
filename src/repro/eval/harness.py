"""Caching execution harness for the evaluation.

Every figure needs some subset of {native run, DBM-only run, training,
Janus run at N threads} per (workload, compiler options).  Each such
execution is a :class:`Cell`, and :meth:`EvalHarness.result` is the one
path every cell takes: the memo, then the disk cache, then the run
itself under its ``exec.<kind>`` span.  Regenerating the full set of
figures therefore costs each execution exactly once.

With ``cache_dir`` set, results also persist on disk (pickle), keyed by
the cell's workload name, compile options, kind, mode, thread count and
a content hash of the compiled image, so a recompiled or edited workload
never serves a stale result.  ``python -m repro figures`` uses this by
default; ``--no-cache`` is the escape hatch.

With ``jobs > 1`` the disk cache doubles as the IPC medium for the
process-parallel evaluation fan-out (:mod:`repro.eval.scheduler`):
``warm()`` plans every cell the requested figures need and executes
them in worker processes (each warming the shared cache with atomic
writes), after which the parent assembles figures from warm cache hits.
Results are bit-identical to a serial run because every cell is
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


def _options_key(options: CompileOptions | None) -> tuple:
    options = options or CompileOptions()
    return (options.opt_level, options.personality, options.mavx,
            options.parallel, options.parallel_threads)


def options_from_key(key: tuple) -> CompileOptions:
    """Rebuild the ``CompileOptions`` a key was derived from."""
    opt_level, personality, mavx, parallel, parallel_threads = key
    return CompileOptions(opt_level=opt_level, personality=personality,
                          mavx=mavx, parallel=parallel,
                          parallel_threads=parallel_threads)


# Modes whose execution consumes the training stage's output.
TRAINED_MODES = (SelectionMode.STATIC_PROFILE, SelectionMode.JANUS)


@dataclass(frozen=True)
class Cell:
    """One execution the evaluation needs: the harness's memo and disk key.

    Picklable, so the fan-out ships cells to worker processes as is.
    """

    kind: str            # "native" | "run" | "training" | "fig6profile"
    benchmark: str
    options_key: tuple   # _options_key(options)
    mode: str = ""       # SelectionMode *name*, for kind == "run"
    threads: int = 0     # thread count, for kind == "run"

    @property
    def stage(self) -> int:
        """Execution wave: cells needing warm training data go second."""
        if self.kind == "run" and self.mode in (m.name
                                                for m in TRAINED_MODES):
            return 1
        return 0

    @property
    def options(self) -> CompileOptions:
        return options_from_key(self.options_key)

    @property
    def lane(self) -> str:
        return lane_label(self.kind, self.benchmark, self.mode, self.threads)


@dataclass
class EvalHarness:
    """Memoised runs of the workload suite."""

    cache_dir: str | None = None
    # Worker-process count for the evaluation fan-out (``warm``).
    # 1 = fully serial.
    jobs: int = 1
    _results: dict = field(default_factory=dict, init=False, repr=False)
    _janus: dict = field(default_factory=dict, init=False, repr=False)
    _digests: dict = field(default_factory=dict, init=False, repr=False)

    # -- building blocks -------------------------------------------------------

    def image(self, name: str, options: CompileOptions | None = None):
        return compile_workload(name, options or CompileOptions())

    def janus_for(self, name: str,
                  options: CompileOptions | None = None) -> Janus:
        key = (name, _options_key(options))
        instance = self._janus.get(key)
        if instance is None:
            config = JanusConfig(max_instructions=MAX_INSTRUCTIONS)
            instance = Janus(self.image(name, options), config)
            self._janus[key] = instance
        return instance

    # -- the cell path -----------------------------------------------------------

    def result(self, cell: Cell):
        """One cell's result: from the memo, the disk cache, or a run."""
        body = self._BODIES.get(cell.kind)
        if body is None:
            raise ValueError(f"unknown cell kind {cell.kind!r}")
        result = self._results.get(cell)
        if result is not None:
            return result
        entry = None
        if self.cache_dir is not None:
            entry = self._cache_entry(cell)
            result = self._disk_get(*entry)
            if result is not None and cell.kind == "training":
                self._replay_training(cell, result)
        if result is None:
            result = body(self, cell)
            if entry is not None:
                self._disk_put(*entry, result)
        self._results[cell] = result
        return result

    @staticmethod
    def _span(cell: Cell):
        """The ``exec.<kind>`` span the cell's execution proper runs under."""
        args = {"mode": cell.mode, "threads": cell.threads} \
            if cell.kind == "run" else {}
        return get_recorder().span("exec." + cell.kind, cat="exec",
                                   lane=cell.lane, benchmark=cell.benchmark,
                                   **args)

    def _native(self, cell: Cell) -> ExecutionResult:
        workload = get_workload(cell.benchmark)
        process = load(self.image(cell.benchmark, cell.options),
                       inputs=list(workload.ref_inputs))
        with self._span(cell) as span:
            result = run_native(process, max_instructions=MAX_INSTRUCTIONS)
            span.set(cycles=result.cycles,
                     instructions=result.instructions)
        return result

    def _run(self, cell: Cell) -> ExecutionResult:
        workload = get_workload(cell.benchmark)
        janus = self.janus_for(cell.benchmark, cell.options)
        mode = SelectionMode[cell.mode]
        training = None
        if mode in TRAINED_MODES:
            training = self.training(cell.benchmark, cell.options)
        with self._span(cell) as span:
            result = janus.run(mode, inputs=list(workload.ref_inputs),
                               training=training, n_threads=cell.threads)
            span.set(cycles=result.cycles,
                     instructions=result.instructions)
        return result

    def _training(self, cell: Cell) -> TrainingData:
        workload = get_workload(cell.benchmark)
        with self._span(cell):
            return self.janus_for(cell.benchmark, cell.options).train(
                train_inputs=list(workload.train_inputs))

    def _fig6profile(self, cell: Cell) -> ProfileResult:
        janus = self.janus_for(cell.benchmark, cell.options)
        schedule = generate_profile_schedule(janus.analysis,
                                             include_incompatible=True)
        profile = self._training_coverage(cell, janus, schedule)
        if profile is not None:
            return profile
        workload = get_workload(cell.benchmark)
        process = load(janus.image, inputs=list(workload.train_inputs))
        with self._span(cell):
            profile, _ = run_profiling(process, schedule,
                                       max_instructions=MAX_INSTRUCTIONS)
        return profile

    _BODIES = {"native": _native, "run": _run, "training": _training,
               "fig6profile": _fig6profile}

    def _replay_training(self, cell: Cell, training: TrainingData) -> None:
        """Re-apply profile annotations a cached training run made.

        ``Janus.train`` resolves the C/D split and records per-loop
        coverage on the live analysis; a disk hit must leave the analysis
        in exactly the state the original run did.
        """
        analysis = self.janus_for(cell.benchmark, cell.options).analysis
        if training.dependence is not None:
            for loop_id, profile in sorted(training.dependence.loops.items()):
                analysis.loop(loop_id).apply_dependence_profile(
                    profile.has_dependence)
        for loop_id in training.coverage.loops:
            analysis.loop(loop_id).coverage_fraction = \
                training.coverage.coverage(loop_id)

    def _training_coverage(self, cell: Cell, janus: Janus,
                           schedule) -> ProfileResult | None:
        """The memoised training's coverage profile, if it is this run.

        Both runs load ``janus.image`` with the workload's training
        inputs.  When the Fig. 6 schedule also serialises to the coverage
        pass's bytes, under the same instruction limit and cost model,
        the two runs are one run, so its profile is returned.  ``None``
        when training has not run in this harness or anything differs.
        """
        training = self._results.get(
            Cell("training", cell.benchmark, cell.options_key))
        config = janus.config
        if training is None \
                or config.max_instructions != MAX_INSTRUCTIONS \
                or config.cost_model != DEFAULT_COST_MODEL \
                or janus.coverage_schedule().serialize() \
                != schedule.serialize():
            return None
        return training.coverage

    # -- on-disk persistence -----------------------------------------------------

    def _image_digest(self, cell: Cell) -> str:
        key = (cell.benchmark, cell.options_key)
        digest = self._digests.get(key)
        if digest is not None:
            return digest
        side = None
        if self.cache_dir is not None:
            side = self._digest_path(cell)
            # A truncated or corrupt sidecar reads as None: recompute.
            digest = read_digest_file(side)
        if digest is None:
            digest = image_digest(self.image(cell.benchmark, cell.options))
            if side is not None:
                write_digest_file(side, digest)
        self._digests[key] = digest
        return digest

    def _digest_path(self, cell: Cell) -> str:
        """Side-cache file for one workload's image digest.

        Keyed by the workload *source* text and the compiler's own source
        (:func:`compiler_identity`) rather than the compiled image, so a
        cache hit never has to compile at all and a compiler edit misses.
        """
        source = hashlib.sha256(
            workload_source(get_workload(cell.benchmark)).encode()
        ).hexdigest()
        tag = "|".join(("digest", str(_CACHE_FORMAT), cell.benchmark,
                        repr(cell.options_key), source,
                        compiler_identity()))
        fname = hashlib.sha256(tag.encode()).hexdigest()[:32]
        return os.path.join(self.cache_dir, "digest-" + fname + ".txt")

    def _cache_entry(self, cell: Cell,
                     digest: str | None = None) -> tuple[str, str]:
        """(path, tag) for one persisted result; the tag detects collisions."""
        tag = "|".join((str(_CACHE_FORMAT), cell.kind, cell.benchmark,
                        repr(cell.options_key), cell.mode, str(cell.threads),
                        digest or self._image_digest(cell)))
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
        return self.result(Cell("native", name, _options_key(options)))

    def run(self, name: str, mode: SelectionMode,
            options: CompileOptions | None = None,
            n_threads: int = 8) -> ExecutionResult:
        return self.result(Cell("run", name, _options_key(options),
                                mode.name, n_threads))

    def training(self, name: str,
                 options: CompileOptions | None = None) -> TrainingData:
        return self.result(Cell("training", name, _options_key(options)))

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
        return self.result(Cell("fig6profile", name, _options_key(options)))

    def speedup(self, name: str, mode: SelectionMode,
                options: CompileOptions | None = None,
                n_threads: int = 8) -> float:
        """Whole-program speedup over the native run of the same binary."""
        native = self.native(name, options)
        run = self.run(name, mode, options, n_threads)
        return native.cycles / run.cycles

    # -- parallel fan-out ---------------------------------------------------------

    def warm(self, which=None, benchmarks=None) -> int:
        """Execute the cells the given figures need and the disk cache
        lacks, ``jobs`` at a time; returns how many were executed.

        No-op (returns 0) unless ``jobs > 1`` and a cache directory is
        configured — the disk cache is the medium through which worker
        results reach this process.  On a warm cache no pool starts.
        While a recorder is enabled the workers dump their spans to
        :meth:`telemetry_dir` for merging (see repro.telemetry.aggregate).
        """
        if self.jobs <= 1 or self.cache_dir is None:
            return 0
        from repro.eval import scheduler
        cells = [cell for cell in scheduler.plan(which, benchmarks=benchmarks)
                 if not self._on_disk(cell)]
        if not cells:
            return 0
        telemetry_dir = self.telemetry_dir() if get_recorder().enabled \
            else None
        scheduler.execute(cells, self.cache_dir, jobs=self.jobs,
                          telemetry_dir=telemetry_dir)
        return len(cells)

    def _on_disk(self, cell: Cell) -> bool:
        """Whether the cache holds a result file for ``cell``, decided
        without compiling: a cell whose digest sidecar is unread is not."""
        digest = read_digest_file(self._digest_path(cell))
        return digest is not None \
            and os.path.exists(self._cache_entry(cell, digest)[0])

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
