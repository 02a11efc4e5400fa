"""Process-parallel evaluation fan-out (work planner + executor).

The evaluation behind the paper's figures is embarrassingly parallel
across execution cells (:class:`~repro.eval.harness.Cell`): one (kind,
workload, compile options, mode, thread count) tuple per required
execution, where kind is one of ``native``, ``run``, ``training`` or
``fig6profile``.  Cells are also the harness's memo and disk-cache keys,
so a cell runs through the same ``EvalHarness.result`` path wherever it
is executed.  This module

1. **plans**: enumerates every cell the requested figures need and
   dedupes cells shared between figures (Fig. 7's Janus-at-8-threads run
   is also Fig. 8's and Fig. 9's), and
2. **executes**: fans the cells out over a ``ProcessPoolExecutor``.

Workers communicate results back through the :class:`EvalHarness`
on-disk pickle cache: each worker warms the shared cache directory with
atomic writes, and the parent afterwards assembles figures from warm
cache hits.  Because every cell is deterministic and cache keys are
independent of who computed them, figure output is bit-identical to a
serial run regardless of worker count.

Cells are grouped into two stages: stage 0 is everything with no
prerequisite (natives, trainings, profile-only runs, fig6 coverage
profiles); stage 1 is the runs whose mode consumes training data
(``STATIC_PROFILE``/``JANUS``), scheduled once the stage-0 barrier has
warmed every training entry so no two workers redo the same training.
"""

from __future__ import annotations

import functools
import os

from concurrent.futures import ProcessPoolExecutor

from repro.eval.figures import FIG7_MODES
from repro.eval.harness import TRAINED_MODES, Cell, EvalHarness, _options_key
from repro.eval.reporting import FIGURES
from repro.jcc import CompileOptions
from repro.pipeline import SelectionMode
from repro.workloads import FIG7_BENCHMARKS, all_benchmarks


# -- planning -------------------------------------------------------------------


def plan(which=None, benchmarks=None) -> list[Cell]:
    """Every cell the given figures need, deduped, in a stable order.

    ``benchmarks`` restricts the plan to a subset of workloads (used by
    tests and the fan-out benchmark).
    """
    which = list(which) if which else list(FIGURES)
    unknown = sorted(set(which) - set(FIGURES))
    if unknown:
        raise ValueError(f"unknown figures: {unknown}")

    default = _options_key(CompileOptions())
    cells: dict[Cell, None] = {}  # insertion-ordered set

    def restrict(names) -> list[str]:
        if benchmarks is None:
            return list(names)
        return [n for n in names if n in set(benchmarks)]

    def add(kind, benchmark, options_key=default, mode="", threads=0):
        cells.setdefault(Cell(kind, benchmark, options_key, mode, threads))

    def add_run(benchmark, mode, options_key=default, threads=8):
        if mode in TRAINED_MODES:
            add("training", benchmark, options_key)
        add("run", benchmark, options_key, mode.name, threads)

    for figure in which:
        if figure == "fig6":
            for name in restrict(all_benchmarks()):
                add("training", name)
                add("fig6profile", name)
        elif figure == "fig7":
            for name in restrict(FIG7_BENCHMARKS):
                add("native", name)
                for mode in FIG7_MODES:
                    add_run(name, mode)
        elif figure == "fig8":
            for name in restrict(FIG7_BENCHMARKS):
                add_run(name, SelectionMode.JANUS, threads=1)
                add_run(name, SelectionMode.JANUS, threads=8)
        elif figure == "fig9":
            for name in restrict(FIG7_BENCHMARKS):
                add("native", name)
                for threads in (1, 2, 3, 4, 6, 8):
                    add_run(name, SelectionMode.JANUS, threads=threads)
        elif figure == "fig10":
            for name in restrict(FIG7_BENCHMARKS):
                add("training", name)
        elif figure == "fig11":
            for personality in ("gcc", "icc"):
                base = _options_key(CompileOptions(opt_level=3,
                                                   personality=personality))
                par = _options_key(CompileOptions(opt_level=3,
                                                  personality=personality,
                                                  parallel=True))
                for name in restrict(FIG7_BENCHMARKS):
                    add("native", name, base)
                    add("native", name, par)
                    add_run(name, SelectionMode.JANUS, base)
        elif figure == "fig12":
            for options in (CompileOptions(opt_level=2),
                            CompileOptions(opt_level=3),
                            CompileOptions(opt_level=3, mavx=True)):
                key = _options_key(options)
                for name in restrict(FIG7_BENCHMARKS):
                    add("native", name, key)
                    add_run(name, SelectionMode.JANUS, key)
        elif figure == "table1":
            for name in restrict(FIG7_BENCHMARKS):
                add("training", name)
        # table2 is derived from the handler registry: nothing to execute.
    return list(cells)


# -- execution -------------------------------------------------------------------


@functools.cache
def _worker_harness(cache_dir: str) -> EvalHarness:
    """One harness per cache directory per process, so cells handled by
    the same worker share compiled images, analyses and in-memory memos
    on top of the shared disk cache."""
    return EvalHarness(cache_dir=cache_dir)


def _cell_recorder():
    """This process's live recorder, installing one on first use.

    In the parent (``jobs <= 1`` serial fallback) the CLI's recorder is
    reused, which keeps every span in one lane table.  A forked pool
    worker *inherits* that enabled recorder — parent pid and parent
    events included — so a recorder whose pid is not ours is replaced
    with a fresh ``Recorder(label="worker")``: the dump must carry the
    worker's own pid (the parent's merge drops dumps matching its pid as
    self-duplicates) and must not replay the parent's span history.
    """
    from repro.telemetry import core

    recorder = core.get_recorder()
    if not recorder.enabled or recorder.pid != os.getpid():
        recorder = core.enable(label="worker")
    return recorder


def run_cell(cell: Cell, cache_dir: str,
             telemetry_dir: str | None = None) -> Cell:
    """Execute one cell against the shared cache (also the worker body).

    With ``telemetry_dir`` set the cell runs under a ``cell.<kind>`` span
    in its canonical lane, and the recorder's dump is flushed to the
    directory after every cell (atomic overwrite), so the parent can
    merge worker traces even if the pool is torn down abruptly.
    """
    harness = _worker_harness(cache_dir)
    if telemetry_dir is None:
        harness.result(cell)
        return cell

    from repro.telemetry import aggregate

    recorder = _cell_recorder()
    with recorder.span("cell." + cell.kind, cat="cell", lane=cell.lane,
                       benchmark=cell.benchmark, mode=cell.mode,
                       threads=cell.threads):
        harness.result(cell)
    aggregate.flush(recorder, telemetry_dir)
    return cell


def execute(cells, cache_dir: str, jobs: int | None = None,
            telemetry_dir: str | None = None) -> int:
    """Fan the cells out over worker processes, stage by stage.

    Returns the number of cells executed.  ``jobs <= 1`` degrades to an
    in-process serial loop (identical results, no pool overhead).
    """
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    cells = list(cells)
    stages = [[cell for cell in cells if cell.stage == stage]
              for stage in sorted({cell.stage for cell in cells})]
    run = functools.partial(run_cell, cache_dir=cache_dir,
                            telemetry_dir=telemetry_dir)
    if jobs <= 1:
        for batch in stages:
            for cell in batch:
                run(cell)
        return len(cells)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for batch in stages:
            # list() drains the iterator so worker exceptions surface.
            list(pool.map(run, batch))
    return len(cells)
