"""Spans and counts around the public entry points of each Janus layer.

The traced run wraps entry points from the benchmark's own code: each
wrapper is bound in place of the original wherever a ``repro`` module holds
a reference to it (module-level names) or on its class (methods), and
:meth:`Tracer.uninstall` puts every original back.  Nothing under ``src/``
is edited, and untraced passes run the unwrapped code.

A span records its layer, its parent span, and the binary, configuration
and phase the pass was working on.  A span's self time is its duration
minus the durations of its direct children; a layer's time is the sum of
its spans' self times.  Counts come from the values the entry points
return (``ExecutionResult.stats``, ``ProfileResult``, ``OracleResult``,
``RaceReport``, schedules and images), so they repeat exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass

# Janus.run modes that execute a parallelisation schedule.
_PARALLEL_MODES = ("STATIC", "STATIC_PROFILE", "JANUS")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    binary: str
    config: str
    phase: str
    end: float = 0.0
    children_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "binary": self.binary,
                "config": self.config, "phase": self.phase}


# -- what each entry point counts ---------------------------------------------


def _count_compile(counts, args, kwargs, image) -> None:
    counts["jcc.text_bytes"] += len(image.text.data)


def _count_analysis(counts, args, kwargs, analysis) -> None:
    counts["analysis.functions"] += len(analysis.functions)
    counts["analysis.loops"] += len(analysis.loops)
    for category, count in analysis.category_histogram().items():
        counts[f"analysis.{category.value}"] += count


def _count_schedule(counts, args, kwargs, schedule) -> None:
    counts["rewrite.rules"] += len(schedule)
    counts["rewrite.schedule_bytes"] += schedule.size_bytes


def _count_profiling(counts, args, kwargs, result) -> None:
    counts["profiling.sim_instructions"] += result[1].instructions


def _count_oracle(counts, args, kwargs, result) -> None:
    counts["verify.oracle_iterations"] += sum(
        s.iterations for s in result.loops.values())


def _count_race(counts, args, kwargs, report) -> None:
    counts["verify.race_pairs"] += len(report.pairs)


def _count_dbm_instructions(counts, args, kwargs, result) -> None:
    counts["dbm.sim_instructions"] += result.instructions


def _count_parallel_run(counts, args, kwargs, result) -> None:
    if _mode_name(args, kwargs) in _PARALLEL_MODES:
        _count_dbm_instructions(counts, args, kwargs, result)


def _count_execution(counts, args, kwargs, result) -> None:
    """JIT-tier and runtime counters of one execution (any layer)."""
    counts["exec.instructions"] += result.instructions
    for key, value in result.stats.items():
        counts[f"stats.{key}"] += value


def _count_native(counts, args, kwargs, result) -> None:
    _count_dbm_instructions(counts, args, kwargs, result)
    _count_execution(counts, args, kwargs, result)


def _mode_name(args, kwargs) -> str:
    mode = args[1] if len(args) > 1 else kwargs["mode"]
    return mode.name


def _janus_run_span(args, kwargs) -> str | None:
    # Native and DBM-only runs are spanned by run_native / run_under_dbm.
    return "dbm.parallel" if _mode_name(args, kwargs) in _PARALLEL_MODES \
        else None


# (module, attribute, span name or a function of the call's arguments that
# returns one — None records no span —, count hook or None)
TARGETS = (
    ("repro.jcc.driver", "compile_source", "jcc.compile", _count_compile),
    ("repro.jbin.image", "JELF.deserialize", "jbin.load", None),
    ("repro.jbin.loader", "load", "jbin.load", None),
    ("repro.analysis.analyzer", "analyze_image", "analysis.analyze",
     _count_analysis),
    ("repro.pipeline.janus", "Janus.build_schedule", "rewrite.build", None),
    ("repro.rewrite.gen_parallel", "generate_parallel_schedule",
     "rewrite.generate", _count_schedule),
    ("repro.rewrite.gen_vector", "generate_vector_schedule",
     "rewrite.generate", _count_schedule),
    ("repro.rewrite.gen_prefetch", "generate_prefetch_schedule",
     "rewrite.generate", _count_schedule),
    ("repro.rewrite.gen_profile", "generate_profile_schedule",
     "rewrite.generate", _count_schedule),
    ("repro.pipeline.janus", "Janus.train", "profiling.train", None),
    ("repro.eval.harness", "EvalHarness.fig6_profile", "profiling.fig6",
     None),
    ("repro.profiling.profiler", "run_profiling", None, _count_profiling),
    ("repro.verify.oracle", "run_doall_oracle", "verify.oracle",
     _count_oracle),
    ("repro.verify.invariants", "check_analysis", "verify.static", None),
    ("repro.verify.lint_schedule", "lint_schedule", "verify.static", None),
    ("repro.verify.racecheck", "racecheck_analysis", "verify.static",
     _count_race),
    ("repro.dbm.executor", "run_native", "dbm.native", _count_native),
    ("repro.dbm.modifier", "run_under_dbm", "dbm.dbm_only",
     _count_dbm_instructions),
    ("repro.pipeline.janus", "Janus.run", _janus_run_span,
     _count_parallel_run),
    ("repro.dbm.modifier", "JanusDBM.run", None, _count_execution),
    ("repro.eval.harness", "EvalHarness.native", "eval.cell", None),
    ("repro.eval.harness", "EvalHarness.run", "eval.cell", None),
    ("repro.eval.harness", "EvalHarness.training", "eval.cell", None),
    ("repro.eval.figures", "fig6_classification", "eval.figure", None),
    ("repro.eval.figures", "fig7_speedups", "eval.figure", None),
    ("repro.eval.figures", "fig8_breakdown", "eval.figure", None),
    ("repro.eval.figures", "table1_bounds_checks", "eval.figure", None),
    ("repro.eval.figures", "fig10_schedule_size", "eval.figure", None),
)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.binary = ""
        self.config = ""
        self.phase = ""

    def at(self, binary: str = "", config: str = "",
           phase: str | None = None) -> None:
        """Name the cell (and optionally the phase) work is now done for."""
        self.binary, self.config = binary, config
        if phase is not None:
            self.phase = phase

    # -- wrapping ---------------------------------------------------------------

    def install(self) -> None:
        for module_name, attribute, span, count in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, span,
                                                     count))
                else:
                    wrapped = self._wrap(raw, span, count)
                setattr(cls, method, wrapped)
                self._undo.append((cls, method, raw))
            else:
                original = getattr(module, attribute)
                wrapped = self._wrap(original, span, count)
                for holder in [m for name, m in list(sys.modules.items())
                               if name == "repro" or name.startswith("repro.")]:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)
                            self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def _wrap(self, fn, span, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = span(args, kwargs) if callable(span) else span
            if name is None:
                result = fn(*args, **kwargs)
            else:
                result = tracer._call_in_span(name, fn, args, kwargs)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _call_in_span(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name=name, start=time.perf_counter(), parent=parent,
                    binary=self.binary, config=self.config, phase=self.phase)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].children_s += span.end - span.start

    # -- summaries --------------------------------------------------------------

    def self_seconds(self, prefix: str, phase: str | None = None) -> float:
        """Self time of the spans whose name is, or starts with, ``prefix.``."""
        return sum(s.self_s for s in self.spans
                   if (s.name == prefix or s.name.startswith(prefix + "."))
                   and (phase is None or s.phase == phase))

    def attributed_seconds(self) -> float:
        return sum(s.self_s for s in self.spans)
