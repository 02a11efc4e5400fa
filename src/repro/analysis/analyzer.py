"""The top-level static binary analyser facade.

``analyze_image`` runs the entire pipeline of paper section II-D on a
stripped JELF image:

    disassemble -> CFGs -> dominators -> stack tracking -> SSA ->
    loops -> induction -> alias -> classification

and returns a :class:`BinaryAnalysis` holding per-function artefacts and a
flat, stably numbered list of :class:`LoopAnalysisResult` — the input to
both the profiling and the parallelisation rewrite-schedule generators.

Each function's front end (dominators, stack, SSA, loops) is built once
and feeds both the function summaries and classification.  Loop
classification is independent per function, so with ``jobs > 1`` it fans
out over a process pool; results are identical to a serial run because the
flat loop numbering is assigned in a deterministic merge (stable sort on
header address, functions visited in entry-address order) after all
functions complete.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.jbin.image import JELF
from repro.analysis.cfg import FunctionCFG, build_cfgs
from repro.analysis.classify import (
    LoopAnalysisResult,
    LoopCategory,
    classify_loop,
)
from repro.analysis.disasm import Disassembly, disassemble
from repro.analysis.dominators import DominatorInfo, compute_dominators
from repro.analysis.loops import Loop, find_loops
from repro.analysis.ssa import SSAForm, build_ssa
from repro.analysis.stack import track_stack
from repro.analysis.summaries import FunctionSummary, summarise_functions
from repro.analysis.vrange import entry_livein_values
from repro.telemetry.core import get_recorder


@dataclass
class FunctionAnalysis:
    """Per-function analysis artefacts."""

    cfg: FunctionCFG
    dom: DominatorInfo
    ssa: SSAForm | None  # None when the stack discipline is irregular
    loops: list[Loop] = field(default_factory=list)


@dataclass
class BinaryAnalysis:
    """The complete static view of one binary."""

    image: JELF
    disassembly: Disassembly
    functions: dict[int, FunctionAnalysis]
    summaries: dict[int, FunctionSummary]
    loops: list[LoopAnalysisResult] = field(default_factory=list)

    def loop(self, loop_id: int) -> LoopAnalysisResult:
        return self.loops[loop_id]

    def loops_in_category(self, category: LoopCategory
                          ) -> list[LoopAnalysisResult]:
        return [l for l in self.loops if l.category is category]

    def function_of_loop(self, result: LoopAnalysisResult) -> FunctionAnalysis:
        return self.functions[result.loop.function_entry]

    def category_histogram(self) -> dict[LoopCategory, int]:
        histogram = {category: 0 for category in LoopCategory}
        for result in self.loops:
            histogram[result.category] += 1
        return histogram


def analyse_front_end(cfg: FunctionCFG) -> FunctionAnalysis:
    """Dominators, stack deltas, SSA and loops of one function.

    Built once per function and shared by the function summaries and the
    per-function classification.  Telemetry: one span per phase (a no-op
    under the default NullRecorder).
    """
    rec = get_recorder()
    with rec.span("analysis.dominators", cat="analysis", entry=cfg.entry):
        dom = compute_dominators(cfg)
    with rec.span("analysis.ssa", cat="analysis", entry=cfg.entry):
        deltas = track_stack(cfg)
        ssa = build_ssa(cfg, dom, deltas) if deltas is not None else None
    with rec.span("analysis.loops", cat="analysis", entry=cfg.entry):
        loops = find_loops(cfg, dom)
    return FunctionAnalysis(cfg=cfg, dom=dom, ssa=ssa, loops=loops)


def _analyze_function(fa: FunctionAnalysis,
                      summaries: dict[int, FunctionSummary],
                      known_liveins: dict | None = None,
                      engine: bool = True
                      ) -> tuple[FunctionAnalysis, list[LoopAnalysisResult]]:
    """Classify every loop of one function over its front end.

    Loop ids are still unassigned here (``classify_loop`` never reads
    them); the caller numbers loops in the deterministic global merge.
    Telemetry: ``analysis.classify`` is a child span of
    ``analysis.function`` (a no-op under the default NullRecorder — in
    particular inside the ``jobs > 1`` pool workers, where only the parent
    records).
    """
    rec = get_recorder()
    with rec.span("analysis.function", cat="analysis",
                  entry=fa.cfg.entry) as span:
        with rec.span("analysis.classify", cat="analysis"):
            results = [classify_loop(loop, fa.cfg, fa.dom, fa.ssa, summaries,
                                     known_liveins=known_liveins,
                                     engine=engine, loops=fa.loops)
                       for loop in fa.loops]
        span.set(loops=len(fa.loops))
    return fa, results


def _analyze_function_task(args) -> tuple[FunctionAnalysis,
                                          list[LoopAnalysisResult]]:
    return _analyze_function(*args)


class BinaryAnalyzer:
    """Runs the static analysis pipeline over one image."""

    def __init__(self, image: JELF, jobs: int | None = None,
                 interproc: bool = True) -> None:
        self.image = image
        self.jobs = jobs if jobs is not None else 1
        self.interproc = interproc

    def run(self) -> BinaryAnalysis:
        rec = get_recorder()
        with rec.span("analysis.disasm", cat="analysis"):
            dis = disassemble(self.image)
        with rec.span("analysis.cfg", cat="analysis"):
            cfgs = build_cfgs(dis)
        fronts = {entry: analyse_front_end(cfg)
                  for entry, cfg in cfgs.items()}
        with rec.span("analysis.summaries", cat="analysis"):
            summaries = summarise_functions(cfgs, fronts)
        liveins = (entry_livein_values(cfgs, self.image.entry)
                   if self.interproc else {})

        entries = list(cfgs)
        # The entry-state feed is only sound in the entry function itself.
        tasks = [(fronts[entry], summaries,
                  liveins if entry == self.image.entry else None,
                  self.interproc)
                 for entry in entries]
        if self.jobs > 1 and len(entries) > 1:
            # Worker results carry their own copies of the front end and
            # loops; use those copies throughout so every artefact in the
            # returned analysis is self-consistent.
            with ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(entries))) as pool:
                analysed = list(pool.map(
                    _analyze_function_task, tasks,
                    chunksize=max(1, len(entries) // (4 * self.jobs))))
        else:
            analysed = [_analyze_function(*task) for task in tasks]

        functions: dict[int, FunctionAnalysis] = {}
        all_loops: list[tuple[Loop, LoopAnalysisResult]] = []
        for entry, (fa, results) in zip(entries, analysed):
            functions[entry] = fa
            for result in results:
                all_loops.append((result.loop, result))

        # Stable loop ids in header-address order across the whole binary
        # (stable sort: ties keep function entry-address order).
        all_loops.sort(key=lambda pair: pair[0].header)
        analysis = BinaryAnalysis(image=self.image, disassembly=dis,
                                  functions=functions, summaries=summaries)
        for loop_id, (loop, result) in enumerate(all_loops):
            loop.loop_id = loop_id
            analysis.loops.append(result)
        return analysis


def analyze_image(image: JELF, jobs: int | None = None,
                  interproc: bool = True) -> BinaryAnalysis:
    """Convenience wrapper: run the full static analysis on an image.

    ``jobs > 1`` distributes the per-function pipeline over worker
    processes; the result is identical to the serial analysis.
    ``interproc=False`` disables the symbolic dependence engine and the
    interprocedural call release (the purely local classification).
    """
    return BinaryAnalyzer(image, jobs=jobs, interproc=interproc).run()
