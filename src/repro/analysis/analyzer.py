"""The top-level static binary analyser facade.

``analyze_image`` runs the entire pipeline of paper section II-D on a
stripped JELF image:

    disassemble -> CFGs -> dominators -> stack tracking -> SSA ->
    loops -> induction -> alias -> classification

and returns a :class:`BinaryAnalysis` holding per-function artefacts and a
flat, stably numbered list of :class:`LoopAnalysisResult` — the input to
both the profiling and the parallelisation rewrite-schedule generators.

Each function's front end (dominators, stack, SSA, loops) is built once
and feeds both the function summaries and classification.  The flat loop
numbering is assigned after every function is classified (stable sort on
header address, functions visited in entry-address order).
"""

from __future__ import annotations

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
                      engine: bool = True) -> list[LoopAnalysisResult]:
    """Classify every loop of one function over its front end.

    Loop ids are still unassigned here (``classify_loop`` never reads
    them); the caller numbers loops once every function is classified.
    Telemetry: ``analysis.classify`` is a child span of
    ``analysis.function`` (a no-op under the default NullRecorder).
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
    return results


class BinaryAnalyzer:
    """Runs the static analysis pipeline over one image."""

    def __init__(self, image: JELF, interproc: bool = True) -> None:
        self.image = image
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

        results: list[LoopAnalysisResult] = []
        for entry, fa in fronts.items():
            # The entry-state feed is only sound in the entry function.
            results.extend(_analyze_function(
                fa, summaries, liveins if entry == self.image.entry else None,
                self.interproc))

        # Stable loop ids in header-address order across the whole binary
        # (stable sort: ties keep function entry-address order).
        results.sort(key=lambda result: result.loop.header)
        for loop_id, result in enumerate(results):
            result.loop.loop_id = loop_id
        return BinaryAnalysis(image=self.image, disassembly=dis,
                              functions=fronts, summaries=summaries,
                              loops=results)


def analyze_image(image: JELF, interproc: bool = True) -> BinaryAnalysis:
    """Convenience wrapper: run the full static analysis on an image.

    ``interproc=False`` disables the symbolic dependence engine and the
    interprocedural call release (the purely local classification).
    """
    return BinaryAnalyzer(image, interproc=interproc).run()
