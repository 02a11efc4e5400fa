"""The Janus facade: analyse → (train) → select → parallelise → run."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.analysis import LoopCategory, analyze_image
from repro.analysis.analyzer import BinaryAnalysis
from repro.analysis.classify import LoopAnalysisResult
from repro.dbm.executor import ExecutionResult, run_native
from repro.dbm.modifier import JanusDBM, run_under_dbm
from repro.dbm.runtime import ParallelRuntime
from repro.isa.costs import DEFAULT_COST_MODEL, CostModel
from repro.jbin.image import JELF
from repro.jbin.loader import load
from repro.profiling import ProfileResult, run_profiling
from repro.rewrite import (
    generate_parallel_schedule,
    generate_prefetch_schedule,
    generate_profile_schedule,
    generate_vector_schedule,
    vector_candidates,
)
from repro.rewrite.gen_profile import COVERAGE_STAGE, DEPENDENCE_STAGE
from repro.rewrite.schedule import RewriteSchedule
from repro.telemetry.core import get_recorder


class SelectionMode(enum.Enum):
    """The configurations of paper Fig. 7."""

    NATIVE = "native"                    # no DBM at all
    DBM_ONLY = "dbm_only"                # DynamoRIO overhead bar
    STATIC = "static"                    # Statically-Driven
    STATIC_PROFILE = "static_profile"    # Statically-Driven + Profile
    JANUS = "janus"                      # + runtime checks / STM (full)


@dataclass
class JanusConfig:
    """Tunables for one Janus invocation."""

    n_threads: int = 8
    # Loops below this fraction of dynamic instructions are filtered out
    # by the training stage (paper II-C: "low coverage loops").
    coverage_threshold: float = 0.05
    # Loops averaging fewer iterations per invocation than this are not
    # profitable (paper III-B: loops "with a high invocation count where
    # overheads of parallelisation out-weigh the benefits").
    min_average_trips: float = 16.0
    cost_model: CostModel = field(
        default_factory=lambda: DEFAULT_COST_MODEL.copy())
    # Iteration scheduling policy: "chunk" (paper default) or
    # "round_robin" with rr_block-sized blocks (paper II-E alternative).
    scheduling: str = "chunk"
    rr_block: int = 8
    max_instructions: int = 500_000_000
    # Rewrite-rule family emitted by build_schedule: "parallel" (thread-level
    # DOALL, the paper's main path), "vector" (packed-lane widening of scalar
    # DOALL bodies) or "prefetch" (stride-ahead cache hints).
    mode: str = "parallel"


@dataclass
class TrainingData:
    """Results of the optional training stage (paper Fig. 1a, left)."""

    coverage: ProfileResult
    dependence: ProfileResult | None = None


class Janus:
    """Automatic parallelisation of one binary, no user intervention."""

    def __init__(self, image: JELF, config: JanusConfig | None = None) -> None:
        self.image = image
        self.config = config or JanusConfig()
        self._analysis: BinaryAnalysis | None = None

    # -- stage 1: static analysis -------------------------------------------

    @property
    def analysis(self) -> BinaryAnalysis:
        if self._analysis is None:
            with get_recorder().span("janus.analysis",
                                     cat="analysis") as span:
                self._analysis = analyze_image(self.image)
                span.set(functions=len(self._analysis.functions),
                         loops=len(self._analysis.loops))
        return self._analysis

    # -- stage 2: training (optional) ------------------------------------------

    def train(self, train_inputs: list[int] | None = None) -> TrainingData:
        """Run the two profiling passes with training inputs."""
        with get_recorder().span("janus.train", cat="profiling") as span:
            training = self._train(train_inputs)
            span.set(dependence_pass=training.dependence is not None)
        return training

    def coverage_schedule(self) -> RewriteSchedule:
        """The schedule of the training's coverage pass."""
        return generate_profile_schedule(self.analysis, stage=COVERAGE_STAGE)

    def _train(self, train_inputs: list[int] | None) -> TrainingData:
        analysis = self.analysis
        process = load(self.image, inputs=train_inputs)
        coverage, _ = run_profiling(
            process, self.coverage_schedule(),
            cost_model=self.config.cost_model.copy(),
            max_instructions=self.config.max_instructions)

        # Dependence profiling only on loops that survived the coverage
        # filter and still need the C/D split.
        surviving = coverage.loops_above_coverage(
            self.config.coverage_threshold)
        needs_dependence = [
            loop_id for loop_id in surviving
            if analysis.loop(loop_id).category is LoopCategory.DYNAMIC_DOALL
        ]
        dependence = None
        if needs_dependence:
            dependence_schedule = generate_profile_schedule(
                analysis, stage=DEPENDENCE_STAGE, loop_ids=needs_dependence)
            process = load(self.image, inputs=train_inputs)
            dependence, _ = run_profiling(
                process, dependence_schedule,
                cost_model=self.config.cost_model.copy(),
                max_instructions=self.config.max_instructions)
            for loop_id in needs_dependence:
                profile = dependence.loops.get(loop_id)
                if profile is not None:
                    analysis.loop(loop_id).apply_dependence_profile(
                        profile.has_dependence)
        for loop_id, profile in coverage.loops.items():
            analysis.loop(loop_id).coverage_fraction = \
                coverage.coverage(loop_id)
        return TrainingData(coverage=coverage, dependence=dependence)

    # -- stage 3: loop selection ---------------------------------------------------

    def select_loops(self, mode: SelectionMode,
                     training: TrainingData | None = None) -> list[int]:
        """Pick at most one loop per nest (paper II-D, selection policy)."""
        analysis = self.analysis
        allowed = {LoopCategory.STATIC_DOALL}
        if mode is SelectionMode.JANUS:
            allowed.add(LoopCategory.DYNAMIC_DOALL)

        def qualifies(result: LoopAnalysisResult) -> bool:
            if result.category not in allowed:
                return False
            if not result.is_parallelisable:
                return False
            if result.loop.preheader is None:
                return False
            if mode in (SelectionMode.STATIC_PROFILE, SelectionMode.JANUS) \
                    and training is not None:
                coverage = training.coverage.coverage(result.loop_id)
                if coverage < self.config.coverage_threshold:
                    return False
                profile = training.coverage.loops.get(result.loop_id)
                if profile is not None and profile.invocations:
                    average = profile.iterations / profile.invocations
                    if average < self.config.min_average_trips:
                        return False
            return True

        by_loop = {result.loop: result for result in analysis.loops}
        selected: list[int] = []
        for fa in analysis.functions.values():
            roots = [loop for loop in fa.loops if loop.parent is None]
            for root in roots:
                selected.extend(
                    self._select_in_subtree(root, by_loop, qualifies))
        return sorted(selected)

    def _select_in_subtree(self, loop, by_loop, qualifies) -> list[int]:
        result = by_loop.get(loop)
        if result is not None and qualifies(result):
            return [result.loop_id]
        chosen: list[int] = []
        for child in loop.children:
            chosen.extend(self._select_in_subtree(child, by_loop, qualifies))
        return chosen

    # -- stage 4: schedule generation ------------------------------------------------

    def build_schedule(self, mode: SelectionMode,
                       training: TrainingData | None = None
                       ) -> RewriteSchedule:
        family = self.config.mode
        if family not in ("parallel", "vector", "prefetch"):
            raise ValueError(f"unknown rewrite mode {family!r}")
        with get_recorder().span("janus.build_schedule", cat="rewrite",
                                 mode=mode.value, family=family) as span:
            selected = self.select_loops(mode, training)
            span.set(selected_loops=len(selected))
            if family == "vector":
                legal = {v.loop_id
                         for v in vector_candidates(self.analysis) if v.ok}
                return generate_vector_schedule(
                    self.analysis, [i for i in selected if i in legal])
            if family == "prefetch":
                return generate_prefetch_schedule(
                    self.analysis, selected_loop_ids=selected or None,
                    distance=self.config.cost_model
                    .prefetch_distance_iterations)
            return generate_parallel_schedule(self.analysis, selected)

    # -- stage 5: execution -------------------------------------------------------------

    def run(self, mode: SelectionMode, inputs: list[int] | None = None,
            training: TrainingData | None = None,
            n_threads: int | None = None,
            schedule: RewriteSchedule | None = None) -> ExecutionResult:
        """Execute the binary in one of the Fig. 7 configurations.

        ``schedule`` short-circuits stage 4 with a precomputed rewrite
        schedule (e.g. one read back from a ``.jrs`` file); schedule
        generation is deterministic, so it produces the same execution
        as a locally-built one.
        """
        process = load(self.image, inputs=inputs)
        threads = n_threads if n_threads is not None \
            else self.config.n_threads
        cost = self.config.cost_model.copy()
        limit = self.config.max_instructions
        if mode is SelectionMode.NATIVE:
            return run_native(process, max_instructions=limit)
        if mode is SelectionMode.DBM_ONLY:
            return run_under_dbm(process, cost_model=cost,
                                 max_instructions=limit)
        if schedule is None:
            schedule = self.build_schedule(mode, training)
        dbm = JanusDBM(process, schedule=schedule, cost_model=cost,
                       n_threads=threads,
                       scheduling=self.config.scheduling,
                       rr_block=self.config.rr_block)
        ParallelRuntime(dbm)
        return dbm.run(max_instructions=limit)
