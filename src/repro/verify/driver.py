"""Drive all three verification tiers over one workload.

``verify_workload`` compiles a suite workload, runs the real pipeline
(analysis, optionally the two training passes, schedule generation) and then
turns the verifier loose on every artefact it produced:

* tier 1 — IR invariants over every analysed function;
* tier 2 — the schedule linter over the coverage-profiling schedule, the
  full JANUS-mode parallel schedule and the vector/prefetch schedules,
  plus a differential replay of the latter two families against the plain
  DBM (any observable divergence is confirmed unsoundness);
* tier 3 — the DOALL oracle replaying every claimed-independent loop
  against the training inputs.

Everything lands in one :class:`VerifyReport`; ``verify.*`` counters go to
the shared telemetry registry and are absorbed into the live recorder when
telemetry is enabled.
"""

from __future__ import annotations

from repro.dbm.modifier import run_under_dbm
from repro.jbin.loader import load
from repro.pipeline.janus import Janus, JanusConfig, SelectionMode
from repro.rewrite.gen_prefetch import generate_prefetch_schedule
from repro.rewrite.gen_profile import COVERAGE_STAGE, generate_profile_schedule
from repro.rewrite.gen_vector import generate_vector_schedule
from repro.telemetry.core import get_recorder
from repro.verify.findings import Finding, Severity, VerifyReport, VerifyStats
from repro.verify.invariants import check_analysis
from repro.verify.lint_schedule import lint_schedule
from repro.verify.oracle import (
    DEFAULT_ORACLE_ITERATIONS,
    claimed_doall_loops,
    run_doall_oracle,
)
from repro.workloads.suite import compile_workload, get_workload


def verify_workload(name: str, *, train: bool = True,
                    max_iterations: int = DEFAULT_ORACLE_ITERATIONS,
                    max_instructions: int | None = None,
                    demote: bool = False) -> VerifyReport:
    """Run every verification tier over one suite workload."""
    workload = get_workload(name)
    image = compile_workload(name)
    config = JanusConfig()
    if max_instructions is not None:
        config.max_instructions = max_instructions
    janus = Janus(image, config)
    report = VerifyReport(workload=name)
    stats = VerifyStats()
    recorder = get_recorder()

    with recorder.span("verify.workload", cat="verify", workload=name):
        # Tier 1: the analysis itself.
        with recorder.span("verify.invariants", cat="verify") as span:
            analysis = janus.analysis
            report.findings.extend(check_analysis(analysis))
            report.functions_checked = len(analysis.functions)
            report.loops_checked = len(analysis.loops)
            span.set(functions=report.functions_checked,
                     findings=len(report.findings))

        # The real pipeline's training stage (coverage + dependence
        # profiling) runs first so tier 2/3 see post-training categories —
        # the claims the selector actually acts on.
        training = None
        if train:
            training = janus.train(list(workload.train_inputs))

        # Tier 2: every schedule family the pipeline can emit.
        vector_schedule = generate_vector_schedule(analysis)
        prefetch_schedule = generate_prefetch_schedule(analysis)
        with recorder.span("verify.lint", cat="verify") as span:
            for schedule in (
                    generate_profile_schedule(analysis, stage=COVERAGE_STAGE),
                    janus.build_schedule(SelectionMode.JANUS, training),
                    vector_schedule,
                    prefetch_schedule):
                report.findings.extend(lint_schedule(analysis, schedule))
                report.rules_linted += len(schedule)
                stats.schedules_linted += 1
            span.set(rules=report.rules_linted)

        # Tier 2b: differential replay of the vector/prefetch rewrites.
        # These families must be observationally invisible — same output
        # bytes, same exit code as the plain DBM; a divergence is a
        # demonstrated wrong answer, the same standard the DOALL oracle
        # applies to parallel schedules.
        families = [(family, schedule) for family, schedule in
                    (("vector", vector_schedule),
                     ("prefetch", prefetch_schedule)) if len(schedule)]
        if families:
            with recorder.span("verify.modediff", cat="verify") as span:
                reference = run_under_dbm(
                    load(image, inputs=list(workload.train_inputs)),
                    max_instructions=config.max_instructions)
                diverged = 0
                for family, schedule in families:
                    result = run_under_dbm(
                        load(image, inputs=list(workload.train_inputs)),
                        schedule=schedule,
                        max_instructions=config.max_instructions)
                    same = (result.output_text == reference.output_text
                            and result.exit_code == reference.exit_code)
                    if same:
                        report.findings.append(Finding(
                            tier="oracle", check=f"modediff.{family}",
                            severity=Severity.INFO, location=family,
                            message=f"{len(schedule)} {family} rules: "
                                    f"observable results identical to the "
                                    f"scalar reference"))
                    else:
                        diverged += 1
                        report.findings.append(Finding(
                            tier="oracle", check=f"modediff.{family}",
                            severity=Severity.CONFIRMED_UNSOUND,
                            location=family,
                            message=f"{family} rewrite diverged from the "
                                    f"scalar reference (exit "
                                    f"{result.exit_code} vs "
                                    f"{reference.exit_code})"))
                span.set(families=len(families), diverged=diverged)

        # Tier 3: replay the DOALL claims against the training inputs.
        claimed = claimed_doall_loops(analysis)
        report.oracle_loops = len(claimed)
        if claimed:
            oracle = run_doall_oracle(
                image, analysis, claimed=claimed,
                inputs=list(workload.train_inputs),
                max_iterations=max_iterations,
                max_instructions=config.max_instructions,
                demote=demote)
            report.findings.extend(oracle.findings())
            report.demoted_loops = list(oracle.demoted)
            report.oracle_iterations = sum(
                s.iterations for s in oracle.loops.values())
            stats.oracle_invocations += sum(
                s.invocations for s in oracle.loops.values())
            stats.oracle_accesses += sum(
                s.shadowed_accesses for s in oracle.loops.values())
            stats.oracle_conflicts += sum(
                s.confirmed + s.guarded for s in oracle.loops.values())

    stats.functions_checked += report.functions_checked
    stats.loops_checked += report.loops_checked
    stats.rules_linted += report.rules_linted
    stats.oracle_loops += report.oracle_loops
    stats.oracle_iterations += report.oracle_iterations
    stats.loops_demoted += len(report.demoted_loops)
    stats.count_findings(report.findings)
    if recorder.enabled:
        recorder.absorb(stats.registry)
    return report


def exit_code(reports) -> int:
    """The ``repro verify`` exit-code contract: 1 iff confirmed unsound."""
    return 1 if any(report.confirmed for report in reports) else 0
