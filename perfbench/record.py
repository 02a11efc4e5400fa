"""Record the committed expectations of every workload from the current code.

    python3 perfbench/record.py [--workload NAME ...]

Runs one pass of each workload and writes what every op observed to
``perfbench/expected/<workload>.json``.  Before writing, every program the
workload executes is run once on the reference interpreter
(``Interpreter.force_reference``) with the same inputs:

* fig7-figures: each execution cell (native, DBM-only, the three
  parallel configurations at 8 threads and JANUS at 1 thread) must print
  exactly the reference output with the reference exit code, and the
  native run must take the reference's simulated cycles;
* suite-profile: the coverage-profiling run (``run_profiling`` with the
  training stage's coverage schedule) must print exactly the reference
  output on the training inputs.

A mismatch is printed and nothing is written.  Re-record only when a
change is meant to alter a reproduced number, and say so in the change.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def reference_check(workload: str, inputs,
                    observed: dict) -> tuple[list[str], dict]:
    """Compare a pass's observations with reference-interpreter runs.

    Returns the mismatches and the reference fields of each binary.
    """
    from perfbench import checks, workloads

    api = inputs.api
    problems, reference = [], {}
    for name, config in inputs.binaries:
        workload_def = api.workloads.get_workload(name)
        image = api.workloads.compile_workload(
            name, workloads.compile_options(api, config))
        if workload == workloads.FIG7_FIGURES:
            ref = checks.reference_run(image, workload_def.ref_inputs)
            for label in workloads.FIG7_CELLS:
                cell = observed[f"{name}/{label}"]
                for key in ("output", "exit"):
                    if cell[key] != ref[key]:
                        problems.append(f"{name}/{label}: {key} differs "
                                        f"from the reference interpreter")
            if observed[f"{name}/native"]["cycles"] != ref["cycles"]:
                problems.append(f"{name}/native: cycles differ from the "
                                f"reference interpreter")
        elif workload == workloads.SUITE_PROFILE:
            ref = checks.reference_run(image, workload_def.train_inputs)
            profiled = workloads.execution_digest(
                _coverage_run(image, workload_def.train_inputs))
            for key in ("output", "exit"):
                if profiled[key] != ref[key]:
                    problems.append(f"{name}/training: profiled {key} "
                                    f"differs from the reference interpreter")
        else:
            continue
        reference[f"{name}/{config}"] = ref
    return problems, reference


def _coverage_run(image, inputs):
    from repro.analysis import analyze_image
    from repro.jbin.loader import load
    from repro.profiling import run_profiling
    from repro.rewrite import generate_profile_schedule
    from repro.rewrite.gen_profile import COVERAGE_STAGE

    schedule = generate_profile_schedule(analyze_image(image),
                                         stage=COVERAGE_STAGE)
    _, execution = run_profiling(load(image, inputs=list(inputs)), schedule)
    return execution


def record(workload: str) -> int:
    from perfbench import checks, workloads

    inputs = workloads.set_up(workload)
    with tempfile.TemporaryDirectory() as scratch:
        result = workloads.run_pass(workload, inputs, random.Random(0),
                                    scratch)
    problems, reference = reference_check(workload, inputs,
                                          result.observed)
    for problem in problems:
        print(f"{workload}: {problem}", file=sys.stderr)
    if problems:
        return 1
    path = checks.expected_path(workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "workload": workload,
        "reference": reference,
        "ops": result.observed,
    }, indent=1, sort_keys=True) + "\n")
    print(f"{workload}: {len(result.observed)} ops -> {path.name}")
    return 0


def main(argv=None) -> int:
    import argparse

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workload or workloads.WORKLOADS:
        status |= record(workload)
    return status


if __name__ == "__main__":
    sys.exit(main())
