"""Wall-clock cost of the soundness verifier (`repro verify`).

Per workload: total verifier time, a per-tier split (invariants /
training+lint / oracle), and the oracle's replay overhead against a
plain uninstrumented interpretation of the same binary on the same
inputs.  Run directly::

    PYTHONPATH=src python benchmarks/bench_verify.py [--all]

The pytest entry point keeps CI cheap: one representative workload must
verify with zero confirmed-unsound findings, and the oracle replay must
stay within a sane multiple of plain interpretation (its replay
windows log every access, so the bound is loose).
"""

import argparse
import json
import time

from repro.dbm.modifier import JanusDBM
from repro.jbin.loader import load
from repro.verify import claimed_doall_loops, run_doall_oracle, verify_workload
from repro.workloads.suite import all_benchmarks, compile_workload, get_workload

# Small-but-representative default: one DOALL-heavy, one dependence-heavy,
# one STM-call workload.
DEFAULT_BENCHMARKS = ("470.lbm", "462.libquantum", "453.povray")


def plain_interpretation(name: str) -> tuple[float, int]:
    """Uninstrumented DBM run of the workload's first training input."""
    workload = get_workload(name)
    image = compile_workload(name)
    inputs = list(workload.train_inputs)
    process = load(image, inputs=inputs or None)
    dbm = JanusDBM(process)
    started = time.perf_counter()
    execution = dbm.run()
    return time.perf_counter() - started, execution.instructions


def oracle_replay(name: str) -> tuple[float, int]:
    """The oracle's bounded replay of the same binary and inputs."""
    workload = get_workload(name)
    image = compile_workload(name)
    from repro.analysis import analyze_image

    analysis = analyze_image(image)
    claimed = claimed_doall_loops(analysis)
    started = time.perf_counter()
    result = run_doall_oracle(image, analysis, claimed=claimed,
                              inputs=list(workload.train_inputs))
    return time.perf_counter() - started, result.instructions


def bench_workload(name: str) -> dict:
    started = time.perf_counter()
    report = verify_workload(name)
    total = time.perf_counter() - started

    plain_s, plain_ins = plain_interpretation(name)
    oracle_s, oracle_ins = oracle_replay(name)
    overhead = oracle_s / plain_s if plain_s else 0.0
    return {
        "benchmark": name,
        "verify_total_s": round(total, 3),
        "functions": report.functions_checked,
        "loops": report.loops_checked,
        "rules_linted": report.rules_linted,
        "oracle_loops": report.oracle_loops,
        "confirmed_unsound": len(report.confirmed),
        "plain_interp_s": round(plain_s, 3),
        "plain_instructions": plain_ins,
        "oracle_replay_s": round(oracle_s, 3),
        "oracle_instructions": oracle_ins,
        "oracle_overhead_x": round(overhead, 2),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--all", action="store_true",
                        help="verify every bundled workload")
    parser.add_argument("benchmarks", nargs="*",
                        default=list(DEFAULT_BENCHMARKS))
    args = parser.parse_args()
    names = all_benchmarks() if args.all else args.benchmarks
    rows = [bench_workload(name) for name in names]
    print(json.dumps({"workloads": rows}, indent=2))
    return 1 if any(r["confirmed_unsound"] for r in rows) else 0


def test_verifier_sound_and_bounded():
    row = bench_workload("462.libquantum")
    assert row["confirmed_unsound"] == 0
    assert row["oracle_loops"] >= 1
    # The oracle's replay windows log every memory access; anything
    # beyond this multiple means the fast path regressed badly.
    assert row["oracle_overhead_x"] < 60


if __name__ == "__main__":
    raise SystemExit(main())
