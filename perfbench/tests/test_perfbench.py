"""The benchmark's own tests: small subsets of each workload, end to end.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracing  # noqa: E402

# Small subsets that finish a pass in a few seconds.
SUBSETS = {
    "fig7-figures": "470.lbm,437.leslie3d",
    "suite-profile": "400.perlbench,444.namd",
    "static-matrix": "444.namd",
}


def run_bench(workload: str, seed: int, trace: int,
              root: Path = ROOT) -> tuple[dict, str]:
    """One run with --seconds 0, which does the minimum two passes (one
    untraced and one traced with --trace 1); returns (final JSON line,
    stdout)."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace",
         str(trace), "--binaries", SUBSETS[workload]],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def assert_metrics(result: dict, table: str) -> None:
    expected = {metric["name"]: metric["unit"] for metric in MANIFEST[table]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(SUBSETS))
def test_subset_repeats_across_seeds(workload):
    first, _ = run_bench(workload, seed=1, trace=0)
    second, _ = run_bench(workload, seed=2, trace=0)
    traced, _ = run_bench(workload, seed=3, trace=1)
    for result in (first, second, traced):
        assert result["failed"] == 0 and result["correct"] is True
    assert first["attempted"] == second["attempted"] == traced["attempted"]
    assert first["attempted"] > 0
    assert_metrics(first, "end_to_end")
    assert_metrics(second, "end_to_end")
    assert_metrics(traced, "per_layer")
    assert first["metrics"]["pass_s"]["value"] > 0


def test_tampered_expectation_is_a_named_failed_op(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = tmp_path / "perfbench" / "expected" / "static-matrix.json"
    data = json.loads(path.read_text())
    changed, missing = "444.namd/icc-O3", "444.namd/gcc-O1"
    data["ops"][changed]["schedules"]["parallel"] = "0" * 64
    data["ops"][missing] = data["ops"]["444.namd/gcc-O2"]
    path.write_text(json.dumps(data))
    result, stdout = run_bench("static-matrix", 1, 0, root=tmp_path)
    assert result["failed"] == 4 and result["correct"] is False
    assert result["attempted"] == 10  # two passes of five ops
    assert f"FAILED {changed}: schedules:" in stdout
    assert f"FAILED {missing}: not run" in stdout


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7-figures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_uninstall_restores_every_entry_point():
    import repro.analysis.analyzer as analyzer
    import repro.pipeline.janus as janus

    original_analyze = analyzer.analyze_image
    original_run = janus.Janus.__dict__["run"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert janus.analyze_image is not original_analyze
        assert janus.Janus.__dict__["run"] is not original_run
    finally:
        tracer.uninstall()
    assert janus.analyze_image is original_analyze
    assert analyzer.analyze_image is original_analyze
    assert janus.Janus.__dict__["run"] is original_run


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    outer = tracer._wrap(lambda fn: fn(), "eval.cell", None)
    inner = tracer._wrap(lambda: None, "dbm.native", None)
    outer(inner)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["dbm.native"].parent == 0
    assert by_name["eval.cell"].self_s == pytest.approx(
        by_name["eval.cell"].end - by_name["eval.cell"].start
        - (by_name["dbm.native"].end - by_name["dbm.native"].start))
    assert tracer.attributed_seconds() == pytest.approx(
        by_name["eval.cell"].end - by_name["eval.cell"].start)


def test_pass_timings_sum_each_ops_fastest_scaled_time():
    from perfbench import calibrate, run, workloads

    nominal = calibrate.NOMINAL_PROBE_S
    passes = [
        workloads.PassResult(seconds=3.5, op_seconds={
            "a/x": 1.0, "a/y": 2.0, "b/x": 0.25},
            probe_seconds=[nominal, nominal, 3 * nominal]),
        # Probes twice as slow: this pass's times count half.
        workloads.PassResult(seconds=3.0, op_seconds={
            "a/x": 1.5, "a/y": 1.0, "b/x": 0.25},
            probe_seconds=[2 * nominal] * 3),
    ]
    values = run._end_to_end([0.5, 0.25, 1.0], passes)
    # Fastest scaled ops: a/x 0.75 + a/y 0.5 + b/x 0.125, and 0.125 s
    # between ops (the second pass's 0.25 s, halved).
    assert values["pass_s"] == pytest.approx(1.5)
    assert values["binary_geomean_s"] == pytest.approx((1.25 * 0.125) ** 0.5)
    assert values["setup_s"] == 0.5
