"""Tests for the command-line toolchain (the deployment workflow)."""

import json

import pytest

from repro.cli import main
from repro.telemetry.core import disable, get_recorder

SOURCE = """
int n = 400;
double a[400];
double b[400];

int main() {
    int i;
    int reps = read_int();
    int r;
    double s = 0.0;
    for (i = 0; i < n; i++) { b[i] = 0.5 * i; }
    for (r = 0; r < reps; r++) {
        for (i = 0; i < n; i++) { a[i] = b[i] * 3.0 + 1.0; }
    }
    for (i = 0; i < n; i++) { s += a[i]; }
    print_double(s);
    return 0;
}
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli")
    source = directory / "app.jc"
    source.write_text(SOURCE)
    return directory


def test_full_workflow(workspace, capsys):
    source = workspace / "app.jc"
    binary = workspace / "app.jelf"
    schedule = workspace / "app.jrs"

    assert main(["compile", str(source), "-o", str(binary), "-O", "3"]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "jcc-gcc" in out
    assert binary.exists()

    assert main(["analyze", str(binary)]) == 0
    out = capsys.readouterr().out
    assert "static_doall" in out
    assert "loops" in out

    assert main(["schedule", str(binary), "-o", str(schedule),
                 "--train-input", "1"]) == 0
    out = capsys.readouterr().out
    assert "rules" in out
    assert schedule.exists()

    # Native run.
    code = main(["run", str(binary), "--input", "2"])
    native_out = capsys.readouterr().out.strip()
    assert code == 0

    # Janus run from the serialized artefacts only.
    code = main(["run", str(binary), "--schedule", str(schedule),
                 "--threads", "4", "--input", "2"])
    janus_out = capsys.readouterr().out.strip()
    assert code == 0
    assert abs(float(janus_out) - float(native_out)) <= \
        1e-9 * max(1.0, abs(float(native_out)))


def test_dbm_mode(workspace, capsys):
    binary = workspace / "app.jelf"
    assert main(["run", str(binary), "--mode", "dbm", "--input", "1"]) == 0
    assert capsys.readouterr().out.strip()


def test_compile_personalities(workspace, capsys):
    source = workspace / "app.jc"
    for extra in (["--personality", "icc"], ["--mavx"], ["--parallel"]):
        output = workspace / f"app_{extra[0].strip('-')}.jelf"
        assert main(["compile", str(source), "-o", str(output)] + extra) == 0
        assert output.exists()
    capsys.readouterr()


def test_table2_figure(capsys):
    assert main(["figures", "table2"]) == 0
    out = capsys.readouterr().out
    assert "Janus" in out and "Dynamic DOALL" in out


def test_figures_rejects_unknown_name(capsys):
    assert main(["figures", "fig99"]) == 2
    assert "unknown figures" in capsys.readouterr().err


def test_run_stats_json_and_stable_stderr(workspace, capsys, tmp_path):
    binary = workspace / "app.jelf"
    stats_path = tmp_path / "stats.json"
    assert main(["run", str(binary), "--mode", "dbm", "--input", "1",
                 "--stats-json", str(stats_path)]) == 0
    err = capsys.readouterr().err
    stats_lines = [line for line in err.splitlines()
                   if line.startswith("[stats] ")]
    assert len(stats_lines) == 1
    # The stderr summary is machine-parseable, sorted JSON.
    summary = json.loads(stats_lines[0][len("[stats] "):])
    assert list(summary) == sorted(summary)
    assert all(value for value in summary.values())
    payload = json.loads(stats_path.read_text())
    assert payload["exit_code"] == 0
    assert payload["cycles"] > 0
    assert list(payload["stats"]) == sorted(payload["stats"])
    # The file keeps zero-valued counters; stderr elides them.
    assert set(summary) <= set(payload["stats"])
    assert payload["stats"]["translated_blocks"] \
        == summary["translated_blocks"]


def test_jit_dump_command(capsys):
    assert main(["jit-dump", "462.libquantum"]) == 0
    captured = capsys.readouterr()
    assert "[fast]" in captured.out
    assert "def _jx_" in captured.out
    # The hot multi-block loop gets stitched into a superblock.
    assert "[superblock]" in captured.out
    assert "def _jsb_" in captured.out
    assert "compiled runners printed" in captured.err
    # Every block in the code cache prints its fast runner, including the
    # blocks entered only once, which the run itself never compiled.
    blocks = int(captured.err.split("[jit-dump] ")[1].split()[0])
    assert sum(1 for line in captured.out.splitlines()
               if line.startswith("-- ") and "[fast]" in line) == blocks

    # --pc narrows the dump to one block (here: the superblock head).
    head = next(line.split()[1] for line in captured.out.splitlines()
                if line.startswith("-- ") and "[superblock]" in line)
    assert main(["jit-dump", "462.libquantum", "--pc", head]) == 0
    captured = capsys.readouterr()
    assert "def _jsb_" in captured.out
    assert all(line.split()[1] == head
               for line in captured.out.splitlines()
               if line.startswith("-- "))

    assert main(["jit-dump", "no.such"]) == 2
    assert "unknown workload" in capsys.readouterr().err
    assert main(["jit-dump", "462.libquantum", "--pc", "0x1"]) == 1
    assert "no block at 0x1" in capsys.readouterr().err
    assert main(["jit-dump", "462.libquantum", "--pc", "zap"]) == 2
    assert "bad --pc" in capsys.readouterr().err


def test_trace_and_stats_commands(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    try:
        assert main(["trace", "470.lbm", "-o", str(trace_path),
                     "--mode", "native",
                     "--metrics-out", str(metrics_path)]) == 0
    finally:
        disable()
    out = capsys.readouterr().out
    assert "spans" in out and "cycles" in out
    assert get_recorder().enabled is False  # trace cleans up after itself

    trace = json.loads(trace_path.read_text())
    span_names = {e["name"] for e in trace["traceEvents"]
                  if e["ph"] == "X"}
    assert "exec.native" in span_names and "native.run" in span_names
    assert trace["metrics"]["counters"]["jit.blocks_translated"] > 0
    metrics = json.loads(metrics_path.read_text())
    assert metrics["counters"] == trace["metrics"]["counters"]

    assert main(["stats", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "[jit]" in out
    assert "jit.blocks_translated" in out
    assert "exec.native" in out

    assert main(["stats", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert "jit.blocks_translated" in out

    missing = tmp_path / "missing.json"
    assert main(["stats", str(missing)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_racecheck_command(capsys, tmp_path):
    out = tmp_path / "racecheck.json"
    assert main(["racecheck", "470.lbm", "--mode", "parallel",
                 "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert "470.lbm" in captured.out
    payload = json.loads(out.read_text())
    assert payload["possible_races"] == 0
    assert payload["unsound_static_loops"] == 0
    assert payload["reports"]
    report = payload["reports"][0]
    assert report["workload"] == "470.lbm"
    proven = [p for p in report["pairs"]
              if p["verdict"] == "proven_disjoint"]
    assert all(p["chain"] for p in proven)


def _fail(*_args, **_kwargs):
    raise RuntimeError("serialisation failed")


@pytest.mark.parametrize("command", ["compile", "schedule"])
def test_failed_serialisation_leaves_no_output(workspace, tmp_path,
                                                monkeypatch, capsys, command):
    """A ``serialize()`` error neither creates nor truncates ``-o``."""
    from repro.jbin.image import JELF
    from repro.rewrite.schedule import RewriteSchedule

    binary = tmp_path / "app.jelf"
    assert main(["compile", str(workspace / "app.jc"), "-o",
                 str(binary)]) == 0
    capsys.readouterr()
    if command == "compile":
        argv = ["compile", str(workspace / "app.jc")]
        monkeypatch.setattr(JELF, "serialize", _fail)
    else:
        argv = ["schedule", str(binary), "--no-train"]
        monkeypatch.setattr(RewriteSchedule, "serialize", _fail)
    output = tmp_path / "out" / "artifact"
    output.parent.mkdir()
    with pytest.raises(RuntimeError):
        main(argv + ["-o", str(output)])
    assert not output.exists()
    output.write_bytes(b"previous artifact")
    with pytest.raises(RuntimeError):
        main(argv + ["-o", str(output)])
    assert output.read_bytes() == b"previous artifact"
    assert [path.name for path in output.parent.iterdir()] == ["artifact"]


class _Unserialisable:
    """A falsy value JSON cannot encode (falsy: the ``[stats]`` summary
    on stderr drops zero-like counters, so only the artifact sees it)."""

    def __bool__(self) -> bool:
        return False


def _poison_run(monkeypatch):
    import repro.cli
    from repro.dbm.executor import run_native

    def poisoned(process):
        result = run_native(process)
        result.stats["poison"] = _Unserialisable()
        return result

    monkeypatch.setattr(repro.cli, "run_native", poisoned)


def _poison_verify(monkeypatch):
    import repro.verify
    from repro.verify.findings import VerifyReport

    monkeypatch.setattr(
        repro.verify, "verify_workload",
        lambda name, **_kwargs: VerifyReport(
            workload=name, demoted_loops=[_Unserialisable()]))


def _poison_racecheck(monkeypatch):
    from repro.verify import racecheck

    monkeypatch.setattr(
        racecheck, "racecheck_workload",
        lambda name, mode: racecheck.RaceReport(
            workload=name, mode=mode, loops_checked=_Unserialisable()))


@pytest.mark.parametrize("command", ["run", "verify", "racecheck"])
def test_failed_json_report_leaves_no_output(workspace, tmp_path,
                                             monkeypatch, capsys, command):
    """A JSON report that fails to serialise neither creates nor
    truncates its output file."""
    if command == "run":
        binary = tmp_path / "app.jelf"
        assert main(["compile", str(workspace / "app.jc"), "-o",
                     str(binary)]) == 0
        argv = ["run", str(binary), "--input", "1", "--stats-json"]
        _poison_run(monkeypatch)
    elif command == "verify":
        argv = ["verify", "470.lbm", "--no-train", "-o"]
        _poison_verify(monkeypatch)
    else:
        argv = ["racecheck", "470.lbm", "--mode", "parallel", "-o"]
        _poison_racecheck(monkeypatch)
    capsys.readouterr()
    output = tmp_path / "out" / "report.json"
    output.parent.mkdir()
    with pytest.raises(TypeError):
        main(argv + [str(output)])
    assert not output.exists()
    output.write_text("previous report\n")
    with pytest.raises(TypeError):
        main(argv + [str(output)])
    assert output.read_text() == "previous report\n"
    assert [path.name for path in output.parent.iterdir()] == ["report.json"]
