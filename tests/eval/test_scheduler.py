"""Tests for the process-parallel evaluation fan-out.

Covers the three contract pieces: cell enumeration/dedup, end-to-end
figure identity between the 2-worker and serial paths, and cache
robustness under concurrent/corrupt writers.
"""

import multiprocessing
import os
import pickle

import pytest

from repro.eval import figures, reporting, scheduler
from repro.eval import harness as harness_mod
from repro.eval.harness import EvalHarness, _options_key, options_from_key
from repro.eval.scheduler import Cell
from repro.jcc import CompileOptions
from repro.pipeline import Janus, SelectionMode
from repro.workloads import FIG7_BENCHMARKS, all_benchmarks

CHEAP = ["400.perlbench", "401.bzip2"]


class TestPlanning:
    def test_options_key_roundtrip(self):
        options = CompileOptions(opt_level=2, personality="icc", mavx=True)
        assert _options_key(options_from_key(_options_key(options))) \
            == _options_key(options)

    def test_fig7_cells(self):
        cells = scheduler.plan(["fig7"])
        by_kind = {}
        for cell in cells:
            by_kind.setdefault(cell.kind, []).append(cell)
        assert len(by_kind["native"]) == len(FIG7_BENCHMARKS)
        # Four modes per benchmark, all at the harness default threads.
        assert len(by_kind["run"]) == 4 * len(FIG7_BENCHMARKS)
        assert all(c.threads == 8 for c in by_kind["run"])
        # One training per benchmark backs the two profile-guided modes.
        assert len(by_kind["training"]) == len(FIG7_BENCHMARKS)

    def test_dedup_across_figures(self):
        """Cells shared between figures are planned exactly once."""
        cells = scheduler.plan(["fig7", "fig8", "fig9"])
        assert len(set(cells)) == len(cells)
        janus8 = [c for c in cells if c.kind == "run"
                  and c.mode == "JANUS" and c.threads == 8]
        # fig7, fig8 and fig9 all need the Janus-at-8-threads run.
        assert len(janus8) == len(FIG7_BENCHMARKS)
        # No extra natives appear for fig8/fig9 beyond fig7's.
        assert len([c for c in cells if c.kind == "native"]) \
            == len(FIG7_BENCHMARKS)

    def test_stages_order_training_before_trained_runs(self):
        cells = scheduler.plan(["fig7"])
        for cell in cells:
            if cell.kind == "training":
                assert cell.stage == 0
            if cell.kind == "run":
                needs_training = cell.mode in ("STATIC_PROFILE", "JANUS")
                assert cell.stage == (1 if needs_training else 0)

    def test_benchmark_filter(self):
        cells = scheduler.plan(["fig6"], benchmarks=CHEAP)
        assert {c.benchmark for c in cells} == set(CHEAP)
        assert {c.kind for c in cells} == {"training", "fig6profile"}

    def test_fig6_covers_whole_suite(self):
        cells = scheduler.plan(["fig6"])
        assert {c.benchmark for c in cells} == set(all_benchmarks())

    def test_table2_plans_nothing(self):
        assert scheduler.plan(["table2"]) == []

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="unknown figures"):
            scheduler.plan(["fig99"])

    def test_cells_are_picklable(self):
        cells = scheduler.plan(["fig11", "fig12"])
        assert pickle.loads(pickle.dumps(cells)) == cells


class TestEndToEnd:
    def test_two_workers_identical_to_serial(self, tmp_path):
        """The acceptance contract: figure output must be byte-identical
        between the serial path and a 2-worker fan-out."""
        serial = EvalHarness()
        rows_serial = figures.fig6_classification(serial, benchmarks=CHEAP)

        parallel = EvalHarness(jobs=2, cache_dir=str(tmp_path / "cache"))
        warmed = parallel.warm(["fig6"], benchmarks=CHEAP)
        assert warmed == 2 * len(CHEAP)
        rows_parallel = figures.fig6_classification(parallel,
                                                    benchmarks=CHEAP)
        assert rows_parallel == rows_serial
        assert reporting.render_fig6(rows_parallel) \
            == reporting.render_fig6(rows_serial)

    def test_warm_runs_only_cells_missing_from_the_cache(self, tmp_path,
                                                         monkeypatch):
        cache = str(tmp_path / "cache")
        assert EvalHarness(jobs=2, cache_dir=cache).warm(
            ["fig6"], benchmarks=CHEAP) == 2 * len(CHEAP)

        executed = []
        monkeypatch.setattr(scheduler, "execute",
                            lambda cells, *args, **kwargs:
                            executed.extend(cells))
        # Warm: no cell left to run, so no pool starts.
        assert EvalHarness(jobs=2, cache_dir=cache).warm(
            ["fig6"], benchmarks=CHEAP) == 0
        assert executed == []

        # Without its digest sidecar a cell counts as missing: the
        # parent never compiles an image to decide.
        for name in os.listdir(cache):
            if name.startswith("digest-"):
                os.remove(os.path.join(cache, name))

        def no_compile(*args, **kwargs):
            raise AssertionError("warm compiled an image")

        monkeypatch.setattr(harness_mod, "compile_workload", no_compile)
        assert EvalHarness(jobs=2, cache_dir=cache).warm(
            ["fig6"], benchmarks=CHEAP) == 2 * len(CHEAP)
        assert sorted(cell.benchmark for cell in executed) \
            == sorted(2 * CHEAP)

    def test_warm_is_noop_without_cache_or_jobs(self):
        assert EvalHarness(jobs=4).warm(["fig6"], benchmarks=CHEAP) == 0
        assert EvalHarness(jobs=1, cache_dir="/nonexistent").warm(
            ["fig6"], benchmarks=CHEAP) == 0

    def test_training_cache_replays_annotations(self, tmp_path):
        """A disk-cached training must leave the analysis in the same
        state a live training run produces (C/D split + coverage)."""
        cache = str(tmp_path / "cache")
        name = "410.bwaves"

        live = EvalHarness(cache_dir=cache)
        live.training(name)
        live_state = [
            (r.category, r.coverage_fraction, r.profiled_dependence,
             tuple(r.reasons))
            for r in live.janus_for(name).analysis.loops]

        replayed = EvalHarness(cache_dir=cache)
        replayed.training(name)  # disk hit: no profiling runs
        replayed_state = [
            (r.category, r.coverage_fraction, r.profiled_dependence,
             tuple(r.reasons))
            for r in replayed.janus_for(name).analysis.loops]
        assert replayed_state == live_state

    def test_digest_side_cache_avoids_recompilation(self, tmp_path,
                                                    monkeypatch):
        cache = str(tmp_path / "cache")
        EvalHarness(cache_dir=cache).native(CHEAP[0])
        assert any(f.startswith("digest-")
                   for f in os.listdir(cache))

        fresh = EvalHarness(cache_dir=cache)
        fresh.image = None  # any compile attempt would now blow up
        cell = Cell("native", CHEAP[0], _options_key(CompileOptions()))
        entry = fresh._cache_entry(cell)
        assert fresh._disk_get(*entry) is not None

        # An edited compiler must not trust the old compiler's sidecar:
        # a fresh harness recompiles (here to the same bytes, so the
        # cached run is still found through the image digest).
        monkeypatch.setattr(harness_mod, "compiler_identity",
                            lambda: "edited-compiler")
        edited = EvalHarness(cache_dir=cache)
        compiled = []
        real_image = edited.image

        def counting_image(*args):
            compiled.append(args)
            return real_image(*args)

        edited.image = counting_image
        assert edited._cache_entry(cell) == entry
        assert len(compiled) == 1


class TestPlanCoverage:
    def test_figures_read_only_planned_cells(self, tmp_path, monkeypatch):
        """After a fan-out warm, every figure assembles from the cache:
        a cell a figure reads but the plan misses would run here."""
        name = "482.sphinx3"  # the cheapest Fig. 7 binary
        cache = str(tmp_path / "cache")
        assert EvalHarness(jobs=2, cache_dir=cache).warm(
            benchmarks=[name]) > 0

        def unplanned(*args, **kwargs):
            raise AssertionError("a figure executed an unplanned cell")

        monkeypatch.setattr(harness_mod, "run_native", unplanned)
        monkeypatch.setattr(harness_mod, "run_profiling", unplanned)
        monkeypatch.setattr(Janus, "run", unplanned)
        monkeypatch.setattr(Janus, "train", unplanned)
        fresh = EvalHarness(cache_dir=cache)
        for figure, (produce, render) in reporting.FIGURES.items():
            assert render(produce(fresh, benchmarks=[name])), figure


def _hammer_disk_put(args):
    cache_dir, path, tag, value = args
    harness = EvalHarness(cache_dir=cache_dir)
    for _ in range(20):
        harness._disk_put(path, tag, value)
    return value


class TestConcurrentCache:
    def test_unique_temp_names_per_writer(self, tmp_path, monkeypatch):
        """Two writers of the same cell must never share a temp file."""
        harness = EvalHarness(cache_dir=str(tmp_path))
        seen = []
        real_replace = os.replace
        monkeypatch.setattr(
            os, "replace",
            lambda src, dst: (seen.append(src), real_replace(src, dst)))
        path = str(tmp_path / "cell.pkl")
        harness._disk_put(path, "tag", 1)
        harness._disk_put(path, "tag", 2)
        assert len(set(seen)) == 2
        assert all(str(os.getpid()) in name for name in seen)

    def test_concurrent_writers_leave_one_valid_entry(self, tmp_path):
        """N processes × 20 writes to one cell: the surviving file is a
        complete entry from one writer and no temp litter remains."""
        cache_dir = str(tmp_path)
        path = os.path.join(cache_dir, "cell.pkl")
        tag = "shared-cell-tag"
        payloads = [(cache_dir, path, tag, f"writer-{i}") for i in range(4)]
        with multiprocessing.Pool(4) as pool:
            written = pool.map(_hammer_disk_put, payloads)
        result = EvalHarness(cache_dir=cache_dir)._disk_get(path, tag)
        assert result in written
        assert os.listdir(cache_dir) == ["cell.pkl"]

    def test_corrupt_and_colliding_entries_recomputed(self, tmp_path):
        """Truncated/garbage/tag-colliding cache files must fall back to
        recomputation under the fan-out, not poison the figures."""
        cache = str(tmp_path / "cache")
        reference = EvalHarness(jobs=2, cache_dir=cache)
        reference.warm(["fig6"], benchmarks=CHEAP)
        rows_reference = figures.fig6_classification(reference,
                                                     benchmarks=CHEAP)

        for entry in os.listdir(cache):
            full = os.path.join(cache, entry)
            if entry.endswith(".pkl"):
                with open(full, "wb") as fh:
                    fh.write(b"\x80corrupt")
        # A colliding entry: valid pickle, wrong tag for its filename.
        victim = sorted(e for e in os.listdir(cache)
                        if e.endswith(".pkl"))[0]
        with open(os.path.join(cache, victim), "wb") as fh:
            pickle.dump({"tag": "someone-else", "result": 42}, fh)

        again = EvalHarness(jobs=2, cache_dir=cache)
        again.warm(["fig6"], benchmarks=CHEAP)
        rows_again = figures.fig6_classification(again, benchmarks=CHEAP)
        assert rows_again == rows_reference


class TestRunCell:
    def test_run_cell_executes_each_kind(self, tmp_path):
        cache = str(tmp_path / "cache")
        key = _options_key(CompileOptions())
        for cell in (Cell("native", CHEAP[0], key),
                     Cell("training", CHEAP[0], key),
                     Cell("fig6profile", CHEAP[0], key),
                     Cell("run", CHEAP[0], key, "DBM_ONLY", 8)):
            assert scheduler.run_cell(cell, cache) == cell
        harness = EvalHarness(cache_dir=cache)
        assert harness.native(CHEAP[0]) is not None
        assert harness.run(CHEAP[0], SelectionMode.DBM_ONLY) is not None

    def test_unknown_kind_rejected(self, tmp_path):
        cell = Cell("nonsense", CHEAP[0], _options_key(CompileOptions()))
        with pytest.raises(ValueError, match="unknown cell kind"):
            scheduler.run_cell(cell, str(tmp_path))
