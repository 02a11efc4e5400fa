"""Tests for the evaluation harness and cheap figure functions.

The expensive figure functions are exercised (with shape assertions) by
the benchmark suite; here we test the harness mechanics and the figures
that need no execution.
"""

import math

from repro.eval import figures, reporting
from repro.eval.harness import EvalHarness
from repro.pipeline import SelectionMode


class TestGeomean:
    def test_basic(self):
        import pytest

        assert figures.geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert figures.geomean([3.0]) == pytest.approx(3.0)

    def test_empty_and_nonpositive(self):
        assert figures.geomean([]) == 0.0
        assert figures.geomean([0.0, -1.0]) == 0.0

    def test_matches_log_definition(self):
        values = [0.5, 1.3, 2.7, 6.1]
        expected = math.exp(sum(math.log(v) for v in values) / len(values))
        assert abs(figures.geomean(values) - expected) < 1e-12


class TestHarnessCaching:
    def test_native_memoised(self):
        harness = EvalHarness()
        first = harness.native("400.perlbench")
        second = harness.native("400.perlbench")
        assert first is second

    def test_run_memoised_per_mode_and_threads(self):
        harness = EvalHarness()
        a = harness.run("400.perlbench", SelectionMode.DBM_ONLY)
        b = harness.run("400.perlbench", SelectionMode.DBM_ONLY)
        assert a is b

    def test_speedup_of_dbm_mode_below_native(self):
        harness = EvalHarness()
        assert harness.speedup("400.perlbench",
                               SelectionMode.DBM_ONLY) <= 1.0


class TestFig6Profile:
    def test_training_coverage_reused_when_schedules_match(self):
        # 470.lbm has no bracketable incompatible loop: the Fig. 6
        # schedule is the coverage pass's, so training's run serves it.
        harness = EvalHarness()
        training = harness.training("470.lbm")
        assert harness.fig6_profile("470.lbm") is training.coverage
        fresh = EvalHarness().fig6_profile("470.lbm")
        assert fresh is not training.coverage
        assert fresh == training.coverage

    def test_incompatible_loops_get_their_own_run(self):
        # 473.astar brackets incompatible loops for Fig. 6 only.
        harness = EvalHarness()
        training = harness.training("473.astar")
        profile = harness.fig6_profile("473.astar")
        assert profile != training.coverage
        assert set(profile.loops) > set(training.coverage.loops)


class TestDiskCache:
    def test_native_roundtrip(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = EvalHarness(cache_dir=cache).native("400.perlbench")
        # A fresh harness (empty memo dicts) must hit the disk entry.
        reload_harness = EvalHarness(cache_dir=cache)
        second = reload_harness.native("400.perlbench")
        assert second is not first
        assert second.cycles == first.cycles
        assert second.outputs == first.outputs
        assert second.exit_code == first.exit_code
        # And the in-memory memo serves the same object afterwards.
        assert reload_harness.native("400.perlbench") is second

    def test_run_roundtrip_keyed_by_mode(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = EvalHarness(cache_dir=cache).run(
            "400.perlbench", SelectionMode.DBM_ONLY)
        second = EvalHarness(cache_dir=cache).run(
            "400.perlbench", SelectionMode.DBM_ONLY)
        assert second.cycles == first.cycles
        assert second.stats == first.stats

    def test_corrupt_entry_recomputed(self, tmp_path):
        cache = str(tmp_path / "cache")
        harness = EvalHarness(cache_dir=cache)
        harness.native("400.perlbench")
        # "garbage\n" makes pickle raise ValueError, b"\x80" EOFError:
        # any malformed entry must fall back to recomputation.
        for content in (b"garbage\n", b"\x80"):
            for name in (tmp_path / "cache").iterdir():
                name.write_bytes(content)
            fresh = EvalHarness(cache_dir=cache)
            result = fresh.native("400.perlbench")
            assert result.exit_code == 0

    def test_no_cache_dir_writes_nothing(self, tmp_path):
        harness = EvalHarness()
        harness.native("400.perlbench")
        assert list(tmp_path.iterdir()) == []


class TestTable2:
    def test_only_janus_ticks_all_boxes(self):
        rows = figures.table2_features()
        assert len(rows) == 4
        janus = [r for r in rows if r["tool"] == "Janus"][0]
        assert janus["runtime_checks"] and janus["shared_libraries"]
        text = reporting.render_table2(rows)
        assert "Janus" in text and "SecondWrite" in text

    def test_janus_row_derived_from_handlers(self):
        """Removing a handler must flip the derived capability."""
        from repro.dbm import handlers
        from repro.rewrite.rules import RuleID

        saved = handlers.HANDLERS.pop(RuleID.TX_START)
        try:
            rows = figures.table2_features()
            janus = [r for r in rows if r["tool"] == "Janus"][0]
            assert not janus["shared_libraries"]
        finally:
            handlers.HANDLERS[RuleID.TX_START] = saved


class TestRenderers:
    def test_fig7_renderer_includes_all_rows(self):
        rows = [
            {"benchmark": "x", "DynamoRIO": 0.9, "Statically-Driven": 1.0,
             "Statically-Driven + Profile": 1.1, "Janus": 2.0},
            {"benchmark": "Geomean", "DynamoRIO": 0.9,
             "Statically-Driven": 1.0,
             "Statically-Driven + Profile": 1.1, "Janus": 2.0},
        ]
        text = reporting.render_fig7(rows)
        assert "Geomean" in text and "2.00x" in text

    def test_fig9_renderer(self):
        rows = [{"benchmark": "x", "speedups": {1: 1.0, 8: 4.0}}]
        text = reporting.render_fig9(rows)
        assert "4.00x" in text

    def test_fig10_renderer(self):
        rows = [{"benchmark": "x", "binary_bytes": 1000,
                 "schedule_bytes": 50, "overhead": 0.05}]
        assert "5.0%" in reporting.render_fig10(rows)
