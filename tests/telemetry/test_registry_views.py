"""The stats-registry migration: legacy stats objects as registry views.

``JITStats``, ``DBMStats`` and ``STMStats`` must keep their old attribute
API while counting into one shared ``MetricRegistry`` under ``jit.*``,
``runtime.*`` and ``stm.*`` — and ``ExecutionResult.stats`` must keep the
legacy unprefixed key layout byte-for-byte.
"""

import pytest

from repro.dbm.jit import JITStats
from repro.dbm.modifier import DBMStats, JanusDBM
from repro.dbm.runtime import ParallelRuntime
from repro.jbin.loader import load
from repro.jcc import CompileOptions, compile_source
from repro.pipeline import Janus, JanusConfig, SelectionMode
from repro.stm.stm import STMStats
from repro.telemetry.core import MetricRegistry

SOURCE = """
int n = 256;
double a[256];
double b[256];

int main() {
    int i;
    double s = 0.0;
    for (i = 0; i < n; i++) { b[i] = 0.25 * i; }
    for (i = 0; i < n; i++) { a[i] = b[i] * 2.0 + 1.0; }
    for (i = 0; i < n; i++) { s += a[i]; }
    print_double(s);
    return 0;
}
"""

LEGACY_DBM_KEYS = [
    "translated_blocks", "translated_instructions", "translation_cycles",
    "worker_translation_cycles", "check_cycles", "checks_passed",
    "checks_failed", "init_finish_cycles", "parallel_cycles",
    "loop_invocations_parallel", "loop_invocations_sequential",
    "loop_finish_marks", "stm_cycles", "false_sharing_cycles",
    "rules_applied",
]

LEGACY_JIT_KEYS = [
    "blocks_translated", "links_installed", "fallback_instructions",
]

SUPERBLOCK_KEYS = [
    "superblock_formed", "superblock_formation_failures",
    "superblock_entries", "superblock_side_exits", "superblock_bailouts",
]


@pytest.fixture(scope="module")
def image():
    return compile_source(SOURCE, CompileOptions(opt_level=3))


class TestNamespaces:
    def test_views_write_namespaced_keys(self):
        registry = MetricRegistry()
        jit = JITStats(registry)
        dbm = DBMStats(registry)
        stm = STMStats(registry)
        jit.blocks_translated += 2
        dbm.rules_applied += 3
        stm.aborts += 1
        assert registry.get("jit.blocks_translated") == 2
        assert registry.get("runtime.rules_applied") == 3
        assert registry.get("stm.aborts") == 1

    def test_fields_initialised_to_zero(self):
        registry = MetricRegistry()
        STMStats(registry)
        assert registry.get("stm.transactions") == 0
        assert "stm.commit_cycles" in registry.counters

    def test_standalone_views_get_private_registries(self):
        a = STMStats()
        b = STMStats()
        a.aborts += 1
        assert b.aborts == 0


class TestJanusDBMSharedRegistry:
    def test_one_registry_across_subsystems(self, image):
        dbm = JanusDBM(load(image))
        runtime = ParallelRuntime(dbm)
        assert dbm.stats.registry is dbm.registry
        assert dbm.interp.jit_stats.registry is dbm.registry
        assert runtime.stm.stats.registry is dbm.registry

    def test_run_counts_into_registry(self, image):
        dbm = JanusDBM(load(image))
        result = dbm.run()
        assert result.exit_code == 0
        assert dbm.registry.get("runtime.translated_blocks") \
            == dbm.stats.translated_blocks > 0
        assert dbm.registry.get("jit.blocks_translated") \
            == dbm.interp.jit_stats.blocks_translated > 0


class TestLegacyStatsLayout:
    def test_dbm_result_stats_keys(self, image):
        result = JanusDBM(load(image)).run()
        assert list(result.stats) \
            == LEGACY_DBM_KEYS + LEGACY_JIT_KEYS + SUPERBLOCK_KEYS

    def test_janus_run_matches_dbm_only_baseline(self, image):
        janus = Janus(image, JanusConfig(n_threads=2))
        result = janus.run(SelectionMode.JANUS)
        assert result.exit_code == 0
        assert set(LEGACY_DBM_KEYS + LEGACY_JIT_KEYS + SUPERBLOCK_KEYS) \
            <= set(result.stats)
        assert result.stats["loop_invocations_parallel"] >= 1

    def test_superblock_counters_namespaced(self, image):
        from repro.dbm.executor import run_native

        result = run_native(load(image))
        assert set(LEGACY_JIT_KEYS + SUPERBLOCK_KEYS) <= set(result.stats)
