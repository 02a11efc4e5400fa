"""One function per paper figure/table (see DESIGN.md experiment index).

Each returns plain data (lists of row dicts) that the benchmark harness
prints via :mod:`repro.eval.reporting` and that tests assert shape
properties on.  Speedups are cycle-count ratios against the native run of
the same binary, exactly as the paper normalises.
"""

from __future__ import annotations

import math

from repro.analysis import LoopCategory
from repro.jcc import CompileOptions
from repro.pipeline import SelectionMode
from repro.eval.harness import EvalHarness, default_harness
from repro.workloads import FIG7_BENCHMARKS, all_benchmarks

CATEGORY_ORDER = (
    LoopCategory.STATIC_DOALL,
    LoopCategory.DYNAMIC_DOALL,
    LoopCategory.STATIC_DEPENDENCE,
    LoopCategory.DYNAMIC_DEPENDENCE,
    LoopCategory.INCOMPATIBLE,
)


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- Figure 6: loop classification --------------------------------------------------


def fig6_classification(harness: EvalHarness | None = None,
                        benchmarks=None) -> list[dict]:
    """Static loop-count and dynamic execution-time fractions per category."""
    harness = harness or default_harness()
    rows = []
    for name in benchmarks or all_benchmarks():
        janus = harness.janus_for(name)
        analysis = janus.analysis
        # The C/D split needs the training stage.
        harness.training(name)
        n_loops = len(analysis.loops) or 1
        static_fractions = {}
        for category in CATEGORY_ORDER:
            count = sum(1 for l in analysis.loops
                        if l.category is category)
            static_fractions[category.value] = count / n_loops

        # Dynamic fractions: a coverage run that also brackets
        # incompatible loops, attributing time to the innermost loop.
        profile = harness.fig6_profile(name)
        dynamic_fractions = {c.value: 0.0 for c in CATEGORY_ORDER}
        for result in analysis.loops:
            coverage = profile.exclusive_coverage(result.loop_id)
            dynamic_fractions[result.category.value] += coverage
        rows.append({
            "benchmark": name,
            "n_loops": n_loops,
            "static": static_fractions,
            "dynamic": dynamic_fractions,
            "doall_time": (dynamic_fractions["static_doall"]
                           + dynamic_fractions["dynamic_doall"]),
        })
    return rows


# -- Figure 7: whole-program speedups ------------------------------------------------


FIG7_MODES = (SelectionMode.DBM_ONLY, SelectionMode.STATIC,
              SelectionMode.STATIC_PROFILE, SelectionMode.JANUS)

FIG7_MODE_LABELS = {
    SelectionMode.DBM_ONLY: "DynamoRIO",
    SelectionMode.STATIC: "Statically-Driven",
    SelectionMode.STATIC_PROFILE: "Statically-Driven + Profile",
    SelectionMode.JANUS: "Janus",
}


def fig7_speedups(harness: EvalHarness | None = None,
                  benchmarks=None) -> list[dict]:
    """The four configuration bars for the nine parallelisable benchmarks."""
    harness = harness or default_harness()
    rows = []
    for name in benchmarks or FIG7_BENCHMARKS:
        row = {"benchmark": name}
        for mode in FIG7_MODES:
            row[FIG7_MODE_LABELS[mode]] = harness.speedup(name, mode)
        rows.append(row)
    summary = {"benchmark": "Geomean"}
    for mode in FIG7_MODES:
        label = FIG7_MODE_LABELS[mode]
        summary[label] = geomean([r[label] for r in rows])
    rows.append(summary)
    return rows


# -- Figure 8: execution-time breakdown -----------------------------------------------


BREAKDOWN_CATEGORIES = ("sequential", "parallel", "init_finish",
                        "translation", "check")


def _breakdown(result) -> dict:
    stats = result.stats
    translation = stats.get("translation_cycles", 0)
    check = stats.get("check_cycles", 0)
    init_finish = stats.get("init_finish_cycles", 0)
    parallel = max(0, stats.get("parallel_cycles", 0)
                   - stats.get("worker_translation_cycles", 0))
    sequential = max(0, result.cycles - translation - check
                     - init_finish - parallel)
    return {"sequential": sequential, "parallel": parallel,
            "init_finish": init_finish, "translation": translation,
            "check": check, "total": result.cycles}


def fig8_breakdown(harness: EvalHarness | None = None,
                   benchmarks=None) -> list[dict]:
    """Per-benchmark breakdown for 1 thread and 8 threads, normalised to
    the single-threaded Janus execution (paper Fig. 8)."""
    harness = harness or default_harness()
    rows = []
    for name in benchmarks or FIG7_BENCHMARKS:
        one = _breakdown(harness.run(name, SelectionMode.JANUS, n_threads=1))
        eight = _breakdown(harness.run(name, SelectionMode.JANUS,
                                       n_threads=8))
        base = one["total"] or 1
        rows.append({
            "benchmark": name,
            "one_thread": {k: one[k] / base for k in BREAKDOWN_CATEGORIES},
            "eight_threads": {k: eight[k] / base
                              for k in BREAKDOWN_CATEGORIES},
        })
    return rows


# -- Table I: array-bounds checks -------------------------------------------------------


def table1_bounds_checks(harness: EvalHarness | None = None,
                         benchmarks=None) -> list[dict]:
    """Average number of bounds checks per loop that requires them."""
    harness = harness or default_harness()
    rows = []
    for name in benchmarks or FIG7_BENCHMARKS:
        janus = harness.janus_for(name)
        training = harness.training(name)
        selected = janus.select_loops(SelectionMode.JANUS, training)
        counts = []
        for loop_id in selected:
            result = janus.analysis.loop(loop_id)
            if result.alias is not None and result.alias.bounds_checks:
                counts.append(len(result.alias.bounds_checks))
        if counts:
            rows.append({"benchmark": name,
                         "loops_with_checks": len(counts),
                         "avg_checks": sum(counts) / len(counts)})
    return rows


# -- Figure 9: thread scaling --------------------------------------------------------------


def fig9_scaling(harness: EvalHarness | None = None,
                 thread_counts=(1, 2, 3, 4, 6, 8),
                 benchmarks=None) -> list[dict]:
    harness = harness or default_harness()
    rows = []
    for name in benchmarks or FIG7_BENCHMARKS:
        row = {"benchmark": name, "speedups": {}}
        for threads in thread_counts:
            row["speedups"][threads] = harness.speedup(
                name, SelectionMode.JANUS, n_threads=threads)
        rows.append(row)
    return rows


# -- Figure 10: rewrite-schedule size --------------------------------------------------------


def fig10_schedule_size(harness: EvalHarness | None = None,
                        benchmarks=None) -> list[dict]:
    harness = harness or default_harness()
    rows = []
    for name in benchmarks or FIG7_BENCHMARKS:
        janus = harness.janus_for(name)
        training = harness.training(name)
        schedule = janus.build_schedule(SelectionMode.JANUS, training)
        binary_size = len(janus.image.serialize())
        schedule_size = schedule.size_bytes
        rows.append({"benchmark": name,
                     "binary_bytes": binary_size,
                     "schedule_bytes": schedule_size,
                     "overhead": schedule_size / binary_size})
    rows.append({"benchmark": "Geomean", "binary_bytes": 0,
                 "schedule_bytes": 0,
                 "overhead": geomean([r["overhead"] for r in rows])})
    return rows


# -- Figure 11: comparison with compiler parallelisation ---------------------------------------


def fig11_compiler_comparison(harness: EvalHarness | None = None,
                              benchmarks=None) -> list[dict]:
    """gcc/icc auto-parallelisation vs Janus, normalised per-compiler."""
    harness = harness or default_harness()
    gcc = CompileOptions(opt_level=3, personality="gcc")
    gcc_par = CompileOptions(opt_level=3, personality="gcc", parallel=True)
    icc = CompileOptions(opt_level=3, personality="icc")
    icc_par = CompileOptions(opt_level=3, personality="icc", parallel=True)
    rows = []
    for name in benchmarks or FIG7_BENCHMARKS:
        gcc_native = harness.native(name, gcc).cycles
        icc_native = harness.native(name, icc).cycles
        rows.append({
            "benchmark": name,
            "gcc_parallel": gcc_native / harness.native(name,
                                                        gcc_par).cycles,
            "janus_gcc": harness.speedup(name, SelectionMode.JANUS, gcc),
            "icc_parallel": icc_native / harness.native(name,
                                                        icc_par).cycles,
            "janus_icc": harness.speedup(name, SelectionMode.JANUS, icc),
        })
    summary = {"benchmark": "Geomean"}
    for key in ("gcc_parallel", "janus_gcc", "icc_parallel", "janus_icc"):
        summary[key] = geomean([r[key] for r in rows])
    rows.append(summary)
    return rows


# -- Figure 12: impact of compiler optimisation ---------------------------------------------------


def fig12_opt_levels(harness: EvalHarness | None = None,
                     benchmarks=None) -> list[dict]:
    harness = harness or default_harness()
    configs = {
        "O2": CompileOptions(opt_level=2),
        "O3": CompileOptions(opt_level=3),
        "O3 -mavx": CompileOptions(opt_level=3, mavx=True),
    }
    rows = []
    for name in benchmarks or FIG7_BENCHMARKS:
        row = {"benchmark": name}
        for label, options in configs.items():
            row[label] = harness.speedup(name, SelectionMode.JANUS, options)
        rows.append(row)
    summary = {"benchmark": "Geomean"}
    for label in configs:
        summary[label] = geomean([r[label] for r in rows])
    rows.append(summary)
    return rows


# -- Table II: qualitative tool comparison ----------------------------------------------------------


def table2_features() -> list[dict]:
    """The paper's qualitative tool matrix; the Janus row is *derived* from
    the capabilities this reproduction actually implements."""
    from repro.rewrite.rules import RuleID
    from repro.dbm import handlers

    implemented = set(handlers.HANDLERS)
    janus_row = {
        "tool": "Janus",
        "platform": "x86-64, AArch64 (JX here)",
        "open_source": True,
        "automatic": True,
        "runtime_checks": RuleID.MEM_BOUNDS_CHECK in implemented,
        "shared_libraries": (RuleID.TX_START in implemented
                             and RuleID.TX_FINISH in implemented),
        "parallelisation": "Dynamic DOALL",
        "spectrum": "Generic binaries",
    }
    return [
        {"tool": "Yardimci and Franz", "platform": "PowerPC",
         "open_source": False, "automatic": True, "runtime_checks": False,
         "shared_libraries": False, "parallelisation": "Static DOALL",
         "spectrum": "Generic binaries"},
        {"tool": "SecondWrite", "platform": "x86-64",
         "open_source": False, "automatic": False, "runtime_checks": True,
         "shared_libraries": False, "parallelisation": "Affine loops",
         "spectrum": "Affine binaries"},
        {"tool": "Pradelle et al", "platform": "x86-64",
         "open_source": False, "automatic": False, "runtime_checks": False,
         "shared_libraries": False, "parallelisation": "Decompile Src2Src",
         "spectrum": "Affine binaries"},
        janus_row,
    ]
