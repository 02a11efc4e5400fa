"""ASCII rendering of the evaluation figures, matching the paper's rows,
and the table of every figure's producer and renderer."""

from __future__ import annotations

from repro.eval import figures
from repro.eval.figures import BREAKDOWN_CATEGORIES, CATEGORY_ORDER

_CAT_LABELS = {
    "static_doall": "StaticDOALL",
    "dynamic_doall": "DynDOALL",
    "static_dependence": "StaticDep",
    "dynamic_dependence": "DynDep",
    "incompatible": "Incompat",
}


def render_fig6(rows) -> str:
    header = (f"{'benchmark':18s} " +
              " ".join(f"{_CAT_LABELS[c.value]:>12s}"
                       for c in CATEGORY_ORDER))
    lines = ["Figure 6: loop classification "
             "(per cell: static % of loops / % of execution time)",
             header]
    for row in rows:
        cells = []
        for category in CATEGORY_ORDER:
            static = row["static"][category.value] * 100
            dynamic = row["dynamic"][category.value] * 100
            cells.append(f"{static:5.0f}%/{dynamic:4.0f}%")
        lines.append(f"{row['benchmark']:18s} " +
                     " ".join(f"{c:>12s}" for c in cells))
    return "\n".join(lines)


def render_fig7(rows) -> str:
    labels = [k for k in rows[0] if k != "benchmark"]
    lines = ["Figure 7: whole-program speedup, 8 threads",
             f"{'benchmark':18s} " + " ".join(f"{l:>26s}" for l in labels)]
    for row in rows:
        lines.append(f"{row['benchmark']:18s} " +
                     " ".join(f"{row[l]:25.2f}x" for l in labels))
    return "\n".join(lines)


def render_fig8(rows) -> str:
    lines = ["Figure 8: execution-time breakdown "
             "(normalised to 1-thread Janus; 1T | 8T)",
             f"{'benchmark':18s} " +
             " ".join(f"{c:>22s}" for c in BREAKDOWN_CATEGORIES)]
    for row in rows:
        cells = []
        for category in BREAKDOWN_CATEGORIES:
            one = row["one_thread"][category] * 100
            eight = row["eight_threads"][category] * 100
            cells.append(f"{one:7.1f}% | {eight:6.1f}%")
        lines.append(f"{row['benchmark']:18s} " +
                     " ".join(f"{c:>22s}" for c in cells))
    return "\n".join(lines)


def render_table1(rows) -> str:
    lines = ["Table I: array bounds checks per loop requiring them",
             f"{'benchmark':18s} {'loops':>6s} {'avg checks':>11s}"]
    for row in rows:
        lines.append(f"{row['benchmark']:18s} "
                     f"{row['loops_with_checks']:6d} "
                     f"{row['avg_checks']:11.1f}")
    return "\n".join(lines)


def render_fig9(rows) -> str:
    threads = sorted(rows[0]["speedups"])
    lines = ["Figure 9: speedup vs number of threads",
             f"{'benchmark':18s} " + " ".join(f"{t:>7d}" for t in threads)]
    for row in rows:
        lines.append(f"{row['benchmark']:18s} " +
                     " ".join(f"{row['speedups'][t]:6.2f}x"
                              for t in threads))
    return "\n".join(lines)


def render_fig10(rows) -> str:
    lines = ["Figure 10: rewrite-schedule size overhead",
             f"{'benchmark':18s} {'binary':>9s} {'schedule':>9s} "
             f"{'overhead':>9s}"]
    for row in rows:
        lines.append(f"{row['benchmark']:18s} {row['binary_bytes']:9d} "
                     f"{row['schedule_bytes']:9d} "
                     f"{row['overhead'] * 100:8.1f}%")
    return "\n".join(lines)


def render_fig11(rows) -> str:
    lines = ["Figure 11: Janus vs compiler parallelisation "
             "(normalised to each compiler's own -O3)",
             f"{'benchmark':18s} {'gcc -par':>9s} {'Janus/gcc':>10s} "
             f"{'icc -par':>9s} {'Janus/icc':>10s}"]
    for row in rows:
        lines.append(f"{row['benchmark']:18s} "
                     f"{row['gcc_parallel']:8.2f}x "
                     f"{row['janus_gcc']:9.2f}x "
                     f"{row['icc_parallel']:8.2f}x "
                     f"{row['janus_icc']:9.2f}x")
    return "\n".join(lines)


def render_fig12(rows) -> str:
    labels = [k for k in rows[0] if k != "benchmark"]
    lines = ["Figure 12: Janus speedup on O2 / O3 / vectorised O3 binaries",
             f"{'benchmark':18s} " + " ".join(f"{l:>10s}" for l in labels)]
    for row in rows:
        lines.append(f"{row['benchmark']:18s} " +
                     " ".join(f"{row[l]:9.2f}x" for l in labels))
    return "\n".join(lines)


def render_table2(rows) -> str:
    lines = ["Table II: binary parallelisation tools",
             f"{'tool':20s} {'platform':24s} {'open':>5s} {'auto':>5s} "
             f"{'checks':>7s} {'shlibs':>7s} {'parallelisation':>17s}"]
    for row in rows:
        lines.append(
            f"{row['tool']:20s} {row['platform']:24s} "
            f"{'yes' if row['open_source'] else 'no':>5s} "
            f"{'yes' if row['automatic'] else 'no':>5s} "
            f"{'yes' if row['runtime_checks'] else 'no':>7s} "
            f"{'yes' if row['shared_libraries'] else 'no':>7s} "
            f"{row['parallelisation']:>17s}")
    return "\n".join(lines)


# Figure name -> (producer, renderer).  A producer takes the harness and
# an optional benchmark subset and returns the rows its renderer prints.
FIGURES = {
    "fig6": (figures.fig6_classification, render_fig6),
    "fig7": (figures.fig7_speedups, render_fig7),
    "fig8": (figures.fig8_breakdown, render_fig8),
    "fig9": (figures.fig9_scaling, render_fig9),
    "fig10": (figures.fig10_schedule_size, render_fig10),
    "fig11": (figures.fig11_compiler_comparison, render_fig11),
    "fig12": (figures.fig12_opt_levels, render_fig12),
    "table1": (figures.table1_bounds_checks, render_table1),
    "table2": (lambda _harness=None, benchmarks=None:
               figures.table2_features(), render_table2),
}
