"""Wall-clock scaling of the process-parallel evaluation fan-out.

Cold-cache regeneration of a figure subset at jobs ∈ {1, 2, 4, 8}:
every run plans the same cell set, executes it into a fresh cache
directory, and assembles the figure from the warm cache.  Reports
speedup over jobs=1 and parallel efficiency (speedup / jobs).

Figure *values* are identical at every job count (asserted); only the
wall-clock changes.  Run directly:

    PYTHONPATH=src python benchmarks/bench_eval_fanout.py [--figure fig7]
"""

import argparse
import tempfile
import time

from repro.eval import scheduler
from repro.eval.harness import EvalHarness
from repro.eval.reporting import FIGURES

# A representative subset: enough cells to keep 8 workers busy, small
# enough that jobs=1 stays in benchmark territory.
DEFAULT_BENCHMARKS = ("410.bwaves", "433.milc", "462.libquantum",
                      "470.lbm", "482.sphinx3")


def timed_regeneration(figure: str, benchmarks, jobs: int):
    """Cold-cache wall-clock for plan + fan-out + figure assembly."""
    cells = scheduler.plan([figure], benchmarks=benchmarks)
    with tempfile.TemporaryDirectory() as cache:
        started = time.perf_counter()
        scheduler.execute(cells, cache, jobs=jobs)
        produce, _render = FIGURES[figure]
        rows = produce(EvalHarness(cache_dir=cache, jobs=jobs),
                       benchmarks=benchmarks)
        elapsed = time.perf_counter() - started
    return elapsed, len(cells), rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--figure", default="fig7", choices=sorted(FIGURES))
    parser.add_argument("--jobs", type=int, nargs="*", default=(1, 2, 4, 8))
    args = parser.parse_args()

    benchmarks = DEFAULT_BENCHMARKS if args.figure == "fig6" else None
    print(f"evaluation fan-out: cold-cache {args.figure} regeneration")
    print(f"{'jobs':>5s} {'cells':>6s} {'seconds':>9s} "
          f"{'speedup':>8s} {'efficiency':>10s}")
    baseline = None
    reference_rows = None
    for jobs in args.jobs:
        elapsed, n_cells, rows = timed_regeneration(args.figure,
                                                    benchmarks, jobs)
        if reference_rows is None:
            reference_rows = rows
        assert rows == reference_rows, \
            f"figure values changed at jobs={jobs}"
        if baseline is None:
            baseline = elapsed
        speedup = baseline / elapsed if elapsed else float("inf")
        print(f"{jobs:5d} {n_cells:6d} {elapsed:9.2f} "
              f"{speedup:7.2f}x {speedup / jobs:9.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
