"""The bytes of every rewrite schedule the static pipeline emits, pinned.

The golden records the sha256 of ``RewriteSchedule.serialize()`` for the
25 gcc -O3 binaries under each schedule family: the training's coverage
and dependence profiling schedules (the dependence stage instrumenting
every dynamic-DOALL loop, as it does before any coverage filter) and the
parallel, vector and prefetch schedules of the statically selected
loops.  Nothing here executes a binary.  A change that moves any digest
changes the interface between the static analyser and the DBM (and the
paper's Fig. 10 sizes); regenerate the golden only for a deliberate
format or soundness change::

    PYTHONPATH=src python tests/rewrite/test_schedule_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.pipeline import Janus, JanusConfig, SelectionMode
from repro.rewrite import generate_profile_schedule
from repro.rewrite.gen_profile import COVERAGE_STAGE, DEPENDENCE_STAGE
from repro.workloads import all_benchmarks, compile_workload

GOLDEN = Path(__file__).with_name("schedule_golden.json")
FAMILIES = (COVERAGE_STAGE, DEPENDENCE_STAGE, "parallel", "vector",
            "prefetch")


def schedule_digests(name: str) -> dict[str, str]:
    """Family -> sha256 of the serialised schedule, for one binary."""
    janus = Janus(compile_workload(name), JanusConfig())
    schedules = {stage: generate_profile_schedule(janus.analysis, stage=stage)
                 for stage in (COVERAGE_STAGE, DEPENDENCE_STAGE)}
    for family in ("parallel", "vector", "prefetch"):
        janus.config.mode = family
        schedules[family] = janus.build_schedule(SelectionMode.STATIC)
    return {family: hashlib.sha256(schedules[family].serialize()).hexdigest()
            for family in FAMILIES}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", all_benchmarks())
def test_schedule_bytes_match_golden(name):
    assert schedule_digests(name) == _golden()[f"{name}/gcc-O3"]


def test_golden_covers_every_binary():
    assert sorted(_golden()) == sorted(f"{name}/gcc-O3"
                                       for name in all_benchmarks())


if __name__ == "__main__":
    digest = {f"{name}/gcc-O3": schedule_digests(name)
              for name in all_benchmarks()}
    GOLDEN.write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(digest)} binaries)")
