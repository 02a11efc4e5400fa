"""Training profiles and DOALL-oracle verdicts, pinned three ways.

Profiling and the oracle run on the fast JIT tiers and feed one ordered
access log (see ``repro.profiling.shadow``).  This test pins everything
they report on four workloads that between them exercise nested loops,
external-call windows, packed lanes and genuine cross-iteration
dependences:

* against a committed golden (``training_oracle_golden.json``), and
* against the same runs with ``force_reference`` set, so every block
  executes through the reference per-instruction interpreter.

Every field is compared: each ``LoopProfile`` with its
``dependence_samples`` and ``excalls``, and each ``OracleResult`` with its
per-loop stats, every ``OracleConflict`` and ``findings()``.  Oracle runs
also cover a small ``max_iterations`` and a small ``max_instructions``
(a replay cut short by ``ExecutionLimitExceeded``).

Re-record the golden (only when a change is *meant* to move these
results) with::

    PYTHONPATH=src python -m tests.integration.test_training_oracle_golden
"""

from __future__ import annotations

import dataclasses
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.analysis import LoopCategory
from repro.dbm.modifier import JanusDBM
from repro.eval.harness import EvalHarness
from repro.pipeline import Janus, JanusConfig
from repro.verify import run_doall_oracle
from repro.workloads import compile_workload, get_workload

GOLDEN = Path(__file__).with_name("training_oracle_golden.json")
BINARIES = ("433.milc", "437.leslie3d", "470.lbm", "453.povray")
LIMIT = 120_000
# Oracle replays of the untrained analysis, whose DYNAMIC_DOALL claims
# include the loops training would demote: (label, keyword arguments).
ORACLE_RUNS = (
    ("oracle-untrained", {}),
    ("oracle-iter3", {"max_iterations": 3}),
    ("oracle-limit", {"max_instructions": LIMIT}),
)


@contextmanager
def forced_reference():
    """Every JanusDBM built inside runs on the reference interpreter."""
    original = JanusDBM.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.interp.force_reference = True

    JanusDBM.__init__ = init
    try:
        yield
    finally:
        JanusDBM.__init__ = original


def _plain(value):
    return json.loads(json.dumps(value, sort_keys=True))


def profile_record(profile) -> dict:
    if profile is None:
        return None
    return _plain({
        "total_instructions": profile.total_instructions,
        "loops": {str(loop_id): dataclasses.asdict(loop)
                  for loop_id, loop in profile.loops.items()},
    })


def oracle_record(result) -> dict:
    return _plain({
        "loops": {str(loop_id): dataclasses.asdict(stats)
                  for loop_id, stats in result.loops.items()},
        "conflicts": [dataclasses.asdict(c) for c in result.conflicts],
        "confirmed_totals": {str(k): v
                             for k, v in result.confirmed_totals.items()},
        "guarded_totals": {str(k): v
                           for k, v in result.guarded_totals.items()},
        "instructions": result.instructions,
        "demoted": result.demoted,
        "findings": [[f.tier, f.check, f.severity.value, f.location,
                      f.message] for f in result.findings()],
    })


def collect(name: str) -> dict:
    """Everything training, the Fig. 6 profile and the oracle report."""
    image = compile_workload(name)
    inputs = list(get_workload(name).train_inputs)
    janus = Janus(image, JanusConfig())
    training = janus.train(inputs)
    record = {
        "coverage": profile_record(training.coverage),
        "dependence": profile_record(training.dependence),
        "fig6": profile_record(EvalHarness().fig6_profile(name)),
    }
    # As ``repro verify`` does: judge the categories training left behind.
    record["oracle"] = oracle_record(run_doall_oracle(
        image, janus.analysis, inputs=inputs))
    untrained = Janus(image, JanusConfig()).analysis
    for label, kwargs in ORACLE_RUNS:
        record[label] = oracle_record(run_doall_oracle(
            image, untrained, inputs=inputs, **kwargs))
    # Claiming every dynamic candidate statically turns each observed
    # dependence into a confirmed-unsound conflict, and demotes the loop.
    for loop in untrained.loops:
        if loop.category is LoopCategory.DYNAMIC_DOALL:
            loop.category = LoopCategory.STATIC_DOALL
    record["oracle-static"] = oracle_record(run_doall_oracle(
        image, untrained, inputs=inputs, demote=True))
    return record


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", BINARIES)
def test_matches_golden_and_reference(name, golden):
    fast = collect(name)
    with forced_reference():
        reference = collect(name)
    for key, expected in golden[name].items():
        assert fast[key] == expected, f"{name} {key}: differs from golden"
        assert reference[key] == expected, \
            f"{name} {key}: reference interpreter differs from golden"
    assert set(fast) == set(golden[name])


def test_golden_exercises_every_recording_path(golden):
    """The pinned runs must cover what the access log has to get right."""
    samples = excalls = 0
    kinds, guards = set(), set()
    for record in golden.values():
        for loop in record["dependence"]["loops"].values():
            samples += len(loop["dependence_samples"])
            excalls += len(loop["excalls"])
        for label in ("oracle-untrained", "oracle-limit", "oracle-static"):
            kinds.update(c["kind"] for c in record[label]["conflicts"])
            guards.update(c["guard"] for c in record[label]["conflicts"])
        assert record["oracle-limit"]["instructions"] == LIMIT
    assert samples and excalls
    assert kinds == {"W->R", "W->W", "R->W"}
    assert guards == {"profile", None}
    assert any(record["oracle-limit"]["conflicts"]
               for record in golden.values())
    assert any(record["oracle-static"]["demoted"]
               for record in golden.values())


def main() -> int:
    GOLDEN.write_text(json.dumps({name: collect(name) for name in BINARIES},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
