"""The image-level static-analysis phases carry telemetry spans."""

import pytest

from repro.analysis import analyze_image
from repro.telemetry.core import disable, enable, get_recorder
from repro.workloads import compile_workload

IMAGE_PHASES = ("analysis.disasm", "analysis.cfg", "analysis.summaries")


@pytest.fixture(autouse=True)
def _restore_recorder():
    yield
    disable()


def test_traced_analysis_spans_every_image_phase():
    recorder = enable(label="analysis")
    analyze_image(compile_workload("470.lbm"))
    spans = [e["name"] for e in recorder.events if e["ph"] == "X"]
    for phase in IMAGE_PHASES:
        assert spans.count(phase) == 1, (phase, spans)
    # Per-function front-end and classification spans sit beside them.
    assert "analysis.ssa" in spans and "analysis.classify" in spans


def test_null_recorder_records_nothing():
    earlier = enable(label="earlier")
    disable()
    analyze_image(compile_workload("470.lbm"))
    assert earlier.events == []
    assert get_recorder().dump()["events"] == []
