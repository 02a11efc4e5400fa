"""The jcc compile phases carry telemetry spans."""

import pytest

from repro.jcc import CompileOptions, compile_source
from repro.telemetry.core import disable, enable, get_recorder
from repro.workloads.suite import get_workload, workload_source

SOURCE = workload_source(get_workload("470.lbm"))
PER_FUNCTION = ("jcc.codegen", "jcc.regalloc")


@pytest.fixture(autouse=True)
def _restore_recorder():
    yield
    disable()


def test_traced_compile_spans_every_phase():
    recorder = enable(label="jcc")
    compile_source(SOURCE, CompileOptions())
    spans = [e for e in recorder.events if e["ph"] == "X"]
    names = [e["name"] for e in spans]
    assert names.count("jcc.parse") == 1
    assert names.count("jcc.optimise") == 1
    functions = [e["args"]["fn"] for e in spans
                 if e["name"] == "jcc.codegen"]
    assert "main" in functions and len(set(functions)) == len(functions)
    for phase in PER_FUNCTION:
        assert [e["args"]["fn"] for e in spans
                if e["name"] == phase] == functions, phase
    # One assemble span per function plus one for the image.
    assert names.count("jcc.assemble") == len(functions) + 1
    assert {e["cat"] for e in spans if e["name"].startswith("jcc.")} == {
        "jcc"}


def test_null_recorder_records_nothing():
    earlier = enable(label="earlier")
    disable()
    compile_source(SOURCE, CompileOptions())
    assert earlier.events == []
    assert get_recorder().dump()["events"] == []
