"""Exporter tests: Chrome trace shape, metrics, snapshots, schema."""

import json
import os

import pytest

from repro.telemetry import aggregate, export
from repro.telemetry.core import Recorder
from repro.telemetry.schema import validate_file

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "schemas", "trace_event.schema.json")


def _merged_two_processes():
    """A merged dump with two fake processes and overlapping counters."""
    a = Recorder(label="figures")
    with a.span("exec.native", cat="exec", lane="native mg"):
        pass
    a.count("jit.blocks", 3)
    b = Recorder(label="worker")
    with b.span("cell.run", cat="cell", lane="run mg janus x8"):
        pass
    b.instant("stm.abort", cat="stm", thread=2)
    b.count("jit.blocks", 4)
    b.gauge("speedup", 1.5)
    dump_b = b.dump()
    dump_b["pid"] = a.pid + 1  # same process in tests: fake a second pid
    return aggregate.merge([a.dump(), dump_b])


class TestChromeTrace:
    def test_metadata_and_events(self):
        trace = export.chrome_trace(_merged_two_processes())
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        names = {(e["name"], e["pid"], e["tid"]) for e in meta}
        # Every process gets a process_name and a named main lane.
        assert len({pid for _n, pid, _t in names}) == 2
        assert all(any(n == "process_name" and p == pid
                       for n, p, _t in names)
                   for pid in {e["pid"] for e in events})
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 2
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["s"] == "t"
        assert trace["meta"] == {"processes": 2, "spans": 2}

    def test_timestamps_shift_to_zero_and_microseconds(self):
        trace = export.chrome_trace(_merged_two_processes())
        timed = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        assert min(e["ts"] for e in timed) == 0.0
        # monotonic_ns magnitudes would be ~1e12 us if unshifted.
        assert all(e["ts"] < 1e9 for e in timed)

    def test_counters_merge_and_sort(self):
        trace = export.chrome_trace(_merged_two_processes())
        assert trace["metrics"]["counters"]["jit.blocks"] == 7
        keys = list(trace["metrics"]["counters"])
        assert keys == sorted(keys)
        assert trace["metrics"]["gauges"] == {"speedup": 1.5}

    def test_empty_merge(self):
        trace = export.chrome_trace(aggregate.merge([]))
        assert trace["traceEvents"] == []
        assert trace["meta"] == {"processes": 0, "spans": 0}


class TestSchema:
    def test_written_trace_validates(self, tmp_path):
        path = tmp_path / "trace.json"
        export.write_chrome_trace(str(path), _merged_two_processes())
        result = validate_file(str(path), SCHEMA_PATH)
        assert result["meta"]["spans"] == 2

    def test_write_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        returned = export.write_chrome_trace(str(path),
                                             _merged_two_processes())
        assert json.loads(path.read_text()) == returned


class TestAggregatesAndSnapshots:
    def test_span_aggregates(self):
        merged = _merged_two_processes()
        aggregates = export.span_aggregates(merged)
        assert set(aggregates) == {"exec.native", "cell.run"}
        for entry in aggregates.values():
            assert entry["count"] == 1
            assert entry["total_ms"] >= 0
            assert entry["max_ms"] <= entry["total_ms"] + 1e-9

    def test_bench_snapshot(self, tmp_path):
        merged = _merged_two_processes()
        path = tmp_path / "BENCH_telemetry.json"
        payload = export.write_bench_snapshot(str(path), merged,
                                              name="fig7-trace")
        assert payload["bench"] == "fig7-trace"
        assert payload["processes"] == 2
        assert payload["metrics"]["counters"]["jit.blocks"] == 7
        assert json.loads(path.read_text()) == payload

    def test_metrics_writer(self, tmp_path):
        path = tmp_path / "metrics.json"
        payload = export.write_metrics(str(path), _merged_two_processes())
        assert json.loads(path.read_text()) == payload
        assert payload["counters"]["jit.blocks"] == 7


class TestFailedWrites:
    """Telemetry files are written through one atomic writer: a failed
    rename leaves the previous file untouched and no temp file behind."""

    @staticmethod
    def _fail_replace(monkeypatch):
        def boom(src, dst):
            raise OSError("injected rename failure")

        monkeypatch.setattr(os, "replace", boom)

    def _assert_untouched(self, directory, path, old):
        assert path.read_text() == old
        assert not [p for p in directory.iterdir()
                    if p.name.endswith(".tmp")]

    def test_export_writer(self, tmp_path, monkeypatch):
        path = tmp_path / "metrics.json"
        path.write_text("previous\n")
        self._fail_replace(monkeypatch)
        with pytest.raises(OSError, match="injected"):
            export.write_metrics(str(path), _merged_two_processes())
        self._assert_untouched(tmp_path, path, "previous\n")

    def test_aggregate_flush(self, tmp_path, monkeypatch):
        path = tmp_path / os.path.basename(aggregate.dump_path(""))
        path.write_text("previous")
        self._fail_replace(monkeypatch)
        with pytest.raises(OSError, match="injected"):
            aggregate.flush(Recorder(label="worker"), str(tmp_path))
        self._assert_untouched(tmp_path, path, "previous")
