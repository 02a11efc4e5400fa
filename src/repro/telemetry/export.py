"""Exporters for recorded telemetry.

Three output shapes, all derived from the merged-dump structure produced
by :mod:`repro.telemetry.aggregate`:

* **Chrome trace** (``chrome_trace`` / ``write_chrome_trace``) — the
  ``traceEvents`` JSON consumed by ``chrome://tracing`` and Perfetto.
  One trace *process* per recorded OS process (the figures fan-out
  workers each get their own), one named *thread* lane per evaluation
  cell.  The merged counter registry rides along under a top-level
  ``"metrics"`` key, which ``repro stats`` reads back.

* **Flat metrics JSON** (``metrics`` / ``write_metrics``) — the merged
  counters and gauges with sorted keys, for scripting.

* **Perf snapshot** (``bench_snapshot`` / ``write_bench_snapshot``) — a
  ``BENCH_*.json``-compatible record: per-span-name aggregates (count,
  total/max milliseconds) next to the counters, suitable for appending
  to a benchmark trajectory.
"""

from __future__ import annotations

import json

from repro.util import atomic_write_text


def _normalised_events(merged: dict) -> list[dict]:
    """Events across all processes, shifted so the earliest span is t=0.

    ``time.monotonic_ns`` is comparable across processes on one machine
    (same boot), so a common offset keeps worker lanes aligned.
    """
    events = []
    for process in merged["processes"]:
        for event in process["events"]:
            events.append((process["pid"], event))
    if not events:
        return []
    t0 = min(event["ts"] for _pid, event in events)
    out = []
    for pid, event in sorted(events, key=lambda pair: pair[1]["ts"]):
        out.append({**event, "pid": pid, "ts": event["ts"] - t0})
    return out


def chrome_trace(merged: dict) -> dict:
    """Build the Chrome ``trace_event`` JSON object for a merged dump."""
    trace_events: list[dict] = []
    for process in merged["processes"]:
        pid = process["pid"]
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "ts": 0, "args": {"name": f"{process['label']} "
                                      f"(pid {pid})"}})
        lanes = {0: "main"}
        lanes.update({tid: label
                      for label, tid in process["lanes"].items()})
        for tid, label in sorted(lanes.items()):
            trace_events.append({
                "ph": "M", "name": "thread_name", "pid": pid,
                "tid": tid, "ts": 0, "args": {"name": label}})
            trace_events.append({
                "ph": "M", "name": "thread_sort_index", "pid": pid,
                "tid": tid, "ts": 0, "args": {"sort_index": tid}})
    for event in _normalised_events(merged):
        record = {
            "ph": event["ph"],
            "name": event["name"],
            "cat": event.get("cat") or "repro",
            "pid": event["pid"],
            "tid": event["tid"],
            "ts": event["ts"] / 1000.0,     # ns -> microseconds
            "args": event.get("args", {}),
        }
        if event["ph"] == "X":
            record["dur"] = event["dur"] / 1000.0
        elif event["ph"] == "i":
            record["s"] = "t"               # thread-scoped instant
        trace_events.append(record)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metrics": metrics(merged),
        "meta": {
            "processes": len(merged["processes"]),
            "spans": sum(1 for e in trace_events if e["ph"] == "X"),
        },
    }


def metrics(merged: dict) -> dict:
    """Flat merged counters/gauges with stable, sorted keys."""
    return {
        "counters": dict(sorted(merged["counters"].items())),
        "gauges": dict(sorted(merged["gauges"].items())),
    }


def span_aggregates(merged: dict) -> dict:
    """Per-span-name totals: count, total and max duration (ms)."""
    totals: dict[str, dict] = {}
    for process in merged["processes"]:
        for event in process["events"]:
            if event["ph"] != "X":
                continue
            entry = totals.setdefault(
                event["name"], {"count": 0, "total_ms": 0.0, "max_ms": 0.0})
            ms = event["dur"] / 1e6
            entry["count"] += 1
            entry["total_ms"] += ms
            if ms > entry["max_ms"]:
                entry["max_ms"] = ms
    return {name: {"count": entry["count"],
                   "total_ms": round(entry["total_ms"], 3),
                   "max_ms": round(entry["max_ms"], 3)}
            for name, entry in sorted(totals.items())}


def bench_snapshot(merged: dict, name: str = "telemetry") -> dict:
    """A ``BENCH_*.json``-compatible perf snapshot of one traced run."""
    return {
        "bench": name,
        "processes": len(merged["processes"]),
        "spans": span_aggregates(merged),
        "metrics": metrics(merged),
    }


def _write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=1) + "\n")


def write_chrome_trace(path: str, merged: dict) -> dict:
    trace = chrome_trace(merged)
    _write_json(path, trace)
    return trace


def write_metrics(path: str, merged: dict) -> dict:
    payload = metrics(merged)
    _write_json(path, payload)
    return payload


def write_bench_snapshot(path: str, merged: dict,
                         name: str = "telemetry") -> dict:
    payload = bench_snapshot(merged, name=name)
    _write_json(path, payload)
    return payload
