"""Cross-process aggregation of recorder dumps.

The evaluation fan-out (:mod:`repro.eval.scheduler`) runs cells in
worker processes; each worker keeps its own :class:`Recorder` and, after
every finished cell, flushes a dump file into a telemetry directory kept
beside the :class:`EvalHarness` on-disk cache.  The parent merges those
dumps with its own recorder's to produce one coherent trace with
per-process, per-cell lanes.

The dump contract (also honoured by ``Recorder.dump()``):

* one JSON object per file, named ``dump-<pid>-<nonce>.json``;
* keys ``pid`` (int), ``label`` (str), ``lanes`` (label -> tid),
  ``events`` (list of span/instant records with monotonic-ns ``ts``),
  ``counters`` and ``gauges`` (flat name -> number maps);
* a worker overwrites its own dump atomically (temp file + rename), so
  a reader never observes a torn file and the last flush wins;
* dumps are self-contained — merging never needs the recorder that
  wrote them.
"""

from __future__ import annotations

import json
import os
import uuid

from repro.util import atomic_write_text

_DUMP_PREFIX = "dump-"

# One stable nonce per process: repeated flushes overwrite the same file
# so a worker's dump always reflects its complete history.
_FLUSH_NONCE = uuid.uuid4().hex[:12]


def dump_path(directory: str, pid: int | None = None) -> str:
    pid = os.getpid() if pid is None else pid
    return os.path.join(directory,
                        f"{_DUMP_PREFIX}{pid}-{_FLUSH_NONCE}.json")


def flush(recorder, directory: str) -> str:
    """Atomically (re)write this process's dump file; returns its path."""
    path = dump_path(directory)
    atomic_write_text(path, json.dumps(recorder.dump()))
    return path


def clear(directory: str) -> int:
    """Delete stale dump files from earlier runs; returns the count."""
    removed = 0
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    for name in names:
        if name.startswith(_DUMP_PREFIX) and name.endswith(".json"):
            try:
                os.remove(os.path.join(directory, name))
                removed += 1
            except OSError:
                pass
    return removed


def load_dumps(directory: str) -> list[dict]:
    """Read every well-formed dump in the directory (stable order)."""
    dumps = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []
    for name in names:
        if not (name.startswith(_DUMP_PREFIX) and name.endswith(".json")):
            continue
        try:
            with open(os.path.join(directory, name)) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            continue  # torn or foreign file: skip, never crash the merge
        if isinstance(payload, dict) and "events" in payload:
            dumps.append(payload)
    return dumps


def merge(dumps: list[dict]) -> dict:
    """Merge recorder dumps into one structure the exporters consume.

    Counters sum across processes; gauges keep the last value seen (in
    dump order), whatever else the dump holds; span/instant events stay
    attributed to their source process.  A dump with no events *and* no
    counters adds no process, so idle pool workers do not add empty lanes.
    """
    processes = []
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    for dump in dumps:
        gauges.update(dump.get("gauges", {}))
        if not dump.get("events") and not dump.get("counters"):
            continue
        processes.append({
            "pid": dump["pid"],
            "label": dump.get("label", "repro"),
            "lanes": dict(dump.get("lanes", {})),
            "events": list(dump.get("events", ())),
        })
        for key, value in dump.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
    processes.sort(key=lambda p: p["pid"])
    return {"processes": processes, "counters": counters, "gauges": gauges}


def collect(recorder, directory: str | None) -> dict:
    """Merge the parent recorder with every worker dump on disk."""
    dumps = [recorder.dump()]
    if directory is not None:
        parent_pid = os.getpid()
        dumps.extend(dump for dump in load_dumps(directory)
                     if dump.get("pid") != parent_pid)
    return merge(dumps)
