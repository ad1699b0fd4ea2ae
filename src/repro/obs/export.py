"""Exporters and schema checks for trace-event streams.

Two formats, one event model:

* **JSONL** — one ``TraceEvent.as_dict()`` object per line, the
  machine-diffable archival form (and what the invariance-matrix
  gate validates).
* **Chrome trace-event JSON** — the ``{"traceEvents": [...]}`` object
  format that Perfetto and ``chrome://tracing`` load directly.  Each
  device becomes a process, each event kind a named thread within it,
  span kinds (checkpoint/restore/recharge) render as complete (``X``)
  slices and everything else as instants, with the simulated clock
  mapped to microseconds.

The ``validate_*`` helpers are deliberately hand-rolled (no jsonschema
dependency): they return a list of human-readable problems, empty when
the artifact conforms.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.obs.events import EVENT_KINDS, SPAN_KINDS, TraceEvent

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "read_jsonl",
    "validate_chrome_trace",
    "validate_jsonl_events",
]

#: Simulated seconds -> Chrome trace microseconds.
_US = 1e6

#: Stable thread ordering inside each device-process.
_KIND_TID = {kind: i for i, kind in enumerate(EVENT_KINDS)}


def to_chrome_trace(events: Iterable[TraceEvent]) -> dict:
    """Build the Chrome trace-event object for ``events``.

    Events may arrive in any order (the fleet merge interleaves shards);
    viewers sort by timestamp themselves, so no sort is imposed here.
    """
    rows = []
    seen_pids: dict[int, None] = {}
    seen_tids: dict[tuple[int, int], str] = {}
    for event in events:
        pid = 0 if event.device is None else int(event.device)
        tid = _KIND_TID.get(event.kind, len(_KIND_TID))
        seen_pids.setdefault(pid, None)
        seen_tids.setdefault((pid, tid), event.kind)
        row = {
            "name": event.kind,
            "cat": "sim",
            "ts": event.t * _US,
            "pid": pid,
            "tid": tid,
            "args": event.data,
        }
        if event.kind in SPAN_KINDS:
            row["ph"] = "X"
            row["dur"] = event.dur * _US
        else:
            row["ph"] = "i"
            row["s"] = "t"
        rows.append(row)
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"device {pid}"},
        }
        for pid in sorted(seen_pids)
    ]
    meta.extend(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": kind},
        }
        for (pid, tid), kind in sorted(seen_tids.items())
    )
    return {"traceEvents": meta + rows, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Iterable[TraceEvent], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(events), handle)


def write_jsonl(events: Iterable[TraceEvent], path: str) -> None:
    with open(path, "w") as handle:
        for event in events:
            handle.write(json.dumps(event.as_dict(), sort_keys=True))
            handle.write("\n")


def read_jsonl(path: str) -> list[TraceEvent]:
    out = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                out.append(TraceEvent.from_dict(json.loads(line)))
    return out


# ---------------------------------------------------------------------------
# Schema checks (used by the `make invariance` gate).
# ---------------------------------------------------------------------------

def validate_jsonl_events(rows: Iterable[dict]) -> list[str]:
    """Problems with a decoded JSONL event stream ([] = conforming)."""
    problems = []
    for i, row in enumerate(rows):
        where = f"line {i + 1}"
        if not isinstance(row, dict):
            problems.append(f"{where}: not an object")
            continue
        missing = {"t", "kind", "device", "dur", "data"} - set(row)
        if missing:
            problems.append(f"{where}: missing keys {sorted(missing)}")
            continue
        if not isinstance(row["t"], (int, float)):
            problems.append(f"{where}: t is not a number")
        if row["kind"] not in EVENT_KINDS:
            problems.append(f"{where}: unknown kind {row['kind']!r}")
        if row["device"] is not None and not isinstance(row["device"], int):
            problems.append(f"{where}: device is neither int nor null")
        if not isinstance(row["dur"], (int, float)) or row["dur"] < 0:
            problems.append(f"{where}: dur is not a non-negative number")
        if not isinstance(row["data"], dict):
            problems.append(f"{where}: data is not an object")
    return problems


def validate_chrome_trace(obj: dict) -> list[str]:
    """Problems with a Chrome trace-event object ([] = loadable)."""
    problems = []
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        return ["top level is not an object with a traceEvents array"]
    rows = obj["traceEvents"]
    if not isinstance(rows, list):
        return ["traceEvents is not an array"]
    for i, row in enumerate(rows):
        where = f"traceEvents[{i}]"
        if not isinstance(row, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in row:
                problems.append(f"{where}: missing {key!r}")
        ph = row.get("ph")
        if ph not in ("i", "X", "M"):
            problems.append(f"{where}: unexpected phase {ph!r}")
        if ph in ("i", "X") and not isinstance(row.get("ts"), (int, float)):
            problems.append(f"{where}: ts is not a number")
        if ph == "X" and not isinstance(row.get("dur"), (int, float)):
            problems.append(f"{where}: complete event without numeric dur")
    return problems
