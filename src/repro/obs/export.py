"""Export a JSONL trace as Chrome trace-event JSON.

Chrome trace-event JSON (the format Perfetto and ``chrome://tracing``
load) maps the repro trace model as:

* one process (pid 1) with one thread per lane — lane 0 is named
  ``main``, worker/sampler lanes ``lane <n>`` — declared with
  ``thread_name``/``thread_sort_index`` metadata events;
* ``span_start``/``span_end`` -> ``B``/``E`` duration events (begin/end
  pairs preserve the per-lane LIFO nesting exactly);
* ``metric`` -> ``C`` counter events (``cat`` carries the metric kind,
  labels fold into the series name), rendered by Perfetto as counter
  tracks;
* ``meta`` -> one ``process_name`` metadata event plus a global instant.

Timestamps are per-lane microseconds — lanes have independent epochs
(see :mod:`repro.obs.trace`), so cross-lane alignment is by parentage,
not wall clock; each track is internally consistent.

:func:`validate_chrome_trace` checks the invariants CI asserts for the
exported MINI w4 trace: every event references a declared (pid, tid)
thread, ``B``/``E`` pairs balance LIFO per thread, and every counter
series declared monotonic (``cat == "counter"``) never decreases.
``repro report --trace FILE --chrome-out OUT.json`` writes the export
and runs that check on what it wrote.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Tuple

_PID = 1


def _series_name(event: Mapping[str, object]) -> str:
    """Metric name with labels folded in: ``pool.steals{pool=verify}``."""
    name = str(event.get("name", ""))
    labels = event.get("labels")
    if isinstance(labels, dict) and labels:
        inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
        return f"{name}{{{inner}}}"
    return name


def chrome_trace_events(
    events: List[Mapping[str, object]],
) -> Dict[str, object]:
    """Convert schema-valid trace events to a Chrome trace-event payload."""
    out: List[Dict[str, object]] = []
    lanes = sorted({int(e.get("worker", 0)) for e in events})
    for lane in lanes:
        name = "main" if lane == 0 else f"lane {lane}"
        out.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _PID,
                "tid": lane,
                "args": {"name": name},
            }
        )
        out.append(
            {
                "ph": "M",
                "name": "thread_sort_index",
                "pid": _PID,
                "tid": lane,
                "args": {"sort_index": lane},
            }
        )
    for event in events:
        kind = event.get("type")
        lane = int(event.get("worker", 0))
        ts_us = round(float(event.get("ts", 0.0)) * 1e6, 3)
        if kind == "meta":
            attrs = dict(event.get("attrs") or {})
            command = str(attrs.get("command", "repro"))
            out.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": _PID,
                    "tid": lane,
                    "args": {"name": f"repro {command}"},
                }
            )
            out.append(
                {
                    "ph": "i",
                    "s": "g",
                    "name": "meta",
                    "pid": _PID,
                    "tid": lane,
                    "ts": ts_us,
                    "args": attrs,
                }
            )
        elif kind == "span_start":
            entry: Dict[str, object] = {
                "ph": "B",
                "pid": _PID,
                "tid": lane,
                "ts": ts_us,
                "name": str(event.get("name", "")),
                "cat": str(event.get("phase") or "span"),
            }
            attrs = event.get("attrs")
            if isinstance(attrs, dict) and attrs:
                entry["args"] = dict(attrs)
            out.append(entry)
        elif kind == "span_end":
            entry = {
                "ph": "E",
                "pid": _PID,
                "tid": lane,
                "ts": ts_us,
                "name": str(event.get("name", "")),
                "cat": str(event.get("phase") or "span"),
            }
            attrs = event.get("attrs")
            if isinstance(attrs, dict) and attrs:
                entry["args"] = dict(attrs)
            out.append(entry)
        elif kind == "metric":
            value = event.get("value", 0)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue  # non-numeric values have no counter-track shape
            out.append(
                {
                    "ph": "C",
                    "pid": _PID,
                    "tid": lane,
                    "ts": ts_us,
                    "name": _series_name(event),
                    "cat": str(event.get("kind", "gauge")),
                    "args": {"value": value},
                }
            )
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(events: List[Mapping[str, object]], path: str) -> int:
    """Write the Chrome trace-event JSON; returns the event count."""
    payload = chrome_trace_events(events)
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
    return len(payload["traceEvents"])


_KNOWN_PH = {"M", "B", "E", "C", "i", "X"}


def validate_chrome_trace(payload: Mapping[str, object]) -> List[str]:
    """Structural check of an exported payload; returns error strings."""
    errors: List[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    declared: set = set()
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            declared.add((event.get("pid"), event.get("tid")))
    stacks: Dict[Tuple, List[str]] = {}
    counters: Dict[Tuple, float] = {}
    for position, event in enumerate(events):
        ph = event.get("ph")
        where = f"event {position}"
        if ph not in _KNOWN_PH:
            errors.append(f"{where}: unknown ph {ph!r}")
            continue
        pid, tid = event.get("pid"), event.get("tid")
        if not isinstance(pid, int) or not isinstance(tid, int):
            errors.append(f"{where}: non-integer pid/tid ({pid!r}, {tid!r})")
            continue
        if (pid, tid) not in declared:
            errors.append(
                f"{where}: undeclared thread (pid={pid}, tid={tid})"
            )
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: bad ts {ts!r}")
            continue
        key = (pid, tid)
        if ph == "B":
            stacks.setdefault(key, []).append(str(event.get("name", "")))
        elif ph == "E":
            stack = stacks.setdefault(key, [])
            name = str(event.get("name", ""))
            if not stack:
                errors.append(f"{where}: E {name!r} with empty stack on {key}")
            elif stack[-1] != name:
                errors.append(
                    f"{where}: E {name!r} does not match open B "
                    f"{stack[-1]!r} on {key}"
                )
                stack.pop()
            else:
                stack.pop()
        elif ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or "value" not in args:
                errors.append(f"{where}: counter without args.value")
                continue
            value = args["value"]
            if not isinstance(value, (int, float)):
                errors.append(f"{where}: non-numeric counter value {value!r}")
                continue
            if event.get("cat") == "counter":
                series = (pid, tid, event.get("name"))
                previous = counters.get(series)
                if previous is not None and value < previous:
                    errors.append(
                        f"{where}: monotonic counter {event.get('name')!r} "
                        f"decreased {previous} -> {value}"
                    )
                counters[series] = float(value)
    for key, stack in stacks.items():
        for name in stack:
            errors.append(f"thread {key}: B {name!r} never closed")
    return errors
