"""Trace event schema (v1) and validation.

Every JSONL line in a trace file is one event dict.  Common required
fields: ``type`` (one of ``meta``/``span_start``/``span_end``/
``metric``), ``ts`` (non-negative float, monotonic per lane) and
``worker`` (non-negative int lane id; 0 = main process).  Per type:

* ``meta`` — ``schema`` (int version), ``attrs`` (object);
* ``span_start`` — ``span`` (int id, unique per lane), ``name``
  (non-empty str), ``parent`` (int id or null; an optional
  ``parent_worker`` points the reference at another lane after worker
  merging), optional ``phase`` (str) and ``attrs`` (object);
* ``span_end`` — ``span``, ``name``, ``dur`` (non-negative float),
  optional ``phase``/``attrs``; must close the innermost open span of
  its lane (spans nest strictly within a lane);
* ``metric`` — ``name``, ``kind`` (``counter``/``gauge``/``timer``),
  ``value`` (number), optional ``labels`` (object).

Structural checks beyond field shapes: per-lane LIFO span pairing, no
span left open at end of trace, parent references resolve to a span
that appears in the trace, and no chain of parent references returns to
a span it already passed (a cycle).  ``repro report --trace FILE --validate``
runs these checks on a trace file.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.obs.trace import EVENT_TYPES, METRIC_KINDS


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_common(event: Mapping[str, object], where: str, errors: List[str]) -> bool:
    if not isinstance(event, Mapping):
        errors.append(f"{where}: event is not an object")
        return False
    etype = event.get("type")
    if etype not in EVENT_TYPES:
        errors.append(f"{where}: bad type {etype!r}")
        return False
    ts = event.get("ts")
    if not _is_number(ts) or ts < 0:
        errors.append(f"{where}: bad ts {ts!r}")
    worker = event.get("worker")
    if not isinstance(worker, int) or isinstance(worker, bool) or worker < 0:
        errors.append(f"{where}: bad worker {worker!r}")
    return True


def validate_event(event: Mapping[str, object], where: str = "event") -> List[str]:
    """Field-shape errors for one event (empty list = valid)."""
    errors: List[str] = []
    if not _check_common(event, where, errors):
        return errors
    etype = event["type"]
    if etype == "meta":
        if not isinstance(event.get("schema"), int):
            errors.append(f"{where}: meta lacks int schema version")
        if not isinstance(event.get("attrs"), Mapping):
            errors.append(f"{where}: meta lacks attrs object")
    elif etype in ("span_start", "span_end"):
        span = event.get("span")
        if not isinstance(span, int) or isinstance(span, bool) or span < 0:
            errors.append(f"{where}: bad span id {span!r}")
        name = event.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: bad span name {name!r}")
        phase = event.get("phase")
        if phase is not None and not isinstance(phase, str):
            errors.append(f"{where}: bad phase {phase!r}")
        attrs = event.get("attrs")
        if attrs is not None and not isinstance(attrs, Mapping):
            errors.append(f"{where}: bad attrs {attrs!r}")
        if etype == "span_start":
            parent = event.get("parent")
            if parent is not None and (
                not isinstance(parent, int) or isinstance(parent, bool)
            ):
                errors.append(f"{where}: bad parent {parent!r}")
            parent_worker = event.get("parent_worker")
            if parent_worker is not None and (
                not isinstance(parent_worker, int)
                or isinstance(parent_worker, bool)
                or parent_worker < 0
            ):
                errors.append(f"{where}: bad parent_worker {parent_worker!r}")
            if parent is None and parent_worker is not None:
                errors.append(f"{where}: parent_worker without parent")
        else:
            dur = event.get("dur")
            if not _is_number(dur) or dur < 0:
                errors.append(f"{where}: bad dur {dur!r}")
    elif etype == "metric":
        name = event.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: bad metric name {name!r}")
        if event.get("kind") not in METRIC_KINDS:
            errors.append(f"{where}: bad metric kind {event.get('kind')!r}")
        if not _is_number(event.get("value")):
            errors.append(f"{where}: bad metric value {event.get('value')!r}")
        labels = event.get("labels")
        if labels is not None and not isinstance(labels, Mapping):
            errors.append(f"{where}: bad labels {labels!r}")
    return errors


def validate_events(events: List[Mapping[str, object]]) -> List[str]:
    """Shape + structural errors for a whole trace (empty list = valid)."""
    errors: List[str] = []
    stacks: Dict[int, List[Tuple[int, str]]] = {}
    started: set = set()
    parent_refs: List[Tuple[str, Tuple[int, int]]] = []
    parents: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for index, event in enumerate(events):
        where = f"event {index}"
        event_errors = validate_event(event, where)
        errors.extend(event_errors)
        if event_errors or not isinstance(event, Mapping):
            continue
        etype = event.get("type")
        lane = int(event.get("worker", 0))
        if etype == "span_start":
            span = int(event["span"])
            key = (lane, span)
            if key in started:
                errors.append(f"{where}: duplicate span id {span} in lane {lane}")
            started.add(key)
            stacks.setdefault(lane, []).append((span, str(event["name"])))
            parent = event.get("parent")
            if parent is not None:
                parent_key = (int(event.get("parent_worker", lane)), int(parent))
                parent_refs.append((where, parent_key))
                parents[key] = parent_key
        elif etype == "span_end":
            span = int(event["span"])
            stack = stacks.setdefault(lane, [])
            if not stack:
                errors.append(f"{where}: span_end with no open span in lane {lane}")
            elif stack[-1][0] != span:
                errors.append(
                    f"{where}: span_end {span} does not close innermost open "
                    f"span {stack[-1][0]} in lane {lane}"
                )
                # Recover so one interleave doesn't cascade.
                stacks[lane] = [entry for entry in stack if entry[0] != span]
            else:
                stack.pop()
    for lane, stack in sorted(stacks.items()):
        for span, name in stack:
            errors.append(f"lane {lane}: span {span} ({name!r}) never closed")
    for where, key in parent_refs:
        if key not in started:
            errors.append(
                f"{where}: parent ({key[1]} in lane {key[0]}) not in trace"
            )
    errors.extend(_parent_cycles(parents))
    return errors


def _parent_cycles(parents: Dict[Tuple[int, int], Tuple[int, int]]) -> List[str]:
    """One error per cycle of parent references, ``(lane, span)`` keyed."""
    errors: List[str] = []
    done: set = set()
    for start in parents:
        trail: Dict[Tuple[int, int], int] = {}  # span -> position on the walk
        cursor = start
        while cursor in parents and cursor not in done and cursor not in trail:
            trail[cursor] = len(trail)
            cursor = parents[cursor]
        if cursor in trail:
            cycle = list(trail)[trail[cursor]:] + [cursor]
            errors.append(
                "parent cycle: "
                + " -> ".join(f"span {span} in lane {lane}" for lane, span in cycle)
            )
        done.update(trail)
    return errors
