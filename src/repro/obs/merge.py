"""Worker-aware trace merging and canonical span-tree extraction.

Pool workers trace into their own lanes (``worker`` >= 1) and stream
drained event deltas back with every pipe response.  The parent calls
:func:`merge_worker_events` at the request site, which re-parents each
worker lane's *root* spans under the span that issued the request — so
the merged trace reads as one coherent tree: a ``verify`` span executed
on worker lane 3 hangs under the main lane's ``trial`` span exactly
where the serial path would have executed it inline.

Because worker-side spans use the same names as their serial
equivalents (the spans live in shared code), the canonical span tree
(:func:`span_tree` — the deduplicated, sorted set of name paths over
the re-parented trace) is identical for any worker count: that is the
determinism contract the CI trace-schema job asserts between
``--workers 1`` and ``--workers 4`` runs.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Tuple

_SpanKey = Tuple[int, int]  # (worker lane, span id)


def merge_worker_events(
    tracer,
    events: List[Mapping[str, object]],
    worker: int,
    anchor: Optional[int] = None,
) -> int:
    """Append a worker lane's drained events to ``tracer``.

    Root spans (``parent`` is None) are re-parented under ``anchor`` —
    by default the tracer's currently open span — in the tracer's own
    lane (``parent_worker``).  Timestamps are left worker-local (lanes
    have independent monotonic clocks).  Returns the number of events
    merged; a disabled tracer merges nothing.
    """
    if not getattr(tracer, "enabled", False) or not events:
        return 0
    if anchor is None:
        anchor = tracer.current_span
    merged = 0
    for event in events:
        event = dict(event)
        event["worker"] = worker
        if (
            event.get("type") == "span_start"
            and event.get("parent") is None
            and anchor is not None
        ):
            event["parent"] = anchor
            event["parent_worker"] = tracer.worker
        tracer.events.append(event)
        merged += 1
    return merged


def load_events(path: str) -> List[Dict[str, object]]:
    """Read a JSONL trace file back into a list of event dicts."""
    events: List[Dict[str, object]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def _span_index(
    events: List[Mapping[str, object]],
) -> Dict[_SpanKey, Tuple[str, Optional[_SpanKey]]]:
    """Map (lane, span) -> (name, parent key) from the start events."""
    index: Dict[_SpanKey, Tuple[str, Optional[_SpanKey]]] = {}
    for event in events:
        if event.get("type") != "span_start":
            continue
        lane = int(event.get("worker", 0))
        key = (lane, int(event["span"]))
        parent = event.get("parent")
        if parent is None:
            parent_key: Optional[_SpanKey] = None
        else:
            parent_lane = int(event.get("parent_worker", lane))
            parent_key = (parent_lane, int(parent))
        index[key] = (str(event.get("name", "")), parent_key)
    return index


def span_key_paths(
    events: List[Mapping[str, object]],
) -> Dict[_SpanKey, str]:
    """(lane, span) -> slash-joined name path from the root.

    The one path function every view uses (hotspots, perf-diff and the
    span tree).  A span whose parent id is absent from the trace hangs
    under ``<orphan>``; a walk that comes back to a span it already
    passed stops there under ``<cycle>``, so malformed parent links
    still give every span one finite path.
    """
    index = _span_index(events)
    paths: Dict[_SpanKey, str] = {}
    for key in index:
        chain: List[str] = []
        cursor: Optional[_SpanKey] = key
        seen = set()
        while cursor is not None:
            if cursor in seen:
                chain.append("<cycle>")
                break
            seen.add(cursor)
            entry = index.get(cursor)
            if entry is None:
                chain.append("<orphan>")
                break
            name, parent = entry
            chain.append(name)
            cursor = parent
        paths[key] = "/".join(reversed(chain))
    return paths


def span_paths(events: List[Mapping[str, object]]) -> Dict[str, int]:
    """Slash-joined name path -> number of spans on that path."""
    counts: Dict[str, int] = {}
    for path in span_key_paths(events).values():
        counts[path] = counts.get(path, 0) + 1
    return counts


def span_tree(events: List[Mapping[str, object]]) -> List[str]:
    """Canonical span tree: the sorted, deduplicated set of name paths.

    Worker lanes are included after re-parenting, so a pooled run and a
    serial run of the same flow produce the same tree — span *counts*
    may differ (four workers each open their own ``verify`` span where
    the serial loop opens one), but the set of logical paths does not.
    """
    return sorted(span_paths(events))
