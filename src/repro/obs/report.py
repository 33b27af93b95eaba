"""Render per-phase summaries and hotspots from a trace file.

Backs the ``repro report`` CLI subcommand: given a span/metric JSONL
trace (``--trace-out``), it prints

* a trace header (events, lanes, spans, metrics);
* a per-phase table of exclusive (self) time — each span's duration
  minus its direct children's, so nothing double-counts;
* the top-N hotspot span paths by total self time;
* a cache summary assembled from ``*_hits``/``*_misses`` counter pairs
  and ``*_hit_rate`` gauges, as :func:`repro.obs.metrics.emit_stats`
  streams them from the flows' ``.stats``.

``repro report --perf-diff A.jsonl B.jsonl`` instead aligns two traces
by canonical span path and ranks the per-path *self*-time deltas
(:func:`render_perf_diff`).  Self time pinpoints the stage that actually
slowed down — a slowdown inside ``iteration/featurize`` shows up there,
not smeared over every ancestor's total.  Each path's seconds are
normalized by the number of lanes that executed it, so a 4-worker
trace's fanned-out ``verify`` time compares against a 1-worker run
like-for-like.

Rendering is a pure function of the trace events, so the committed MINI
trace in ``tests/data/`` has a byte-stable golden report.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.report import render_table
from repro.obs.merge import _span_index, span_key_paths

_SpanKey = Tuple[int, int]


def _span_durations(
    events: List[Mapping[str, object]],
) -> Dict[_SpanKey, float]:
    """Total duration per span (from its span_end event)."""
    durations: Dict[_SpanKey, float] = {}
    for event in events:
        if event.get("type") == "span_end":
            key = (int(event.get("worker", 0)), int(event["span"]))
            durations[key] = durations.get(key, 0.0) + float(event.get("dur", 0.0))
    return durations


def _self_times(
    events: List[Mapping[str, object]],
) -> Dict[_SpanKey, Tuple[str, Optional[_SpanKey], str, float]]:
    """Per span: (name, parent, phase, self seconds)."""
    index = _span_index(events)
    durations = _span_durations(events)
    phases: Dict[_SpanKey, str] = {}
    for event in events:
        if event.get("type") == "span_start":
            key = (int(event.get("worker", 0)), int(event["span"]))
            phases[key] = str(event.get("phase") or "-")
    child_sum: Dict[_SpanKey, float] = {}
    for key, (_name, parent) in index.items():
        if parent is not None:
            child_sum[parent] = child_sum.get(parent, 0.0) + durations.get(key, 0.0)
    out: Dict[_SpanKey, Tuple[str, Optional[_SpanKey], str, float]] = {}
    for key, (name, parent) in index.items():
        total = durations.get(key, 0.0)
        self_s = max(0.0, total - child_sum.get(key, 0.0))
        out[key] = (name, parent, phases.get(key, "-"), self_s)
    return out


def phase_rows(events: List[Mapping[str, object]]) -> List[List[str]]:
    """Per-phase exclusive time rows: [phase, spans, self s, share %]."""
    spans = _self_times(events)
    per_phase: Dict[str, Tuple[int, float]] = {}
    for _key, (_name, _parent, phase, self_s) in spans.items():
        count, seconds = per_phase.get(phase, (0, 0.0))
        per_phase[phase] = (count + 1, seconds + self_s)
    total = sum(seconds for _count, seconds in per_phase.values()) or 1.0
    rows = []
    for phase, (count, seconds) in sorted(
        per_phase.items(), key=lambda item: (-item[1][1], item[0])
    ):
        rows.append(
            [phase, str(count), f"{seconds:.4f}", f"{100.0 * seconds / total:.1f}%"]
        )
    return rows


def path_self_times(
    events: List[Mapping[str, object]],
) -> Dict[str, Tuple[int, float, int]]:
    """Per canonical span path: (span count, self seconds, distinct lanes).

    The path is :func:`repro.obs.merge.span_key_paths`'s, so hotspots,
    perf-diffs and the span tree name every span alike; lanes count how
    many workers contributed spans on that path — the perf-diff's
    worker-count normalization divides by it.
    """
    paths = span_key_paths(events)
    counts: Dict[str, int] = {}
    seconds: Dict[str, float] = {}
    lanes: Dict[str, set] = {}
    for key, (_name, _parent, _phase, self_s) in _self_times(events).items():
        path = paths[key]
        counts[path] = counts.get(path, 0) + 1
        seconds[path] = seconds.get(path, 0.0) + self_s
        lanes.setdefault(path, set()).add(key[0])
    return {
        path: (counts[path], seconds[path], len(lanes[path]))
        for path in counts
    }


def hotspot_rows(
    events: List[Mapping[str, object]], top: int = 10
) -> List[List[str]]:
    """Top-N span paths by total self time: [path, count, self s, avg ms]."""
    per_path = path_self_times(events)
    ranked = sorted(per_path.items(), key=lambda item: (-item[1][1], item[0]))
    rows = []
    for path, (count, seconds, _lanes) in ranked[:top]:
        avg_ms = 1000.0 * seconds / count if count else 0.0
        rows.append([path, str(count), f"{seconds:.4f}", f"{avg_ms:.3f}"])
    return rows


def trace_health(events: List[Mapping[str, object]]) -> Optional[str]:
    """None when the trace is reportable, else a human-readable reason.

    ``repro report`` refuses (clear message, exit 2) instead of raising
    on truncated or foreign files: a reportable trace needs at least one
    ``meta`` event (it identifies the run and schema version) and at
    least one span.
    """
    if not events:
        return "empty trace (no events)"
    if not any(e.get("type") == "meta" for e in events if isinstance(e, Mapping)):
        return "no meta event — not a repro run trace (or truncated)"
    if not any(
        e.get("type") == "span_start" for e in events if isinstance(e, Mapping)
    ):
        return "zero spans — nothing to report (trace from an aborted run?)"
    return None


def cache_rows(events: List[Mapping[str, object]]) -> List[List[str]]:
    """Cache hit/miss rollup from metric events: [cache, hits, misses, rate]."""
    counters: Dict[str, float] = {}
    rates: Dict[str, float] = {}
    for event in events:
        if event.get("type") != "metric":
            continue
        name = str(event.get("name", ""))
        value = event.get("value", 0)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if name.endswith("_hits") or name.endswith("_misses"):
            counters[name] = counters.get(name, 0.0) + float(value)
        elif name.endswith("_hit_rate"):
            rates[name[: -len("_hit_rate")]] = float(value)
    caches: Dict[str, Dict[str, float]] = {}
    for name, value in counters.items():
        if name.endswith("_hits"):
            caches.setdefault(name[: -len("_hits")], {})["hits"] = value
        else:
            caches.setdefault(name[: -len("_misses")], {})["misses"] = value
    rows = []
    for cache in sorted(set(caches) | set(rates)):
        hits = caches.get(cache, {}).get("hits", 0.0)
        misses = caches.get(cache, {}).get("misses", 0.0)
        total = hits + misses
        rate = rates.get(cache, hits / total if total else 0.0)
        rows.append(
            [cache, f"{hits:.0f}", f"{misses:.0f}", f"{100.0 * rate:.1f}%"]
        )
    return rows


def render_report(events: List[Mapping[str, object]], top: int = 10) -> str:
    """The full ``repro report`` text for one trace."""
    lanes = sorted({int(e.get("worker", 0)) for e in events})
    n_spans = sum(1 for e in events if e.get("type") == "span_start")
    n_metrics = sum(1 for e in events if e.get("type") == "metric")
    header = (
        f"trace: {len(events)} events, {n_spans} spans, {n_metrics} metrics, "
        f"{len(lanes)} lane(s)"
    )
    sections = [header]
    sections.append(
        render_table(
            "per-phase exclusive time",
            ["phase", "spans", "self s", "share"],
            phase_rows(events),
        )
    )
    sections.append(
        render_table(
            f"top {top} hotspots (self time)",
            ["span path", "count", "self s", "avg ms"],
            hotspot_rows(events, top=top),
        )
    )
    cache = cache_rows(events)
    if cache:
        sections.append(
            render_table(
                "caches", ["cache", "hits", "misses", "hit rate"], cache
            )
        )
    return "\n\n".join(sections)


def perf_diff_rows(
    events_a: List[Mapping[str, object]],
    events_b: List[Mapping[str, object]],
    top: int = 10,
) -> Tuple[List[List[str]], List[List[str]]]:
    """(regressions, improvements) rows ranked by normalized self-time delta.

    Row shape: [path, A seconds, B seconds, delta seconds, delta %].
    Seconds are lane-normalized; a path present in only one trace uses
    0.0 on the other side (new/removed stages rank by absolute cost).
    """
    times_a = path_self_times(events_a)
    times_b = path_self_times(events_b)
    deltas: List[Tuple[float, str, float, float]] = []
    for path in sorted(set(times_a) | set(times_b)):
        _count_a, secs_a, lanes_a = times_a.get(path, (0, 0.0, 1))
        _count_b, secs_b, lanes_b = times_b.get(path, (0, 0.0, 1))
        norm_a = secs_a / max(lanes_a, 1)
        norm_b = secs_b / max(lanes_b, 1)
        deltas.append((norm_b - norm_a, path, norm_a, norm_b))

    def rows_for(
        entries: List[Tuple[float, str, float, float]]
    ) -> List[List[str]]:
        rows = []
        for delta, path, norm_a, norm_b in entries[:top]:
            pct = 100.0 * delta / norm_a if norm_a > 0 else float("inf")
            pct_text = f"{pct:+.1f}%" if norm_a > 0 else "new"
            rows.append(
                [
                    path,
                    f"{norm_a:.4f}",
                    f"{norm_b:.4f}",
                    f"{delta:+.4f}",
                    pct_text,
                ]
            )
        return rows

    regressions = sorted(
        (entry for entry in deltas if entry[0] > 0.0),
        key=lambda entry: (-entry[0], entry[1]),
    )
    improvements = sorted(
        (entry for entry in deltas if entry[0] < 0.0),
        key=lambda entry: (entry[0], entry[1]),
    )
    return rows_for(regressions), rows_for(improvements)


def render_perf_diff(
    events_a: List[Mapping[str, object]],
    events_b: List[Mapping[str, object]],
    label_a: str = "A",
    label_b: str = "B",
    top: int = 10,
) -> str:
    """The full ``repro report --perf-diff`` text."""
    total_a = sum(s for _c, s, _l in path_self_times(events_a).values())
    total_b = sum(s for _c, s, _l in path_self_times(events_b).values())
    delta = total_b - total_a
    pct = 100.0 * delta / total_a if total_a > 0 else 0.0
    regressions, improvements = perf_diff_rows(events_a, events_b, top=top)
    header = (
        f"perf-diff: {label_a} -> {label_b} | total self time "
        f"{total_a:.4f}s -> {total_b:.4f}s ({delta:+.4f}s, {pct:+.1f}%) | "
        "per-path seconds are lane-normalized"
    )
    headers = ["span path", f"{label_a} s", f"{label_b} s", "delta s", "delta"]
    sections = [header]
    sections.append(
        render_table(
            f"top {top} regressions",
            headers,
            regressions or [["(none)", "-", "-", "-", "-"]],
        )
    )
    sections.append(
        render_table(
            f"top {top} improvements",
            headers,
            improvements or [["(none)", "-", "-", "-", "-"]],
        )
    )
    return "\n\n".join(sections)
