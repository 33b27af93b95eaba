"""Span-based run tracing with JSONL event emission.

A :class:`Tracer` records *spans* (nested, named intervals with phase
labels and counter payloads) and *metrics* (typed point samples) as a
flat list of JSON-ready event dicts.  Every optimization layer opens
spans through the process-wide active tracer (:func:`active`), which
defaults to a :class:`NullTracer` whose context managers are shared
no-ops — untraced runs pay only an attribute lookup per span site, which
is what keeps the ``compare_bench`` trace-overhead contract (tracing
within 2% of a run's CPU time) easy to honor.

Event lanes: every event carries a ``worker`` lane id.  Lane 0 is the
main process; pool workers trace into their own lanes and stream the
events back over the pipe protocol (:mod:`repro.parallel.pool`), where
:func:`repro.obs.merge.merge_worker_events` re-parents them under the
span that issued the request.  Timestamps are monotonic *per lane*
(``time.perf_counter`` offsets from each tracer's epoch); lanes are not
clock-aligned, so cross-lane ordering is by span parentage, not ``ts``.

The resulting trace is deterministic modulo timestamps: two runs that
execute the same logical flow produce the same span tree (see
:func:`repro.obs.merge.span_tree`) regardless of worker count.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

#: Bumped when the event shape changes; emitted in ``meta`` events and
#: checked by :mod:`repro.obs.schema`.
SCHEMA_VERSION = 1

#: Process-global lane ids.  Lane 0 is the main process; every other
#: tracer (pool workers, the resource sampler thread) claims a unique
#: lane so merged traces never interleave two writers in one lane.
_LANE_COUNTER = itertools.count(1)


def allocate_lane() -> int:
    """Claim a fresh non-zero lane id for a worker or sampler tracer."""
    return next(_LANE_COUNTER)

#: Recognized event types.
EVENT_TYPES = ("meta", "span_start", "span_end", "metric")

#: Recognized metric kinds.
METRIC_KINDS = ("counter", "gauge", "timer")


class Span:
    """Handle yielded by :meth:`Tracer.span`; collects counter payloads.

    ``set(key=value, ...)`` attaches counters/attributes that are emitted
    on the closing ``span_end`` event (e.g. how many candidates a trial
    batch verified).
    """

    __slots__ = ("id", "name", "attrs")

    def __init__(self, span_id: int, name: str) -> None:
        self.id = span_id
        self.name = name
        self.attrs: Dict[str, object] = {}

    def set(self, **attrs: object) -> "Span":
        self.attrs.update(attrs)
        return self


class Tracer:
    """Records span/metric events for one lane.

    Single-threaded by design (one tracer per process lane); the worker
    pool gives each worker process its own tracer and merges the drained
    events in the parent.
    """

    enabled = True

    def __init__(self, worker: int = 0) -> None:
        self.worker = worker
        self.events: List[Dict[str, object]] = []
        self._epoch = time.perf_counter()
        self._next_id = 0
        self._stack: List[int] = []
        #: Optional :class:`repro.obs.profile.SpanProfiler`; when set,
        #: spans whose names match its glob run under cProfile.
        self.profiler = None

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return round(time.perf_counter() - self._epoch, 9)

    @property
    def current_span(self) -> Optional[int]:
        """Id of the innermost open span in this lane (None at top level)."""
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    @contextmanager
    def span(
        self, name: str, phase: Optional[str] = None, **attrs: object
    ) -> Iterator[Span]:
        """Open a named span; nesting follows the ``with`` structure."""
        span_id = self._next_id
        self._next_id += 1
        start: Dict[str, object] = {
            "type": "span_start",
            "ts": self._now(),
            "worker": self.worker,
            "span": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
        }
        if phase is not None:
            start["phase"] = phase
        if attrs:
            start["attrs"] = dict(attrs)
        self.events.append(start)
        self._stack.append(span_id)
        handle = Span(span_id, name)
        profiler = self.profiler
        token = profiler.enter(name) if profiler is not None else None
        t0 = time.perf_counter()
        try:
            yield handle
        finally:
            if token is not None:
                profiler.exit(token)
            self._stack.pop()
            end: Dict[str, object] = {
                "type": "span_end",
                "ts": self._now(),
                "worker": self.worker,
                "span": span_id,
                "name": name,
                "dur": round(time.perf_counter() - t0, 9),
            }
            if phase is not None:
                end["phase"] = phase
            if handle.attrs:
                end["attrs"] = dict(handle.attrs)
            self.events.append(end)

    def metric(
        self,
        name: str,
        value: float,
        kind: str = "counter",
        labels: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record one typed metric sample."""
        if kind not in METRIC_KINDS:
            raise ValueError(
                f"unknown metric kind {kind!r}; expected one of {METRIC_KINDS}"
            )
        event: Dict[str, object] = {
            "type": "metric",
            "ts": self._now(),
            "worker": self.worker,
            "name": name,
            "kind": kind,
            "value": value,
        }
        if labels:
            event["labels"] = dict(labels)
        self.events.append(event)

    def meta(self, **attrs: object) -> None:
        """Record run-level metadata (command line, schema version...)."""
        self.events.append(
            {
                "type": "meta",
                "ts": self._now(),
                "worker": self.worker,
                "schema": SCHEMA_VERSION,
                "attrs": dict(attrs),
            }
        )

    # ------------------------------------------------------------------
    def drain(self) -> List[Dict[str, object]]:
        """Return and clear the accumulated events (worker delta shipping)."""
        events, self.events = self.events, []
        return events

    def write(self, path: str) -> int:
        """Write the trace as JSONL; returns the number of events written."""
        with open(path, "w") as handle:
            for event in self.events:
                json.dump(event, handle, sort_keys=True)
                handle.write("\n")
        return len(self.events)


class _NullSpan:
    """Reusable no-op span handle."""

    __slots__ = ()
    id = None
    name = ""

    def set(self, **attrs: object) -> "_NullSpan":
        return self


class _NullContext:
    """Reusable, reentrant no-op context manager yielding a null span."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()
_NULL_CTX = _NullContext()


class NullTracer:
    """Disabled tracer: every operation is a shared no-op."""

    enabled = False
    worker = 0
    events: List[Dict[str, object]] = []

    @property
    def current_span(self) -> Optional[int]:
        return None

    def span(self, name: str, phase: Optional[str] = None, **attrs: object):
        return _NULL_CTX

    def metric(self, *args: object, **kwargs: object) -> None:
        return None

    def meta(self, **attrs: object) -> None:
        return None

    def drain(self) -> List[Dict[str, object]]:
        return []


_NULL_TRACER = NullTracer()
_active: object = _NULL_TRACER


def active():
    """The process-wide active tracer (NullTracer when tracing is off)."""
    return _active


def activate(tracer):
    """Install ``tracer`` as the active tracer; returns it for chaining."""
    global _active
    _active = tracer
    return tracer


def deactivate() -> None:
    """Restore the no-op tracer."""
    global _active
    _active = _NULL_TRACER


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Scoped activation: ``with tracing() as t: ...; t.write(path)``."""
    tracer = tracer or Tracer()
    activate(tracer)
    try:
        yield tracer
    finally:
        deactivate()
