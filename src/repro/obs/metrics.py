"""Run stats: per-stage timers, stats merging, and their trace emission.

The flows report their observability payload as plain nested dicts
(``GlobalOptResult.stats``, ``LocalOptResult.stats``).  This module
holds the three pieces they are built from:

* :class:`StageTimers` accumulates wall-clock time and invocation counts
  per named stage with context-manager ergonomics::

      timers = StageTimers(phase="local")
      with timers.stage("featurize"):
          ...

  The numbers are cheap enough to leave on unconditionally.  Each stage
  also opens a span on the active tracer (:func:`repro.obs.trace.active`),
  so traced runs get a span per stage invocation for free; untraced runs
  hit the no-op tracer.
* :func:`merge_stats` folds one stats dict into another (numbers add,
  dicts merge, kind collisions become explicit), which is how the global
  flow aggregates its sweep points.
* :func:`emit_stats` streams every numeric leaf of a finished stats dict
  into a tracer as ``metric`` events, so trace files carry the run's
  counters alongside its spans.
* :class:`GCWatch` counts the cyclic garbage collector's runs and
  pauses while it is installed, and :func:`minor_faults` reads the
  process's minor page faults.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional

from repro.obs.trace import active as _active_tracer

try:
    import resource
except ImportError:  # not on every platform
    resource = None

#: Key marking a merge collision node (see :func:`merge_stats`).
COLLISION_KEY = "__collision__"


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _kind(value: object) -> str:
    if isinstance(value, Mapping):
        return "mapping"
    if _is_number(value):
        return "number"
    return "other"


def merge_stats(dst: Dict[str, object], src: Mapping[str, object]) -> Dict[str, object]:
    """Recursively fold ``src`` into ``dst``: numbers add, dicts merge.

    Non-numeric leaves of the *same* kind (labels, flags) take
    ``src``'s value.  A *kind* collision — a number meeting a string, a
    dict meeting a scalar (e.g. a worker's note string landing on an int
    counter) — is made explicit instead of silently overwriting: the
    slot becomes ``{COLLISION_KEY: [first, second, ...]}`` so the
    conflicting values survive for inspection and later merges append
    to the list.  Used to aggregate per-phase stats payloads across
    sweep points, workers, and iterations; returns ``dst`` for chaining.
    """
    for key, value in src.items():
        if key not in dst:
            if isinstance(value, Mapping):
                node: Dict[str, object] = {}
                dst[key] = node
                merge_stats(node, value)
            else:
                dst[key] = value
            continue
        existing = dst[key]
        if isinstance(existing, dict) and COLLISION_KEY in existing:
            existing[COLLISION_KEY].append(
                dict(value) if isinstance(value, Mapping) else value
            )
            continue
        if isinstance(value, Mapping) and isinstance(existing, dict):
            merge_stats(existing, value)
        elif _is_number(value) and _is_number(existing):
            dst[key] = existing + value
        elif _kind(value) == _kind(existing):
            dst[key] = value
        else:
            dst[key] = {
                COLLISION_KEY: [
                    existing,
                    dict(value) if isinstance(value, Mapping) else value,
                ]
            }
    return dst


class StageTimers:
    """Accumulates elapsed seconds and call counts per stage name.

    ``phase`` labels the spans this accumulator mirrors onto the active
    tracer (``None`` leaves them unlabeled).
    """

    def __init__(self, phase: Optional[str] = None) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.phase = phase

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        with _active_tracer().span(name, phase=self.phase):
            start = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
                self.counts[name] = self.counts.get(name, 0) + 1

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-friendly snapshot: ``{"seconds": {...}, "counts": {...}}``."""
        return {
            "seconds": {k: round(v, 6) for k, v in sorted(self.seconds.items())},
            "counts": dict(sorted(self.counts.items())),
        }


def emit_stats(tracer, stats: Mapping[str, object], prefix: str) -> None:
    """Stream every numeric leaf of ``stats`` into ``tracer`` as a metric.

    Nested mappings are walked in ``sorted(key=str)`` order and each leaf
    is named ``<prefix>.<dotted path>``: ints emit as ``counter``, floats
    as ``gauge``.  Bools, ``None``, strings and :data:`COLLISION_KEY`
    lists are skipped.  A disabled tracer emits nothing.
    """
    if not tracer.enabled:
        return

    def walk(node: Mapping[str, object], path: str) -> None:
        for key in sorted(node, key=str):
            value = node[key]
            name = f"{path}.{key}"
            if isinstance(value, Mapping):
                walk(value, name)
            elif _is_number(value):
                kind = "counter" if isinstance(value, int) else "gauge"
                tracer.metric(name, value, kind=kind)

    walk(stats, prefix)


class GCWatch:
    """Counts cyclic garbage collections per generation, and their pauses.

    :meth:`install` appends this watch to ``gc.callbacks`` and
    :meth:`remove` takes it out again; no collector setting changes, so
    the counts show how much a run allocates, not a tuned collector.
    """

    def __init__(self) -> None:
        self.collections: Dict[int, int] = {0: 0, 1: 0, 2: 0}
        self.pause_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: Mapping[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        self.collections[generation] = self.collections.get(generation, 0) + 1
        self.pause_s += time.perf_counter() - self._started

    def install(self) -> None:
        gc.callbacks.append(self)

    def remove(self) -> None:
        if self in gc.callbacks:
            gc.callbacks.remove(self)

    def as_dict(self) -> Dict[str, object]:
        """``{"collections": {"gen0": n, ...}, "pause_s": seconds}``."""
        return {
            "collections": {f"gen{g}": n for g, n in sorted(self.collections.items())},
            "pause_s": round(self.pause_s, 6),
        }


def minor_faults() -> Optional[int]:
    """This process's minor page faults so far (``ru_minflt``), or
    ``None`` where :mod:`resource` is missing.

    A large array the allocator maps afresh faults in page by page, one
    it reuses from its heap does not, so a difference of two readings
    shows how much of a run's memory traffic was fresh pages.
    """
    if resource is None:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
