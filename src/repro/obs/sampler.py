"""Background resource sampler emitting gauge time series into a trace.

A :class:`ResourceSampler` runs a daemon thread that, every
``interval_s`` seconds, snapshots process- and pool-level load and
records it as ``metric`` events:

* ``proc.rss_bytes`` / ``proc.cpu_pct`` — process resident set size and
  CPU utilization (user+system time delta over the sampling window);
* ``pool.queue_depth`` / ``pool.inflight`` / ``pool.alive`` and the
  cumulative lifetime counters ``pool.steals`` / ``pool.requeued`` /
  ``pool.crashes`` (labelled ``pool=<tag>``) via
  the :mod:`repro.parallel.pool` live-pool registry — steal/requeue
  rates become time series instead of end-of-run totals;
* ``pool.busy_frac{pool=<tag>, lane=<n>}`` — per-worker fraction of the
  sampling window a pipe request was in flight.

Lane model
----------
The :class:`~repro.obs.trace.Tracer` is single-threaded per lane, so
the sampler never appends to the main tracer directly: it owns a
private tracer on a freshly allocated lane (the same process-global
allocator pool workers draw from) and its events are merged into the
target tracer once, at :meth:`stop`, after the thread has joined.
Samples are pure ``metric`` events — no spans — so the merge is a plain
append and the schema's per-lane LIFO invariants hold trivially.

Overhead: one sample reads two /proc files and a handful of plain
attributes; at the default 100 ms interval this stays far inside the
``compare_bench`` ≤2% traced-overhead ceiling (asserted by
``BENCH_trace``'s sampler variant).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

from repro.obs.trace import Tracer, allocate_lane

#: Default sampling interval; ``BENCH_trace`` gates the ≤2% overhead
#: ceiling at exactly this rate.
DEFAULT_INTERVAL_S = 0.1

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096

# Kept open across samples (seek+read, no per-sample open/close); /proc
# files re-read from offset 0 return fresh contents.
_STATM = None
try:
    _STATM = open("/proc/self/statm")
except OSError:
    pass


def _rss_bytes() -> int:
    """Current resident set size, 0 when /proc is unavailable."""
    if _STATM is not None:
        try:
            _STATM.seek(0)
            return int(_STATM.read().split()[1]) * _PAGE_SIZE
        except (OSError, IndexError, ValueError):
            pass
    try:
        import resource

        # ru_maxrss is the peak, not current — still a useful upper
        # bound on platforms without /proc (reported in KiB).
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:
        return 0


class ResourceSampler:
    """Daemon thread sampling process and pool load into a trace lane."""

    def __init__(
        self,
        tracer: Tracer,
        interval_s: float = DEFAULT_INTERVAL_S,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self._target = tracer
        self._interval = interval_s
        self.lane = allocate_lane()
        self._tracer = Tracer(worker=self.lane)
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._merged = False
        self.samples = 0
        self._last_cpu = 0.0
        self._last_wall = 0.0
        self._last_busy: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def start(self) -> "ResourceSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        times = os.times()
        self._last_cpu = times.user + times.system
        self._last_wall = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> int:
        """Join the thread and merge the sampled lane into the target.

        Idempotent; returns the number of metric events merged.
        """
        if self._thread is not None:
            self._stop_event.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        if not self._merged:
            self._merged = True
            events = self._tracer.drain()
            self._target.events.extend(events)
            return len(events)
        return 0

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while not self._stop_event.wait(self._interval):
            self._sample()
        self._sample()  # closing sample so short runs record at least one

    def _sample(self) -> None:
        tracer = self._tracer
        now = time.perf_counter()
        window = max(now - self._last_wall, 1e-9)

        tracer.metric("proc.rss_bytes", _rss_bytes(), kind="gauge")
        times = os.times()
        cpu = times.user + times.system
        tracer.metric(
            "proc.cpu_pct",
            round(100.0 * (cpu - self._last_cpu) / window, 3),
            kind="gauge",
        )
        self._last_cpu = cpu
        self._last_wall = now

        self._sample_pools(tracer, window)
        self.samples += 1

    def _sample_pools(self, tracer: Tracer, window: float) -> None:
        from repro.parallel import pool as pool_mod

        for pool in pool_mod.live_pools():
            snap = pool.load_snapshot()
            labels = {"pool": snap["tag"]}
            tracer.metric(
                "pool.queue_depth", snap["queue_depth"], kind="gauge",
                labels=labels,
            )
            tracer.metric(
                "pool.inflight", snap["inflight"], kind="gauge", labels=labels
            )
            tracer.metric(
                "pool.alive", snap["alive"], kind="gauge", labels=labels
            )
            # Cumulative lifetime counters sampled as a monotonic
            # counter series (steal/requeue *rates* fall out of the
            # per-interval deltas in any downstream consumer).
            for counter in ("steals", "requeued", "crashes"):
                tracer.metric(
                    f"pool.{counter}", snap[counter], kind="counter",
                    labels=labels,
                )
            workers: List[Dict[str, object]] = snap["workers"]
            for worker in workers:
                prev = self._last_busy.get(worker["lane"], 0.0)
                busy_s = float(worker["busy_s"])
                self._last_busy[worker["lane"]] = busy_s
                frac = min(max((busy_s - prev) / window, 0.0), 1.0)
                tracer.metric(
                    "pool.busy_frac",
                    round(frac, 4),
                    kind="gauge",
                    labels={"pool": snap["tag"], "lane": worker["lane"]},
                )
