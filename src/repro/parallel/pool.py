"""Process-pool execution layer with persistent, delta-synced workers.

Each worker process holds a long-lived :class:`~repro.parallel.replica.
Replica` (tree + incremental timer) and serves requests over its own
pipe, so the pool can address workers individually and detect a single
worker's death without losing the batch.  Two request kinds exist:

* ``verify`` — the local-opt fan-out: the request carries the slice of
  the committed-move delta stream the worker hasn't seen yet plus one
  whole candidate to golden-verify.
* ``call`` — a stateless remote procedure call used by the global flow's
  U-sweep (independent LP solves and ECO realizations per sweep point).
  The function is named ``"module:function"`` and must be importable in
  the worker.

Workers start from the pool's ``state``, passed to each worker process
as an argument: under fork, which the pool uses wherever the platform
has it, a worker inherits the state without a copy; under spawn,
multiprocessing pickles it once per worker.  A
:class:`~repro.parallel.replica.ReplicaSpec` state gives the worker its
verification replica, which compiles and propagates the spec's tree
itself; any other state only feeds ``call`` targets, which read it
through :func:`worker_state`.  Requests carry only delta suffixes and
single tasks.  Both request kinds drain one shared queue through an
event-driven ``multiprocessing.connection.wait`` loop with work-stealing
refill, so a straggler never blocks the batch.

Crash policy: a worker that dies mid-task has its in-flight verify task
requeued to the survivors (verification is pure); ``call`` targets are
not assumed idempotent, so only a crashed worker's in-flight payload is
forfeited while its queued payloads migrate.  Dead workers are respawned
before the next request from the pool's ``state`` and replay the whole
delta stream from its tree.  Results fold through an
index-keyed deterministic reduce, so committed-move trajectories are
byte-identical across worker counts and completion orders.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import threading
import time
import traceback
import weakref
from collections import deque
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.moves import Move
from repro.obs import trace as obs_trace
from repro.parallel.replica import Replica, ReplicaSpec, VerifyOutcome

#: Exit code used by the test-only ``crash`` request.
CRASH_EXIT_CODE = 13

#: Live-pool registry for the resource sampler: pools register on
#: construction and deregister on :meth:`WorkerPool.close`, so the
#: sampler thread can snapshot queue depth / busy fractions without
#: holding a pool reference.
_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()
_LIVE_POOLS_LOCK = threading.Lock()


def live_pools() -> List["WorkerPool"]:
    """Pools currently open in this process (sampler telemetry source)."""
    with _LIVE_POOLS_LOCK:
        return [pool for pool in list(_LIVE_POOLS) if not pool._closed]


def effective_cpu_count() -> int:
    """CPUs actually usable by this process (affinity-aware, >= 1).

    Prefers :func:`os.process_cpu_count` (3.13+), then the scheduling
    affinity mask, then :func:`os.cpu_count` — containers and cgroup
    quotas shrink the first two while ``cpu_count`` reports the host.
    """
    probe = getattr(os, "process_cpu_count", None)
    if probe is not None:
        count = probe()
        if count:
            return count
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(len(affinity(0)), 1)
        except OSError:
            pass
    return os.cpu_count() or 1


def resolve_workers(workers: object) -> Tuple[int, str]:
    """Resolve a ``LocalOptConfig.workers`` value to a pool size.

    ``"auto"`` sizes the pool to the effective CPU count, degrading to
    serial when a pool cannot win (fewer than 2 usable CPUs — the
    0.85x-end-to-end regime ``BENCH_parallel`` measured on a 1-CPU
    host).  Integers pass through untouched so explicit requests (e.g.
    CI determinism jobs oversubscribing a small runner) stay exact.
    Returns ``(effective_workers, note)``.
    """
    if workers == "auto":
        cpus = effective_cpu_count()
        if cpus < 2:
            return 1, f"auto: {cpus} effective CPU(s) < 2, pool degraded to serial"
        return cpus, f"auto: sized to {cpus} effective CPUs"
    count = int(workers)  # type: ignore[arg-type]
    if count < 1:
        raise ValueError(f"workers must be >= 1 or 'auto', got {workers!r}")
    cpus = effective_cpu_count()
    if count > cpus:
        return count, (
            f"explicit: {count} workers oversubscribe "
            f"{cpus} effective CPU(s)"
        )
    return count, "explicit"


def _resolve(fn_spec: str) -> Callable[[Any], Any]:
    module_name, _, fn_name = fn_spec.partition(":")
    if not module_name or not fn_name:
        raise ValueError(f"bad function spec {fn_spec!r}; expected 'module:fn'")
    return getattr(importlib.import_module(module_name), fn_name)


#: The start state this worker process was given (``None`` in the parent).
_WORKER_STATE: Any = None


def worker_state() -> Any:
    """The start state the pool gave this worker process, if any."""
    return _WORKER_STATE


def _worker_main(conn, lane: int, state: Any) -> None:
    """Worker loop: adopt the start state, then serve until told to exit.

    The worker traces into its own observability lane and ships the
    drained span/metric events with every response — the parent merges
    them into the run trace (or discards them when tracing is off).  A
    :class:`ReplicaSpec` state gives the worker its verification
    replica; any other state only feeds ``call`` targets.
    """
    global _WORKER_STATE
    _WORKER_STATE = state
    tracer = obs_trace.activate(obs_trace.Tracer(worker=lane))
    replica = Replica(state) if isinstance(state, ReplicaSpec) else None
    crash_after: Optional[int] = None
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        op = message[0]
        if op == "exit":
            return
        if op == "crash":
            os._exit(CRASH_EXIT_CODE)
        if op == "crash_after":
            # Test hook: die just before the Nth future verify request,
            # i.e. with that task in flight from the pool's viewpoint.
            crash_after = int(message[1])
            conn.send(("ok", None, tracer.drain()))
            continue
        try:
            if op == "ping":
                result: Any = replica.applied if replica else None
            elif op == "verify":
                _, deltas, first_index, index, move = message
                if replica is None:
                    raise RuntimeError("pool has no replica")
                if crash_after is not None:
                    if crash_after <= 0:
                        os._exit(CRASH_EXIT_CODE)
                    crash_after -= 1
                with tracer.span("verify", phase="local") as span:
                    replica.sync(deltas, first_index)
                    result = replica.verify(index, move)
                    span.set(tasks=1, synced=len(deltas))
            elif op == "call":
                _, fn_spec, payload = message
                result = _resolve(fn_spec)(payload)
            else:
                raise ValueError(f"unknown op {op!r}")
            conn.send(("ok", result, tracer.drain()))
        except Exception:
            conn.send(("err", traceback.format_exc(), tracer.drain()))


class _WorkerHandle:
    """One worker process plus its pipe and delta-sync watermark."""

    __slots__ = (
        "process",
        "conn",
        "synced",
        "alive",
        "lane",
        "last_events",
        "busy_since",
        "busy_s",
    )

    def __init__(self, process, conn, lane: int) -> None:
        self.process = process
        self.conn = conn
        #: Index of the next committed-move delta this worker needs (a
        #: fresh worker starts at the first).
        self.synced = 0
        self.alive = True
        self.lane = lane  # observability lane id (unique per process)
        self.last_events: List[Dict[str, object]] = []
        #: Pipe in-flight accounting for the resource sampler: the send
        #: timestamp of the currently outstanding request (None = idle)
        #: and the cumulative request-in-flight seconds.
        self.busy_since: Optional[float] = None
        self.busy_s = 0.0


class WorkerCrash(RuntimeError):
    """A worker died while serving a request."""


class WorkerError(RuntimeError):
    """A worker raised while serving a request (traceback attached)."""


class WorkerPool:
    """Persistent pool of workers addressed over per-worker pipes.

    ``state`` is every worker's start state (see the module docstring);
    ``verify_batch`` needs a :class:`ReplicaSpec`, while ``call`` works
    with any state or none.  Assigning ``state`` changes what workers
    spawned afterwards start from; live workers keep theirs.
    """

    def __init__(self, workers: int, state: Any = None, tag: str = "pool") -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._size = workers
        self.state = state
        self.tag = tag  # telemetry label ("verify", "sweep", "batch"...)
        self._closed = False
        #: Tasks queued but not yet dispatched (0 outside a batch).
        #: Plain int assignment, safe to read from the sampler thread.
        self._queue_depth = 0
        self._workers: List[_WorkerHandle] = []
        self._deltas: List[Move] = []
        self.stats: Dict[str, float] = {
            "workers": workers,
            "verify_batches": 0,
            "verify_tasks": 0,
            "call_tasks": 0,
            "crashes": 0,
            "rebuilds": 0,
            "failed_shards": 0,
            "verify_wall_s": 0.0,
            "worker_busy_s": 0.0,
            "steals": 0,
            "requeued": 0,
        }
        #: Worker trace deltas from the most recent request, as
        #: ``(lane, events)`` — per answered task for ``verify_batch``,
        #: aligned with payload order (``None`` = crashed/orphaned) for
        #: ``call``.  Callers holding an active tracer merge these via
        #: :func:`repro.obs.merge.merge_worker_events`.
        self.last_verify_obs: List[Tuple[int, List[Dict[str, object]]]] = []
        self.last_call_obs: List[Optional[Tuple[int, List[Dict[str, object]]]]] = []
        self._spawn_missing()
        with _LIVE_POOLS_LOCK:
            _LIVE_POOLS.add(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._size

    def _spawn_one(self) -> _WorkerHandle:
        # Lane ids come from the process-global observability allocator
        # (shared with the resource sampler), so every spawned worker —
        # across all pools, including respawns — merges into a fresh
        # lane and (lane, span-id) keys never collide.
        lane = obs_trace.allocate_lane()
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn, lane, self.state), daemon=True
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(process, parent_conn, lane)

    def _spawn_missing(self) -> None:
        """Respawn dead workers until the pool is at full strength."""
        rebuilt = False
        self._workers = [w for w in self._workers if w.alive]
        while len(self._workers) < self._size:
            self._workers.append(self._spawn_one())
            rebuilt = True
        if rebuilt and self.stats["verify_batches"] > 0:
            self.stats["rebuilds"] += 1

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            with _LIVE_POOLS_LOCK:
                _LIVE_POOLS.discard(self)
            # Lifetime counters as trace events, so a trace file is
            # self-contained without the result object's stats dict.
            tracer = obs_trace.active()
            if getattr(tracer, "enabled", False):
                labels = {"pool": self.tag}
                for counter in ("steals", "requeued", "crashes"):
                    tracer.metric(
                        f"pool.{counter}",
                        int(self.stats[counter]),
                        kind="counter",
                        labels=labels,
                    )
        for worker in self._workers:
            if not worker.alive:
                continue
            try:
                worker.conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            worker.conn.close()
            worker.alive = False
        self._workers = []

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _mark_dead(self, worker: _WorkerHandle) -> None:
        if worker.alive:
            worker.alive = False
            self.stats["crashes"] += 1
            try:
                worker.conn.close()
            except OSError:
                pass
            if worker.process.is_alive():
                worker.process.terminate()

    def _send(self, worker: _WorkerHandle, message: Tuple) -> bool:
        try:
            worker.conn.send(message)
            worker.busy_since = time.perf_counter()
            return True
        except (BrokenPipeError, OSError):
            self._mark_dead(worker)
            return False

    def _recv(self, worker: _WorkerHandle) -> Any:
        try:
            status, payload, events = worker.conn.recv()
        except (EOFError, OSError) as exc:
            self._mark_dead(worker)
            raise WorkerCrash(str(exc)) from exc
        finally:
            if worker.busy_since is not None:
                worker.busy_s += time.perf_counter() - worker.busy_since
                worker.busy_since = None
        worker.last_events = events
        if status == "err":
            raise WorkerError(payload)
        return payload

    def load_snapshot(self) -> Dict[str, object]:
        """Point-in-time load view for the resource sampler thread.

        Reads only plain attributes (GIL-atomic), so it is safe to call
        from another thread while a batch is in flight.  Per-worker
        entries report the lane id, cumulative in-flight seconds, and
        whether a request is outstanding right now.
        """
        workers = list(self._workers)
        now = time.perf_counter()
        per_worker = []
        for worker in workers:
            busy_since = worker.busy_since
            busy_s = worker.busy_s
            if busy_since is not None:
                busy_s += max(0.0, now - busy_since)
            per_worker.append(
                {
                    "lane": worker.lane,
                    "busy": busy_since is not None,
                    "busy_s": busy_s,
                    "alive": worker.alive,
                }
            )
        return {
            "tag": self.tag,
            "size": self._size,
            "queue_depth": self._queue_depth,
            "alive": sum(1 for w in per_worker if w["alive"]),
            "inflight": sum(1 for w in per_worker if w["busy"]),
            "workers": per_worker,
            "steals": int(self.stats["steals"]),
            "requeued": int(self.stats["requeued"]),
            "crashes": int(self.stats["crashes"]),
        }

    # ------------------------------------------------------------------
    # Delta stream
    # ------------------------------------------------------------------
    def record_commit(self, move: Move) -> None:
        """Append a committed move; workers sync lazily at the next request."""
        self._deltas.append(move)

    @property
    def committed(self) -> int:
        """Count of committed moves recorded so far."""
        return len(self._deltas)

    def _sync_args(self, worker: _WorkerHandle) -> Tuple[List[Move], int]:
        return self._deltas[worker.synced :], worker.synced

    # ------------------------------------------------------------------
    # Verification fan-out
    # ------------------------------------------------------------------
    def verify_batch(self, moves: Sequence[Move]) -> List[Optional[VerifyOutcome]]:
        """Fan a candidate batch out to the workers and gather outcomes.

        Returns one outcome per candidate, in batch order — ``None`` only
        for candidates still queued when every worker had died; the
        caller re-verifies those serially.  Dead workers are respawned
        before returning.

        Every worker starts with one candidate; whichever finishes first
        is refilled from the shared queue, so a straggler never blocks
        the batch.  A worker that dies mid-task has its candidate
        requeued to the survivors — verification is a pure function of
        (replica state, move), so re-execution is safe.  Outcomes are
        keyed by candidate index, which makes the reduce independent of
        completion order.
        """
        if not isinstance(self.state, ReplicaSpec):
            raise RuntimeError("verify_batch requires a pool started from a ReplicaSpec")
        if not moves:
            return []
        started = time.perf_counter()
        self._spawn_missing()
        self.stats["verify_batches"] += 1
        self.stats["verify_tasks"] += len(moves)
        queue: deque = deque(enumerate(moves))
        outcomes: List[Optional[VerifyOutcome]] = [None] * len(moves)
        self.last_verify_obs = []
        idle: List[_WorkerHandle] = [w for w in self._workers if w.alive]
        fair = -(-len(moves) // max(len(idle), 1))
        dispatched: Dict[int, int] = {}
        inflight: Dict[Any, Tuple[_WorkerHandle, Tuple[int, Move]]] = {}
        head = self.committed
        while queue or inflight:
            while queue and idle:
                worker = idle.pop(0)
                task = queue.popleft()
                deltas, first_index = self._sync_args(worker)
                if not self._send(worker, ("verify", deltas, first_index, *task)):
                    queue.appendleft(task)
                    continue
                worker.synced = head
                inflight[worker.conn] = (worker, task)
                count = dispatched.get(worker.lane, 0) + 1
                dispatched[worker.lane] = count
                if count > fair:
                    self.stats["steals"] += 1
            self._queue_depth = len(queue)
            if not inflight:
                break  # every worker died; the leftovers stay None
            for conn in connection.wait(list(inflight)):
                worker, task = inflight.pop(conn)
                try:
                    outcome = self._recv(worker)
                except WorkerCrash:
                    queue.append(task)
                    self.stats["requeued"] += 1
                    continue
                if worker.last_events:
                    self.last_verify_obs.append((worker.lane, worker.last_events))
                outcomes[outcome.index] = outcome
                self.stats["worker_busy_s"] += outcome.eval_s
                idle.append(worker)
        self._queue_depth = 0
        self.stats["failed_shards"] += len(queue)
        self._spawn_missing()
        self.stats["verify_wall_s"] += time.perf_counter() - started
        return outcomes

    # ------------------------------------------------------------------
    # Stateless remote calls (U-sweep)
    # ------------------------------------------------------------------
    def call(self, fn_spec: str, payloads: Sequence[Any]) -> List[Optional[Any]]:
        """Scatter ``payloads`` over the workers; ``None`` marks a crash.

        Results keep payload order.  Worker exceptions propagate as
        :class:`WorkerError` (they are bugs, not crashes).  Payloads
        drain one shared queue through the event loop: only the
        in-flight payload of a crashed worker is forfeited (call targets
        are not assumed idempotent) — its queued payloads migrate to the
        survivors, and the dead worker is respawned.
        """
        if not payloads:
            return []
        self._spawn_missing()
        self.stats["call_tasks"] += len(payloads)
        results: List[Optional[Any]] = [None] * len(payloads)
        self.last_call_obs = [None] * len(payloads)
        queue: deque = deque(range(len(payloads)))
        idle: List[_WorkerHandle] = [w for w in self._workers if w.alive]
        inflight: Dict[Any, Tuple[_WorkerHandle, int]] = {}
        while queue or inflight:
            while queue and idle:
                worker = idle.pop(0)
                position = queue.popleft()
                if self._send(worker, ("call", fn_spec, payloads[position])):
                    inflight[worker.conn] = (worker, position)
                else:
                    queue.appendleft(position)
            self._queue_depth = len(queue)
            if not inflight:
                break
            for conn in connection.wait(list(inflight)):
                worker, position = inflight.pop(conn)
                try:
                    results[position] = self._recv(worker)
                except WorkerCrash:
                    continue
                if worker.last_events:
                    self.last_call_obs[position] = (worker.lane, worker.last_events)
                idle.append(worker)
        self._queue_depth = 0
        self._spawn_missing()
        return results

    # ------------------------------------------------------------------
    # Test support
    # ------------------------------------------------------------------
    def crash_worker(self, index: int = 0) -> None:
        """Ask one worker to die (exercises the recovery path in tests)."""
        worker = self._workers[index]
        if self._send(worker, ("crash",)):
            worker.process.join(timeout=5.0)

    def crash_worker_after(self, index: int, requests: int) -> None:
        """Arm worker ``index`` to die after serving ``requests`` more
        verify requests — from the pool's viewpoint the next task is in
        flight when it dies (exercises mid-steal requeue in tests)."""
        worker = self._workers[index]
        if self._send(worker, ("crash_after", requests)):
            self._recv(worker)

    def alive_workers(self) -> int:
        return sum(
            1
            for w in self._workers
            if w.alive and w.process.is_alive()
        )
