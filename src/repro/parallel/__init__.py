"""Process-parallel verification engine (top-R and U-sweep fan-out).

The package splits into four layers:

* :mod:`repro.parallel.replica` — worker-side state: a tree + timer
  replica kept bit-identical to the main process via delta replay;
* :mod:`repro.parallel.pool` — the persistent process pool with
  per-worker pipes, an event-driven work-stealing scheduler, crash
  requeue/respawn, and the stateless ``call`` channel used by the
  global flow's U-sweep.  Workers start from the pool's ``state``,
  passed as a process argument: forked workers inherit it without a
  copy, spawned ones unpickle it once;
* :mod:`repro.parallel.verify` — the local-opt bridge: top-R candidate
  fan-out with a deterministic reduce;
* :mod:`repro.parallel.sweep` — the U-sweep's worker entry points and
  its pool's start state.
"""

from repro.parallel.pool import (
    CRASH_EXIT_CODE,
    WorkerCrash,
    WorkerError,
    WorkerPool,
    worker_state,
)
from repro.parallel.replica import (
    Replica,
    ReplicaSpec,
    VerifyOutcome,
    publish_replica_arena,
)
from repro.parallel.verify import ParallelVerifier

__all__ = [
    "CRASH_EXIT_CODE",
    "ParallelVerifier",
    "Replica",
    "ReplicaSpec",
    "VerifyOutcome",
    "WorkerCrash",
    "WorkerError",
    "WorkerPool",
    "publish_replica_arena",
    "worker_state",
]
