"""Top-R verification fan-out with a deterministic reduce.

:class:`ParallelVerifier` is the bridge between Algorithm 2's trial loop
and the worker pool.  It ships the ranked batch to the workers and, if
every worker died before a candidate was verified, re-verifies that
candidate with the main process's own engine — so a crash costs
wall-clock time, never correctness.  The returned verdicts are in batch
order and bit-identical to what the serial loop computes, which makes
the subsequent pick (:meth:`LocalOptimizer._pick_best`) produce the same
committed-move trajectory regardless of worker count.

The pool's start state is a :class:`~repro.parallel.replica.ReplicaSpec`
of the run's starting tree (:func:`publish_replica_arena`); a respawned
worker compiles that tree and replays the whole committed-move stream,
so its verdicts stay bit-identical to the serial loop's.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.moves import Move
from repro.netlist.tree import ClockTree
from repro.obs.merge import merge_worker_events
from repro.obs.trace import active as active_tracer
from repro.parallel.pool import WorkerPool
from repro.parallel.replica import publish_replica_arena

#: One candidate's verification verdict: (total variation, degraded?).
Verdict = Tuple[float, bool]


class ParallelVerifier:
    """Fans golden verification of ranked candidates out to a pool."""

    def __init__(
        self,
        problem,
        tree: ClockTree,
        workers: int,
        local_skew_tolerance_ps: float = 0.5,
    ) -> None:
        if workers < 2:
            raise ValueError("ParallelVerifier needs >= 2 workers")
        self._problem = problem
        self._spec = publish_replica_arena(problem, tree, local_skew_tolerance_ps)
        self._pool = WorkerPool(workers, state=self._spec, tag="verify")
        self._serial_fallbacks = 0

    # ------------------------------------------------------------------
    def verify_batch(
        self, tree: ClockTree, moves: Sequence[Move]
    ) -> List[Verdict]:
        """Verify ``moves`` against the current state, in batch order."""
        outcomes = self._pool.verify_batch(moves)
        tracer = active_tracer()
        if tracer.enabled:
            # Hang each worker's ``verify`` span under the span that
            # issued this fan-out (the local loop's ``trial`` stage), so
            # the merged tree matches the serial run's shape.
            for lane, events in self._pool.last_verify_obs:
                merge_worker_events(tracer, events, lane)
        verdicts: List[Verdict] = []
        for move, outcome in zip(moves, outcomes):
            if outcome is None:
                self._serial_fallbacks += 1
                verdicts.append(self._verify_serial(tree, move))
            else:
                verdicts.append((outcome.total_variation, outcome.degraded))
        return verdicts

    def _verify_serial(self, tree: ClockTree, move: Move) -> Verdict:
        """Main-process re-verification once every worker has died."""
        result = self._problem.evaluate_move(tree, move)
        return (
            result.total_variation,
            result.skews.degraded_local_skew(
                self._spec.baseline_skews,
                tol_ps=self._spec.local_skew_tolerance_ps,
            ),
        )

    # ------------------------------------------------------------------
    def record_commit(self, move: Move) -> None:
        """Extend the delta stream the workers replay to stay in sync."""
        self._pool.record_commit(move)

    def stats_dict(self) -> Dict[str, float]:
        stats = dict(self._pool.stats)
        stats["serial_fallbacks"] = self._serial_fallbacks
        wall = stats.get("verify_wall_s", 0.0)
        busy = stats.get("worker_busy_s", 0.0)
        # Effective verification concurrency: worker-side eval seconds
        # per wall second of fan-out.  > 1 means the pool verified faster
        # than one process could have.
        stats["verify_speedup"] = round(busy / wall, 3) if wall > 0 else 0.0
        return stats

    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> "ParallelVerifier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
