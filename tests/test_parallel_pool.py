"""Pool lifecycle and replica-sync tests for :mod:`repro.parallel`.

The contracts under test:

* a worker replica's verification verdicts equal the main engine's
  (bit-identical floats, same degradation flag);
* replaying the committed-move delta stream keeps a replica's timing
  within 1e-9 ps of the main process (in practice: bit-identical);
* a worker crash mid-batch requeues its candidate to the survivors —
  every verdict arrives and equals the serial one, and the pool is
  rebuilt to full strength for the next batch; only when every worker
  is dead does the verifier re-verify serially;
* the parallel local-opt trajectory is identical to the serial one;
* workers start from the pool's start state (under fork, inherited with
  no pickle round trip), each compiling and propagating its own replica
  of the spec's tree; the event-driven scheduler and workers respawned
  mid-run (replaying the whole delta stream) produce byte-identical
  verdicts and trajectories to the serial loop.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import pickle

import pytest

from repro.core.local_opt import LocalOptConfig, LocalOptimizer
from repro.core.ml.training import train_predictor
from repro.core.moves import enumerate_moves
from repro.core.objective import SkewVariationProblem
from repro.parallel import (
    CRASH_EXIT_CODE,
    ParallelVerifier,
    Replica,
    WorkerPool,
    publish_replica_arena,
    worker_state,
)
from repro.parallel.pool import effective_cpu_count, resolve_workers
from repro.testcases.mini import build_mini


@pytest.fixture(scope="module")
def problem():
    return SkewVariationProblem.create(build_mini())


@pytest.fixture(scope="module")
def moves(problem):
    tree = problem.design.tree
    found = enumerate_moves(tree, problem.design.library)
    assert len(found) >= 6
    return found[:6]


@pytest.fixture(scope="module")
def predictor(problem):
    return train_predictor(problem.design.library, [], "full_rsmt_d2m")


@contextlib.contextmanager
def replica_pool(problem, tree, workers=2):
    """A verify pool started from a replica spec of ``tree``."""
    with WorkerPool(workers, state=publish_replica_arena(problem, tree)) as pool:
        yield pool


def ping(pool, index):
    """Worker ``index``'s replica watermark: committed moves applied."""
    worker = pool._workers[index]
    worker.conn.send(("ping",))
    return pool._recv(worker)


class _Unpicklable:
    """A start state that fails any attempt to pickle it."""

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        raise TypeError("this start state must not be pickled")


def _start_state_value(_payload):
    """``call`` target: the value of the worker's start state."""
    return worker_state().value


def serial_verdict(problem, tree, move, tol_ps=0.5):
    result = problem.evaluate_move(tree, move)
    return (
        result.total_variation,
        result.skews.degraded_local_skew(problem.baseline.skews, tol_ps=tol_ps),
    )


# ----------------------------------------------------------------------
# Replica
# ----------------------------------------------------------------------
class TestReplica:
    def test_verify_matches_main_engine(self, problem, moves):
        tree = problem.design.tree.clone()
        replica = Replica(publish_replica_arena(problem, tree))
        for index, move in enumerate(moves):
            outcome = replica.verify(index, move)
            tv, degraded = serial_verdict(problem, tree, move)
            assert outcome.total_variation == tv
            assert outcome.degraded == degraded

    def test_delta_replay_keeps_timing_within_tolerance(self, problem, moves):
        tree = problem.design.tree.clone()
        replica = Replica(publish_replica_arena(problem, tree))
        # Commit two moves on the main side, replay them on the replica.
        committed = []
        for move in moves:
            try:
                problem.commit_move(tree, move)
            except Exception:
                continue
            committed.append(move)
            if len(committed) == 2:
                break
        assert len(committed) == 2
        replica.sync(committed, first_index=0)
        assert replica.applied == 2
        main_result = problem.evaluate(tree)
        replica_result = replica.evaluate()
        assert (
            abs(
                main_result.total_variation
                - replica_result.total_variation
            )
            <= 1e-9
        )
        for corner, latencies in main_result.latencies.items():
            for sink, value in latencies.items():
                assert abs(replica_result.latencies[corner][sink] - value) <= 1e-9

    def test_sync_skips_already_applied_and_rejects_gaps(self, problem, moves):
        tree = problem.design.tree.clone()
        replica = Replica(publish_replica_arena(problem, tree))
        move = moves[0]
        problem.engine()  # main engine exists independently
        replica.sync([move], first_index=0)
        # Redelivery of the same prefix is harmless (pool rebuild path).
        replica.sync([move], first_index=0)
        assert replica.applied == 1
        with pytest.raises(ValueError, match="gap"):
            replica.sync([move], first_index=3)


# ----------------------------------------------------------------------
# WorkerPool
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_verify_batch_matches_serial(self, problem, moves):
        tree = problem.design.tree.clone()
        with replica_pool(problem, tree) as pool:
            outcomes = pool.verify_batch(moves)
            assert len(outcomes) == len(moves)
            for index, (move, outcome) in enumerate(zip(moves, outcomes)):
                assert outcome is not None and outcome.index == index
                tv, degraded = serial_verdict(problem, tree, move)
                assert outcome.total_variation == tv
                assert outcome.degraded == degraded

    def test_verify_batch_requires_replica_arena(self, moves):
        with WorkerPool(2) as pool:
            with pytest.raises(RuntimeError, match="ReplicaSpec"):
                pool.verify_batch(moves)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="start-state inheritance needs the fork start method",
    )
    def test_forked_workers_inherit_start_state_unpickled(self):
        state = _Unpicklable(1)
        with pytest.raises(TypeError):
            pickle.dumps(state)
        target = f"{__name__}:_start_state_value"
        with WorkerPool(2, state=state) as pool:
            assert pool.call(target, [None] * 4) == [1] * 4
            # A worker respawned after the state is replaced starts from
            # the new state; the survivor keeps the one it started from.
            pool.state = _Unpicklable(2)
            pool.crash_worker(0)
            # The survivor serves this call; the dead worker is respawned
            # after it.
            assert pool.call(target, [None] * 4) == [1] * 4
            assert pool.stats["crashes"] == 1
            assert sorted(set(pool.call(target, [None] * 4))) == [1, 2]

    def test_crash_mid_batch_recovers_with_correct_results(self, problem, moves):
        tree = problem.design.tree.clone()
        with replica_pool(problem, tree) as pool:
            pool.crash_worker(0)
            outcomes = pool.verify_batch(moves)
            # The dead worker's candidate is requeued to the survivor:
            # nothing is forfeited.
            assert pool.stats["crashes"] == 1
            assert pool.stats["failed_shards"] == 0
            for move, outcome in zip(moves, outcomes):
                assert outcome is not None
                tv, degraded = serial_verdict(problem, tree, move)
                assert (outcome.total_variation, outcome.degraded) == (tv, degraded)
            # The pool rebuilt itself: next batch is fully parallel.
            assert pool.alive_workers() == 2
            assert all(o is not None for o in pool.verify_batch(moves))

    def test_crash_after_commits_resyncs_fresh_worker(self, problem, moves):
        tree = problem.design.tree.clone()
        with replica_pool(problem, tree) as pool:
            committed = []
            for move in moves:
                try:
                    problem.commit_move(tree, move)
                except Exception:
                    continue
                committed.append(move)
                pool.record_commit(move)
                if len(committed) == 2:
                    break
            assert len(committed) == 2
            pool.crash_worker(0)
            pool.crash_worker(1)
            # With every worker dead no candidate can be verified; the
            # pool rebuilds afterwards.
            outcomes = pool.verify_batch(moves[:2])
            assert outcomes == [None, None]
            assert pool.stats["failed_shards"] == 2
            assert pool.alive_workers() == 2
            # Fresh workers replay the delta stream from the start
            # state's tree, so verdicts match the advanced main engine.
            outcomes = pool.verify_batch(moves[:2])
            for move, outcome in zip(moves[:2], outcomes):
                assert outcome is not None
                tv, degraded = serial_verdict(problem, tree, move)
                assert (outcome.total_variation, outcome.degraded) == (tv, degraded)

    def test_call_scatters_and_keeps_order(self):
        with WorkerPool(2) as pool:
            payloads = [[1], [1, 2], [1, 2, 3], []]
            results = pool.call("builtins:len", payloads)
            assert results == [1, 2, 3, 0]

    def test_oversubscription_note(self):
        cpus = effective_cpu_count()
        count, note = resolve_workers(cpus + 1)
        assert count == cpus + 1
        assert "oversubscribe" in note
        count, note = resolve_workers(cpus)
        assert count == cpus
        assert note == "explicit"

    def test_call_crash_yields_none_for_forfeited_payloads(self):
        with WorkerPool(2) as pool:
            # A worker dying mid-call forfeits its in-flight payload
            # (call targets are not assumed idempotent).
            assert pool.call("os:_exit", [CRASH_EXIT_CODE]) == [None]
            assert pool.stats["crashes"] == 1
            # Dead worker respawned for subsequent calls.
            assert pool.alive_workers() == 2
            assert pool.call("builtins:len", [[1]] * 4) == [1, 1, 1, 1]


# ----------------------------------------------------------------------
# ParallelVerifier + trajectory identity
# ----------------------------------------------------------------------
class TestParallelLocalOpt:
    def _run(self, predictor, workers, top_r=5, iterations=3):
        prob = SkewVariationProblem.create(build_mini())
        config = LocalOptConfig(
            max_iterations=iterations, workers=workers, top_r=top_r
        )
        outcome = LocalOptimizer(prob, predictor, config).run()
        trajectory = [
            (
                repr(record.move),
                record.predicted_reduction_ps,
                record.actual_reduction_ps,
                record.objective_after_ps,
            )
            for record in outcome.history
        ]
        return trajectory, outcome

    def test_workers2_trajectory_identical_to_serial(self, predictor):
        serial, serial_outcome = self._run(predictor, workers=1)
        parallel, parallel_outcome = self._run(predictor, workers=2)
        assert serial == parallel
        assert (
            serial_outcome.final_objective_ps
            == parallel_outcome.final_objective_ps
        )
        stats = parallel_outcome.stats["parallel"]
        assert stats is not None
        assert stats["verify_batches"] > 0
        assert stats["serial_fallbacks"] == 0
        assert serial_outcome.stats["parallel"] is None

    def test_verifier_serial_fallback_matches(self, problem, moves):
        tree = problem.design.tree.clone()
        with ParallelVerifier(problem, tree, workers=2) as verifier:
            # The serial fallback runs only once every worker is dead.
            verifier._pool.crash_worker(0)
            verifier._pool.crash_worker(1)
            verdicts = verifier.verify_batch(tree, list(moves))
            stats = verifier.stats_dict()
            assert stats["serial_fallbacks"] == len(moves)
            assert stats["crashes"] == 2
            for move, verdict in zip(moves, verdicts):
                assert verdict == serial_verdict(problem, tree, move)
            assert verifier._pool.alive_workers() == 2


# ----------------------------------------------------------------------
# Event-driven scheduler, crash requeue, respawn replay
# ----------------------------------------------------------------------
class TestShmPool:
    def _verifier(self, problem, tree, workers=2):
        return ParallelVerifier(problem, tree, workers=workers)

    def test_shm_verify_batch_matches_serial(self, problem, moves):
        tree = problem.design.tree.clone()
        with self._verifier(problem, tree) as verifier:
            verdicts = verifier.verify_batch(tree, list(moves))
            stats = verifier.stats_dict()
            assert "backend" not in stats
            assert not any(key.startswith("arena") for key in stats)
            assert stats["serial_fallbacks"] == 0
        for move, verdict in zip(moves, verdicts):
            assert verdict == serial_verdict(problem, tree, move)

    def test_crash_mid_steal_requeues_and_respawns(self, problem, moves):
        tree = problem.design.tree.clone()
        with self._verifier(problem, tree) as verifier:
            pool = verifier._pool
            # Arm worker 0 to die with its next verify task in flight:
            # the overlapped scheduler must requeue that task to the
            # survivor — no verdict is forfeited, no serial fallback.
            pool.crash_worker_after(0, 0)
            verdicts = verifier.verify_batch(tree, list(moves))
            stats = verifier.stats_dict()
            assert stats["requeued"] > 0
            assert stats["crashes"] == 1
            assert stats["failed_shards"] == 0
            assert stats["serial_fallbacks"] == 0
            # Respawned back to strength; the fresh worker started from
            # the pool's start state and verifies correctly.
            assert pool.alive_workers() == 2
            again = verifier.verify_batch(tree, list(moves))
        for move, verdict in zip(moves, verdicts):
            assert verdict == serial_verdict(problem, tree, move)
        assert again == verdicts

    def test_respawned_workers_replay_from_start_tree(self, problem, moves):
        """Workers respawned after four commits compile the run's start
        tree, replay all four moves and return the serial verdicts."""
        tree = problem.design.tree.clone()
        with self._verifier(problem, tree) as verifier:
            pool = verifier._pool
            committed = 0
            for move in moves:
                try:
                    problem.commit_move(tree, move)
                except Exception:
                    continue
                verifier.record_commit(move)
                committed += 1
                verdicts = verifier.verify_batch(tree, list(moves[:2]))
                for move_, verdict in zip(moves[:2], verdicts):
                    assert verdict == serial_verdict(problem, tree, move_)
                if committed == 4:
                    break
            assert committed == pool.committed == 4
            pool.crash_worker(0)
            pool.crash_worker(1)
            verifier.verify_batch(tree, list(moves[:2]))  # forfeits, rebuilds
            assert [ping(pool, i) for i in range(2)] == [0, 0]
            verdicts = verifier.verify_batch(tree, list(moves))
            assert verdicts == [serial_verdict(problem, tree, m) for m in moves]
            assert [ping(pool, i) for i in range(2)] == [4, 4]
            assert verifier.stats_dict()["serial_fallbacks"] == 2

    def test_call_overlapped_migrates_queued_payloads(self, problem):
        tree = problem.design.tree.clone()
        with replica_pool(problem, tree) as pool:
            assert pool.call("builtins:len", [[1], [1, 2], [], [1, 2, 3]]) == [1, 2, 0, 3]
            # A worker dead *before* the scatter forfeits nothing: its
            # queued payloads migrate to the survivor.
            pool.crash_worker(0)
            results = pool.call("builtins:len", [[1]] * 5)
            assert results == [1] * 5
            assert pool.stats["crashes"] == 1
            assert pool.alive_workers() == 2


# ----------------------------------------------------------------------
# End-to-end trajectory identity
# ----------------------------------------------------------------------
class TestShmLocalOpt:
    def _run(self, predictor, workers, top_r=5, iterations=3):
        prob = SkewVariationProblem.create(build_mini())
        config = LocalOptConfig(max_iterations=iterations, workers=workers, top_r=top_r)
        outcome = LocalOptimizer(prob, predictor, config).run()
        trajectory = [
            (
                repr(record.move),
                record.predicted_reduction_ps,
                record.actual_reduction_ps,
                record.objective_after_ps,
            )
            for record in outcome.history
        ]
        return trajectory, outcome

    def test_shm_trajectory_identical_to_serial_and_pipe(self, predictor):
        """Serial vs a pool whose workers compile and propagate their own
        replicas from the start state's tree."""
        serial, serial_outcome = self._run(predictor, workers=1)
        pooled, pooled_outcome = self._run(predictor, workers=2)
        assert serial == pooled
        assert serial_outcome.final_objective_ps == pooled_outcome.final_objective_ps
        assert pooled_outcome.stats["parallel"]["serial_fallbacks"] == 0

    def test_shm_oversubscribed_trajectory_identical(self, predictor):
        serial, _ = self._run(predictor, workers=1, top_r=2, iterations=2)
        pooled, outcome = self._run(predictor, workers=5, top_r=2, iterations=2)
        assert serial == pooled
        workers_stats = outcome.stats["workers"]
        assert workers_stats["requested"] == 5
        if effective_cpu_count() < 5:
            assert "oversubscribe" in workers_stats["note"]
