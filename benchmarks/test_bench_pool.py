"""Bench: the verification worker pool's fixed costs.

Two numbers describe them, both in absolute seconds:

* **cold verify epoch** — verifier construction (pool bring-up from the
  replica spec), a mixed batch schedule streamed through the
  event-driven scheduler, and one mid-epoch crash whose in-flight
  candidate is requeued to the survivors.
* **respawn-to-ready** — crash to a respawned worker answering its first
  request: it starts from the pool's replica spec, then compiles and
  propagates its replica of the spec's tree.  Median of a few respawns.

Verdicts must equal the serial ``problem.evaluate_move`` verdicts; the
gate checks that flag.  There is no second transport or start-up path
to divide either time by, so no ratio is recorded.  When workers
outnumber CPUs the record says ``"oversubscribed": true``: the epoch
then measures contention, not scaling.
"""

from __future__ import annotations

import statistics
import time

from _util import emit, write_record
from repro.core.moves import enumerate_moves
from repro.core.objective import SkewVariationProblem
from repro.parallel import ParallelVerifier, WorkerPool, publish_replica_arena
from repro.parallel.pool import effective_cpu_count
from repro.testcases.cls1 import build_cls1


def _respawn_to_ready_s(problem, tree, reps: int) -> float:
    """Median crash -> respawned-worker-serving time.

    The clock covers spawn through the first answered request, so it
    includes everything a fresh worker does before it is useful: compile
    and propagate its replica.
    """
    spec = publish_replica_arena(problem, tree)
    with WorkerPool(1, state=spec) as pool:
        times = []
        for _ in range(reps):
            pool._mark_dead(pool._workers[0])
            t0 = time.perf_counter()
            pool._spawn_missing()
            worker = pool._workers[-1]
            worker.conn.send(("ping",))
            pool._recv(worker)
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _serial_verdict(problem, tree, move):
    result = problem.evaluate_move(tree, move)
    return (
        result.total_variation,
        result.skews.degraded_local_skew(problem.baseline.skews, tol_ps=0.5),
    )


def _run(workers: int, schedule, respawn_reps: int):
    """One cold epoch plus the respawn measurement."""
    design = build_cls1(1)
    problem = SkewVariationProblem.create(design)
    tree = design.tree.clone()
    problem.evaluate(tree)
    moves = enumerate_moves(tree, design.library)
    batches = [
        [moves[(step * 7 + j) % len(moves)] for j in range(size)]
        for step, size in enumerate(schedule)
    ]

    t0 = time.perf_counter()
    verifier = ParallelVerifier(problem, tree, workers=workers)
    verdicts = []
    for step, batch in enumerate(batches):
        if step == len(batches) // 2:
            # Arm one worker to die with its next task in flight; the
            # scheduler must requeue it to a survivor.
            verifier._pool.crash_worker_after(0, 0)
        verdicts.append(verifier.verify_batch(tree, batch))
    epoch_s = time.perf_counter() - t0
    stats = verifier.stats_dict()
    verifier.close()

    serial = [[_serial_verdict(problem, tree, move) for move in batch] for batch in batches]
    respawn_s = _respawn_to_ready_s(problem, tree, respawn_reps)
    cpus = effective_cpu_count()
    return {
        "design": design.name,
        "corners": [c.name for c in design.library.corners],
        "cpus": cpus,
        "workers": workers,
        "oversubscribed": workers > cpus,
        "schedule": list(schedule),
        "epoch_s": round(epoch_s, 4),
        "respawn_reps": respawn_reps,
        "respawn_s": round(respawn_s, 4),
        "verdicts_identical": verdicts == serial,
        "serial_fallbacks": stats["serial_fallbacks"],
        "requeued": stats["requeued"],
        "stats": stats,
    }


def _report(tag, record):
    lines = [
        f"BENCH pool ({record['design']}): {record['workers']} workers on "
        f"{record['cpus']} CPU(s), schedule {record['schedule']}",
    ]
    if record["oversubscribed"]:
        lines.append("  (workers outnumber CPUs: contention measurement, not a scaling claim)")
    lines += [
        f"  epoch   : {record['epoch_s']:8.3f} s cold (bring-up + schedule + crash requeue)",
        f"  respawn : {record['respawn_s']:8.4f} s to ready "
        f"(median of {record['respawn_reps']})",
        f"  crash   : {record['requeued']} requeued, "
        f"{record['serial_fallbacks']} serial fallbacks "
        f"(verdicts identical to serial: {record['verdicts_identical']})",
    ]
    emit(tag, "\n".join(lines))


def _check(record):
    assert record["verdicts_identical"], record
    assert record["serial_fallbacks"] == 0, record
    assert record["requeued"] > 0, record


def _write(tag, record):
    _report(tag, record)
    write_record(tag, record)
    _check(record)


def test_bench_pool_cls1():
    """Verdicts equal to serial through a crash; epoch and respawn times."""
    record = _run(workers=4, schedule=(2, 1, 2, 1, 2, 8, 2, 1), respawn_reps=5)
    _write("BENCH_pool", record)


def test_bench_pool_smoke():
    """CI smoke: same contract on a short schedule (compare_bench gates)."""
    record = _run(workers=4, schedule=(1, 2, 4), respawn_reps=3)
    _write("BENCH_pool_smoke", record)
