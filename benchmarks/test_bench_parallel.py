"""Bench: serial vs process-parallel top-R verification (Algorithm 2).

The trial stage golden-verifies the top-``R`` ranked candidates per
batch; with ``workers > 1`` the batch fans out to persistent worker
replicas (:mod:`repro.parallel`) while the reduce stays deterministic.
This bench runs the same CLS1v1 local optimization with ``workers=1``
and ``workers=4``, asserts the committed-move trajectories are
*identical* (the correctness contract), and writes
``results/BENCH_parallel.json`` with wall times, the trial-stage
speedup, and the pool's counters.

Wall-clock speedup needs real cores: the **>= 2x** acceptance floor is
asserted only when >= 4 CPUs are available (the CI runners), so the
bench stays honest on smaller machines instead of flaking.  When the
workers outnumber the CPUs the record says ``"oversubscribed": true``
and the report calls the result a contention measurement, not a
scaling claim.  A MINI smoke variant (``-k smoke``) runs in seconds and
additionally writes ``results/BENCH_parallel_smoke.json`` for the
regression gate.
"""

from __future__ import annotations

import time

from _util import emit, write_record
from repro.core.local_opt import LocalOptConfig, LocalOptimizer
from repro.core.ml.training import train_predictor
from repro.core.objective import SkewVariationProblem
from repro.parallel.pool import effective_cpu_count
from repro.testcases.cls1 import build_cls1
from repro.testcases.mini import build_mini


def _run_once(build, workers, max_iterations):
    design = build()
    problem = SkewVariationProblem.create(design)
    predictor = train_predictor(design.library, [], "full_rsmt_d2m")
    optimizer = LocalOptimizer(
        problem,
        predictor,
        LocalOptConfig(
            max_iterations=max_iterations,
            max_batches_per_iteration=8,
            workers=workers,
        ),
    )
    t0 = time.perf_counter()
    outcome = optimizer.run()
    elapsed = time.perf_counter() - t0
    return design, outcome, elapsed


def _trajectory(outcome):
    return [
        (h.move, h.predicted_reduction_ps, h.objective_after_ps)
        for h in outcome.history
    ]


def _run_comparison(build, workers, max_iterations):
    design, serial, serial_s = _run_once(build, 1, max_iterations)
    _, parallel, parallel_s = _run_once(build, workers, max_iterations)

    identical = (
        _trajectory(serial) == _trajectory(parallel)
        and serial.final_objective_ps == parallel.final_objective_ps
    )
    serial_trial = serial.stats["stage"]["seconds"].get("trial", 0.0)
    parallel_trial = parallel.stats["stage"]["seconds"].get("trial", 0.0)
    pool_stats = parallel.stats["parallel"]
    cpus = effective_cpu_count()
    record = {
        "design": design.name,
        "corners": [c.name for c in design.library.corners],
        "cpus": cpus,
        "workers": workers,
        "oversubscribed": workers > cpus,
        "iterations": len(parallel.history),
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 2),
        "serial_trial_s": round(serial_trial, 4),
        "parallel_trial_s": round(parallel_trial, 4),
        "trial_speedup": round(serial_trial / parallel_trial, 2)
        if parallel_trial > 0
        else 0.0,
        "trajectory_identical": identical,
        "initial_objective_ps": round(parallel.initial_objective_ps, 6),
        "final_objective_ps": round(parallel.final_objective_ps, 6),
        "pool_stats": pool_stats,
    }
    return record


def _report(tag, record):
    pool = record["pool_stats"]
    lines = [
        f"BENCH parallel ({record['design']}): "
        f"workers=1 vs workers={record['workers']} on "
        f"{record['cpus']} CPU(s), {record['iterations']} iterations",
    ]
    if record["oversubscribed"]:
        lines.append("  (workers outnumber CPUs: contention measurement, not a scaling claim)")
    lines += [
        f"  serial   : {record['serial_s']:8.3f} s "
        f"(trial stage {record['serial_trial_s']:.3f} s)",
        f"  parallel : {record['parallel_s']:8.3f} s "
        f"(trial stage {record['parallel_trial_s']:.3f} s)",
        f"  speedup  : {record['speedup']:.2f}x end-to-end, "
        f"{record['trial_speedup']:.2f}x trial stage "
        f"(trajectory identical: {record['trajectory_identical']})",
        f"  pool     : {pool['verify_batches']} batches, "
        f"{pool['verify_tasks']} tasks, {pool['steals']} steals, "
        f"{pool['crashes']} crashes, "
        f"{pool['serial_fallbacks']} serial fallbacks, "
        f"concurrency {pool['verify_speedup']:.2f}",
    ]
    emit(tag, "\n".join(lines))


def test_bench_parallel_cls1():
    """Tentpole acceptance: identical trajectory; >= 2x with >= 4 CPUs."""
    record = _run_comparison(lambda: build_cls1(1), workers=4, max_iterations=10)
    _report("BENCH_parallel", record)
    write_record("BENCH_parallel", record)
    assert record["trajectory_identical"], record
    assert record["iterations"] > 0, record
    assert record["pool_stats"]["serial_fallbacks"] == 0, record
    if record["cpus"] >= 4:
        # The acceptance floor: the trial stage is what the pool
        # parallelizes, so that is where the 2x must show up.
        assert record["trial_speedup"] >= 2.0, record


def test_bench_parallel_smoke():
    """MINI-scale smoke (CI): identical trajectories, pool engaged."""
    record = _run_comparison(build_mini, workers=2, max_iterations=4)
    _report("BENCH_parallel_smoke", record)
    write_record("BENCH_parallel_smoke", record)
    assert record["trajectory_identical"], record
    assert record["pool_stats"]["verify_batches"] > 0, record
    assert record["pool_stats"]["crashes"] == 0, record
