"""Bench: Algorithm-2 cost per committed iteration.

Runs the local optimizer with the analytical predictor for a fixed number
of iterations and writes ``results/BENCH_localopt.json``:

* ``iteration_cost_ratio`` — the run's seconds per committed iteration
  (enumerate, featurize, predict, score, trials and commits) over the
  seconds of a fixed pure-Python reference loop timed just before it in
  the same round, the median of the rounds' ratios; gated by
  ``compare_bench.py``'s relative ``_cost_ratio`` rule.  Host speed
  drifts by tens of percent on a shared machine, and it moves both legs
  of a round alike, so the ratio follows the code, where the absolute
  time follows the host;
* ``ms_per_iteration`` and ``reference_ms`` — the two legs' medians in
  milliseconds (not gated);
* the per-stage seconds, candidate-pipeline cache counters, engine
  counters, the cyclic garbage collections and the minor page faults of
  the run (``pipeline_stats``, the run's ``LocalOptResult.stats``);
* ``trajectory_identical`` — the same flow run once more with the scalar
  oracles swapped in (``tests.oracles.use_scalar_features``: per-move
  featurization and scoring, per-pair Eq. (1)-(3) verdicts) commits the
  same moves with the same floats.

The flow runs ``ROUNDS`` times on CLS1v1 and ``SMOKE_ROUNDS`` times on
MINI (``-k smoke``, for CI); a sub-second leg is timed as the best of a
few back-to-back runs (``_util.best_of``).
"""

from __future__ import annotations

import statistics
import time

import pytest
from _util import best_of, emit, median_ms, reference_loop, write_record
from repro.core.local_opt import LocalOptConfig, LocalOptimizer
from repro.core.ml.training import train_predictor
from repro.core.objective import SkewVariationProblem
from repro.testcases.cls1 import build_cls1
from repro.testcases.mini import build_mini
from tests.oracles import use_scalar_features

#: Timed runs of the flow, full and smoke.
ROUNDS = 3
SMOKE_ROUNDS = 5


def _run_once(build, max_iterations, scalar=False):
    """``(design, outcome, seconds)`` of one run on a fresh design + engine."""
    with pytest.MonkeyPatch.context() as patch:
        if scalar:
            use_scalar_features(patch)
        design = build()
        problem = SkewVariationProblem.create(design)
        predictor = train_predictor(design.library, [], "full_rsmt_d2m")
        optimizer = LocalOptimizer(
            problem,
            predictor,
            LocalOptConfig(
                max_iterations=max_iterations,
                max_batches_per_iteration=8,
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


def _measure(build, max_iterations, rounds):
    first = None
    timed = []
    for _ in range(rounds):

        def once():
            design, outcome, elapsed = _run_once(build, max_iterations)
            return (design, outcome), elapsed

        _, reference_s = best_of(reference_loop)
        out, elapsed = best_of(once)
        first = first or out
        iters = max(len(out[1].history), 1)
        timed.append({"flow": elapsed / iters, "reference": reference_s})
    design, outcome = first
    _, oracle, oracle_s = _run_once(build, max_iterations, scalar=True)
    identical = (
        _trajectory(outcome) == _trajectory(oracle)
        and outcome.final_objective_ps == oracle.final_objective_ps
    )
    iters = max(len(outcome.history), 1)
    ms_per_iteration = median_ms(timed, "flow")
    return {
        "design": design.name,
        "corners": [c.name for c in design.library.corners],
        "iterations": len(outcome.history),
        "rounds": rounds,
        "pipeline_s": round(ms_per_iteration * iters / 1000.0, 4),
        "ms_per_iteration": ms_per_iteration,
        "reference_ms": median_ms(timed, "reference"),
        "iteration_cost_ratio": round(
            statistics.median(r["flow"] / r["reference"] for r in timed), 3
        ),
        "oracle_s": round(oracle_s, 4),
        "trajectory_identical": identical,
        "initial_objective_ps": round(outcome.initial_objective_ps, 6),
        "final_objective_ps": round(outcome.final_objective_ps, 6),
        "pipeline_stats": outcome.stats,
    }


def _report(tag, record):
    stats = record["pipeline_stats"]
    stage = stats["stage"]["seconds"]
    cache = stats["pipeline"]
    gc_stats = stats["gc"]
    lines = [
        f"BENCH localopt ({record['design']}): "
        f"{record['iterations']} committed iterations",
        f"  pipeline : {record['pipeline_s']:8.3f} s "
        f"({record['ms_per_iteration']:.1f} ms/iter, median of "
        f"{record['rounds']} rounds)",
        f"  cost     : {record['iteration_cost_ratio']:8.3f} reference loops "
        f"per iteration (loop {record['reference_ms']:.1f} ms, median of "
        "the rounds' ratios)",
        f"  oracles  : {record['oracle_s']:8.3f} s "
        f"(trajectory identical: {record['trajectory_identical']})",
        "  stages   : "
        + ", ".join(f"{k}={v:.3f}s" for k, v in sorted(stage.items())),
        f"  caches   : move {cache['move_hits']}/{cache['move_misses']} "
        f"hit/miss, wire {cache['kernel']['wire_hits']}/"
        f"{cache['kernel']['wire_misses']}",
        "  gc       : "
        + ", ".join(f"{k}={v}" for k, v in gc_stats["collections"].items())
        + f" collections, {gc_stats['pause_s']:.3f} s paused",
        f"  faults   : {stats.get('minor_faults', 'n/a')} minor page faults",
    ]
    emit(tag, "\n".join(lines))


def test_bench_localopt_perf_cls1():
    """CLS1v1, 10 iterations: cost per iteration, oracle-identical run."""
    record = _measure(lambda: build_cls1(1), max_iterations=10, rounds=ROUNDS)
    _report("BENCH_localopt", record)
    write_record("BENCH_localopt", record)
    assert record["trajectory_identical"], record
    assert record["iterations"] > 0, record
    # Cross-iteration reuse is the point: cached moves must actually be
    # served after the first iteration.
    assert record["pipeline_stats"]["pipeline"]["move_hits"] > 0, record


def test_bench_localopt_perf_smoke():
    """MINI-scale smoke (CI): the same record on a 4-iteration run."""
    record = _measure(build_mini, max_iterations=4, rounds=SMOKE_ROUNDS)
    _report("BENCH_localopt_smoke", record)
    write_record("BENCH_localopt_smoke", record)
    assert record["trajectory_identical"], record
    assert record["iterations"] > 0, record
