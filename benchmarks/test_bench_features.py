"""Bench: array-backed feature kernel vs scalar reference featurization.

The candidate pipeline's featurize + score stages dominated each
Algorithm-2 iteration even after move-level caching: every cache miss
walked ``plan_net``/``time_net`` per move x route model x corner, and
every candidate was scored through the per-pair python loop.  The
``FeatureKernel`` compiles miss batches into structure-of-array plans and
evaluates all estimator variants for all corners in broadcast numpy,
and ``batched_variation_reductions`` vectorizes the scorer.

Runs the same optimization with the scalar oracles swapped in for the
kernel (``tests.oracles.use_scalar_features``: per-move
``compute_move_components`` and ``predicted_variation_reduction``, and
the per-pair Eq. (1)-(3) verdicts) and on the kernel, checks the
committed-move trajectories are byte-identical, and writes
``results/BENCH_features.json`` with the featurize+score stage times and
kernel counters.  Asserts the tentpole target: **>= 5x** on the
featurize+score stages on CLS1v1.  A MINI smoke variant (``-k smoke``)
runs in seconds for CI, and one pooled run checks the kernel composes
with the 4-worker verification pool.

A round runs the reference leg and then the kernel leg back to back, so
drift in host speed hits both sides of a ratio alike; a sub-second leg
runs as a few back-to-back flows (``_util.best_of``) and keeps the
fastest featurize+score and end-to-end times among them.  Times are
medians of the rounds (three full, five smoke) and each speedup is the
median of the rounds' ratios.
"""

from __future__ import annotations

import statistics
import time

import pytest
from _util import best_of, emit, median_speedup, write_record
from repro.core.local_opt import LocalOptConfig, LocalOptimizer
from repro.core.ml.training import train_predictor
from repro.core.objective import SkewVariationProblem
from repro.testcases.cls1 import build_cls1
from repro.testcases.mini import build_mini
from tests.oracles import use_scalar_features


def _run_once(build, max_iterations, workers=1, scalar=False):
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
    with pytest.MonkeyPatch.context() as patch:
        if scalar:
            use_scalar_features(patch)
        t0 = time.perf_counter()
        outcome = optimizer.run()
        elapsed = time.perf_counter() - t0
    return design, outcome, elapsed


def _trajectory(outcome):
    return [
        (h.move, h.predicted_reduction_ps, h.objective_after_ps)
        for h in outcome.history
    ]


def _stage_featurize_score(outcome):
    seconds = outcome.stats["stage"]["seconds"]
    return seconds.get("featurize", 0.0) + seconds.get("score", 0.0)


#: Paired rounds of the reference and kernel legs, full and smoke.
ROUNDS = 3
SMOKE_ROUNDS = 5


def _leg(build, max_iterations, scalar):
    """``(design, outcome, seconds, featurize+score seconds)`` of one
    leg: the first flow's outcome, the fastest times of its runs."""
    runs = []

    def once():
        design, outcome, elapsed = _run_once(build, max_iterations, scalar=scalar)
        runs.append((elapsed, _stage_featurize_score(outcome)))
        return (design, outcome), elapsed

    (design, outcome), elapsed = best_of(once)
    return design, outcome, elapsed, min(fs for _, fs in runs)


def _median_s(rounds, leg):
    return round(statistics.median(r[leg] for r in rounds), 4)


def _same_run(a, b):
    return _trajectory(a) == _trajectory(b) and a.final_objective_ps == b.final_objective_ps


def _run_comparison(build, max_iterations, rounds):
    timed = []
    identical = True
    for _ in range(rounds):
        _, reference, reference_s, reference_fs = _leg(build, max_iterations, True)
        design, kernel, kernel_s, kernel_fs = _leg(build, max_iterations, False)
        identical &= _same_run(kernel, reference)
        timed.append(
            {
                "ref": reference_s,
                "kernel": kernel_s,
                "ref_fs": reference_fs,
                "kernel_fs": kernel_fs,
            }
        )
    _, pooled, _ = _run_once(build, max_iterations, workers=4)
    pooled_identical = _same_run(kernel, pooled)
    record = {
        "design": design.name,
        "corners": [c.name for c in design.library.corners],
        "iterations": len(kernel.history),
        "rounds": rounds,
        "reference_s": _median_s(timed, "ref"),
        "kernel_s": _median_s(timed, "kernel"),
        "reference_featurize_score_s": _median_s(timed, "ref_fs"),
        "kernel_featurize_score_s": _median_s(timed, "kernel_fs"),
        "speedup": median_speedup(timed, "ref_fs", "kernel_fs"),
        "end_to_end_speedup": median_speedup(timed, "ref", "kernel"),
        "kernel_identical": identical,
        "pooled_identical": pooled_identical,
        "initial_objective_ps": round(kernel.initial_objective_ps, 6),
        "final_objective_ps": round(kernel.final_objective_ps, 6),
        # The kernel's counters, its route counters among them: routes
        # built, and the lockstep RSMT and trunk calls that built them.
        "kernel_stats": kernel.stats["pipeline"]["kernel"],
        "kernel_seconds": kernel.stats["pipeline"].get("kernel_seconds"),
        "reference_stage_s": reference.stats["stage"]["seconds"],
        "kernel_stage_s": kernel.stats["stage"]["seconds"],
    }
    return record


def _report(tag, record):
    counters = record["kernel_stats"] or {}
    lines = [
        f"BENCH features ({record['design']}): "
        f"{record['iterations']} committed iterations",
        f"  reference featurize+score : "
        f"{record['reference_featurize_score_s']:8.3f} s "
        f"(total {record['reference_s']:.3f} s)",
        f"  kernel    featurize+score : "
        f"{record['kernel_featurize_score_s']:8.3f} s "
        f"(total {record['kernel_s']:.3f} s)",
        f"  speedup  : {record['speedup']:.2f}x featurize+score, "
        f"{record['end_to_end_speedup']:.2f}x end-to-end "
        f"(medians of {record['rounds']} paired rounds)",
        f"  identical: serial {record['kernel_identical']}, "
        f"pooled {record['pooled_identical']}",
        "  kernel   : "
        + ", ".join(f"{k}={v}" for k, v in sorted(counters.items())),
    ]
    emit(tag, "\n".join(lines))


def test_bench_features_cls1():
    """Tentpole acceptance: >= 5x featurize+score on CLS1v1."""
    record = _run_comparison(lambda: build_cls1(1), max_iterations=10, rounds=ROUNDS)
    _report("BENCH_features", record)
    write_record("BENCH_features", record)
    assert record["kernel_identical"], record
    assert record["pooled_identical"], record
    assert record["iterations"] > 0, record
    assert record["speedup"] >= 5.0, record
    # The kernel must actually be serving the batches (not falling back).
    assert record["kernel_stats"]["kernel_moves"] > 0, record


def test_bench_features_smoke():
    """MINI-scale smoke (CI): identical trajectories, modest floor."""
    record = _run_comparison(build_mini, max_iterations=4, rounds=SMOKE_ROUNDS)
    _report("BENCH_features_smoke", record)
    write_record("BENCH_features_smoke", record)
    assert record["kernel_identical"], record
    assert record["pooled_identical"], record
    # MINI batches are tiny, so array overheads eat most of the win; the
    # floor only guards against the kernel regressing below parity.
    assert record["speedup"] >= 1.2, record
