"""Bench: array-backed feature kernel vs scalar reference featurization.

The candidate pipeline's featurize + score stages dominated each
Algorithm-2 iteration even after move-level caching: every cache miss
walked ``plan_net``/``time_net`` per move x route model x corner, and
every candidate was scored through the per-pair python loop.  The
``FeatureKernel`` compiles miss batches into structure-of-array plans and
evaluates all estimator variants for all corners in broadcast numpy,
and ``batched_variation_reductions`` vectorizes the scorer.

Runs the same optimization twice — once with the scalar oracles swapped
in for the kernel (per-move ``compute_move_components`` and
``predicted_variation_reduction``) and once on the kernel — checks the
committed-move trajectories are byte-identical, and writes
``results/BENCH_features.json`` with the featurize+score stage times and
kernel counters.  Asserts the tentpole target: **>= 5x** on the
featurize+score stages on CLS1v1.  A MINI smoke variant (``-k smoke``)
runs in seconds for CI, and a pooled variant checks the kernel composes
with the 4-worker verification pool.
"""

from __future__ import annotations

import time

import pytest
from _util import emit, write_record
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


def _run_comparison(build, max_iterations):
    design, kernel, kernel_s = _run_once(build, max_iterations)
    _, reference, reference_s = _run_once(build, max_iterations, scalar=True)
    _, pooled, _ = _run_once(build, max_iterations, workers=4)

    identical = (
        _trajectory(kernel) == _trajectory(reference)
        and kernel.final_objective_ps == reference.final_objective_ps
    )
    pooled_identical = (
        _trajectory(kernel) == _trajectory(pooled)
        and kernel.final_objective_ps == pooled.final_objective_ps
    )
    kernel_fs = _stage_featurize_score(kernel)
    reference_fs = _stage_featurize_score(reference)
    record = {
        "design": design.name,
        "corners": [c.name for c in design.library.corners],
        "iterations": len(kernel.history),
        "reference_s": round(reference_s, 4),
        "kernel_s": round(kernel_s, 4),
        "reference_featurize_score_s": round(reference_fs, 4),
        "kernel_featurize_score_s": round(kernel_fs, 4),
        "speedup": round(reference_fs / max(kernel_fs, 1e-9), 2),
        "end_to_end_speedup": round(reference_s / max(kernel_s, 1e-9), 2),
        "kernel_identical": identical,
        "pooled_identical": pooled_identical,
        "initial_objective_ps": round(kernel.initial_objective_ps, 6),
        "final_objective_ps": round(kernel.final_objective_ps, 6),
        # The kernel's counters, with the analytical cache's route
        # counters: routes built, and lockstep RSMT calls that built them.
        "kernel_stats": {
            **kernel.stats["pipeline"]["kernel"],
            **{
                key: kernel.stats["pipeline"][key]
                for key in ("route_hits", "route_misses", "rsmt_batches")
            },
        },
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
        f"{record['end_to_end_speedup']:.2f}x end-to-end",
        f"  identical: serial {record['kernel_identical']}, "
        f"pooled {record['pooled_identical']}",
        "  kernel   : "
        + ", ".join(f"{k}={v}" for k, v in sorted(counters.items())),
    ]
    emit(tag, "\n".join(lines))


def test_bench_features_cls1():
    """Tentpole acceptance: >= 5x featurize+score on CLS1v1."""
    record = _run_comparison(lambda: build_cls1(1), max_iterations=10)
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
    record = _run_comparison(build_mini, max_iterations=4)
    _report("BENCH_features_smoke", record)
    write_record("BENCH_features_smoke", record)
    assert record["kernel_identical"], record
    assert record["pooled_identical"], record
    # MINI batches are tiny, so array overheads eat most of the win; the
    # floor only guards against the kernel regressing below parity.
    assert record["speedup"] >= 1.2, record
