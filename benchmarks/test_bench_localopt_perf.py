"""Bench: Algorithm-2 iteration throughput, batched pipeline vs legacy.

The candidate-ranking stage (enumerate + featurize + predict + score)
dominated each local-opt iteration: every iteration re-extracted features
for every candidate move from scratch.  The incremental pipeline caches
move featurizations across iterations (invalidating only the committed
move's dirty frontier), shares analytical net evaluations under value
keys, and assembles/infers per corner in single vectorized calls.

Runs the same optimization twice — with the bench-local
``_LegacyLocalOptimizer`` (the pre-pipeline per-move ranking) and with
the production ranking — checks the committed-move trajectories are
identical, and writes ``results/BENCH_localopt.json`` with wall times,
per-stage timers and cache counters.  Asserts the tentpole target:
**>= 5x** end-to-end iteration throughput on CLS1v1.  A MINI smoke
variant (`-k smoke`) runs in seconds for CI.
"""

from __future__ import annotations

import time

from _util import emit, write_record
from repro.core.local_opt import (
    LocalOptConfig,
    LocalOptimizer,
    predicted_variation_reduction,
)
from repro.core.ml.features import compute_move_components
from repro.core.ml.pipeline import FeatureBatch
from repro.core.ml.training import train_predictor
from repro.core.moves import enumerate_moves
from repro.core.objective import SkewVariationProblem
from repro.testcases.cls1 import build_cls1
from repro.testcases.mini import build_mini


class _LegacyLocalOptimizer(LocalOptimizer):
    """Algorithm 2 with the pre-pipeline ranking.

    Every iteration featurizes each move from scratch with the scalar
    featurizer (``compute_move_components``, uncached), predicts the
    assembled batch with ``predict_matrix`` and scores each move with the
    scalar ``predicted_variation_reduction``; the pipeline the run passes
    in goes unused.
    """

    def _rank_moves(self, tree, result, pipeline, timers):
        cfg = self._config
        problem = self._problem
        library = problem.design.library
        buffers = self._select_buffers(tree, result)
        with timers.stage("enumerate"):
            moves = enumerate_moves(
                tree,
                library,
                buffers=buffers,
                surgery_window_um=cfg.surgery_window_um,
            )
        if not moves:
            return []
        names = [c.name for c in library.corners]
        with timers.stage("featurize"):
            features = [
                compute_move_components(tree, library, result.per_corner, move)
                for move in moves
            ]
            batch = FeatureBatch.assemble(features, names)
        with timers.stage("predict"):
            predictions = self._predictor.predict_matrix(batch)
        ranked = []
        with timers.stage("score"):
            for feats, row in zip(features, predictions):
                reduction = predicted_variation_reduction(
                    problem, tree, result, feats, dict(zip(names, row.tolist()))
                )
                if reduction > cfg.min_predicted_reduction_ps:
                    ranked.append((reduction, feats))
            ranked.sort(key=lambda item: -item[0])
        return ranked


def _run_once(build, optimizer_cls, max_iterations):
    """One full Algorithm-2 run on a fresh design + engine."""
    design = build()
    problem = SkewVariationProblem.create(design)
    predictor = train_predictor(design.library, [], "full_rsmt_d2m")
    optimizer = optimizer_cls(
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


def _run_comparison(build, max_iterations):
    design, batched, batched_s = _run_once(build, LocalOptimizer, max_iterations)
    _, legacy, legacy_s = _run_once(build, _LegacyLocalOptimizer, max_iterations)

    identical = (
        _trajectory(batched) == _trajectory(legacy)
        and batched.final_objective_ps == legacy.final_objective_ps
    )
    iters = max(len(batched.history), 1)
    record = {
        "design": design.name,
        "corners": [c.name for c in design.library.corners],
        "iterations": len(batched.history),
        "legacy_s": round(legacy_s, 4),
        "pipeline_s": round(batched_s, 4),
        "legacy_s_per_iter": round(legacy_s / iters, 4),
        "pipeline_s_per_iter": round(batched_s / iters, 4),
        "speedup": round(legacy_s / batched_s, 2),
        "trajectory_identical": identical,
        "initial_objective_ps": round(batched.initial_objective_ps, 6),
        "final_objective_ps": round(batched.final_objective_ps, 6),
        "pipeline_stats": batched.stats,
        "legacy_stats": legacy.stats,
    }
    return record


def _report(tag, record):
    stage = record["pipeline_stats"]["stage"]["seconds"]
    cache = record["pipeline_stats"]["pipeline"]
    lines = [
        f"BENCH localopt ({record['design']}): "
        f"{record['iterations']} committed iterations",
        f"  legacy   : {record['legacy_s']:8.3f} s "
        f"({record['legacy_s_per_iter']:.3f} s/iter)",
        f"  pipeline : {record['pipeline_s']:8.3f} s "
        f"({record['pipeline_s_per_iter']:.3f} s/iter)",
        f"  speedup  : {record['speedup']:.2f}x "
        f"(trajectory identical: {record['trajectory_identical']})",
        "  stages   : "
        + ", ".join(f"{k}={v:.3f}s" for k, v in sorted(stage.items())),
        f"  caches   : move {cache['move_hits']}/{cache['move_misses']} "
        f"hit/miss, plan {cache['plan_hits']}/{cache['plan_misses']}, "
        f"time {cache['time_hits']}/{cache['time_misses']}",
    ]
    emit(tag, "\n".join(lines))


def test_bench_localopt_perf_cls1():
    """Tentpole acceptance: >= 5x iteration throughput on CLS1v1."""
    record = _run_comparison(lambda: build_cls1(1), max_iterations=10)
    _report("BENCH_localopt", record)
    write_record("BENCH_localopt", record)
    assert record["trajectory_identical"], record
    assert record["iterations"] > 0, record
    assert record["speedup"] >= 5.0, record
    # Cross-iteration reuse is the point: cached moves must actually be
    # served after the first iteration.
    assert record["pipeline_stats"]["pipeline"]["move_hits"] > 0, record


def test_bench_localopt_perf_smoke():
    """MINI-scale smoke (CI): identical trajectories, modest floor."""
    record = _run_comparison(build_mini, max_iterations=4)
    _report("BENCH_localopt_smoke", record)
    write_record("BENCH_localopt_smoke", record)
    assert record["trajectory_identical"], record
    # MINI's move pool is tiny, so the relative win is smaller; the
    # floor only guards against the pipeline regressing below parity.
    assert record["speedup"] >= 1.2, record
