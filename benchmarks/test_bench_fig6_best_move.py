"""Figure 6: best-move identification — learned vs analytical models.

For a population of buffers, each with its Table-2 candidate move set,
every model ranks the candidates by predicted objective reduction.  An
"attempt" is one golden ECO evaluation taken in rank order; a buffer
counts as solved at attempt k if its true best move (per the golden
timer) appears in the model's top-k.

Paper shape: with one attempt the learning-based model identifies the
best move for ~40% of buffers versus up to ~20% for the analytical
models, and stays ahead as attempts grow.
"""

from __future__ import annotations

import numpy as np
from _util import emit

from repro.analysis.report import render_table
from repro.core.local_opt import batched_variation_reductions
from repro.core.ml.dataset import generate_dataset
from repro.core.ml.pipeline import CandidatePipeline
from repro.core.ml.training import train_predictor
from repro.core.moves import apply_move, enumerate_moves

MAX_ATTEMPTS = 5
MODEL_KINDS = ("hsm", "rsmt_elmore", "rsmt_d2m", "trunk_elmore", "trunk_d2m")


def _actual_reduction(problem, tree, result, move):
    trial = tree.clone()
    apply_move(trial, problem.design.legalizer, problem.design.library, move)
    outcome = problem.evaluate(trial)
    return result.total_variation - outcome.total_variation


def test_fig6_best_move_identification(benchmark, mini):
    design, problem = mini
    library = design.library
    tree = design.tree
    result = problem.baseline

    samples = generate_dataset(library, n_cases=48, moves_per_case=14, seed=606)
    predictors = {
        kind: train_predictor(
            library, samples if kind == "hsm" else [], kind
        )
        for kind in MODEL_KINDS
    }

    buffers = sorted(tree.buffers())
    solved_at = {kind: np.zeros(MAX_ATTEMPTS) for kind in MODEL_KINDS}
    evaluated_buffers = 0
    # The tree never changes, so one pipeline serves every buffer; each
    # buffer's moves are one batch, as a ranking iteration would see.
    pipeline = CandidatePipeline(library)

    for buffer in buffers:
        moves = enumerate_moves(tree, library, buffers=[buffer])
        if len(moves) < 4:
            continue
        evaluated_buffers += 1
        batch = pipeline.featurize(tree, result.per_corner, moves)
        actual = [_actual_reduction(problem, tree, result, m) for m in moves]
        best_index = int(np.argmax(actual))
        for kind, predictor in predictors.items():
            scores = batched_variation_reductions(
                problem, tree, result, batch.components,
                predictor.predict_matrix(batch),
            )
            ranking = list(np.argsort(scores)[::-1])
            rank_of_best = ranking.index(best_index)
            for attempt in range(MAX_ATTEMPTS):
                if rank_of_best <= attempt:
                    solved_at[kind][attempt] += 1

    assert evaluated_buffers >= 10
    rows = []
    series = []
    for kind in MODEL_KINDS:
        fractions = solved_at[kind] / evaluated_buffers
        rows.append([kind, *[f"{f * 100:.0f}%" for f in fractions]])
        series.append((fractions[0], fractions[-1]))

    emit(
        "fig6_best_move",
        render_table(
            f"Figure 6: buffers whose best move is found within k attempts "
            f"(n={evaluated_buffers} buffers)",
            ["model", *[f"k={k}" for k in range(1, MAX_ATTEMPTS + 1)]],
            rows,
        ),
    )

    # Shape: the learned model leads (or ties within noise) every
    # analytical model at one attempt.  Allow a one-buffer margin so a
    # single coin-flip tie cannot fail the reproduction.
    learned_first = solved_at["hsm"][0]
    for kind in MODEL_KINDS[1:]:
        assert learned_first >= solved_at[kind][0] - 1.0, (
            f"{kind} beat the learned model at one attempt"
        )

    moves = enumerate_moves(tree, library, buffers=[buffers[0]])
    benchmark(
        lambda: CandidatePipeline(library).featurize(tree, result.per_corner, moves)
    )
