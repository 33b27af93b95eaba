"""Continuous buffer-location model (paper future work, item (ii)).

The local optimizer's Table-2 moves displace buffers by a fixed 10 um in
eight directions.  The paper's future-work list asks for "models to
predict a buffer location for minimum skew over a continuous range of
possible buffer locations".  This module provides one: sample the
predicted objective on a small displacement grid, fit a quadratic
response surface, and solve for its minimizer in closed form.

The surface is fitted to *predicted* objective reductions (analytical or
learned predictor — no golden calls), so scoring a buffer costs a few
milliseconds; the returned location can then be verified with one golden
evaluation, exactly like any other local move.  The grid moves are
ranked the way Algorithm 2 ranks its candidates: one candidate-pipeline
batch, one ``predict_matrix`` call and one ``batched_variation_reductions``
call, which reads the moves' side-effect rows (no per-move impact).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.local_opt import batched_variation_reductions
from repro.core.ml.pipeline import CandidatePipeline
from repro.core.ml.training import DeltaLatencyPredictor
from repro.core.moves import Move, MoveType, apply_move
from repro.core.objective import SkewVariationProblem
from repro.netlist.tree import ClockTree
from repro.sta.timer import TimingResult


@dataclass(frozen=True)
class LocationModel:
    """Fitted quadratic response surface for one buffer's location.

    ``coefficients`` are (a, bx, by, cxx, cyy, cxy) of
    ``reduction(dx, dy) = a + bx dx + by dy + cxx dx^2 + cyy dy^2 + cxy dx dy``.
    """

    buffer: int
    radius_um: float
    coefficients: Tuple[float, float, float, float, float, float]
    optimal_offset: Tuple[float, float]
    predicted_reduction_ps: float

    def predict(self, dx: float, dy: float) -> float:
        """Predicted objective reduction (ps) at offset ``(dx, dy)``."""
        a, bx, by, cxx, cyy, cxy = self.coefficients
        return a + bx * dx + by * dy + cxx * dx * dx + cyy * dy * dy + cxy * dx * dy


def _solve_quadratic_max(
    coefficients: Tuple[float, ...], radius: float
) -> Tuple[float, float]:
    """Stationary point of the surface, clamped into the sampling square.

    When the surface is not concave (no interior maximum), falls back to
    the best corner/edge of the square evaluated on a fine grid.
    """
    a, bx, by, cxx, cyy, cxy = coefficients
    hessian = np.array([[2 * cxx, cxy], [cxy, 2 * cyy]])
    grad0 = np.array([bx, by])
    eigenvalues = np.linalg.eigvalsh(hessian)
    if np.all(eigenvalues < -1e-12):
        stationary = np.linalg.solve(hessian, -grad0)
        if np.all(np.abs(stationary) <= radius):
            return float(stationary[0]), float(stationary[1])
    # Non-concave or exterior optimum: dense evaluation on the boundary
    # square plus the interior grid (cheap: pure polynomial).
    grid = np.linspace(-radius, radius, 21)
    best = (0.0, 0.0)
    best_val = -np.inf
    for dx in grid:
        for dy in grid:
            val = (
                a + bx * dx + by * dy + cxx * dx * dx + cyy * dy * dy + cxy * dx * dy
            )
            if val > best_val:
                best_val = val
                best = (float(dx), float(dy))
    return best


def _grid_reductions(
    problem: SkewVariationProblem,
    tree: ClockTree,
    result: TimingResult,
    predictor: DeltaLatencyPredictor,
    moves: Sequence[Move],
) -> np.ndarray:
    """Predicted objective reduction (ps) of each grid move, in one batch.

    A fresh pipeline per call: it costs a fraction of a millisecond to
    build, and nothing it caches can go stale between calls.
    """
    batch = CandidatePipeline(problem.design.library).featurize(
        tree, result.per_corner, moves
    )
    return batched_variation_reductions(
        problem, tree, result, batch.components, predictor.predict_matrix(batch)
    )


def fit_location_model(
    problem: SkewVariationProblem,
    tree: ClockTree,
    result: TimingResult,
    predictor: DeltaLatencyPredictor,
    buffer: int,
    radius_um: float = 20.0,
    grid: int = 3,
) -> LocationModel:
    """Fit the response surface for one buffer.

    ``grid`` x ``grid`` displacement samples spanning ``+-radius_um`` are
    scored with the predictor (the zero offset scores 0 by definition);
    the six quadratic coefficients come from least squares.
    """
    if grid < 3:
        raise ValueError("need at least a 3x3 sampling grid")
    offsets = np.linspace(-radius_um, radius_um, grid).tolist()
    points = [(dx, dy) for dx in offsets for dy in offsets]
    moved = np.array([dx != 0.0 or dy != 0.0 for dx, dy in points])
    moves = [
        Move(type=MoveType.SIZING_DISPLACE, buffer=buffer, dx=dx, dy=dy, size_step=0)
        for (dx, dy), is_moved in zip(points, moved)
        if is_moved
    ]
    values = np.zeros(len(points))
    values[moved] = _grid_reductions(problem, tree, result, predictor, moves)
    rows = [[1.0, dx, dy, dx * dx, dy * dy, dx * dy] for dx, dy in points]

    coeffs, *_ = np.linalg.lstsq(np.asarray(rows), values, rcond=None)
    coefficients = tuple(float(c) for c in coeffs)
    optimum = _solve_quadratic_max(coefficients, radius_um)
    model = LocationModel(
        buffer=buffer,
        radius_um=radius_um,
        coefficients=coefficients,
        optimal_offset=optimum,
        predicted_reduction_ps=0.0,
    )
    predicted = model.predict(*optimum)
    return LocationModel(
        buffer=buffer,
        radius_um=radius_um,
        coefficients=coefficients,
        optimal_offset=optimum,
        predicted_reduction_ps=float(predicted),
    )


def _model_move(model: LocationModel) -> Move:
    dx, dy = model.optimal_offset
    return Move(
        type=MoveType.SIZING_DISPLACE,
        buffer=model.buffer,
        dx=dx,
        dy=dy,
        size_step=0,
    )


def apply_location_model(
    problem: SkewVariationProblem,
    tree: ClockTree,
    model: LocationModel,
) -> Tuple[ClockTree, TimingResult]:
    """Move the buffer to the model's optimum (on a clone) and time it.

    The timing comes from the incremental engine's trial evaluation of
    ``tree`` (golden-accurate, move-cone cost); the clone only
    materializes the moved state for the caller.
    """
    move = _model_move(model)
    result = problem.evaluate_move(tree, move)
    trial = tree.clone()
    apply_move(trial, problem.design.legalizer, problem.design.library, move)
    return trial, result


def refine_buffers(
    problem: SkewVariationProblem,
    tree: ClockTree,
    predictor: DeltaLatencyPredictor,
    buffers: Optional[List[int]] = None,
    radius_um: float = 20.0,
    min_predicted_ps: float = 0.5,
) -> Tuple[ClockTree, List[LocationModel]]:
    """Greedy continuous-location refinement pass.

    Fits a surface per buffer, applies the most promising predicted
    optima one at a time, and keeps each only if the golden objective
    actually improves (the usual accept discipline).  Returns the final
    tree and the accepted models.
    """
    current = tree.clone()
    result = problem.evaluate(current)
    accepted: List[LocationModel] = []
    for buffer in buffers if buffers is not None else sorted(current.buffers()):
        model = fit_location_model(
            problem, current, result, predictor, buffer, radius_um
        )
        if model.predicted_reduction_ps < min_predicted_ps:
            continue
        move = _model_move(model)
        trial_result = problem.evaluate_move(current, move)
        if (
            trial_result.total_variation < result.total_variation
            and not trial_result.skews.degraded_local_skew(
                problem.baseline.skews, tol_ps=0.5
            )
        ):
            result = problem.commit_move(current, move)
            accepted.append(model)
    return current, accepted
