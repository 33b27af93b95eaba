"""Continuous buffer-location model (future-work item (ii))."""

import pytest

from repro.core.ml.training import train_predictor
from repro.core.objective import SkewVariationProblem
from repro.core.placement_model import (
    LocationModel,
    _solve_quadratic_max,
    apply_location_model,
    fit_location_model,
    refine_buffers,
)
from repro.testcases.cls1 import build_cls1
from tests.oracles import use_per_move_location_fit


@pytest.fixture(scope="module")
def predictor(library_cls1):
    return train_predictor(library_cls1, [], "full_rsmt_d2m")


class TestQuadraticSolve:
    def test_concave_interior_maximum(self):
        # f = -(dx-3)^2 - (dy+2)^2 -> max at (3, -2).
        coeffs = (-13.0, 6.0, -4.0, -1.0, -1.0, 0.0)
        dx, dy = _solve_quadratic_max(coeffs, radius=10.0)
        assert dx == pytest.approx(3.0)
        assert dy == pytest.approx(-2.0)

    def test_convex_falls_back_to_boundary(self):
        # f = dx^2 + dy^2: maximum on the square boundary corners.
        coeffs = (0.0, 0.0, 0.0, 1.0, 1.0, 0.0)
        dx, dy = _solve_quadratic_max(coeffs, radius=5.0)
        assert abs(dx) == pytest.approx(5.0)
        assert abs(dy) == pytest.approx(5.0)

    def test_interior_optimum_outside_range_clamped(self):
        # Concave with stationary point far outside the square.
        coeffs = (0.0, 100.0, 0.0, -0.1, -0.1, 0.0)
        dx, dy = _solve_quadratic_max(coeffs, radius=5.0)
        assert dx == pytest.approx(5.0)


class TestLocationModel:
    def test_predict_matches_coefficients(self):
        model = LocationModel(
            buffer=1,
            radius_um=10.0,
            coefficients=(1.0, 0.5, -0.5, 0.0, 0.0, 0.0),
            optimal_offset=(0.0, 0.0),
            predicted_reduction_ps=1.0,
        )
        assert model.predict(2.0, 2.0) == pytest.approx(1.0 + 1.0 - 1.0)

    def test_fit_produces_bounded_optimum(self, mini_problem, predictor):
        tree = mini_problem.design.tree
        result = mini_problem.baseline
        buffer = sorted(tree.buffers())[0]
        model = fit_location_model(
            mini_problem, tree, result, predictor, buffer, radius_um=15.0
        )
        dx, dy = model.optimal_offset
        assert abs(dx) <= 15.0 and abs(dy) <= 15.0

    def test_small_grid_rejected(self, mini_problem, predictor):
        tree = mini_problem.design.tree
        with pytest.raises(ValueError):
            fit_location_model(
                mini_problem,
                tree,
                mini_problem.baseline,
                predictor,
                tree.buffers()[0],
                grid=2,
            )

    def test_apply_returns_clone(self, mini_problem, predictor):
        tree = mini_problem.design.tree
        buffer = sorted(tree.buffers())[0]
        model = fit_location_model(
            mini_problem, tree, mini_problem.baseline, predictor, buffer
        )
        trial, timing = apply_location_model(mini_problem, tree, model)
        assert trial is not tree
        assert timing.total_variation > 0.0


@pytest.mark.slow
class TestRefinement:
    def test_refinement_never_worsens(self, mini_problem, predictor):
        tree = mini_problem.design.tree
        buffers = sorted(tree.buffers())[:6]
        refined, accepted = refine_buffers(
            mini_problem, tree, predictor, buffers=buffers
        )
        refined.validate()
        final = mini_problem.evaluate(refined)
        assert (
            final.total_variation
            <= mini_problem.baseline.total_variation + 1e-6
        )
        for model in accepted:
            assert model.predicted_reduction_ps > 0.0


@pytest.fixture(scope="module")
def cls1_problem():
    return SkewVariationProblem.create(build_cls1(1))


def _problem(name, request):
    return request.getfixturevalue("mini_problem" if name == "MINI" else "cls1_problem")


def _fits(problem, predictor, buffers):
    tree = problem.design.tree
    result = problem.evaluate(tree)
    return [
        fit_location_model(problem, tree, result, predictor, buffer)
        for buffer in buffers
    ]


class TestPerMoveOracle:
    """The one-batch grid scores against today's per-move fit.

    The oracle featurizes each grid move alone, predicts it as a
    one-row batch and scores it with the scalar scorer.
    """

    @pytest.mark.parametrize("design", ["MINI", "CLS1v1"])
    @pytest.mark.parametrize("kind", ["full_rsmt_d2m", "rsmt_d2m"])
    def test_analytical_fits_and_refinement_equal_oracle(
        self, kind, design, library_cls1, request
    ):
        problem = _problem(design, request)
        predictor = train_predictor(library_cls1, [], kind)
        buffers = sorted(problem.design.tree.buffers())[:12]
        fits = _fits(problem, predictor, buffers)
        refined, accepted = refine_buffers(
            problem, problem.design.tree, predictor, buffers=buffers
        )
        with pytest.MonkeyPatch.context() as patch:
            use_per_move_location_fit(patch)
            want_fits = _fits(problem, predictor, buffers)
            want_refined, want_accepted = refine_buffers(
                problem, problem.design.tree, predictor, buffers=buffers
            )
        # LocationModel compares coefficients, optimum and predicted
        # reduction with ==.
        assert fits == want_fits
        assert accepted == want_accepted
        assert (
            problem.evaluate(refined).total_variation
            == problem.evaluate(want_refined).total_variation
        )

    @pytest.mark.parametrize("design", ["MINI", "CLS1v1"])
    def test_hsm_coefficients_within_tolerance(self, design, hsm_predictor, request):
        problem = _problem(design, request)
        buffers = sorted(problem.design.tree.buffers())[:12]
        fits = _fits(problem, hsm_predictor, buffers)
        with pytest.MonkeyPatch.context() as patch:
            use_per_move_location_fit(patch)
            want_fits = _fits(problem, hsm_predictor, buffers)
        for got, want in zip(fits, want_fits):
            assert got.coefficients == pytest.approx(want.coefficients, abs=1e-9)
