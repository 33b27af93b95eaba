"""The three regressor families: ANN, RBF-kernel SVR, HSM."""

import numpy as np
import pytest

from repro.core.ml import ann as ann_module
from repro.core.ml.ann import ANNConfig, ANNRegressor
from repro.core.ml.dataset import dataset_arrays, generate_dataset
from repro.core.ml.hsm import HybridSurrogateModel, kfold_mse
from repro.core.ml.svr import RBFKernelSVR, SVRConfig
from repro.core.ml.training import _ANCHOR_COLUMN, _make_model, train_predictor
from repro.tech.library import default_library
from tests.oracles import (
    reference_ann_fit,
    reference_svr_kernel,
    reference_svr_predict,
    use_per_layer_adam,
)


def toy_problem(n=200, seed=0, noise=0.05):
    """Smooth nonlinear target on 3 features."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, 3))
    y = (
        2.0 * x[:, 0]
        - 1.5 * x[:, 1] ** 2
        + np.sin(3.0 * x[:, 2])
        + rng.normal(0, noise, n)
    )
    return x, y


class TestANN:
    def test_fits_nonlinear_function(self):
        x, y = toy_problem()
        model = ANNRegressor(ANNConfig(max_epochs=200, seed=1))
        model.fit(x, y)
        pred = model.predict(x)
        mse = float(np.mean((pred - y) ** 2))
        assert mse < 0.15 * float(np.var(y))

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            ANNRegressor().predict(np.zeros((1, 3)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ANNRegressor().fit(np.zeros(5), np.zeros(5))

    def test_deterministic_given_seed(self):
        x, y = toy_problem(n=80)
        cfg = ANNConfig(max_epochs=50, seed=3)
        a = ANNRegressor(cfg).fit(x, y).predict(x[:5])
        b = ANNRegressor(cfg).fit(x, y).predict(x[:5])
        assert np.array_equal(a, b)

    def test_constant_feature_tolerated(self):
        x, y = toy_problem(n=60)
        x = np.hstack([x, np.ones((len(x), 1))])
        model = ANNRegressor(ANNConfig(max_epochs=30))
        model.fit(x, y)
        assert np.all(np.isfinite(model.predict(x)))


def assert_same_network(got, want, x):
    """Weights, biases and predictions equal bit for bit."""
    assert len(got._weights) == len(want._weights)
    for a, b in zip(got._weights + got._biases, want._weights + want._biases):
        assert np.array_equal(a, b)
    assert np.array_equal(got.predict(x), want.predict(x))


class TestANNParity:
    """A fit equals the per-layer oracle bit for bit, epoch count included."""

    def test_early_stopped_fit_matches_oracle(self):
        x, y = toy_problem(n=200)
        cfg = ANNConfig(max_epochs=400, patience=5, seed=1)
        got = ANNRegressor(cfg).fit(x, y)
        want = reference_ann_fit(ANNRegressor(cfg), x, y)
        assert got.epochs == want.epochs < cfg.max_epochs
        assert_same_network(got, want, x)

    def test_fit_without_validation_matches_oracle(self):
        x, y = toy_problem(n=8)
        cfg = ANNConfig(max_epochs=60, seed=3)
        got = ANNRegressor(cfg).fit(x, y)
        want = reference_ann_fit(ANNRegressor(cfg), x, y)
        # No validation split: no early stop, the last epoch's weights.
        assert got.epochs == want.epochs == cfg.max_epochs
        assert_same_network(got, want, x)

    def test_hsm_ann_matches_oracle(self, monkeypatch):
        x, y = toy_problem(n=120, seed=5)
        got = _make_model("hsm").fit(x, y)
        with monkeypatch.context() as patch:
            use_per_layer_adam(patch)
            want = _make_model("hsm").fit(x, y)
        assert got.cv_mse == want.cv_mse
        assert got.weights == want.weights
        assert_same_network(got._models[0], want._models[0], x)
        assert np.array_equal(got.predict(x), want.predict(x))


class TestLockstepGroups:
    """``ANNRegressor.fit_group`` trains same-shape jobs in lockstep, and
    every member equals its own oracle fit, epoch count included."""

    @staticmethod
    def _jobs(cfg, rows, seeds):
        return [(ANNRegressor(cfg), *toy_problem(n=n, seed=s)) for n, s in zip(rows, seeds)]

    @staticmethod
    def _assert_members_match_oracle(jobs):
        for model, x, y in jobs:
            want = reference_ann_fit(ANNRegressor(model.config), x, y)
            assert model.epochs == want.epochs
            assert_same_network(model, want, x)

    @pytest.fixture
    def stacks(self, monkeypatch):
        """``(members, rows)`` of every lockstep stack trained."""
        seen = []
        train = ann_module._train_lockstep

        def recording(models, xs, ys):
            seen.append((len(models), xs.shape[1]))
            return train(models, xs, ys)

        monkeypatch.setattr(ann_module, "_train_lockstep", recording)
        return seen

    def test_members_stopping_at_different_epochs(self, stacks):
        cfg = ANNConfig(max_epochs=300, patience=5, seed=1)
        jobs = self._jobs(cfg, [150] * 5, range(5))
        ANNRegressor.fit_group(jobs)
        assert stacks == [(5, 150)]
        epochs = [model.epochs for model, _, _ in jobs]
        assert len(set(epochs)) > 1 and max(epochs) < cfg.max_epochs
        self._assert_members_match_oracle(jobs)

    def test_group_of_one(self, stacks):
        jobs = self._jobs(ANNConfig(max_epochs=80, patience=4, seed=2), [60], [7])
        ANNRegressor.fit_group(jobs)
        assert stacks == [(1, 60)]
        self._assert_members_match_oracle(jobs)

    def test_group_without_validation_split(self, stacks):
        cfg = ANNConfig(max_epochs=40, seed=4)
        jobs = self._jobs(cfg, [9, 9, 9], [1, 2, 3])
        ANNRegressor.fit_group(jobs)
        assert stacks == [(3, 9)]
        assert all(model.epochs == cfg.max_epochs for model, _, _ in jobs)
        self._assert_members_match_oracle(jobs)

    def test_two_row_counts_form_two_groups(self, stacks):
        cfg = ANNConfig(max_epochs=120, patience=6, seed=5)
        jobs = self._jobs(cfg, [90, 120, 90, 120, 90], range(5))
        ANNRegressor.fit_group(jobs)
        assert stacks == [(3, 90), (2, 120)]
        self._assert_members_match_oracle(jobs)

    def test_hsm_corner_fits_form_one_fold_and_one_refit_group(self, stacks):
        """Three HSMs on 48 rows: 12 fold fits of 36 rows, 3 refits of 48."""
        jobs = [(_make_model("hsm"), *toy_problem(n=48, seed=s)) for s in range(3)]
        HybridSurrogateModel.fit_group(jobs)
        assert stacks == [(12, 36), (3, 48)]


@pytest.fixture(scope="module", params=[("c0", "c1", "c3"), ("c0", "c1", "c2", "c3")])
def corner_samples(request):
    library = default_library(request.param)
    return library, generate_dataset(library, n_cases=3, moves_per_case=8, seed=5)


def _assert_same_model(got, want, x):
    if isinstance(want, HybridSurrogateModel):
        assert got.cv_mse == want.cv_mse
        assert got.weights == want.weights
        for a, b in zip(got._models, want._models):
            _assert_same_model(a, b, x)
    elif isinstance(want, ANNRegressor):
        assert got.epochs == want.epochs
        assert_same_network(got, want, x)
    else:
        assert np.array_equal(got._dual, want._dual)
    assert np.array_equal(got.predict(x), want.predict(x))


@pytest.mark.parametrize("kind", ["hsm", "ann", "svr"])
def test_train_predictor_matches_per_corner_fits(corner_samples, kind, monkeypatch):
    """One group fit over every corner equals per-corner oracle fits."""
    library, samples = corner_samples
    got = train_predictor(library, samples, kind)
    with monkeypatch.context() as patch:
        use_per_layer_adam(patch)
        for corner in library.corners:
            x, y = dataset_arrays(samples, corner.name)
            want = _make_model(kind).fit(x, y - x[:, _ANCHOR_COLUMN])
            _assert_same_model(got.models[corner.name], want, x)


class TestSVR:
    def test_fits_nonlinear_function(self):
        x, y = toy_problem()
        model = RBFKernelSVR(SVRConfig(alpha=0.1))
        model.fit(x, y)
        mse = float(np.mean((model.predict(x) - y) ** 2))
        assert mse < 0.1 * float(np.var(y))

    def test_interpolates_training_points_with_small_alpha(self):
        x, y = toy_problem(n=50, noise=0.0)
        model = RBFKernelSVR(SVRConfig(alpha=1e-6))
        model.fit(x, y)
        assert np.allclose(model.predict(x), y, atol=0.05)

    def test_regularization_smooths(self):
        x, y = toy_problem(n=60, noise=0.5)
        tight = RBFKernelSVR(SVRConfig(alpha=1e-6)).fit(x, y)
        smooth = RBFKernelSVR(SVRConfig(alpha=10.0)).fit(x, y)
        res_tight = float(np.mean((tight.predict(x) - y) ** 2))
        res_smooth = float(np.mean((smooth.predict(x) - y) ** 2))
        assert res_tight < res_smooth

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            RBFKernelSVR().predict(np.zeros((1, 3)))

    def test_explicit_gamma(self):
        x, y = toy_problem(n=50)
        model = RBFKernelSVR(SVRConfig(gamma=0.5)).fit(x, y)
        assert model._gamma == 0.5


class TestSVRParity:
    """The in-place kernel block against the out-of-place expression."""

    @staticmethod
    def _model(seed=3, n=120, features=21):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, size=(n, features))
        y = x @ rng.normal(0.0, 1.0, size=features) + np.sin(x[:, 0])
        return RBFKernelSVR(SVRConfig(alpha=0.1)).fit(x, y), rng

    def test_fit_matches_oracle_kernel(self, monkeypatch):
        model, _ = self._model()
        with monkeypatch.context() as patch:
            patch.setattr(RBFKernelSVR, "_kernel", reference_svr_kernel)
            reference, _ = self._model()
        assert np.array_equal(model._dual, reference._dual)

    def test_kernel_block_equals_oracle(self):
        model, rng = self._model()
        for rows in (1, 37, 2592):
            a = rng.normal(0.0, 2.0, size=(rows, model._x_train.shape[1]))
            got = model._kernel(a, model._x_train)
            assert np.array_equal(got, reference_svr_kernel(model, a, model._x_train)), rows

    def test_predict_equals_oracle_across_the_chunk_size(self):
        """Row counts below, at and above ``PREDICT_CHUNK_ROWS``: the
        deleted one-block branch and the chunk loop gave the same floats."""
        model, rng = self._model()
        chunk = model.PREDICT_CHUNK_ROWS
        for rows in (0, 1, 300, chunk, chunk + 1, chunk + 517):
            x = rng.normal(0.0, 1.5, size=(rows, model._x_train.shape[1]))
            got = model.predict(x)
            assert got.shape == (rows,)
            assert np.array_equal(got, reference_svr_predict(model, x)), rows


class TestHSM:
    def factories(self):
        return [
            ("svr", lambda: RBFKernelSVR(SVRConfig(alpha=0.1))),
            ("ann", lambda: ANNRegressor(ANNConfig(max_epochs=40, seed=2))),
        ]

    def test_weights_sum_to_one(self):
        x, y = toy_problem(n=120)
        hsm = HybridSurrogateModel(self.factories()).fit(x, y)
        assert sum(hsm.weights) == pytest.approx(1.0)
        assert len(hsm.weights) == 2

    def test_blend_tracks_target(self):
        x, y = toy_problem(n=150)
        hsm = HybridSurrogateModel(self.factories()).fit(x, y)
        mse = float(np.mean((hsm.predict(x) - y) ** 2))
        assert mse < 0.2 * float(np.var(y))

    def test_better_model_gets_more_weight(self):
        x, y = toy_problem(n=150, noise=0.01)

        class Bad:
            def fit(self, x, y):
                return self

            def predict(self, x):
                return np.zeros(len(np.atleast_2d(x)))

        hsm = HybridSurrogateModel(
            [
                ("svr", lambda: RBFKernelSVR(SVRConfig(alpha=0.1))),
                ("bad", Bad),
            ]
        ).fit(x, y)
        weights = dict(zip(hsm.component_names(), hsm.weights))
        assert weights["svr"] > 0.9

    def test_empty_factories_rejected(self):
        with pytest.raises(ValueError):
            HybridSurrogateModel([])

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            HybridSurrogateModel(self.factories()).predict(np.zeros((1, 3)))

    def test_kfold_mse_reasonable(self):
        x, y = toy_problem(n=100)
        mse = kfold_mse(
            lambda: RBFKernelSVR(SVRConfig(alpha=0.1)), x, y, folds=4, seed=0
        )
        assert 0.0 < mse < float(np.var(y))
