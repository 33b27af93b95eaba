"""The three regressor families: ANN, RBF-kernel SVR, HSM."""

import numpy as np
import pytest

from repro.core.ml.ann import ANNConfig, ANNRegressor
from repro.core.ml.hsm import HybridSurrogateModel, kfold_mse
from repro.core.ml.svr import RBFKernelSVR, SVRConfig
from repro.core.ml.training import _make_model
from tests.oracles import reference_ann_fit, use_per_layer_adam


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
    """The flat-vector Adam step equals the per-layer oracle bit for bit."""

    def test_early_stopped_fit_matches_oracle(self, monkeypatch):
        x, y = toy_problem(n=200)
        cfg = ANNConfig(max_epochs=400, patience=5, seed=1)
        calls = []
        forward = ANNRegressor._forward

        def counting_forward(self, xb):
            calls.append(len(xb))
            return forward(self, xb)

        monkeypatch.setattr(ANNRegressor, "_forward", counting_forward)
        got = ANNRegressor(cfg).fit(x, y)
        # 170 training rows make 6 batches an epoch, and the 30 validation
        # rows one more forward pass: fewer than max_epochs epochs ran.
        assert len(calls) % 7 == 0 and len(calls) // 7 < cfg.max_epochs
        want = reference_ann_fit(ANNRegressor(cfg), x, y)
        assert_same_network(got, want, x)

    def test_fit_without_validation_matches_oracle(self):
        x, y = toy_problem(n=8)
        cfg = ANNConfig(max_epochs=60, seed=3)
        got = ANNRegressor(cfg).fit(x, y)
        # No validation split: the final parameters are the trained views
        # into the one flat vector.
        params = got._weights + got._biases
        theta = params[0].base
        assert theta.ndim == 1 and theta.size == sum(a.size for a in params)
        for array in params:
            assert array.base is theta and array.flags.c_contiguous
        want = reference_ann_fit(ANNRegressor(cfg), x, y)
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
