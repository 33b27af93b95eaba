"""Artificial neural network regressor (numpy-only).

A small fully connected network with tanh hidden layers, trained with
Adam on mean-squared error, mini-batches, and early stopping against a
validation split.  This stands in for the MATLAB ANN the paper trains;
the model class and training protocol (cross-validated, per corner) are
the same.

Lockstep training
-----------------
One routine trains a stack of K networks that share an
:class:`ANNConfig`, a row count and a feature count
(:meth:`ANNRegressor.fit_group`; :meth:`ANNRegressor.fit` is its K = 1
call).  Each network's own fit would seed one generator with
``config.seed`` and draw, in order, the validation split, the initial
weights and one permutation per epoch — draws that depend only on the
config and the shapes, so the K networks' streams coincide and one
generator serves the stack.  Parameters live in one ``(K, P)`` matrix;
the matmuls run on ``(K, rows, width)`` stacks, whose every slice gets
the same BLAS product as a single network's 2-D call, and each step
makes one elementwise Adam update over ``(K, P)``.  Early stopping and
the best-weights snapshot stay per network; a network that stops leaves
the stack.  Every network's weights therefore equal its own fit's bit
for bit (``tests/test_ml_models.py`` holds them to the per-layer
oracle).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class ANNConfig:
    """Hyperparameters of the MLP regressor."""

    hidden: Tuple[int, ...] = (24, 12)
    learning_rate: float = 3e-3
    batch_size: int = 32
    max_epochs: int = 400
    patience: int = 30
    l2: float = 1e-4
    validation_fraction: float = 0.15
    seed: int = 7


class ANNRegressor:
    """Feed-forward network: standardized inputs, tanh hidden, linear out."""

    def __init__(self, config: ANNConfig = None) -> None:
        self.config = config or ANNConfig()
        self._weights: List[np.ndarray] = []
        self._biases: List[np.ndarray] = []
        self._x_mean: Optional[np.ndarray] = None
        self._x_std: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0
        #: Epochs the last fit ran (early stopping may end it before
        #: ``config.max_epochs``).
        self.epochs = 0

    # ------------------------------------------------------------------
    def _standardize(self, x, y) -> Tuple[np.ndarray, np.ndarray]:
        """Validate ``(x, y)``, record the scalers, return scaled copies."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError("x must be 2-D with one row per target")
        self._x_mean = x.mean(axis=0)
        self._x_std = np.where(x.std(axis=0) > 1e-12, x.std(axis=0), 1.0)
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        return (x - self._x_mean) / self._x_std, (y - self._y_mean) / self._y_std

    def fit(self, x: np.ndarray, y: np.ndarray) -> "ANNRegressor":
        """Train on ``(x, y)``; returns self."""
        ANNRegressor.fit_group([(self, x, y)])
        return self

    @staticmethod
    def fit_group(jobs: Sequence[Tuple["ANNRegressor", np.ndarray, np.ndarray]]) -> None:
        """Train every ``(model, x, y)`` job, in lockstep stacks.

        Jobs whose models share a config and whose ``x`` share a shape
        train as one stack (see the module docstring); each model ends
        with exactly the weights its own :meth:`fit` would give it.
        """
        groups: Dict[tuple, List[Tuple[ANNRegressor, np.ndarray, np.ndarray]]] = {}
        for model, x, y in jobs:
            xs, ys = model._standardize(x, y)
            key = (astuple(model.config), xs.shape)
            groups.setdefault(key, []).append((model, xs, ys))
        for members in groups.values():
            _train_lockstep(
                [m for m, _, _ in members],
                np.stack([xs for _, xs, _ in members]),
                np.stack([ys for _, _, ys in members]),
            )

    def _forward_inference(self, x: np.ndarray) -> np.ndarray:
        """Forward pass without retaining activations (batch inference)."""
        h = x
        for i, (w, b) in enumerate(zip(self._weights, self._biases)):
            z = h @ w + b
            h = z if i == len(self._weights) - 1 else np.tanh(z)
        return h

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict targets for rows of ``x`` (whole batch in one pass)."""
        if self._x_mean is None:
            raise RuntimeError("model is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[0] == 0:
            return np.empty(0)
        xs = (x - self._x_mean) / self._x_std
        out = self._forward_inference(xs)
        return out[:, 0] * self._y_std + self._y_mean


def _train_lockstep(models: Sequence[ANNRegressor], xs: np.ndarray, ys: np.ndarray) -> None:
    """Train ``models`` on standardized ``xs`` ``(K, n, f)`` / ``ys`` ``(K, n)``.

    Every model shares one config (the first's).  The parameter matrix
    holds each network's layer weights, then its layer biases, in one
    row; the layer arrays are views into it, so one Adam step updates
    them all.
    """
    cfg = models[0].config
    rng = np.random.default_rng(cfg.seed)
    n = xs.shape[1]
    n_val = max(1, int(n * cfg.validation_fraction)) if n >= 10 else 0
    order = rng.permutation(n)
    val_idx, train_idx = order[:n_val], order[n_val:]
    x_train, y_train = xs[:, train_idx], ys[:, train_idx]
    x_val, y_val = xs[:, val_idx], ys[:, val_idx]

    sizes = [xs.shape[2], *cfg.hidden, 1]
    shapes = list(zip(sizes, sizes[1:]))
    w_offsets = np.cumsum([0] + [fi * fo for fi, fo in shapes])
    b_offsets = w_offsets[-1] + np.cumsum([0] + [fo for _, fo in shapes])
    theta = np.zeros((len(models), int(b_offsets[-1])))
    for (fan_in, fan_out), w0 in zip(shapes, w_offsets):
        scale = np.sqrt(2.0 / (fan_in + fan_out))
        draw = rng.normal(0.0, scale, size=(fan_in, fan_out))
        theta[:, w0 : w0 + fan_in * fan_out] = draw.ravel()

    def layers(params):
        """``(K, fan_in, fan_out)`` weight and ``(K, fan_out)`` bias views."""
        k = params.shape[0]
        weights = [
            params[:, w0 : w0 + fi * fo].reshape(k, fi, fo)
            for (fi, fo), w0 in zip(shapes, w_offsets)
        ]
        biases = [params[:, b0 : b0 + fo] for (_, fo), b0 in zip(shapes, b_offsets)]
        return weights, biases

    def forward(weights, biases, x):
        activations = [x]
        h = x
        for i, (w, b) in enumerate(zip(weights, biases)):
            z = h @ w + b[:, None, :]
            h = z if i == len(weights) - 1 else np.tanh(z)
            activations.append(h)
        return h, activations

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    grad = np.empty_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    alive = list(range(len(models)))
    best_val = [np.inf] * len(models)
    best_params: List[Optional[np.ndarray]] = [None] * len(models)
    stall = [0] * len(models)

    def settle(j, k):
        """Give stack row ``j``'s network ``models[k]`` its final weights:
        the best validated ones, else (no validation split) the last."""
        final = best_params[k] if best_params[k] is not None else theta[j]
        final_w, final_b = layers(final[None, :])
        models[k]._weights = [w[0].copy() for w in final_w]
        models[k]._biases = [b[0].copy() for b in final_b]

    weights, biases = layers(theta)
    for epoch in range(cfg.max_epochs):
        for k in alive:
            models[k].epochs = epoch + 1
        perm = rng.permutation(x_train.shape[1])
        for start in range(0, len(perm), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            xb, yb = x_train[:, idx], y_train[:, idx]
            pred, acts = forward(weights, biases, xb)
            delta = 2.0 * (pred - yb[:, :, None]) / max(len(idx), 1)
            for i in reversed(range(len(weights))):
                (fi, fo), w0, b0 = shapes[i], w_offsets[i], b_offsets[i]
                gw = np.swapaxes(acts[i], 1, 2) @ delta + cfg.l2 * weights[i]
                grad[:, w0 : w0 + fi * fo] = gw.reshape(len(alive), -1)
                grad[:, b0 : b0 + fo] = delta.sum(axis=1)
                if i > 0:
                    delta = (delta @ np.swapaxes(weights[i], 1, 2)) * (
                        1.0 - acts[i] ** 2
                    )
            # One Adam step over every network's parameter row: the same
            # elementwise operations, in the same order, as one step per
            # layer array.
            step += 1
            m *= beta1
            m += (1 - beta1) * grad
            v *= beta2
            v += (1 - beta2) * grad**2
            m_hat = m / (1 - beta1**step)
            v_hat = v / (1 - beta2**step)
            theta -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        if not n_val:
            continue
        val_pred, _ = forward(weights, biases, x_val)
        keep = []
        for j, k in enumerate(alive):
            val_mse = float(np.mean((val_pred[j, :, 0] - y_val[j]) ** 2))
            if val_mse < best_val[k] - 1e-6:
                best_val[k] = val_mse
                best_params[k] = theta[j].copy()
                stall[k] = 0
            else:
                stall[k] += 1
                if stall[k] >= cfg.patience:
                    continue
            keep.append(j)
        if len(keep) < len(alive):
            # Early-stopped networks leave the stack.
            for j, k in enumerate(alive):
                if j not in keep:
                    settle(j, k)
            alive = [alive[j] for j in keep]
            if not alive:
                return
            theta, m, v = theta[keep], m[keep], v[keep]
            grad = np.empty_like(theta)
            x_train, y_train = x_train[keep], y_train[keep]
            x_val, y_val = x_val[keep], y_val[keep]
            weights, biases = layers(theta)
    for j, k in enumerate(alive):
        settle(j, k)
