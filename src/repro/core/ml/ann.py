"""Artificial neural network regressor (numpy-only).

A small fully connected network with tanh hidden layers, trained with
Adam on mean-squared error, mini-batches, and early stopping against a
validation split.  This stands in for the MATLAB ANN the paper trains;
the model class and training protocol (cross-validated, per corner) are
the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

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

    # ------------------------------------------------------------------
    def _init_params(self, n_in: int, rng: np.random.Generator) -> np.ndarray:
        """Draw the initial parameters into one flat vector and return it.

        The vector holds every layer's weights, then every layer's
        biases; ``self._weights[i]`` and ``self._biases[i]`` become
        C-contiguous views into it, so one Adam step updates them all.
        """
        sizes = [n_in, *self.config.hidden, 1]
        shapes = list(zip(sizes, sizes[1:]))
        theta = np.zeros(sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes))
        self._weights = []
        self._biases = []
        offset = 0
        for fan_in, fan_out in shapes:
            weight = theta[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            weight[...] = rng.normal(0.0, scale, size=(fan_in, fan_out))
            self._weights.append(weight)
            offset += fan_in * fan_out
        for _, fan_out in shapes:
            self._biases.append(theta[offset : offset + fan_out])
            offset += fan_out
        return theta

    def _forward(
        self, x: np.ndarray
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        activations = [x]
        h = x
        for i, (w, b) in enumerate(zip(self._weights, self._biases)):
            z = h @ w + b
            h = z if i == len(self._weights) - 1 else np.tanh(z)
            activations.append(h)
        return h, activations

    def _forward_inference(self, x: np.ndarray) -> np.ndarray:
        """Forward pass without retaining activations (batch inference)."""
        h = x
        for i, (w, b) in enumerate(zip(self._weights, self._biases)):
            z = h @ w + b
            h = z if i == len(self._weights) - 1 else np.tanh(z)
        return h

    def _backward(
        self, activations: List[np.ndarray], grad_out: np.ndarray
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        grads_w: List[np.ndarray] = [None] * len(self._weights)
        grads_b: List[np.ndarray] = [None] * len(self._weights)
        delta = grad_out
        for i in reversed(range(len(self._weights))):
            grads_w[i] = activations[i].T @ delta + self.config.l2 * self._weights[i]
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self._weights[i].T) * (1.0 - activations[i] ** 2)
        return grads_w, grads_b

    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray) -> "ANNRegressor":
        """Train on ``(x, y)``; returns self."""
        cfg = self.config
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError("x must be 2-D with one row per target")
        rng = np.random.default_rng(cfg.seed)

        self._x_mean = x.mean(axis=0)
        self._x_std = np.where(x.std(axis=0) > 1e-12, x.std(axis=0), 1.0)
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        xs = (x - self._x_mean) / self._x_std
        ys = (y - self._y_mean) / self._y_std

        n = xs.shape[0]
        n_val = max(1, int(n * cfg.validation_fraction)) if n >= 10 else 0
        order = rng.permutation(n)
        val_idx, train_idx = order[:n_val], order[n_val:]
        x_train, y_train = xs[train_idx], ys[train_idx]
        x_val, y_val = xs[val_idx], ys[val_idx]

        theta = self._init_params(xs.shape[1], rng)
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0

        best_val = np.inf
        best_params = None
        stall = 0
        for epoch in range(cfg.max_epochs):
            perm = rng.permutation(len(x_train))
            for start in range(0, len(perm), cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                xb, yb = x_train[idx], y_train[idx]
                pred, acts = self._forward(xb)
                grad = 2.0 * (pred - yb[:, None]) / max(len(idx), 1)
                gw, gb = self._backward(acts, grad)
                # One Adam step over the flat vector: the same elementwise
                # operations, in the same order, as one step per array.
                g = np.concatenate([w.ravel() for w in gw] + gb)
                step += 1
                m *= beta1
                m += (1 - beta1) * g
                v *= beta2
                v += (1 - beta2) * g**2
                m_hat = m / (1 - beta1**step)
                v_hat = v / (1 - beta2**step)
                theta -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
            if n_val:
                val_pred, _ = self._forward(x_val)
                val_mse = float(np.mean((val_pred[:, 0] - y_val) ** 2))
                if val_mse < best_val - 1e-6:
                    best_val = val_mse
                    best_params = (
                        [w.copy() for w in self._weights],
                        [b.copy() for b in self._biases],
                    )
                    stall = 0
                else:
                    stall += 1
                    if stall >= cfg.patience:
                        break
        if best_params is not None:
            self._weights, self._biases = best_params
        return self

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
