"""RBF-kernel support vector regression (numpy-only).

The paper uses SVM regression with an RBF kernel (MATLAB).  We train the
kernel machine in its ridge form — squared epsilon-insensitive loss with
epsilon = 0, i.e. kernel ridge regression — which has a closed-form dual
solution and the identical hypothesis class ``f(x) = sum_i a_i K(x_i, x)``.
DESIGN.md records this substitution; the hinge-epsilon variant differs
only in which training points receive nonzero dual weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class SVRConfig:
    """Hyperparameters of the RBF kernel machine."""

    gamma: Optional[float] = None  # None = 1 / (n_features * var(X))
    alpha: float = 1.0  # ridge regularization strength


class RBFKernelSVR:
    """Kernel machine with RBF kernel and ridge-form dual training."""

    def __init__(self, config: SVRConfig = None) -> None:
        self.config = config or SVRConfig()
        self._x_train: Optional[np.ndarray] = None
        self._dual: Optional[np.ndarray] = None
        self._gamma = 1.0
        self._x_mean: Optional[np.ndarray] = None
        self._x_std: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """RBF kernel block ``exp(-gamma * max(|a_i - b_j|^2, 0))``.

        One ``(rows, columns)`` array besides the product: the squared
        distances are clamped, scaled and exponentiated in place, each
        step the operation the out-of-place expression would make.
        """
        k = np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :]
        k -= 2.0 * a @ b.T
        np.maximum(k, 0.0, out=k)
        k *= -self._gamma
        return np.exp(k, out=k)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RBFKernelSVR":
        """Solve the dual system ``(K + alpha I) a = y``."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError("x must be 2-D with one row per target")

        self._x_mean = x.mean(axis=0)
        self._x_std = np.where(x.std(axis=0) > 1e-12, x.std(axis=0), 1.0)
        xs = (x - self._x_mean) / self._x_std
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        ys = (y - self._y_mean) / self._y_std

        if self.config.gamma is None:
            var = float(xs.var()) or 1.0
            self._gamma = 1.0 / (xs.shape[1] * var)
        else:
            self._gamma = self.config.gamma

        gram = self._kernel(xs, xs)
        system = gram + self.config.alpha * np.eye(len(xs))
        self._dual = np.linalg.solve(system, ys)
        self._x_train = xs
        return self

    #: Kernel rows materialized per chunk during prediction; bounds the
    #: ``n_rows x n_train`` kernel block for very large candidate batches.
    PREDICT_CHUNK_ROWS = 4096

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict targets for rows of ``x``.

        Rows are independent, so chunking changes nothing numerically —
        it only caps the transient kernel-block allocation.
        """
        if self._x_train is None:
            raise RuntimeError("model is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[0] == 0:
            return np.empty(0)
        xs = (x - self._x_mean) / self._x_std
        out = np.empty(xs.shape[0])
        for start in range(0, xs.shape[0], self.PREDICT_CHUNK_ROWS):
            chunk = xs[start : start + self.PREDICT_CHUNK_ROWS]
            k = self._kernel(chunk, self._x_train)
            out[start : start + len(chunk)] = k @ self._dual
        return out * self._y_std + self._y_mean
