"""Hybrid surrogate modeling (Kahng, Lin, Nath — DATE 2013).

HSM blends several metamodels with weights derived from their
cross-validated errors: models that generalize better get proportionally
more weight.  We use the inverse-MSE weighting variant:

    w_i = (1 / mse_i) / sum_j (1 / mse_j)

computed with K-fold cross-validation on the training set, then each
base model is refitted on the full data.

Training goes through *group fits*: :func:`fit_jobs` hands every
``(model, x, y)`` job of one model class to that class's ``fit_group``
(the ANN trains such a group in lockstep stacks, see
:mod:`repro.core.ml.ann`), or fits the jobs one at a time when the class
has none (the SVR).  :meth:`HybridSurrogateModel.fit_group` fits several
HSMs at once — one per corner — by sending, per family, all their fold
fits and then all their full-data refits through one group fit each.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

#: A factory returning a fresh, unfitted regressor with fit/predict.
ModelFactory = Callable[[], object]


def fit_jobs(jobs: Sequence[Tuple[object, np.ndarray, np.ndarray]]) -> None:
    """Fit every ``(model, x, y)`` job through its class's group fit.

    A class's jobs go to its ``fit_group(jobs)`` when it has one, else
    to one ``fit(x, y)`` each.
    """
    by_class: Dict[type, list] = {}
    for job in jobs:
        by_class.setdefault(type(job[0]), []).append(job)
    for cls, group in by_class.items():
        fit_group = getattr(cls, "fit_group", None)
        if fit_group is not None:
            fit_group(group)
        else:
            for model, x, y in group:
                model.fit(x, y)


def _fold_splits(n: int, folds: int, seed: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``(train, test)`` index pairs of a seeded K-fold split of ``n`` rows."""
    if n < folds:
        folds = max(2, n)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    splits = []
    for f in range(folds):
        test = order[f::folds]
        train = np.setdiff1d(order, test)
        if len(train) and len(test):
            splits.append((train, test))
    return splits


def _cv_mses(tasks) -> List[float]:
    """Mean cross-validated MSE of each ``(factory, x, y, folds, seed)``
    task, every fold fit of every task in one :func:`fit_jobs` call."""
    jobs, checks = [], []
    for t, (factory, x, y, folds, seed) in enumerate(tasks):
        for train, test in _fold_splits(len(y), folds, seed):
            model = factory()
            jobs.append((model, x[train], y[train]))
            checks.append((t, model, test))
    fit_jobs(jobs)
    errors: List[List[float]] = [[] for _ in tasks]
    for t, model, test in checks:
        _, x, y, _, _ = tasks[t]
        pred = model.predict(x[test])
        errors[t].append(float(np.mean((pred - y[test]) ** 2)))
    return [float(np.mean(e)) if e else float("inf") for e in errors]


def kfold_mse(
    factory: ModelFactory, x: np.ndarray, y: np.ndarray, folds: int, seed: int
) -> float:
    """Mean cross-validated MSE of a model family on ``(x, y)``."""
    return _cv_mses([(factory, x, y, folds, seed)])[0]


class HybridSurrogateModel:
    """Inverse-CV-MSE weighted blend of base regressors."""

    def __init__(
        self,
        factories: Sequence[Tuple[str, ModelFactory]],
        folds: int = 4,
        seed: int = 11,
    ) -> None:
        if not factories:
            raise ValueError("HSM needs at least one base model")
        self._factories = list(factories)
        self._folds = folds
        self._seed = seed
        self._models: List[object] = []
        self.weights: List[float] = []
        self.cv_mse: List[float] = []

    def fit(self, x: np.ndarray, y: np.ndarray) -> "HybridSurrogateModel":
        """Cross-validate each family, set weights, refit on all data."""
        HybridSurrogateModel.fit_group([(self, x, y)])
        return self

    @staticmethod
    def fit_group(
        jobs: Sequence[Tuple["HybridSurrogateModel", np.ndarray, np.ndarray]]
    ) -> None:
        """Fit several HSMs of the same families, one ``(hsm, x, y)`` job
        each: per family, every HSM's fold fits go through one group fit,
        then every HSM's full-data refit through another."""
        hsms = [hsm for hsm, _, _ in jobs]
        data = [
            (np.asarray(x, dtype=float), np.asarray(y, dtype=float).reshape(-1))
            for _, x, y in jobs
        ]
        families = range(len(hsms[0]._factories))
        cv = [
            _cv_mses(
                [
                    (hsm._factories[f][1], x, y, hsm._folds, hsm._seed)
                    for hsm, (x, y) in zip(hsms, data)
                ]
            )
            for f in families
        ]
        for i, hsm in enumerate(hsms):
            hsm.cv_mse = [cv[f][i] for f in families]
            inv = np.asarray([1.0 / max(m, 1e-12) for m in hsm.cv_mse], dtype=float)
            hsm.weights = list(inv / inv.sum())
            hsm._models = [factory() for _, factory in hsm._factories]
        for f in families:
            fit_jobs([(hsm._models[f], x, y) for hsm, (x, y) in zip(hsms, data)])

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Weighted blend of the base models' predictions (one batch call
        per base model, regardless of batch size)."""
        if not self._models:
            raise RuntimeError("model is not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[0] == 0:
            return np.empty(0)
        out = np.zeros(x.shape[0])
        for weight, model in zip(self.weights, self._models):
            out = out + weight * model.predict(x)
        return out

    def component_names(self) -> List[str]:
        return [name for name, _ in self._factories]
