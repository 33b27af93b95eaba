"""Per-corner model training and the deployable predictor bundle.

The paper trains one delta-latency model per corner on the artificial
testcases, cross-validates to prevent overfitting, and applies the same
model to all (unseen) designs.  :func:`train_predictor` reproduces that
protocol for any of the three model families (ANN, SVR, HSM) or the
purely analytical baselines the paper compares against in Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.ml.ann import ANNConfig, ANNRegressor
from repro.core.ml.dataset import MoveSample
from repro.core.ml.features import ESTIMATOR_VARIANTS, FEATURE_NAMES
from repro.core.ml.hsm import HybridSurrogateModel, fit_jobs
from repro.core.ml.pipeline import FeatureBatch
from repro.core.ml.svr import RBFKernelSVR, SVRConfig
from repro.tech.library import Library

#: Supported predictor kinds.
MODEL_KINDS = ("ann", "svr", "hsm")

#: Analytical baselines: raw wire-delay estimates per route/metric
#: variant — the paper's Figure-6 comparators.
ANALYTICAL_KINDS = tuple(f"{r}_{m}" for r, m in ESTIMATOR_VARIANTS)

#: Full-pipeline analytical predictors: the same variants but with the
#: Liberty driver update + PERI slew propagation applied (the paper's ML
#: *input generation* run as a predictor).  Useful as a training-free
#: predictor for the local flow.
FULL_ANALYTICAL_KINDS = tuple(f"full_{k}" for k in ANALYTICAL_KINDS)


def _make_model(kind: str):
    if kind == "ann":
        return ANNRegressor(ANNConfig())
    if kind == "svr":
        return RBFKernelSVR(SVRConfig())
    if kind == "hsm":
        return HybridSurrogateModel(
            factories=[
                ("ann", lambda: ANNRegressor(ANNConfig(max_epochs=200))),
                ("svr", lambda: RBFKernelSVR(SVRConfig())),
            ]
        )
    raise ValueError(f"unknown model kind {kind!r}; expected {MODEL_KINDS}")


#: Feature column holding the (rsmt, d2m) analytical estimate — the
#: anchor the learned models' residuals are taken against.
_ANCHOR_COLUMN = FEATURE_NAMES.index("est_rsmt_d2m")


@dataclass
class DeltaLatencyPredictor:
    """One trained (or analytical) delta-latency predictor per corner.

    ``kind`` is one of :data:`MODEL_KINDS` for learned predictors, or an
    entry of :data:`ANALYTICAL_KINDS` for the paper's analytical
    comparison models (Figure 6), which simply read off the corresponding
    estimate from the feature pipeline.

    Learned models are trained on the *residual* against the (rsmt, d2m)
    analytical estimate: the prediction is ``estimate + model(features)``.
    Residual learning keeps the predictor anchored to physics on inputs
    outside the artificial-testcase training distribution (real trees),
    so it can only refine — not catastrophically contradict — the
    analytical answer.
    """

    kind: str
    corner_names: Tuple[str, ...]
    models: Dict[str, object] = field(default_factory=dict)
    residual: bool = True

    @property
    def is_learned(self) -> bool:
        return self.kind in MODEL_KINDS

    def predict_matrix(self, batch: FeatureBatch) -> np.ndarray:
        """Predicted per-corner latency change (ps) of each move's subtree.

        ``batch`` is a :class:`~repro.core.ml.pipeline.FeatureBatch`:
        learned kinds feed each corner's design matrix to that corner's
        model in one call; analytical kinds stack their variant's column
        of the components' ``estimates`` (``full_*`` kinds) or
        ``wire_only`` deltas once.  Returns an ``(n_moves, n_corners)``
        float64 array, columns in ``corner_names`` order.  A learned
        prediction also depends on the batch's row count, in the last
        bits (DESIGN §5).
        """
        components = batch.components
        out = np.empty((len(components), len(self.corner_names)))
        if not components:
            return out
        if not self.is_learned:
            full = self.kind.startswith("full_")
            variant = tuple(self.kind.removeprefix("full_").rsplit("_", 1))
            # Plain analytical kinds are the paper's Figure-6 comparators:
            # raw {route estimate} x {wire metric} deltas.
            deltas = np.array([c.estimates if full else c.wire_only for c in components])
            library_order = list(batch.matrices)
            cols = [library_order.index(name) for name in self.corner_names]
            return deltas[:, cols, ESTIMATOR_VARIANTS.index(variant)]
        col = _ANCHOR_COLUMN
        for k, name in enumerate(self.corner_names):
            x = batch.matrices[name]
            pred = self.models[name].predict(x)
            if self.residual:
                pred = pred + x[:, col]
            out[:, k] = pred
        return out


def train_predictor(
    library: Library,
    samples: Sequence[MoveSample],
    kind: str = "hsm",
    residual: bool = True,
) -> DeltaLatencyPredictor:
    """Train one model per corner on ``samples``.

    Analytical kinds need no training data and return immediately.  With
    ``residual=True`` (default) learned models fit the golden-minus-
    analytical residual; pass ``False`` to fit absolute deltas (the
    ablation benches compare both).
    """
    corner_names = tuple(c.name for c in library.corners)
    if kind in ANALYTICAL_KINDS or kind in FULL_ANALYTICAL_KINDS:
        return DeltaLatencyPredictor(kind=kind, corner_names=corner_names)
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown predictor kind {kind!r}")
    if not samples:
        raise ValueError("training a learned predictor requires samples")
    col = _ANCHOR_COLUMN
    models: Dict[str, object] = {}
    jobs = []
    batch = FeatureBatch.assemble([s.features for s in samples], corner_names)
    for name in corner_names:
        x = batch.matrices[name]
        y = np.asarray([s.target[name] for s in samples])
        if residual:
            y = y - x[:, col]
        models[name] = _make_model(kind)
        jobs.append((models[name], x, y))
    # One group fit for every corner: the HSMs' ANN fold fits (and then
    # their refits) train in lockstep, as do plain ANNs.
    fit_jobs(jobs)
    return DeltaLatencyPredictor(
        kind=kind, corner_names=corner_names, models=models, residual=residual
    )


@dataclass(frozen=True)
class AccuracyReport:
    """Per-corner prediction accuracy on a held-out sample set (Fig. 5)."""

    corner_name: str
    predicted: Tuple[float, ...]
    actual: Tuple[float, ...]

    @property
    def mean_abs_error_ps(self) -> float:
        p = np.asarray(self.predicted)
        a = np.asarray(self.actual)
        return float(np.mean(np.abs(p - a)))

    @property
    def percent_errors(self) -> np.ndarray:
        """Per-sample percentage error on predicted-vs-actual *latency*.

        Like the paper's Figure 5, errors are taken on latencies, not raw
        deltas (a delta near zero would make relative error meaningless).
        A representative latency scale — the actual values' spread plus
        their magnitude — is used as the denominator per sample.
        """
        p = np.asarray(self.predicted)
        a = np.asarray(self.actual)
        scale = max(float(np.percentile(np.abs(a), 90)), 1.0)
        return (p - a) / scale * 100.0

    @property
    def mean_abs_percent_error(self) -> float:
        return float(np.mean(np.abs(self.percent_errors)))


def evaluate_predictor(
    predictor: DeltaLatencyPredictor,
    samples: Sequence[MoveSample],
) -> Dict[str, AccuracyReport]:
    """Accuracy of ``predictor`` on (held-out) ``samples`` per corner."""
    batch = FeatureBatch.assemble(
        [s.features for s in samples], predictor.corner_names
    )
    predictions = predictor.predict_matrix(batch)
    return {
        name: AccuracyReport(
            corner_name=name,
            predicted=tuple(predictions[:, k].tolist()),
            actual=tuple(s.target[name] for s in samples),
        )
        for k, name in enumerate(predictor.corner_names)
    }
