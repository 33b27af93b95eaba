"""The scalar oracles of the array kernels, in the shape tests call them.

Every production layer runs on one array kernel.  Its scalar twin stays
in the library, unchanged, as the kernel's definition; the differential
tests reach it through these helpers — by calling it, or by
monkeypatching it in where the kernel would run — never through a
production option.
"""

from __future__ import annotations

from repro.core import local_opt
from repro.core.local_opt import predicted_variation_reduction
from repro.core.ml.feature_kernel import FeatureKernel
from repro.core.ml.features import compute_move_components


def reference_timings(timer, tree):
    """Per-corner timing of ``tree`` from the scalar golden loop."""
    return {
        corner.name: timer._analyze_corner_reference(tree, corner)
        for corner in timer.library.corners
    }


def reference_time_tree(timer, tree, pairs, alphas=None):
    """:meth:`GoldenTimer.time_tree` over :func:`reference_timings`."""
    return timer.time_tree(tree, pairs, alphas, timings=reference_timings(timer, tree))


def per_move_components(kernel, tree, timings, moves, cache):
    """Oracle of :meth:`FeatureKernel.compute_components_batch`."""
    return [
        compute_move_components(tree, kernel.library, timings, move, cache)
        for move in moves
    ]


def per_move_reductions(problem, tree, result, features, predictions):
    """Oracle of :func:`repro.core.local_opt.batched_variation_reductions`."""
    return [
        predicted_variation_reduction(problem, tree, result, feats, pred)
        for feats, pred in zip(features, predictions)
    ]


def use_scalar_features(monkeypatch):
    """Featurize and score per move wherever the feature kernel would run."""
    monkeypatch.setattr(FeatureKernel, "compute_components_batch", per_move_components)
    monkeypatch.setattr(local_opt, "batched_variation_reductions", per_move_reductions)
