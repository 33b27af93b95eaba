"""The scalar oracles of the array kernels, in the shape tests call them.

Every production layer runs on one array kernel.  Its scalar twin stays
in the library, unchanged, as the kernel's definition; the differential
tests reach it through these helpers — by calling it, or by
monkeypatching it in where the kernel would run — never through a
production option.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest

from repro.core import local_opt
from repro.core.eco_flow import LPGuidedECO
from repro.core.local_opt import predicted_variation_reduction
from repro.core.ml.feature_kernel import FeatureKernel
from repro.core.ml.features import compute_move_components
from repro.geometry import Point
from repro.route.congestion import chain_length_factor
from repro.route.rc_net import edge_rc_tree
from repro.sta.d2m import d2m_delays
from repro.sta.elmore import elmore_delays
from repro.tech import ratio_bounds
from repro.tech.cells import NLDMTable
from repro.tech.library import default_library
from repro.tech.ratio_bounds import RatioBounds, RatioCloud
from repro.tech.stage_lut import (
    DEFAULT_WL_AXIS,
    DETAIL_LOAD_AXIS,
    DETAIL_SLEW_AXIS,
    StageDelayLUT,
    stage_delay,
    steady_state_stage,
)
from repro.testcases.cls1 import build_cls1
from repro.testcases.cls2 import build_cls2

#: Libraries of the testcases the characterization parity tests cover
#: (MINI builds on ``default_library`` of its corner names).
PARITY_LIBRARIES = {
    "MINI": lambda: default_library(("c0", "c1", "c3")),
    "MINI/4": lambda: default_library(("c0", "c1", "c2", "c3")),
    "CLS1v1": lambda: build_cls1(1).library,
    "CLS2v1": lambda: build_cls2().library,
}


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
    """Oracle of :func:`repro.core.local_opt.batched_variation_reductions`.

    ``predictions`` is the ``(n_moves, n_corners)`` matrix; each row is
    turned back into the ``{corner: float}`` the scalar scorer takes.
    """
    names = [c.name for c in problem.design.library.corners]
    return [
        predicted_variation_reduction(
            problem, tree, result, feats, dict(zip(names, map(float, row)))
        )
        for feats, row in zip(features, predictions)
    ]


def use_scalar_features(monkeypatch):
    """Featurize and score per move wherever the feature kernel would run."""
    monkeypatch.setattr(FeatureKernel, "compute_components_batch", per_move_components)
    monkeypatch.setattr(local_opt, "batched_variation_reductions", per_move_reductions)


def per_arc_scan(eco, queries):
    """Oracle of :meth:`LPGuidedECO._search`: the scalar scan, arc by arc."""
    return [eco._scan_candidates(*query) for query in queries]


def use_scalar_scan(patch):
    """Search ECO candidates with the scalar scan wherever the kernel would run.

    ``_search`` is the ECO's one search entry point, so no kernel table
    is built while the patch holds.
    """
    patch.setattr(LPGuidedECO, "_search", per_arc_scan)


def reference_hop_fill(row, buckets):
    """Oracle of ``_HopRow.fill``: one discretized RC tree per bucket."""
    wire = row.library.wire(row.corner)
    for bucket in buckets:
        length = bucket / 4.0 * chain_length_factor()
        rc = edge_rc_tree([Point(0.0, 0.0), Point(length, 0.0)], wire, row.load_ff)
        row.delay[bucket] = d2m_delays(rc)["sink"]
        row.elmore[bucket] = elmore_delays(rc)["sink"]
        row.filled[bucket] = True


def reference_stage_luts(
    library,
    sizes: Sequence[int] = (),
    wl_axis: Sequence[float] = DEFAULT_WL_AXIS,
    detail_slew_axis: Sequence[float] = DETAIL_SLEW_AXIS,
    detail_load_axis: Sequence[float] = DETAIL_LOAD_AXIS,
) -> Dict[str, StageDelayLUT]:
    """Oracle of :func:`~repro.tech.stage_lut.characterize_stage_luts`.

    One scalar :func:`steady_state_stage` per LUTuniform entry and one
    scalar :func:`stage_delay` per LUTdetail grid point.
    """
    use_sizes = tuple(sizes) if sizes else library.sizes
    luts: Dict[str, StageDelayLUT] = {}
    for corner in library.corners:
        uniform: Dict[Tuple[int, float], float] = {}
        uniform_slew: Dict[Tuple[int, float], float] = {}
        detail: Dict[Tuple[int, float], NLDMTable] = {}
        detail_slew: Dict[Tuple[int, float], NLDMTable] = {}
        for size in use_sizes:
            for wl in wl_axis:
                d, s = steady_state_stage(library, corner, size, wl)
                uniform[(size, wl)] = d
                uniform_slew[(size, wl)] = s
                delay_rows: List[Tuple[float, ...]] = []
                slew_rows: List[Tuple[float, ...]] = []
                for slew_in in detail_slew_axis:
                    drow = []
                    srow = []
                    for load in detail_load_axis:
                        dd, ss = stage_delay(
                            library, corner, size, wl, slew_in, load
                        )
                        drow.append(dd)
                        srow.append(ss)
                    delay_rows.append(tuple(drow))
                    slew_rows.append(tuple(srow))
                detail[(size, wl)] = NLDMTable(
                    tuple(detail_slew_axis), tuple(detail_load_axis), tuple(delay_rows)
                )
                detail_slew[(size, wl)] = NLDMTable(
                    tuple(detail_slew_axis), tuple(detail_load_axis), tuple(slew_rows)
                )
        luts[corner.name] = StageDelayLUT(
            corner=corner,
            sizes=use_sizes,
            wl_axis=tuple(wl_axis),
            uniform=uniform,
            uniform_slew=uniform_slew,
            detail=detail,
            detail_slew=detail_slew,
        )
    return luts


def reference_ratio_cloud(
    library,
    corner_a,
    corner_b,
    sizes: Sequence[int] = (),
    wl_axis: Sequence[float] = DEFAULT_WL_AXIS,
    slew_axis: Sequence[float] = DETAIL_SLEW_AXIS,
    load_axis: Sequence[float] = DETAIL_LOAD_AXIS,
    wl_stride: int = 2,
) -> RatioCloud:
    """Oracle of :func:`~repro.tech.ratio_bounds.sample_ratio_cloud`.

    Three scalar :func:`stage_delay` calls per configuration.
    """
    use_sizes = tuple(sizes) if sizes else library.sizes
    nominal = library.corners.nominal
    densities: List[float] = []
    ratios: List[float] = []
    for size in use_sizes:
        for wl in wl_axis[::wl_stride]:
            for slew in slew_axis:
                for load in load_axis:
                    d_nom, _ = stage_delay(library, nominal, size, wl, slew, load)
                    d_a, _ = stage_delay(library, corner_a, size, wl, slew, load)
                    d_b, _ = stage_delay(library, corner_b, size, wl, slew, load)
                    if d_b <= 0.0:
                        continue
                    densities.append(d_nom / wl)
                    ratios.append(d_a / d_b)
    return RatioCloud(
        corner_a=corner_a,
        corner_b=corner_b,
        density=tuple(densities),
        ratio=tuple(ratios),
    )


def reference_widen_to_cover(
    bounds: RatioBounds, density: np.ndarray, ratio: np.ndarray
) -> RatioBounds:
    """Oracle of ``ratio_bounds._widen_to_cover``: one sample at a time."""
    upper_gap = 0.0
    lower_gap = 0.0
    for d, r in zip(density, ratio):
        upper_gap = max(upper_gap, r - bounds.upper(d))
        lower_gap = max(lower_gap, bounds.lower(d) - r)
    upper = np.asarray(bounds.upper_coeffs, dtype=float)
    lower = np.asarray(bounds.lower_coeffs, dtype=float)
    upper[-1] += upper_gap
    lower[-1] -= lower_gap
    return RatioBounds(
        corner_a=bounds.corner_a,
        corner_b=bounds.corner_b,
        degree=bounds.degree,
        upper_coeffs=tuple(upper),
        lower_coeffs=tuple(lower),
        density_min=bounds.density_min,
        density_max=bounds.density_max,
    )


def reference_ratio_bounds(library, degree: int = 2) -> Dict[Tuple[str, str], RatioBounds]:
    """Oracle of :func:`~repro.tech.ratio_bounds.fit_all_ratio_bounds`.

    Scalar clouds, one per ordered pair, fitted with the scalar widening.
    """
    out: Dict[Tuple[str, str], RatioBounds] = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ratio_bounds, "_widen_to_cover", reference_widen_to_cover)
        for a in library.corners:
            for b in library.corners:
                if a.name == b.name:
                    continue
                cloud = reference_ratio_cloud(library, a, b)
                out[(a.name, b.name)] = ratio_bounds.fit_ratio_bounds(
                    cloud, degree=degree
                )
    return out
