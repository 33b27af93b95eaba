"""Cross-corner stage-delay ratio bounds (paper Figure 2, Constraint (11)).

For every achievable inverter-pair configuration (gate size, inter-inverter
wirelength, input slew, fanout load) the stage delay at two corners forms a
ratio.  Plotted against the *stage delay per unit distance at the nominal
corner*, these ratios form a bounded cloud: gate-dominated stages (high
delay density) sit near the pure-gate corner ratio, wire-dominated stages
near the BEOL-only ratio.  The paper fits polynomial upper/lower envelopes
to this cloud and uses them in LP Constraint (11) to reject delay targets
that no ECO could realize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.tech.corners import Corner
from repro.tech.library import Library
from repro.tech.stage_lut import (
    DEFAULT_WL_AXIS,
    DETAIL_LOAD_AXIS,
    DETAIL_SLEW_AXIS,
    stage_delays,
)

#: The cloud samples every ``CLOUD_WL_STRIDE``-th LUT wirelength.
CLOUD_WL_STRIDE = 2


@dataclass(frozen=True)
class RatioCloud:
    """The raw (delay density, delay ratio) samples for one corner pair."""

    corner_a: Corner
    corner_b: Corner
    density: Tuple[float, ...]
    ratio: Tuple[float, ...]


@dataclass(frozen=True)
class RatioBounds:
    """Polynomial envelope of achievable delay ratios for one corner pair.

    ``upper_coeffs`` / ``lower_coeffs`` are numpy polyfit coefficient vectors
    (highest power first) in the delay-density variable.  Bounds evaluated
    outside the sampled density range are clamped to the range endpoints.
    """

    corner_a: Corner
    corner_b: Corner
    degree: int
    upper_coeffs: Tuple[float, ...]
    lower_coeffs: Tuple[float, ...]
    density_min: float
    density_max: float

    def upper(self, density: float) -> float:
        """Maximum achievable ratio delay(a)/delay(b) at ``density``."""
        d = min(max(density, self.density_min), self.density_max)
        return float(np.polyval(self.upper_coeffs, d))

    def lower(self, density: float) -> float:
        """Minimum achievable ratio delay(a)/delay(b) at ``density``."""
        d = min(max(density, self.density_min), self.density_max)
        return float(np.polyval(self.lower_coeffs, d))

    def contains(self, density: float, ratio: float, slack: float = 0.0) -> bool:
        """True if ``ratio`` is within the fitted envelope (with ``slack``)."""
        return self.lower(density) - slack <= ratio <= self.upper(density) + slack


def _delay_grids(
    library: Library,
    corners: Sequence[Corner],
    sizes: Sequence[int],
    wl_axis: Sequence[float],
    slew_axis: Sequence[float],
    load_axis: Sequence[float],
) -> Dict[str, np.ndarray]:
    """Stage delay per corner over the (size, wirelength, slew, load) grid.

    One :func:`stage_delays` grid per (corner, size); a corner listed
    twice is evaluated once.
    """
    lanes = (
        np.asarray(wl_axis, dtype=float)[:, None, None],
        np.asarray(slew_axis, dtype=float)[None, :, None],
        np.asarray(load_axis, dtype=float)[None, None, :],
    )
    grids: Dict[str, np.ndarray] = {}
    for corner in corners:
        if corner.name not in grids:
            grids[corner.name] = np.stack(
                [stage_delays(library, corner, size, *lanes)[0] for size in sizes]
            )
    return grids


def _ratio_cloud(
    library: Library,
    grids: Dict[str, np.ndarray],
    corner_a: Corner,
    corner_b: Corner,
    wl_axis: Sequence[float],
) -> RatioCloud:
    """The cloud of one corner pair, read from :func:`_delay_grids`.

    Samples stay in (size, wirelength, slew, load) order, and a
    configuration whose ``corner_b`` delay is not positive is dropped.
    """
    d_nom = grids[library.corners.nominal.name]
    density = (d_nom / np.asarray(wl_axis, dtype=float)[:, None, None]).ravel()
    d_a = grids[corner_a.name].ravel()
    d_b = grids[corner_b.name].ravel()
    keep = ~(d_b <= 0.0)
    return RatioCloud(
        corner_a=corner_a,
        corner_b=corner_b,
        density=tuple(density[keep].tolist()),
        ratio=tuple((d_a[keep] / d_b[keep]).tolist()),
    )


def sample_ratio_cloud(
    library: Library,
    corner_a: Corner,
    corner_b: Corner,
    sizes: Sequence[int] = (),
    wl_axis: Sequence[float] = DEFAULT_WL_AXIS,
    slew_axis: Sequence[float] = DETAIL_SLEW_AXIS,
    load_axis: Sequence[float] = DETAIL_LOAD_AXIS,
    wl_stride: int = CLOUD_WL_STRIDE,
) -> RatioCloud:
    """Sample the stage-delay ratio cloud for a corner pair.

    Each sample is one (size, wirelength, input slew, fanout load)
    configuration.  The x-coordinate is the nominal-corner stage delay
    divided by the stage's routed wirelength (two segments of ``wl`` each).
    """
    use_sizes = tuple(sizes) if sizes else library.sizes
    wls = wl_axis[::wl_stride]
    corners = (library.corners.nominal, corner_a, corner_b)
    grids = _delay_grids(library, corners, use_sizes, wls, slew_axis, load_axis)
    return _ratio_cloud(library, grids, corner_a, corner_b, wls)


def fit_ratio_bounds(
    cloud: RatioCloud, degree: int = 2, bins: int = 24, pad: float = 0.01
) -> RatioBounds:
    """Fit polynomial upper/lower envelopes to a ratio cloud.

    The density axis is split into ``bins`` equal-width bins; the per-bin
    max (min) ratios are fitted with a degree-``degree`` polynomial.  A
    small multiplicative ``pad`` keeps every sampled point inside the fitted
    envelope even where the polynomial undercuts a bin extreme.
    """
    density = np.asarray(cloud.density)
    ratio = np.asarray(cloud.ratio)
    if density.size < (degree + 1) * 2:
        raise ValueError("too few samples to fit ratio bounds")

    edges = np.linspace(density.min(), density.max(), bins + 1)
    centers: List[float] = []
    upper_pts: List[float] = []
    lower_pts: List[float] = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (density >= lo) & (density <= hi)
        if not np.any(mask):
            continue
        centers.append((lo + hi) / 2.0)
        upper_pts.append(ratio[mask].max())
        lower_pts.append(ratio[mask].min())

    if len(centers) <= degree:
        raise ValueError("too few populated bins for the requested degree")

    upper = np.polyfit(centers, np.asarray(upper_pts) * (1.0 + pad), degree)
    lower = np.polyfit(centers, np.asarray(lower_pts) * (1.0 - pad), degree)
    bounds = RatioBounds(
        corner_a=cloud.corner_a,
        corner_b=cloud.corner_b,
        degree=degree,
        upper_coeffs=tuple(upper),
        lower_coeffs=tuple(lower),
        density_min=float(density.min()),
        density_max=float(density.max()),
    )
    return _widen_to_cover(bounds, density, ratio)


def _widen_to_cover(
    bounds: RatioBounds, density: np.ndarray, ratio: np.ndarray
) -> RatioBounds:
    """Shift the envelopes just enough to cover every sampled point.

    Polynomial envelopes fitted to bin extremes can still clip a few
    samples; Constraint (11) must never forbid a configuration that the
    LUTs can actually realize, so we widen by the worst residual.
    """
    # RatioBounds.upper/lower per sample, as one Horner pass each.
    d = np.clip(density, bounds.density_min, bounds.density_max)
    upper_gap = max(0.0, np.max(ratio - np.polyval(bounds.upper_coeffs, d)))
    lower_gap = max(0.0, np.max(np.polyval(bounds.lower_coeffs, d) - ratio))
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


def fit_all_ratio_bounds(
    library: Library, degree: int = 2
) -> Dict[Tuple[str, str], RatioBounds]:
    """Ratio bounds for every ordered pair of distinct corners.

    Returns bounds keyed by (corner_a.name, corner_b.name), both
    orientations of every pair; :class:`~repro.core.lp.GlobalSkewLP`
    reads only the (k, k2), k < k2 orientation in library corner order.
    Each corner's delay grid is evaluated once and shared by every pair.
    """
    wls = DEFAULT_WL_AXIS[::CLOUD_WL_STRIDE]
    grids = _delay_grids(
        library, library.corners, library.sizes, wls, DETAIL_SLEW_AXIS, DETAIL_LOAD_AXIS
    )
    out: Dict[Tuple[str, str], RatioBounds] = {}
    for a in library.corners:
        for b in library.corners:
            if a.name == b.name:
                continue
            cloud = _ratio_cloud(library, grids, a, b, wls)
            out[(a.name, b.name)] = fit_ratio_bounds(cloud, degree=degree)
    return out
