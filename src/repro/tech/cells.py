"""Inverter cells with NLDM-style (input slew x output load) lookup tables.

Every timing quantity the STA engine consumes — cell delay and output slew —
is read from a two-dimensional table indexed by input slew (ps) and output
load capacitance (fF), exactly like a Liberty NLDM group.  Tables are
*generated* from a smooth analytical template at characterization time, but
the STA only ever sees the sampled grid plus bilinear interpolation, so the
table-vs-reality gap the paper's ML models must absorb is genuine.

The array kernels (timing, features, ECO start pairs) read a library's
tables from one :class:`NLDMStack`, built once per library
(:attr:`~repro.tech.library.Library.nldm`), whose lookups equal
:meth:`NLDMTable.lookup` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.tech.library import Library


@dataclass(frozen=True)
class NLDMTable:
    """A Liberty-style 2-D lookup table with bilinear interpolation.

    ``slew_axis`` (ps) and ``load_axis`` (fF) must be strictly increasing.
    ``values`` has shape ``(len(slew_axis), len(load_axis))``.  Queries
    outside the grid are clamped to the boundary (conservative, like most
    production timers when extrapolation is disabled).
    """

    slew_axis: Tuple[float, ...]
    load_axis: Tuple[float, ...]
    values: Tuple[Tuple[float, ...], ...]

    def __post_init__(self) -> None:
        slews = np.asarray(self.slew_axis, dtype=float)
        loads = np.asarray(self.load_axis, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if slews.ndim != 1 or loads.ndim != 1:
            raise ValueError("axes must be one-dimensional")
        if np.any(np.diff(slews) <= 0) or np.any(np.diff(loads) <= 0):
            raise ValueError("table axes must be strictly increasing")
        if vals.shape != (slews.size, loads.size):
            raise ValueError(
                f"values shape {vals.shape} does not match axes "
                f"({slews.size}, {loads.size})"
            )
        # Cache the numpy views: lookup() is the hottest call in the whole
        # library (STA + LUT characterization), and re-converting the
        # frozen tuples per call costs ~20x the interpolation itself.
        object.__setattr__(self, "_slews", slews)
        object.__setattr__(self, "_loads", loads)
        object.__setattr__(self, "_vals", vals)

    @property
    def slew_grid(self) -> np.ndarray:
        """The slew axis as a float64 array (read-only; cached at init)."""
        return self._slews

    @property
    def load_grid(self) -> np.ndarray:
        """The load axis as a float64 array (read-only; cached at init)."""
        return self._loads

    @property
    def value_grid(self) -> np.ndarray:
        """The value surface as a ``(slews, loads)`` float64 array."""
        return self._vals

    def lookup(self, slew_ps: float, load_ff: float) -> float:
        """Bilinearly interpolated table value at (slew, load), clamped."""
        return bilinear(self._slews, self._loads, self._vals, slew_ps, load_ff)

    def lookup_array(self, slew_ps, load_ff) -> np.ndarray:
        """:meth:`lookup` elementwise over broadcast slew/load arrays.

        Every value equals the scalar lookup bit for bit: the general
        two-axis branch runs :func:`_vector_weights` and :func:`_blend`,
        and a table with a single-point axis takes :meth:`lookup` itself.
        """
        slews = self._slews
        loads = self._loads
        if slews.size < 2 or loads.size < 2:
            return np.vectorize(self.lookup, otypes=[float])(slew_ps, load_ff)
        si, u = _vector_weights(slews, np.asarray(slew_ps, dtype=float))
        ci, t = _vector_weights(loads, np.asarray(load_ff, dtype=float))
        return _blend(self._vals.reshape(-1), si * loads.size + ci, loads.size, u, t)


def bilinear(
    slews: np.ndarray,
    loads: np.ndarray,
    vals: np.ndarray,
    slew_ps: float,
    load_ff: float,
) -> float:
    """One clamped bilinear lookup of a ``(slews, loads)`` grid ``vals``.

    The scalar body of :meth:`NLDMTable.lookup`, shared by every table
    stored as arrays (the stage-delay LUTs); single-point axes take
    their own one-axis branches.
    """
    s = float(np.clip(slew_ps, slews[0], slews[-1]))
    c = float(np.clip(load_ff, loads[0], loads[-1]))

    si = int(np.searchsorted(slews, s, side="right") - 1)
    ci = int(np.searchsorted(loads, c, side="right") - 1)
    si = min(max(si, 0), slews.size - 2) if slews.size > 1 else 0
    ci = min(max(ci, 0), loads.size - 2) if loads.size > 1 else 0

    if slews.size == 1 and loads.size == 1:
        return float(vals[0, 0])
    if slews.size == 1:
        t = (c - loads[ci]) / (loads[ci + 1] - loads[ci])
        return float(vals[0, ci] * (1 - t) + vals[0, ci + 1] * t)
    if loads.size == 1:
        u = (s - slews[si]) / (slews[si + 1] - slews[si])
        return float(vals[si, 0] * (1 - u) + vals[si + 1, 0] * u)

    u = (s - slews[si]) / (slews[si + 1] - slews[si])
    t = (c - loads[ci]) / (loads[ci + 1] - loads[ci])
    v00 = vals[si, ci]
    v01 = vals[si, ci + 1]
    v10 = vals[si + 1, ci]
    v11 = vals[si + 1, ci + 1]
    return float(
        v00 * (1 - u) * (1 - t)
        + v01 * (1 - u) * t
        + v10 * u * (1 - t)
        + v11 * u * t
    )


def _vector_weights(axis: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Cell index and fraction of each query on one NLDM axis.

    Replicates :meth:`NLDMTable.lookup` (clamp, right-searchsorted minus
    one, clamp to the last cell) on the general two-axis branch; the
    min/max clamps equal ``np.clip``.
    """
    c = np.minimum(np.maximum(x, axis[0]), axis[-1])
    i = np.searchsorted(axis, c, side="right") - 1
    i = np.minimum(np.maximum(i, 0), axis.size - 2)
    return i, (c - axis[i]) / (axis[i + 1] - axis[i])


def _blend(flat: np.ndarray, i00, n_load: int, u, t) -> np.ndarray:
    """Bilinear blend of a flattened (slew, load) grid around flat index ``i00``.

    ``i00 + 1`` is the next load point and ``i00 + n_load`` the next slew
    point; the four terms keep :meth:`NLDMTable.lookup`'s associativity.
    """
    return (
        flat[i00] * (1 - u) * (1 - t)
        + flat[i00 + 1] * (1 - u) * t
        + flat[i00 + n_load] * u * (1 - t)
        + flat[i00 + (n_load + 1)] * u * t
    )


def _exact_tanh(values: np.ndarray) -> np.ndarray:
    """Elementwise tanh of a 1-D array that matches ``math.tanh`` bit for bit.

    ``np.tanh`` differs from the C library in the last ulp on some
    platforms, so evaluate each unique value once through ``math.tanh``
    and gather.
    """
    uniq, inverse = np.unique(values, return_inverse=True)
    out = np.fromiter(map(math.tanh, uniq.tolist()), dtype=float, count=uniq.size)
    return out[inverse]


class NLDMStack:
    """A library's NLDM tables stacked once, for the array kernels.

    ``delay`` and ``slew`` are ``(corners, sizes, slews, loads)`` arrays
    and ``input_cap`` is ``(corners, sizes)``, in library corner and size
    order; ``res_per_um`` and ``cap_per_um`` hold each corner's wire
    parasitics.  Built by :attr:`~repro.tech.library.Library.nldm` on
    first use, so the timing, feature and ECO kernels of one library
    share it.  A library the stack cannot represent raises
    :class:`ValueError` naming the reason: no drive sizes, a source
    drive size outside the size list, a single-point axis (the scalar
    lookup's special-case branches), or cells off one grid.

    :meth:`lookup` reads one value per lane from the flat tables through
    :func:`_blend`, so every value equals :meth:`NLDMTable.lookup` bit
    for bit.
    """

    def __init__(self, library: Library) -> None:
        sizes = tuple(library.sizes)
        if not sizes:
            raise ValueError("library has no drive sizes")
        if library.source_drive_size not in sizes:
            raise ValueError("source drive size outside the size list")
        corners = list(library.corners)
        cells = [[library.cell(size, corner) for size in sizes] for corner in corners]
        ref = cells[0][0].delay_table
        self.slew_axis = ref.slew_grid
        self.load_axis = ref.load_grid
        if self.slew_axis.size < 2 or self.load_axis.size < 2:
            raise ValueError("NLDM axes too small to stack")
        for row in cells:
            for cell in row:
                for table in (cell.delay_table, cell.slew_table):
                    if not (
                        np.array_equal(table.slew_grid, self.slew_axis)
                        and np.array_equal(table.load_grid, self.load_axis)
                    ):
                        raise ValueError("cells do not share one NLDM grid")
        self.sizes = sizes
        self.size_pos = {size: i for i, size in enumerate(sizes)}
        self.corner_row = {corner.name: k for k, corner in enumerate(corners)}
        self.delay = np.array([[c.delay_table.value_grid for c in r] for r in cells])
        self.slew = np.array([[c.slew_table.value_grid for c in r] for r in cells])
        self.input_cap = np.array([[c.input_cap_ff for c in row] for row in cells])
        wires = [library.wire(corner) for corner in corners]
        self.res_per_um = np.array([w.res_per_um for w in wires])
        self.cap_per_um = np.array([w.cap_per_um for w in wires])
        self.delay_flat = self.delay.reshape(-1)
        self.slew_flat = self.slew.reshape(-1)
        # Every pair's first stage drives its own input pin.
        self._pin_w = _vector_weights(self.load_axis, self.input_cap)

    def plane(self, corner, size):
        """Flat offset of each lane's (corner, size) table."""
        return (corner * len(self.sizes) + size) * self.slew_axis.size

    def lookup(self, table: np.ndarray, plane, slew_w, load_w) -> np.ndarray:
        """``table`` (``delay_flat`` or ``slew_flat``) at each lane.

        ``slew_w`` and ``load_w`` are the lanes' ``(index, fraction)``
        pairs from :func:`_vector_weights` on :attr:`slew_axis` and
        :attr:`load_axis`; a stage's delay and slew lookups share them.
        """
        i, u = slew_w
        j, t = load_w
        n_load = self.load_axis.size
        return _blend(table, (plane + i) * n_load + j, n_load, u, t)

    def pair(self, corner, size, slew, load) -> Tuple[np.ndarray, np.ndarray]:
        """Inverter pair ``(d1 + d2, s2)`` of each (corner, size) lane.

        The four lookups of :func:`repro.sta.gate.inverter_pair_timing`:
        the first stage into the pair's own input pin, the second, at
        the first stage's output slew, into ``load``.  The index arrays
        and ``slew``/``load`` broadcast together.
        """
        plane = self.plane(corner, size)
        pin_w = (self._pin_w[0][corner, size], self._pin_w[1][corner, size])
        slew_w = _vector_weights(self.slew_axis, slew)
        d1 = self.lookup(self.delay_flat, plane, slew_w, pin_w)
        s1 = self.lookup(self.slew_flat, plane, slew_w, pin_w)
        slew_w = _vector_weights(self.slew_axis, s1)
        load_w = _vector_weights(self.load_axis, load)
        d2 = self.lookup(self.delay_flat, plane, slew_w, load_w)
        s2 = self.lookup(self.slew_flat, plane, slew_w, load_w)
        return d1 + d2, s2


#: Characterization grid (ps) for input slew.
DEFAULT_SLEW_AXIS: Tuple[float, ...] = (5.0, 10.0, 20.0, 40.0, 80.0, 160.0)

#: Characterization grid (fF) for output load.
DEFAULT_LOAD_AXIS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _delay_template(
    slew: np.ndarray,
    load: np.ndarray,
    drive_res_kohm: float,
    intrinsic_ps: float,
) -> np.ndarray:
    """Smooth analytical delay surface used to populate NLDM grids.

    delay = intrinsic + R_drive * C_load + slew-pushout term, with a mild
    square-root nonlinearity on the slew term so the surface is not exactly
    planar (bilinear interpolation then has real, small error).
    """
    rc = drive_res_kohm * load
    pushout = 0.18 * slew + 0.45 * np.sqrt(slew * np.maximum(rc, 1e-6))
    return intrinsic_ps + rc + pushout


def _slew_template(
    slew: np.ndarray,
    load: np.ndarray,
    drive_res_kohm: float,
    intrinsic_ps: float,
) -> np.ndarray:
    """Smooth analytical output-slew surface (ps)."""
    rc = drive_res_kohm * load
    return np.maximum(2.0, 0.9 * intrinsic_ps + 1.9 * rc + 0.06 * slew)


@dataclass(frozen=True)
class InverterCell:
    """One inverter drive strength of the clock library, at one corner.

    Attributes
    ----------
    name:
        Cell name, e.g. ``"INVX8"``.
    size:
        Drive strength multiple (2, 4, 8, 16, 32).
    input_cap_ff:
        Clock-pin input capacitance.
    area_um2:
        Placement footprint.
    delay_table / slew_table:
        NLDM groups for propagation delay and output transition.
    leakage_mw:
        Leakage power contribution (mW), used by the power model.
    internal_energy_fj:
        Internal switching energy per output toggle (fJ).
    """

    name: str
    size: int
    input_cap_ff: float
    area_um2: float
    delay_table: NLDMTable
    slew_table: NLDMTable
    leakage_mw: float
    internal_energy_fj: float

    def delay(self, slew_ps: float, load_ff: float) -> float:
        """Propagation delay (ps) at the given input slew and output load."""
        return self.delay_table.lookup(slew_ps, load_ff)

    def output_slew(self, slew_ps: float, load_ff: float) -> float:
        """Output transition (ps) at the given input slew and output load."""
        return self.slew_table.lookup(slew_ps, load_ff)

    def drive_resistance_kohm(self) -> float:
        """Effective drive resistance estimated from the delay table slope.

        Used by analytical (Elmore / D2M) predictors; the golden timer never
        calls this — it reads the table directly.
        """
        loads = self.delay_table.load_axis
        mid_slew = self.delay_table.slew_axis[len(self.delay_table.slew_axis) // 2]
        d_lo = self.delay(mid_slew, loads[0])
        d_hi = self.delay(mid_slew, loads[-1])
        return (d_hi - d_lo) / (loads[-1] - loads[0])


def characterize_inverter(
    size: int,
    gate_factor: float,
    unit_drive_res_kohm: float = 3.2,
    unit_input_cap_ff: float = 0.52,
    unit_area_um2: float = 0.85,
    intrinsic_ps: float = 9.0,
    slew_axis: Sequence[float] = DEFAULT_SLEW_AXIS,
    load_axis: Sequence[float] = DEFAULT_LOAD_AXIS,
) -> InverterCell:
    """Generate an :class:`InverterCell` for a drive ``size`` at one corner.

    ``gate_factor`` is the corner's gate-delay multiplier from
    :class:`repro.tech.derating.DerateModel`; it scales both the delay and
    output-slew surfaces (input capacitance and area are corner-invariant).
    """
    if size < 1:
        raise ValueError("size must be a positive drive multiple")
    slews = np.asarray(slew_axis, dtype=float)
    loads = np.asarray(load_axis, dtype=float)
    drive_res = unit_drive_res_kohm / size
    s_grid, c_grid = np.meshgrid(slews, loads, indexing="ij")
    delay_vals = gate_factor * _delay_template(s_grid, c_grid, drive_res, intrinsic_ps)
    slew_vals = gate_factor * _slew_template(s_grid, c_grid, drive_res, intrinsic_ps)
    return InverterCell(
        name=f"INVX{size}",
        size=size,
        input_cap_ff=unit_input_cap_ff * size,
        area_um2=unit_area_um2 * size,
        delay_table=NLDMTable(
            tuple(slews), tuple(loads), tuple(map(tuple, delay_vals))
        ),
        slew_table=NLDMTable(
            tuple(slews), tuple(loads), tuple(map(tuple, slew_vals))
        ),
        leakage_mw=2.0e-5 * size,
        internal_energy_fj=0.55 * size,
    )
