"""Stage-delay lookup tables for inverter pairs (paper Figure 3).

The paper's global ECO realizes LP-requested arc delays by re-inserting
*inverter pairs* along each arc.  To make that search fast it characterizes,
once per technology, two lookup tables per corner:

* ``LUTuniform`` — the steady-state (slew-converged) stage delay of an
  infinite chain of identical inverter pairs, per (gate size, routed
  wirelength between consecutive inverters).  Applied to the middle pairs
  of an arc.
* ``LUTdetail`` — the stage delay as a function of *input slew* and *fanout
  load* per (gate size, wirelength).  Applied to the first and last pairs
  of an arc, whose boundary conditions differ from the steady state.

Wirelengths sweep 10um..200um in 5um steps, matching the paper.

Both tables are built by :func:`stage_delays`, the array form of the
scalar :func:`stage_delay` (kept unchanged as its definition and test
oracle); every table value equals the scalar result bit for bit.  A
:class:`StageDelayLUT` stores them as the arrays characterization
produces — ``(sizes, wirelengths)`` for LUTuniform and ``(sizes,
wirelengths, slews, loads)`` for LUTdetail — which the ECO candidate
kernel gathers from directly and the scalar accessors read through
:func:`~repro.tech.cells.bilinear`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.route.congestion import chain_length_factor
from repro.route.rc_net import straight_wire_moments
from repro.sta.signoff import (
    LOAD_GAIN,
    LOAD_SCALE_FF,
    MAX_SIZE,
    REFERENCE_SIZE,
    SLEW_GAIN,
    SLEW_SCALE_PS,
    signoff_gate_factor,
)
from repro.sta.slew import LN9, wire_degraded_slew
from repro.tech.cells import _exact_tanh, bilinear
from repro.tech.corners import Corner
from repro.tech.library import Library

#: Wirelength sweep (um) between consecutive inverters: 10..200 step 5.
DEFAULT_WL_AXIS: Tuple[float, ...] = tuple(float(w) for w in range(10, 201, 5))

#: Input-slew axis (ps) for LUTdetail.
DETAIL_SLEW_AXIS: Tuple[float, ...] = (5.0, 15.0, 35.0, 75.0, 150.0)

#: Fanout-load axis (fF) for LUTdetail.
DETAIL_LOAD_AXIS: Tuple[float, ...] = (1.0, 4.0, 12.0, 32.0, 80.0)

#: Convergence tolerance (ps) for the steady-state slew fixed point.
_SLEW_TOL_PS = 0.01

#: Iteration cap for the slew fixed point.
_MAX_FIXED_POINT_ITERS = 60


class _HopRow:
    """Dense ``(delay, elmore)`` memo of one (library, corner, load) key.

    Indexed by the 0.25-um length bucket ``round(length * 4)``
    (round-half-even, like ``np.rint``), so every length in a bucket maps
    to one value: the hop timed at the bucket length ``bucket / 4`` and
    the row's quantized load.  Holding the library keeps its ``id`` from
    being reused while the row lives.
    """

    __slots__ = ("library", "corner", "load_ff", "delay", "elmore", "filled")

    def __init__(self, library: Library, corner: Corner, load_ff: float) -> None:
        self.library = library
        self.corner = corner
        self.load_ff = load_ff
        self.delay = np.zeros(64)
        self.elmore = np.zeros(64)
        self.filled = np.zeros(64, dtype=bool)

    def grow(self, needed: int) -> None:
        """Double the capacity until ``needed`` buckets fit."""
        capacity = self.delay.size
        while capacity < needed:
            capacity *= 2
        pad = capacity - self.delay.size
        self.delay = np.concatenate([self.delay, np.zeros(pad)])
        self.elmore = np.concatenate([self.elmore, np.zeros(pad)])
        self.filled = np.concatenate([self.filled, np.zeros(pad, dtype=bool)])

    def fill(self, buckets: Sequence[int]) -> None:
        """Time each bucket's hop, all in one straight-wire moment pass."""
        buckets = np.asarray(buckets, dtype=np.intp)
        lengths = buckets / 4.0 * chain_length_factor()
        wire = self.library.wire(self.corner)
        elmore, d2m = straight_wire_moments(
            wire.res_per_um, wire.cap_per_um, lengths, self.load_ff
        )
        self.delay[buckets] = d2m
        self.elmore[buckets] = elmore
        self.filled[buckets] = True


#: Process-wide hop memo, one dense row per (library id, corner, load
#: quantized to 0.05 fF).  The ECO search evaluates the same hops
#: thousands of times; a row fills its missing buckets in one pass.
_HOP_ROWS: Dict[Tuple[int, str, float], _HopRow] = {}


def clear_hop_cache() -> None:
    """Drop the process-wide hop memo (benches use this between timed runs)."""
    _HOP_ROWS.clear()


def _hop_row(library: Library, corner: Corner, load_ff: float, needed: int) -> _HopRow:
    """The memo row of (library, corner, quantized load), ``needed`` buckets long."""
    load_key = round(load_ff * 20.0) / 20.0
    key = (id(library), corner.name, load_key)
    row = _HOP_ROWS.get(key)
    if row is None:
        row = _HOP_ROWS[key] = _HopRow(library, corner, load_key)
    if row.delay.size < needed:
        row.grow(needed)
    return row


def hop_wire_delays(
    library: Library,
    corner: Corner,
    lengths: np.ndarray,
    loads: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`hop_wire_delay` for every (load, length) pair, as arrays.

    Returns ``(delay, elmore)``, each of shape ``(len(loads),
    lengths.size)``, gathered from the memo rows.  Lengths under 0.125 um
    land in bucket 0, the zero-length RC net, while a length of exactly
    zero short-circuits to ``(0, 0)`` as the scalar call does; every
    value equals the scalar call's bit for bit.
    """
    lengths = np.asarray(lengths, dtype=float).reshape(-1)
    if lengths.size and float(lengths.min()) <= 0.0:
        keep = lengths > 0.0
        delay = np.zeros((len(loads), lengths.size))
        elmore = np.zeros_like(delay)
        delay[:, keep], elmore[:, keep] = hop_wire_delays(
            library, corner, lengths[keep], loads
        )
        return delay, elmore
    buckets = np.rint(lengths * 4.0).astype(np.intp)
    needed = int(buckets.max()) + 1 if buckets.size else 0
    delay = np.empty((len(loads), lengths.size))
    elmore = np.empty_like(delay)
    for i, load_ff in enumerate(loads):
        row = _hop_row(library, corner, load_ff, needed)
        missing = ~row.filled[buckets]
        if missing.any():
            row.fill(np.unique(buckets[missing]))
        delay[i] = row.delay[buckets]
        elmore[i] = row.elmore[buckets]
    return delay, elmore


def hop_wire_delay(
    library: Library,
    corner: Corner,
    wirelength_um: float,
    load_ff: float,
) -> Tuple[float, float]:
    """Distributed wire delay and Elmore of one hop with a far pin load.

    Returns ``(delay_ps, elmore_ps)``: the delay uses the same segmented
    D2M evaluation as the golden timer (so LUT characterization carries no
    lumped-vs-distributed bias) and includes the chain-level routed-length
    overhead (the LUTs are characterized through the router, exactly as
    the paper's technology characterization is).  The Elmore value feeds
    PERI slew degradation at the far pin.  Memoized on 0.25-um length
    buckets and 0.05-fF loads, far below any delay-relevant resolution.
    """
    if wirelength_um <= 0.0:
        return 0.0, 0.0
    bucket = int(round(wirelength_um * 4.0))
    row = _hop_row(library, corner, load_ff, bucket + 1)
    if not row.filled[bucket]:
        row.fill((bucket,))
    return float(row.delay[bucket]), float(row.elmore[bucket])


def stage_delay(
    library: Library,
    corner: Corner,
    size: int,
    wirelength_um: float,
    input_slew_ps: float,
    fanout_load_ff: float,
) -> Tuple[float, float]:
    """Delay and output slew (ps) of one inverter-pair stage.

    A stage is one co-located inverter pair followed by its fanout wire of
    ``wirelength_um`` ending at the next stage's input pin, which presents
    ``fanout_load_ff``.  Stage delay = both gate delays of the pair plus
    the fanout-net wire delay — the same decomposition the golden timer
    applies to a rebuilt arc, so LUT estimates and golden measurements
    disagree only through genuinely unmodeled effects (distributed-RC
    vs lumped wire, legalization displacement, slew iteration).
    """
    cell = library.cell(size, corner)
    routed_wl = wirelength_um * chain_length_factor()
    net_load = library.wire(corner).segment_cap(routed_wl) + fanout_load_ff

    internal_delay = cell.delay(input_slew_ps, cell.input_cap_ff)
    internal_slew = cell.output_slew(input_slew_ps, cell.input_cap_ff)
    drive_delay = cell.delay(internal_slew, net_load)
    drive_slew = cell.output_slew(internal_slew, net_load)
    # LUTs are characterized through the signoff flow, so they carry the
    # golden engine's gate-delay correction (repro.sta.signoff).
    pair_delay = (internal_delay + drive_delay) * signoff_gate_factor(
        size, input_slew_ps, net_load
    )

    wire_delay, wire_elmore = hop_wire_delay(
        library, corner, wirelength_um, fanout_load_ff
    )
    out_slew = wire_degraded_slew(drive_slew, wire_elmore)
    return pair_delay + wire_delay, out_slew


def steady_state_stage(
    library: Library, corner: Corner, size: int, wirelength_um: float
) -> Tuple[float, float]:
    """Slew-converged (steady-state) stage delay and slew for a uniform chain.

    Iterates the stage's slew map to its fixed point, i.e. the operating
    point of an inverter pair deep inside a long uniform chain, where the
    fanout load is the next pair's own input capacitance.
    """
    fanout = library.cell(size, corner).input_cap_ff
    slew = library.source_slew_ps
    delay = 0.0
    for _ in range(_MAX_FIXED_POINT_ITERS):
        delay, new_slew = stage_delay(
            library, corner, size, wirelength_um, slew, fanout
        )
        if abs(new_slew - slew) < _SLEW_TOL_PS:
            return delay, new_slew
        slew = new_slew
    return delay, slew


def stage_delays(
    library: Library,
    corner: Corner,
    size: int,
    wirelength_um,
    input_slew_ps,
    fanout_load_ff,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`stage_delay` over a batch of (wirelength, slew, load) lanes.

    The three arguments broadcast to one lane shape; returns ``(delay,
    out_slew)`` arrays of that shape.  Every lane repeats the scalar
    operation sequence: NLDM lookups through
    :meth:`~repro.tech.cells.NLDMTable.lookup_array`, the signoff factor
    as ``1.0 + load_term - slew_term`` with ``math.tanh`` over unique
    values, the hop from :func:`hop_wire_delays`, and PERI as
    ``sqrt(s*s + step*step)``.  Each value therefore equals the scalar
    call's bit for bit, and inputs the scalar call rejects (a negative
    slew or load) raise the same :class:`ValueError`.
    """
    wl, slew, load = np.broadcast_arrays(
        np.asarray(wirelength_um, dtype=float),
        np.asarray(input_slew_ps, dtype=float),
        np.asarray(fanout_load_ff, dtype=float),
    )
    shape = wl.shape
    wl, slew, load = wl.ravel(), slew.ravel(), load.ravel()
    cell = library.cell(size, corner)
    routed_wl = wl * chain_length_factor()
    if np.any(routed_wl < 0.0):
        raise ValueError("negative wire length")
    net_load = library.wire(corner).cap_per_um * routed_wl + load
    if np.any(slew < 0.0) or np.any(net_load < 0.0):
        raise ValueError("negative slew or load")

    pin = cell.input_cap_ff
    internal_delay = cell.delay_table.lookup_array(slew, pin)
    internal_slew = cell.slew_table.lookup_array(slew, pin)
    drive_delay = cell.delay_table.lookup_array(internal_slew, net_load)
    drive_slew = cell.slew_table.lookup_array(internal_slew, net_load)
    n = wl.size
    tanh = _exact_tanh(np.concatenate([net_load / LOAD_SCALE_FF, slew / SLEW_SCALE_PS]))
    load_term = LOAD_GAIN * tanh[:n] * math.sqrt(REFERENCE_SIZE / size)
    slew_term = SLEW_GAIN * tanh[n:] * (size / MAX_SIZE)
    pair_delay = (internal_delay + drive_delay) * (1.0 + load_term - slew_term)

    # Each lane's hop, gathered from the row of its own load.
    hop_loads, which = np.unique(load, return_inverse=True)
    hop_d, hop_e = hop_wire_delays(library, corner, wl, hop_loads.tolist())
    lane = np.arange(n)
    step = LN9 * hop_e[which, lane]
    if np.any(drive_slew < 0.0) or np.any(step < 0.0):
        raise ValueError("negative slew")
    out_slew = np.sqrt(drive_slew * drive_slew + step * step)
    return (pair_delay + hop_d[which, lane]).reshape(shape), out_slew.reshape(shape)


def _steady_state_stages(
    library: Library, corner: Corner, size: int, wl_axis: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`steady_state_stage` for every wirelength lane at once.

    A masked fixed-point iteration: a lane stops once its slew moves less
    than ``_SLEW_TOL_PS`` and keeps that ``(delay, slew)``; a lane still
    running after ``_MAX_FIXED_POINT_ITERS`` keeps its last values, which
    is what the scalar loop returns too.
    """
    wl = np.asarray(wl_axis, dtype=float)
    fanout = library.cell(size, corner).input_cap_ff
    delay = np.zeros(wl.size)
    slew = np.full(wl.size, library.source_slew_ps)
    running = np.arange(wl.size)
    for _ in range(_MAX_FIXED_POINT_ITERS):
        if not running.size:
            break
        d, new_slew = stage_delays(
            library, corner, size, wl[running], slew[running], fanout
        )
        delay[running] = d
        settled = np.abs(new_slew - slew[running]) < _SLEW_TOL_PS
        slew[running] = new_slew
        running = running[~settled]
    return delay, slew


@dataclass(frozen=True, eq=False)
class StageDelayLUT:
    """Characterized stage-delay tables for one corner, as arrays.

    ``uniform`` and ``uniform_slew`` are the steady-state stage delay
    and slew, ``(sizes, wl_axis)``; ``detail`` and ``detail_slew`` the
    boundary-pair stage delay and output slew over the (``slew_axis``,
    ``load_axis``) grid, ``(sizes, wl_axis, slew_axis, load_axis)``.
    The arrays come straight from :func:`characterize_stage_luts`; the
    ECO candidate kernel gathers from them, and the accessors below read
    them for the scalar oracle.
    """

    corner: Corner
    sizes: Tuple[int, ...]
    wl_axis: Tuple[float, ...]
    slew_axis: np.ndarray
    load_axis: np.ndarray
    uniform: np.ndarray
    uniform_slew: np.ndarray
    detail: np.ndarray
    detail_slew: np.ndarray

    def uniform_delay(self, size: int, wirelength_um: float) -> float:
        """Steady-state stage delay at the nearest characterized wirelength."""
        return float(self.uniform[self.sizes.index(size), self.wl_index(wirelength_um)])

    def steady_slew(self, size: int, wirelength_um: float) -> float:
        """Steady-state stage slew at the nearest characterized wirelength."""
        return float(
            self.uniform_slew[self.sizes.index(size), self.wl_index(wirelength_um)]
        )

    def detail_delay(
        self, size: int, wirelength_um: float, slew_ps: float, load_ff: float
    ) -> float:
        """Boundary-pair stage delay from LUTdetail (interpolated)."""
        grid = self.detail[self.sizes.index(size), self.wl_index(wirelength_um)]
        return bilinear(self.slew_axis, self.load_axis, grid, slew_ps, load_ff)

    def wl_index(self, wirelength_um: float) -> int:
        """Index of the nearest characterized wirelength (first tie wins)."""
        return int(np.argmin(np.abs(np.asarray(self.wl_axis) - wirelength_um)))

    def snap_wl(self, wirelength_um: float) -> float:
        """Clamp and snap a wirelength to the characterized grid."""
        return float(self.wl_axis[self.wl_index(wirelength_um)])


def characterize_stage_luts(
    library: Library,
    sizes: Sequence[int] = (),
    wl_axis: Sequence[float] = DEFAULT_WL_AXIS,
    detail_slew_axis: Sequence[float] = DETAIL_SLEW_AXIS,
    detail_load_axis: Sequence[float] = DETAIL_LOAD_AXIS,
) -> Dict[str, StageDelayLUT]:
    """Characterize LUTuniform and LUTdetail for every corner of ``library``.

    This is the once-per-technology step of the paper's Section 4.1.  The
    result maps corner name to that corner's :class:`StageDelayLUT`.  Per
    (corner, size), LUTdetail is one :func:`stage_delays` grid over
    (wirelength, slew, load) and LUTuniform one masked fixed-point
    iteration over the wirelength lanes; every value equals the scalar
    :func:`stage_delay` / :func:`steady_state_stage` result bit for bit.
    """
    use_sizes = tuple(sizes) if sizes else library.sizes
    wls = tuple(wl_axis)
    slews = np.asarray(detail_slew_axis, dtype=float)
    loads = np.asarray(detail_load_axis, dtype=float)
    lanes = (np.asarray(wls, dtype=float)[:, None, None], slews[:, None], loads)
    luts: Dict[str, StageDelayLUT] = {}
    for corner in library.corners:
        steady = [_steady_state_stages(library, corner, s, wls) for s in use_sizes]
        grids = [stage_delays(library, corner, s, *lanes) for s in use_sizes]
        luts[corner.name] = StageDelayLUT(
            corner=corner,
            sizes=use_sizes,
            wl_axis=wls,
            slew_axis=slews,
            load_axis=loads,
            uniform=np.array([d for d, _ in steady]),
            uniform_slew=np.array([s for _, s in steady]),
            detail=np.array([d for d, _ in grids]),
            detail_slew=np.array([s for _, s in grids]),
        )
    return luts
