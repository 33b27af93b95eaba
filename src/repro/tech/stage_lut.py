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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sta.slew import wire_degraded_slew
from repro.tech.cells import NLDMTable
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


class HopDelayCache:
    """Bounded LRU memo for :func:`hop_wire_delay`.

    The ECO candidate search evaluates the same (corner, length, load)
    combinations thousands of times, and each cold evaluation builds a
    discretized RC tree.  Keys quantize to 0.25 um and 0.05 fF — far below
    any delay-relevant resolution.  Like :class:`repro.route.rc_net.EdgeRCCache`,
    the memo relies on dict insertion order for LRU bookkeeping: a hit
    re-inserts its key, and when the cache is full the oldest half is
    dropped in one sweep (amortized O(1), no per-entry linked list).
    """

    def __init__(self, max_entries: int = 200_000) -> None:
        if max_entries < 2:
            raise ValueError("cache needs at least two entries")
        self._max_entries = max_entries
        self._values: Dict[Tuple[int, str, float, float], Tuple[float, float]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._values)

    def clear(self) -> None:
        self._values.clear()

    def metrics(
        self, library: Library, corner: Corner, wirelength_um: float, load_ff: float
    ) -> Tuple[float, float]:
        """``(delay_ps, elmore_ps)`` for one hop, memoized on quantized keys."""
        from repro.route.congestion import chain_length_factor
        from repro.route.rc_net import edge_rc_tree
        from repro.sta.d2m import d2m_delays
        from repro.sta.elmore import elmore_delays
        from repro.geometry import Point

        key = (
            id(library),
            corner.name,
            round(wirelength_um * 4.0) / 4.0,
            round(load_ff * 20.0) / 20.0,
        )
        cached = self._values.get(key)
        if cached is not None:
            self.hits += 1
            # Refresh recency: move the key to the dict's insertion tail.
            del self._values[key]
            self._values[key] = cached
            return cached
        self.misses += 1
        length = key[2] * chain_length_factor()
        wire = library.wire(corner)
        rc = edge_rc_tree([Point(0.0, 0.0), Point(length, 0.0)], wire, key[3])
        delay = d2m_delays(rc)["sink"]
        elmore = elmore_delays(rc)["sink"]
        if len(self._values) >= self._max_entries:
            stale = list(islice(self._values, self._max_entries // 2))
            for old in stale:
                del self._values[old]
            self.evictions += len(stale)
        self._values[key] = (delay, elmore)
        return delay, elmore


#: Process-wide hop memo.  The ECO kernel's dense rows fill their misses
#: here and the scalar ``_estimate`` oracle reads it directly; both hit
#: identical quantized keys, so warm entries transfer for free.
_HOP_CACHE = HopDelayCache()


class _HopRow:
    """Dense ``(delay, elmore)`` memo of one (library, corner, load) key.

    Indexed by the 0.25-um length bucket ``rint(length * 4)``, the same
    round-half-even quantization :class:`HopDelayCache` keys on, so every
    length in a bucket maps to one value.  Holding the library keeps its
    ``id`` from being reused while the row lives.
    """

    __slots__ = ("library", "delay", "elmore", "filled")

    def __init__(self, library: Library, capacity: int) -> None:
        self.library = library
        self.delay = np.zeros(capacity)
        self.elmore = np.zeros(capacity)
        self.filled = np.zeros(capacity, dtype=bool)

    def grow(self, needed: int) -> None:
        """Double the capacity until ``needed`` buckets fit."""
        capacity = self.delay.size
        while capacity < needed:
            capacity *= 2
        pad = capacity - self.delay.size
        self.delay = np.concatenate([self.delay, np.zeros(pad)])
        self.elmore = np.concatenate([self.elmore, np.zeros(pad)])
        self.filled = np.concatenate([self.filled, np.zeros(pad, dtype=bool)])


#: Dense companion of ``_HOP_CACHE`` for the ECO kernel's vector gathers,
#: keyed like it minus the length: (library id, corner, quantized load).
_HOP_ROWS: Dict[Tuple[int, str, float], _HopRow] = {}


def clear_hop_cache() -> None:
    """Drop the process-wide hop memos (benches use this between timed runs)."""
    _HOP_CACHE.clear()
    _HOP_ROWS.clear()


def hop_wire_delays(
    library: Library,
    corner: Corner,
    lengths: np.ndarray,
    loads: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`hop_wire_delay` for every (load, length) pair, as arrays.

    Returns ``(delay, elmore)``, each of shape ``(len(loads),
    lengths.size)``, gathered from a dense per-(corner, load) memo.  A
    missing bucket is filled through :func:`hop_wire_delay` with an
    original length from that bucket, not ``bucket / 4``: lengths under
    0.125 um land in bucket 0, which the scalar call times as a
    zero-length net, while a length of exactly zero short-circuits to
    ``(0, 0)``.  Every value therefore equals the scalar call's bit for
    bit.
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
        key = (id(library), corner.name, round(load_ff * 20.0) / 20.0)
        row = _HOP_ROWS.get(key)
        if row is None:
            row = _HOP_ROWS[key] = _HopRow(library, 64)
        if row.delay.size < needed:
            row.grow(needed)
        missing = ~row.filled[buckets]
        if missing.any():
            todo, first = np.unique(buckets[missing], return_index=True)
            originals = lengths[missing][first]
            for bucket, length in zip(todo.tolist(), originals.tolist()):
                d, e = hop_wire_delay(library, corner, length, load_ff)
                row.delay[bucket] = d
                row.elmore[bucket] = e
            row.filled[todo] = True
        delay[i] = row.delay[buckets]
        elmore[i] = row.elmore[buckets]
    return delay, elmore


def hop_wire_delay(
    library: Library,
    corner: Corner,
    wirelength_um: float,
    load_ff: float,
    cache: Optional[HopDelayCache] = None,
) -> Tuple[float, float]:
    """Distributed wire delay and Elmore of one hop with a far pin load.

    Returns ``(delay_ps, elmore_ps)``: the delay uses the same segmented
    D2M evaluation as the golden timer (so LUT characterization carries no
    lumped-vs-distributed bias) and includes the chain-level routed-length
    overhead (the LUTs are characterized through the router, exactly as
    the paper's technology characterization is).  The Elmore value feeds
    PERI slew degradation at the far pin.
    """
    if wirelength_um <= 0.0:
        return 0.0, 0.0
    return (cache if cache is not None else _HOP_CACHE).metrics(
        library, corner, wirelength_um, load_ff
    )


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
    from repro.route.congestion import chain_length_factor
    from repro.sta.signoff import signoff_gate_factor

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


@dataclass(frozen=True)
class StageLUTPlanes:
    """One corner's stage-delay LUTs compiled to dense arrays.

    ``uniform``/``uniform_slew`` have shape ``(sizes, wl_axis)``;
    ``detail``/``detail_slew`` have shape ``(sizes, wl_axis, slew_axis,
    load_axis)``.  Every value is the exact float stored in the source
    dicts/tables, so array gathers reproduce dict lookups bit for bit.
    The detail grids must share one (slew, load) axis pair across all
    (size, wirelength) entries — the compile step verifies that, and the
    ECO candidate kernel refuses LUTs that fail it
    (:class:`~repro.eco.candidate_kernel.ECOKernelUnsupported`).
    """

    sizes: Tuple[int, ...]
    wl_axis: Tuple[float, ...]
    uniform: np.ndarray
    uniform_slew: np.ndarray
    detail: np.ndarray
    detail_slew: np.ndarray
    detail_slew_axis: np.ndarray
    detail_load_axis: np.ndarray


@dataclass(frozen=True)
class StageDelayLUT:
    """Characterized stage-delay tables for one corner.

    ``uniform`` maps (size, wirelength) to the steady-state stage delay;
    ``uniform_slew`` to the steady-state slew.  ``detail`` maps (size,
    wirelength) to an :class:`NLDMTable` of stage delay over (input slew,
    fanout load); ``detail_slew`` to the matching output-slew table.
    """

    corner: Corner
    sizes: Tuple[int, ...]
    wl_axis: Tuple[float, ...]
    uniform: Dict[Tuple[int, float], float]
    uniform_slew: Dict[Tuple[int, float], float]
    detail: Dict[Tuple[int, float], NLDMTable]
    detail_slew: Dict[Tuple[int, float], NLDMTable]

    def uniform_delay(self, size: int, wirelength_um: float) -> float:
        """Steady-state stage delay at the nearest characterized wirelength."""
        return self.uniform[(size, self.snap_wl(wirelength_um))]

    def uniform_out_slew(self, size: int, wirelength_um: float) -> float:
        """Steady-state stage output slew at the nearest characterized WL."""
        return self.uniform_slew[(size, self.snap_wl(wirelength_um))]

    def detail_delay(
        self, size: int, wirelength_um: float, slew_ps: float, load_ff: float
    ) -> float:
        """Boundary-pair stage delay from LUTdetail (interpolated)."""
        return self.detail[(size, self.snap_wl(wirelength_um))].lookup(
            slew_ps, load_ff
        )

    def detail_out_slew(
        self, size: int, wirelength_um: float, slew_ps: float, load_ff: float
    ) -> float:
        """Boundary-pair stage output slew from LUTdetail (interpolated)."""
        return self.detail_slew[(size, self.snap_wl(wirelength_um))].lookup(
            slew_ps, load_ff
        )

    def snap_wl(self, wirelength_um: float) -> float:
        """Clamp and snap a wirelength to the characterized grid."""
        axis = np.asarray(self.wl_axis)
        idx = int(np.argmin(np.abs(axis - wirelength_um)))
        return float(axis[idx])

    def planes(self) -> StageLUTPlanes:
        """Compile (and memoize) this corner's tables as dense planes.

        Raises :class:`ValueError` when the tables cannot be compiled
        (detail grids that disagree on axes, or degenerate single-point
        axes that would take the scalar lookup's special-case branches).
        """
        cached = self.__dict__.get("_planes")
        if cached is not None:
            return cached
        if not self.sizes or not self.wl_axis:
            raise ValueError("cannot compile empty stage-delay LUT")
        ref = self.detail[(self.sizes[0], self.wl_axis[0])]
        sax = ref.slew_grid
        lax = ref.load_grid
        if sax.size < 2 or lax.size < 2:
            raise ValueError("detail axes too small to compile into planes")
        shape = (len(self.sizes), len(self.wl_axis))
        uniform = np.empty(shape)
        uniform_slew = np.empty(shape)
        detail = np.empty(shape + (sax.size, lax.size))
        detail_slew = np.empty_like(detail)
        for i, size in enumerate(self.sizes):
            for j, wl in enumerate(self.wl_axis):
                uniform[i, j] = self.uniform[(size, wl)]
                uniform_slew[i, j] = self.uniform_slew[(size, wl)]
                dtab = self.detail[(size, wl)]
                stab = self.detail_slew[(size, wl)]
                for table in (dtab, stab):
                    if not (
                        np.array_equal(table.slew_grid, sax)
                        and np.array_equal(table.load_grid, lax)
                    ):
                        raise ValueError("detail tables do not share one grid")
                detail[i, j] = dtab.value_grid
                detail_slew[i, j] = stab.value_grid
        planes = StageLUTPlanes(
            sizes=tuple(self.sizes),
            wl_axis=tuple(self.wl_axis),
            uniform=uniform,
            uniform_slew=uniform_slew,
            detail=detail,
            detail_slew=detail_slew,
            detail_slew_axis=sax.copy(),
            detail_load_axis=lax.copy(),
        )
        object.__setattr__(self, "_planes", planes)
        return planes


def characterize_stage_luts(
    library: Library,
    sizes: Sequence[int] = (),
    wl_axis: Sequence[float] = DEFAULT_WL_AXIS,
    detail_slew_axis: Sequence[float] = DETAIL_SLEW_AXIS,
    detail_load_axis: Sequence[float] = DETAIL_LOAD_AXIS,
) -> Dict[str, StageDelayLUT]:
    """Characterize LUTuniform and LUTdetail for every corner of ``library``.

    This is the once-per-technology step of the paper's Section 4.1.  The
    result maps corner name to that corner's :class:`StageDelayLUT`.
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
