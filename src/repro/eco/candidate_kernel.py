"""Array-backed LP-guided ECO candidate kernel (Algorithm 1, vectorized).

The scalar scan in :mod:`repro.core.eco_flow`
(``LPGuidedECO._scan_candidates``, kept as the test oracle) visits every
(gate size, inter-pair wirelength, pair count) candidate — plus the
wire-only route-length sweep — with a scalar ``_estimate``/``_error``
round trip per candidate.  That triple loop would dominate every
iteration of ``sweep_upper_bound``.  This kernel, the only production
search, compiles it into array form:

* each corner's :class:`~repro.tech.stage_lut.StageDelayLUT` is compiled
  once into dense numpy planes (:meth:`StageDelayLUT.planes`);
* the full candidate grid is enumerated as flat arrays — wire-only
  extensions first, then buffered candidates in size-major, wirelength,
  count order, exactly the reference enumeration order;
* one arc's table is built in a few array passes: per corner, one
  start-pair evaluation (NLDM lookups, signoff correction, first hop)
  covers the wire-only lanes and every drive size at once; the boundary
  LUTdetail lookups then run for all corners and sizes together.  Every
  quantity ahead of the middle-pair term depends on (size, spacing)
  alone, so it is evaluated once per distinct spacing and gathered back
  to the (wirelength, count) grid;
* hop wire delays come from the dense per-(corner, load) memo of
  :func:`~repro.tech.stage_lut.hop_wire_delays`, one numpy gather per
  drive size;
* the combined per-corner + cross-corner error (the paper's
  Eq.-(12)-style blend) is one masked vector reduction with a single
  ``argmin`` per arc.

Bit-exactness contract: every float operation replicates the scalar
reference sequence — same associativity, ``math``-backed tanh via a
unique-value memo, hop wire delays equal to :func:`hop_wire_delay` on
the same quantized key, and error terms accumulated term-by-term (never
``np.sum``, whose pairwise order differs).  The selected (size, spacing,
count) tuple therefore matches the reference argmin exactly and realized
trees stay byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.obs.metrics import StageTimers
from repro.route.congestion import chain_length_factor
from repro.sta.signoff import (
    LOAD_GAIN,
    LOAD_SCALE_FF,
    MAX_SIZE,
    REFERENCE_SIZE,
    SLEW_GAIN,
    SLEW_SCALE_PS,
)
from repro.sta.slew import LN9
from repro.tech.cells import _blend, _memo_tanh, _vector_weights
from repro.tech.library import Library
from repro.tech.stage_lut import StageDelayLUT, hop_wire_delays

#: Cap on the tanh memo (same guard as the timing kernel's).
_TANH_MEMO_LIMIT = 1 << 20


class ECOKernelUnsupported(Exception):
    """The stage LUTs cannot be compiled for the array kernel.

    Raised at construction when the LUT planes cannot represent the
    scalar lookup semantics (missing corners/sizes, detail grids that
    disagree on axes, degenerate single-point axes).  The message names
    the reason; there is no scalar fallback.
    """


@dataclass
class ArcCandidateTable:
    """Target-independent candidate estimates for one arc.

    ``est`` is ``(candidates, corners)`` in reference enumeration order:
    wire-only extensions first, then buffered candidates size-major over
    the strided wirelength axis with counts ``1..max_pair_count``.  The
    count-window mask (which *does* depend on the LP target) is applied
    at selection time from ``stage0``/``min_count_geo``.
    """

    est: np.ndarray
    spacing: np.ndarray
    counts: np.ndarray
    size_values: np.ndarray
    n_wire: int
    valid_static: np.ndarray
    stage0: np.ndarray
    min_count_geo: int
    driver_floor0: float


def _scalar_weights(axis: np.ndarray, x: float) -> Tuple[int, float]:
    """Cell index and fraction of one query on one NLDM axis.

    Replicates :meth:`NLDMTable.lookup` (clamp, right-searchsorted minus
    one, clamp to the last cell) on the general two-axis branch.
    """
    c = float(np.clip(x, axis[0], axis[-1]))
    i = int(np.searchsorted(axis, c, side="right") - 1)
    i = min(max(i, 0), axis.size - 2)
    return i, (c - axis[i]) / (axis[i + 1] - axis[i])


class ECOCandidateKernel:
    """Vectorized candidate search over compiled stage-LUT planes.

    One kernel serves one (library, stage LUTs, config) triple; each
    :class:`~repro.core.eco_flow.LPGuidedECO` builds its own.
    """

    def __init__(
        self,
        library: Library,
        stage_luts: Mapping[str, StageDelayLUT],
        config,  # ECOConfig; untyped to avoid a circular import
    ) -> None:
        self._library = library
        self._config = config
        self._corners = list(library.corners)
        try:
            planes = [stage_luts[c.name].planes() for c in self._corners]
        except (KeyError, ValueError) as exc:
            raise ECOKernelUnsupported(str(exc)) from exc
        if not planes:
            raise ECOKernelUnsupported("library has no corners")
        p0 = planes[0]
        for p in planes[1:]:
            if (
                p.sizes != p0.sizes
                or p.wl_axis != p0.wl_axis
                or not np.array_equal(p.detail_slew_axis, p0.detail_slew_axis)
                or not np.array_equal(p.detail_load_axis, p0.detail_load_axis)
            ):
                raise ECOKernelUnsupported("corner LUTs disagree on axes")
        try:
            # The reference search iterates library sizes; every one must
            # be characterized or the scalar path would KeyError too.
            size_rows = [p0.sizes.index(s) for s in library.sizes]
        except ValueError as exc:
            raise ECOKernelUnsupported("library size missing from LUTs") from exc
        if not size_rows:
            raise ECOKernelUnsupported("library has no drive sizes")
        for corner in self._corners:
            for size in library.sizes:
                cell = library.cell(size, corner)
                for table in (cell.delay_table, cell.slew_table):
                    if table.slew_grid.size < 2 or table.load_grid.size < 2:
                        raise ECOKernelUnsupported("degenerate NLDM axes")

        self.timers = StageTimers(phase="eco")
        self.counters: Dict[str, int] = {
            "tables_built": 0,
            "candidates_evaluated": 0,
            "selects": 0,
            "arcs_chosen": 0,
        }
        with self.timers.stage("compile"):
            uniform = np.stack([p.uniform for p in planes])
            detail = np.stack([p.detail for p in planes])
            n_corners, n_planes, n_wl_full = uniform.shape
            # (corner, size, wirelength) slices in library size order.
            self._uni = uniform[:, size_rows, :]
            self._steady = np.stack([p.uniform_slew for p in planes])[:, size_rows, :]
            self._detail_flat = detail.reshape(-1)
            self._det_sax = p0.detail_slew_axis
            self._det_lax = p0.detail_load_axis
            self._n_slew = int(self._det_sax.size)
            self._n_load = int(self._det_lax.size)
            # Flat detail-plane offset of (corner, size, wirelength 0).
            self._plane_rows = (
                np.arange(n_corners)[:, None] * n_planes + np.asarray(size_rows)
            ) * n_wl_full
            self._wl_full = np.asarray(p0.wl_axis)
            stride = max(1, config.wl_stride)
            wl_sel = np.arange(0, self._wl_full.size, stride)
            self._wl_vals = self._wl_full[wl_sel]
            self._sizes = tuple(library.sizes)
            self._pin_caps = [library.input_cap_ff(s) for s in self._sizes]
            pin_weights = [_scalar_weights(self._det_lax, c) for c in self._pin_caps]
            self._pin_ci = np.asarray([w[0] for w in pin_weights])[None, :, None]
            self._pin_t = np.asarray([w[1] for w in pin_weights])[None, :, None]
            self._counts = np.arange(1, config.max_pair_count + 1, dtype=np.int64)
            self._ext = np.asarray(config.wire_extension_steps, dtype=float)
            # Per-table constants of the buffered (wirelength, count) grid.
            count_grid = np.tile(self._counts, self._wl_vals.size)
            self._single = np.flatnonzero(count_grid == 1)
            self._middle = count_grid - 2
            n_wire = int(self._ext.size)
            n_sizes = len(self._sizes)
            self._counts_all = _frozen(
                np.concatenate(
                    [np.zeros(n_wire, dtype=np.int64), np.tile(count_grid, n_sizes)]
                )
            )
            self._size_values = _frozen(
                np.concatenate(
                    [
                        np.full(n_wire, self._sizes[0], dtype=np.int64),
                        np.repeat(
                            np.asarray(self._sizes, dtype=np.int64), count_grid.size
                        ),
                    ]
                )
            )
            self._stage0 = _frozen(self._uni[0][:, wl_sel])
        self._tanh_memo: Dict[float, float] = {}

    # -- public API ----------------------------------------------------
    def table(
        self,
        direct: float,
        end_cap: float,
        ctx: Mapping[str, Mapping[str, float]],
    ) -> ArcCandidateTable:
        """Candidate estimate table for one arc."""
        with self.timers.stage("table_build"):
            built = self._build_table(direct, end_cap, ctx)
        self.counters["tables_built"] += 1
        self.counters["candidates_evaluated"] += int(built.est.size)
        return built

    def select(
        self,
        table: ArcCandidateTable,
        targets: np.ndarray,
        keep_err: float,
    ) -> Optional[Tuple[int, float, int, float, List[float]]]:
        """Masked error reduction + argmin over one arc's candidates.

        Returns ``(size, spacing, count, error, estimates)`` for the best
        candidate that beats ``keep_err``, or ``None`` (keep the arc).
        """
        cfg = self._config
        with self.timers.stage("select"):
            est = table.est
            n_corners = est.shape[1]
            t = [float(targets[k]) for k in range(n_corners)]
            # Accumulate error terms in the scalar reference order: one
            # vector add per term, never np.sum (pairwise order differs).
            err = np.abs(est[:, 0] - t[0])
            for k in range(1, n_corners):
                err = err + np.abs(est[:, k] - t[k])
            for k in range(n_corners):
                for k2 in range(k + 1, n_corners):
                    err = err + np.abs((est[:, k] - est[:, k2]) - (t[k] - t[k2]))

            # Count-window validity depends on the LP target; rebuild the
            # mask per query from the table's stage0 plane.
            budget = t[0] - table.driver_floor0
            safe = table.stage0 > 0.0
            ratio = np.where(safe, budget / np.where(safe, table.stage0, 1.0), 0.0)
            u_est = np.rint(ratio).astype(np.int64)
            lo = np.maximum(np.maximum(u_est - cfg.count_window, 0), table.min_count_geo)
            hi = np.minimum(
                np.maximum(u_est + cfg.count_window, table.min_count_geo + cfg.count_window),
                cfg.max_pair_count,
            )
            lo = np.maximum(lo, 1)
            cgrid = self._counts[None, None, :]
            ok = (cgrid >= lo[:, :, None]) & (cgrid <= hi[:, :, None]) & safe[:, :, None]
            valid = np.concatenate(
                [np.ones(table.n_wire, dtype=bool), ok.reshape(-1)]
            )
            valid &= table.valid_static

            err = np.where(np.isnan(err), np.inf, err)
            err = np.where(valid, err, np.inf)
            pos = int(np.argmin(err))
            best_err = float(err[pos])
        self.counters["selects"] += 1
        if not best_err < keep_err:
            return None
        self.counters["arcs_chosen"] += 1
        return (
            int(table.size_values[pos]),
            float(table.spacing[pos]),
            int(table.counts[pos]),
            best_err,
            [float(v) for v in est[pos]],
        )

    def stats(self) -> Dict[str, object]:
        """JSON-friendly counters + timers snapshot."""
        return {
            "counters": dict(self.counters),
            "timers": self.timers.as_dict(),
        }

    # -- internals -----------------------------------------------------
    def _tanh(self, values: np.ndarray) -> np.ndarray:
        """Elementwise tanh that matches ``math.tanh`` bit for bit."""
        return _memo_tanh(values, self._tanh_memo, _TANH_MEMO_LIMIT)

    def _snap_idx(self, values: np.ndarray) -> np.ndarray:
        """Vectorized ``snap_wl``: index of the nearest axis point (first tie wins)."""
        return np.argmin(np.abs(self._wl_full[None, :] - values[:, None]), axis=1)

    def _build_table(
        self,
        direct: float,
        end_cap: float,
        ctx: Mapping[str, Mapping[str, float]],
    ) -> ArcCandidateTable:
        lib = self._library
        routed = ctx["start_factor"]["value"]
        start_size = int(ctx["start_size"]["value"])
        # hop_wire_delay bakes in the chain factor; the first hop belongs
        # to the start anchor's net, so rescale its length accordingly.
        hop0_scale = routed / chain_length_factor()
        wl_max = float(self._wl_full[-1])
        min_count_geo = max(0, int(math.ceil(direct / wl_max)) - 1)

        ext_len = direct + self._ext
        n_wire = int(self._ext.size)
        n_sizes = len(self._sizes)
        n_corners = len(self._corners)
        spacing = np.maximum(
            self._wl_vals[:, None], direct / (self._counts[None, :] + 1.0)
        ).reshape(-1)
        # Ahead of the middle-pair term every quantity depends on (size,
        # spacing) alone: evaluate each distinct spacing once and gather
        # back to the (wirelength, count) grid at the end.
        sp, sp_inv = np.unique(spacing, return_inverse=True)
        n_sp = int(sp.size)
        wl_idx = self._snap_idx(sp)
        # Start-pair lanes: the wire-only extensions loaded by the arc's
        # end pin, then every size's first hop loaded by its own pin.
        lengths = np.concatenate([ext_len, np.tile(sp, n_sizes)])
        pins = np.concatenate(
            [np.full(n_wire, end_cap), np.repeat(self._pin_caps, n_sp)]
        )
        ext_hop = ext_len * hop0_scale
        sp_hop = sp * hop0_scale
        sqrt_ref = math.sqrt(REFERENCE_SIZE / start_size)

        wire_est = np.empty((n_corners, n_wire))
        head = np.empty((n_corners, n_sizes, n_sp))
        slew1 = np.empty_like(head)
        for k, corner in enumerate(self._corners):
            # The reference ``_estimate`` head: start-anchor pair timed
            # against its new net load, signoff correction, first hop.
            name = corner.name
            cell_start = lib.cell(start_size, corner)
            in_slew = ctx["in_slew"][name]
            base = ctx["load_base"][name] - ctx["old_contrib"][name]
            d1 = cell_start.delay(in_slew, cell_start.input_cap_ff)
            s1 = cell_start.output_slew(in_slew, cell_start.input_cap_ff)
            slew_term = (
                SLEW_GAIN * math.tanh(in_slew / SLEW_SCALE_PS) * (start_size / MAX_SIZE)
            )
            seg = lib.wire(corner).cap_per_um * (lengths * routed)
            load = np.maximum((base + seg) + pins, 0.0)
            d2 = cell_start.delay_table.lookup_array(s1, load)
            s2 = cell_start.slew_table.lookup_array(s1, load)
            load_term = LOAD_GAIN * self._tanh(load / LOAD_SCALE_FF) * sqrt_ref
            factor = 1.0 + load_term - slew_term
            pair = (d1 + d2) * factor
            wire_d, _ = hop_wire_delays(lib, corner, ext_hop, (end_cap,))
            hop_d, hop_e = hop_wire_delays(lib, corner, sp_hop, self._pin_caps)
            wire_est[k] = pair[:n_wire] + wire_d[0]
            head[k] = pair[n_wire:].reshape(n_sizes, n_sp) + hop_d
            s2 = s2[n_wire:].reshape(n_sizes, n_sp)
            step = LN9 * hop_e
            slew1[k] = np.sqrt(s2 * s2 + step * step)

        # Boundary pairs from LUTdetail, every corner and size at once.
        flat = self._detail_flat
        n_load = self._n_load
        rows = (self._plane_rows[:, :, None] + wl_idx) * self._n_slew
        end_ci, end_t = _scalar_weights(self._det_lax, end_cap)
        si, u = _vector_weights(self._det_sax, slew1)
        first_rows = (rows + si) * n_load
        single = head + _blend(flat, first_rows + end_ci, n_load, u, end_t)
        first = head + _blend(flat, first_rows + self._pin_ci, n_load, u, self._pin_t)
        si, u = _vector_weights(self._det_sax, self._steady[:, :, wl_idx])
        last = _blend(flat, (rows + si) * n_load + end_ci, n_load, u, end_t)
        # Back to the (wirelength, count) grid: ((first + middle pairs) +
        # last) per count, in place; count-1 columns take the single pair.
        buffered = first[:, :, sp_inv]
        middle = self._uni[:, :, wl_idx[sp_inv]]
        middle *= self._middle
        buffered += middle
        buffered += last[:, :, sp_inv]
        buffered[:, :, self._single] = single[:, :, sp_inv[self._single]]
        est = np.concatenate([wire_est, buffered.reshape(n_corners, -1)], axis=1)

        return ArcCandidateTable(
            est=est.T,
            spacing=np.concatenate([ext_len, np.tile(spacing, n_sizes)]),
            counts=self._counts_all,
            size_values=self._size_values,
            n_wire=n_wire,
            valid_static=np.concatenate(
                [np.ones(n_wire, dtype=bool), np.tile(spacing <= wl_max, n_sizes)]
            ),
            stage0=self._stage0,
            min_count_geo=min_count_geo,
            driver_floor0=ctx["driver_floor"][self._corners[0].name],
        )


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark a per-kernel constant read-only: every table shares it."""
    array.flags.writeable = False
    return array
