"""Array-backed LP-guided ECO candidate kernel (Algorithm 1, vectorized).

The scalar scan in :mod:`repro.core.eco_flow`
(``LPGuidedECO._scan_candidates``, kept as the test oracle) visits every
(gate size, inter-pair wirelength, pair count) candidate — plus the
wire-only route-length sweep — with a scalar ``_estimate``/``_error``
round trip per candidate.  That triple loop would dominate every
iteration of ``sweep_upper_bound``.  This kernel, the only production
search, compiles it into array form and searches a chunk of arcs at a
time:

* the kernel gathers straight from each corner's
  :class:`~repro.tech.stage_lut.StageDelayLUT` arrays and from the
  library's :class:`~repro.tech.cells.NLDMStack` (:attr:`Library.nldm`,
  shared with the timing and feature kernels);
* the full candidate grid is enumerated as flat arrays — wire-only
  extensions first, then buffered candidates in size-major, wirelength,
  count order, exactly the reference enumeration order;
* one chunk's tables are built in a few array passes over lanes
  concatenated across its arcs: per corner, one start-pair evaluation
  (NLDM lookups, signoff correction, first hop) covers every arc's
  wire-only lanes and every drive size at once; the boundary LUTdetail
  lookups then run for all corners and sizes together.  Every quantity
  ahead of the middle-pair term depends on (arc, size, spacing) alone,
  so it is evaluated once per distinct spacing of each arc and gathered
  back to the (wirelength, count) grid;
* hop wire delays come from the dense per-(corner, load) memo of
  :func:`~repro.tech.stage_lut.hop_wire_delays`: one gather per drive
  size, and one per distinct end pin cap for the wire-only lanes;
* the combined per-corner + cross-corner error (the paper's
  Eq.-(12)-style blend) is one masked reduction over (arcs, candidates)
  with one ``argmin`` per arc.

Bit-exactness contract: every lane replicates the scalar reference
sequence — same associativity, ``math``-backed tanh over the chunk's
unique values, hop wire delays equal to :func:`hop_wire_delay` on the
same quantized key, and error terms accumulated term-by-term (never
``np.sum``, whose pairwise order differs).  An arc's table is therefore
a pure function of its ``(direct, end_cap, ctx)`` key, whichever chunk
builds it, the selected (size, spacing, count) tuple matches the
reference argmin exactly, and realized trees stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

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
from repro.tech.cells import _blend, _exact_tanh, _vector_weights
from repro.tech.library import Library
from repro.tech.stage_lut import StageDelayLUT, hop_wire_delays

#: One search result: ``(size, spacing, count, error, estimates)``.
Pick = Tuple[int, float, int, float, List[float]]


class ECOKernelUnsupported(Exception):
    """The stage LUTs do not fit the library or the array kernel.

    Raised at construction for a corner or library size without a LUT,
    corner LUTs that disagree on axes, or single-point LUTdetail axes.
    The message names the reason; there is no scalar fallback.  A
    library whose NLDM tables cannot be stacked raises the stack's
    :class:`ValueError`.
    """


class ArcQuery(NamedTuple):
    """One arc's search inputs.

    The first three fields are the arc's table key: its candidate table
    is a pure function of ``(direct, end_cap, ctx)``.  ``targets`` (the
    LP's per-corner delays) and ``keep_err`` (the error of keeping the
    arc as it is, which a pick must beat) enter only at selection.
    """

    direct: float
    end_cap: float
    ctx: Mapping[str, Mapping[str, float]]
    targets: np.ndarray
    keep_err: float

    @property
    def key(self) -> Tuple[float, float, Mapping[str, Mapping[str, float]]]:
        """``(direct, end_cap, ctx)``: what the arc's table is built from."""
        return self[:3]


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


@dataclass
class CandidateBatch:
    """The candidate tables of a chunk of arcs, built together.

    ``est`` is ``(corners, arcs, candidates)``; ``spacing`` and
    ``valid_static`` are ``(arcs, candidates)``; ``min_count_geo`` and
    ``driver_floor0`` hold one value per arc.  The candidate axis, its
    ``counts`` and ``size_values``, and the nominal ``stage0`` plane are
    shared by every arc.  :meth:`arc` returns one arc's
    :class:`ArcCandidateTable` as views.
    """

    est: np.ndarray
    spacing: np.ndarray
    valid_static: np.ndarray
    min_count_geo: np.ndarray
    driver_floor0: np.ndarray
    counts: np.ndarray
    size_values: np.ndarray
    n_wire: int
    stage0: np.ndarray

    def __len__(self) -> int:
        return self.est.shape[1]

    def arc(self, index: int) -> ArcCandidateTable:
        """Arc ``index``'s table (views into the batch arrays)."""
        return ArcCandidateTable(
            est=self.est[:, index].T,
            spacing=self.spacing[index],
            counts=self.counts,
            size_values=self.size_values,
            n_wire=self.n_wire,
            valid_static=self.valid_static[index],
            stage0=self.stage0,
            min_count_geo=int(self.min_count_geo[index]),
            driver_floor0=float(self.driver_floor0[index]),
        )


class ECOCandidateKernel:
    """Vectorized candidate search over the stage-LUT arrays.

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
        self._nldm = library.nldm
        try:
            luts = [stage_luts[c.name] for c in self._corners]
        except KeyError as exc:
            raise ECOKernelUnsupported(f"no stage LUT for corner {exc}") from exc
        lut0 = luts[0]
        for lut in luts[1:]:
            if (
                lut.sizes != lut0.sizes
                or lut.wl_axis != lut0.wl_axis
                or not np.array_equal(lut.slew_axis, lut0.slew_axis)
                or not np.array_equal(lut.load_axis, lut0.load_axis)
            ):
                raise ECOKernelUnsupported("corner LUTs disagree on axes")
        if not lut0.wl_axis or lut0.slew_axis.size < 2 or lut0.load_axis.size < 2:
            raise ECOKernelUnsupported("stage LUT axes too small to gather")
        try:
            # The reference search iterates library sizes; every one must
            # be characterized or the scalar path would fail too.
            size_rows = [lut0.sizes.index(s) for s in library.sizes]
        except ValueError as exc:
            raise ECOKernelUnsupported("library size missing from LUTs") from exc

        self.timers = StageTimers(phase="eco")
        self.counters: Dict[str, int] = {
            "tables_built": 0,
            "candidates_evaluated": 0,
            "selects": 0,
        }
        with self.timers.stage("compile"):
            n_corners = len(luts)
            n_planes, n_wl_full = lut0.uniform.shape
            # (corner, size, wirelength) slices in library size order.
            self._uni = np.stack([lut.uniform[size_rows] for lut in luts])
            self._steady = np.stack([lut.uniform_slew[size_rows] for lut in luts])
            self._detail_flat = np.stack([lut.detail for lut in luts]).reshape(-1)
            self._det_sax = lut0.slew_axis
            self._det_lax = lut0.load_axis
            self._n_slew = int(self._det_sax.size)
            self._n_load = int(self._det_lax.size)
            # Flat detail-plane offset of (corner, size, wirelength 0).
            self._plane_rows = (
                np.arange(n_corners)[:, None] * n_planes + np.asarray(size_rows)
            ) * n_wl_full
            self._wl_full = np.asarray(lut0.wl_axis)
            stride = max(1, config.wl_stride)
            wl_sel = np.arange(0, self._wl_full.size, stride)
            self._wl_vals = self._wl_full[wl_sel]
            self._sizes = tuple(library.sizes)
            self._size_row = {s: i for i, s in enumerate(self._sizes)}
            self._pin_caps = [library.input_cap_ff(s) for s in self._sizes]
            pin_ci, pin_t = _vector_weights(self._det_lax, np.asarray(self._pin_caps))
            self._pin_ci = pin_ci[None, :, None]
            self._pin_t = pin_t[None, :, None]
            self._counts = np.arange(1, config.max_pair_count + 1, dtype=np.int64)
            self._counts_p1 = self._counts + 1.0
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

    # -- public API ----------------------------------------------------
    def table(self, queries: Sequence[ArcQuery]) -> CandidateBatch:
        """Candidate estimate tables for a chunk of arcs, built together."""
        with self.timers.stage("table_build"):
            built = self._build_batch(queries)
        self.counters["tables_built"] += len(built)
        self.counters["candidates_evaluated"] += int(built.est.size)
        return built

    def select(
        self,
        batch: CandidateBatch,
        targets: Sequence[np.ndarray],
        keep_errs: Sequence[float],
    ) -> List[Optional[Pick]]:
        """Masked error reduction + argmin over each arc's candidates.

        Returns, per arc, ``(size, spacing, count, error, estimates)`` for
        the best candidate that beats the arc's ``keep_errs`` entry, or
        ``None`` (keep the arc).
        """
        cfg = self._config
        with self.timers.stage("select"):
            est = batch.est
            n_corners, n_arcs, _ = est.shape
            t = np.asarray(targets, dtype=float).reshape(n_arcs, n_corners).T
            # Accumulate error terms in the scalar reference order: one
            # vector add per term, never np.sum (pairwise order differs).
            err = np.abs(est[0] - t[0][:, None])
            term = np.empty_like(err)
            for k in range(1, n_corners):
                np.subtract(est[k], t[k][:, None], out=term)
                err += np.abs(term, out=term)
            for k in range(n_corners):
                for k2 in range(k + 1, n_corners):
                    np.subtract(est[k], est[k2], out=term)
                    term -= (t[k] - t[k2])[:, None]
                    err += np.abs(term, out=term)

            # Count-window validity depends on the LP target; rebuild the
            # mask per query from the shared stage0 plane.
            stage0 = batch.stage0
            budget = (t[0] - batch.driver_floor0)[:, None, None]
            safe = stage0 > 0.0
            ratio = np.where(safe, budget / np.where(safe, stage0, 1.0), 0.0)
            u_est = np.rint(ratio).astype(np.int64)
            geo = batch.min_count_geo[:, None, None]
            lo = np.maximum(np.maximum(u_est - cfg.count_window, 0), geo)
            hi = np.minimum(
                np.maximum(u_est + cfg.count_window, geo + cfg.count_window),
                cfg.max_pair_count,
            )
            lo = np.maximum(lo, 1)
            cgrid = self._counts
            ok = (cgrid >= lo[..., None]) & (cgrid <= hi[..., None]) & safe[..., None]
            valid = np.concatenate(
                [np.ones((n_arcs, batch.n_wire), dtype=bool), ok.reshape(n_arcs, -1)],
                axis=1,
            )
            valid &= batch.valid_static

            err[~valid | np.isnan(err)] = np.inf
            pos = np.argmin(err, axis=1)
            best = err[np.arange(n_arcs), pos]
        self.counters["selects"] += n_arcs
        picks: List[Optional[Pick]] = []
        for a, (p, best_err) in enumerate(zip(pos.tolist(), best.tolist())):
            if not best_err < keep_errs[a]:
                picks.append(None)
                continue
            picks.append(
                (
                    int(batch.size_values[p]),
                    float(batch.spacing[a, p]),
                    int(batch.counts[p]),
                    best_err,
                    est[:, a, p].tolist(),
                )
            )
        return picks

    def stats(self) -> Dict[str, object]:
        """JSON-friendly counters + timers snapshot."""
        return {
            "counters": dict(self.counters),
            "timers": self.timers.as_dict(),
        }

    # -- internals -----------------------------------------------------
    def _snap_idx(self, values: np.ndarray) -> np.ndarray:
        """Vectorized ``snap_wl``: index of the nearest axis point (first tie wins)."""
        return np.argmin(np.abs(self._wl_full[None, :] - values[:, None]), axis=1)

    def _build_batch(self, queries: Sequence[ArcQuery]) -> CandidateBatch:
        lib = self._library
        n_arcs = len(queries)
        n_wire = int(self._ext.size)
        n_sizes = len(self._sizes)
        n_corners = len(self._corners)
        arcs = np.arange(n_arcs)
        ctxs = [q.ctx for q in queries]
        direct = np.asarray([q.direct for q in queries], dtype=float)
        end_cap = np.asarray([q.end_cap for q in queries], dtype=float)
        routed = np.asarray([c["start_factor"]["value"] for c in ctxs], dtype=float)
        sizes = [int(c["start_size"]["value"]) for c in ctxs]
        start_row = np.asarray([self._size_row[s] for s in sizes])
        start_size = np.asarray(sizes, dtype=float)
        # hop_wire_delay bakes in the chain factor; the first hop belongs
        # to the start anchor's net, so rescale its length accordingly.
        hop0_scale = routed / chain_length_factor()
        wl_max = self._wl_full[-1]
        min_count_geo = np.maximum(np.ceil(direct / wl_max).astype(np.int64) - 1, 0)

        ext_len = direct[:, None] + self._ext
        spacing = np.maximum(
            self._wl_vals[:, None], direct[:, None, None] / self._counts_p1
        ).reshape(n_arcs, -1)
        n_grid = spacing.shape[1]
        # Ahead of the middle-pair term every quantity depends on (arc,
        # size, spacing) alone: evaluate each arc's distinct spacings
        # once (sorted, as np.unique would list them), concatenated over
        # the chunk, and gather back to the (wirelength, count) grid at
        # the end through each grid point's lane.
        order = np.argsort(spacing, axis=1, kind="stable")
        ordered = np.take_along_axis(spacing, order, axis=1)
        fresh = np.ones(ordered.shape, dtype=bool)
        fresh[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        n_sp = fresh.sum(axis=1)
        lane_of = np.empty_like(order)
        np.put_along_axis(lane_of, order, np.cumsum(fresh, axis=1) - 1, axis=1)
        lane_of += (np.cumsum(n_sp) - n_sp)[:, None]
        sp = ordered[fresh]
        sp_arc = np.repeat(arcs, n_sp)
        n_sp_all = int(sp.size)
        wl_idx = self._snap_idx(sp)
        # Start-pair lanes: every arc's wire-only extensions loaded by its
        # end pin, then every size's first hop loaded by its own pin.
        n_ext = n_arcs * n_wire
        lane_arc = np.concatenate([np.repeat(arcs, n_wire), np.tile(sp_arc, n_sizes)])
        routed_len = np.concatenate([ext_len.reshape(-1), np.tile(sp, n_sizes)])
        routed_len *= routed[lane_arc]
        pins = np.concatenate(
            [np.repeat(end_cap, n_wire), np.repeat(self._pin_caps, n_sp_all)]
        )
        ext_hop = ext_len * hop0_scale[:, None]
        sp_hop = sp * hop0_scale[sp_arc]
        sqrt_ref = np.sqrt(REFERENCE_SIZE / start_size)[lane_arc]
        size_frac = start_size / MAX_SIZE
        # Wire-only hops take one memo row per distinct end pin cap.
        end_caps, end_group = np.unique(end_cap, return_inverse=True)
        n_lanes = routed_len.size
        stack = self._nldm

        wire_est = np.empty((n_corners, n_arcs, n_wire))
        head = np.empty((n_corners, n_sizes, n_sp_all))
        slew1 = np.empty_like(head)
        wire_hop = np.empty((n_arcs, n_wire))
        for k, corner in enumerate(self._corners):
            # The reference ``_estimate`` head: start-anchor pair timed
            # against its new net load, signoff correction, first hop.
            name = corner.name
            in_slew = np.asarray([c["in_slew"][name] for c in ctxs], dtype=float)
            base = np.asarray(
                [c["load_base"][name] - c["old_contrib"][name] for c in ctxs],
                dtype=float,
            )
            plane = stack.plane(k, start_row)
            slew_w = _vector_weights(stack.slew_axis, in_slew)
            pin_w = _vector_weights(stack.load_axis, stack.input_cap[k, start_row])
            d1 = stack.lookup(stack.delay_flat, plane, slew_w, pin_w)
            s1 = stack.lookup(stack.slew_flat, plane, slew_w, pin_w)
            load = np.maximum(
                (base[lane_arc] + stack.cap_per_um[k] * routed_len) + pins, 0.0
            )
            si, u = _vector_weights(stack.slew_axis, s1)
            slew_w = si[lane_arc], u[lane_arc]
            load_w = _vector_weights(stack.load_axis, load)
            plane = plane[lane_arc]
            d2 = stack.lookup(stack.delay_flat, plane, slew_w, load_w)
            s2 = stack.lookup(
                stack.slew_flat,
                plane[n_ext:],
                (slew_w[0][n_ext:], slew_w[1][n_ext:]),
                (load_w[0][n_ext:], load_w[1][n_ext:]),
            )
            tanh = _exact_tanh(
                np.concatenate([load / LOAD_SCALE_FF, in_slew / SLEW_SCALE_PS])
            )
            load_term = LOAD_GAIN * tanh[:n_lanes] * sqrt_ref
            slew_term = SLEW_GAIN * tanh[n_lanes:] * size_frac
            factor = 1.0 + load_term - slew_term[lane_arc]
            pair = (d1[lane_arc] + d2) * factor
            for g, cap in enumerate(end_caps.tolist()):
                group = end_group == g
                wire_d, _ = hop_wire_delays(lib, corner, ext_hop[group], (cap,))
                wire_hop[group] = wire_d[0].reshape(-1, n_wire)
            hop_d, hop_e = hop_wire_delays(lib, corner, sp_hop, self._pin_caps)
            wire_est[k] = pair[:n_ext].reshape(n_arcs, n_wire) + wire_hop
            head[k] = pair[n_ext:].reshape(n_sizes, n_sp_all) + hop_d
            s2 = s2.reshape(n_sizes, n_sp_all)
            step = LN9 * hop_e
            slew1[k] = np.sqrt(s2 * s2 + step * step)

        # Boundary pairs from LUTdetail, every corner and size at once.
        flat = self._detail_flat
        n_load = self._n_load
        rows = (self._plane_rows[:, :, None] + wl_idx) * self._n_slew
        end_ci, end_t = _vector_weights(self._det_lax, end_cap)
        end_ci = end_ci[sp_arc]
        end_t = end_t[sp_arc]
        si, u = _vector_weights(self._det_sax, slew1)
        first_rows = (rows + si) * n_load
        single = head + _blend(flat, first_rows + end_ci, n_load, u, end_t)
        first = head + _blend(flat, first_rows + self._pin_ci, n_load, u, self._pin_t)
        si, u = _vector_weights(self._det_sax, self._steady[:, :, wl_idx])
        last = _blend(flat, (rows + si) * n_load + end_ci, n_load, u, end_t)

        # Back to each arc's (wirelength, count) grid: ((first + middle
        # pairs) + last) per count; count-1 columns take the single pair.
        lanes = lane_of.reshape(-1)
        buffered = first.take(lanes, axis=2)
        middle = self._uni[:, :, wl_idx].take(lanes, axis=2)
        middle *= np.tile(self._middle, n_arcs)
        buffered += middle
        buffered += last.take(lanes, axis=2)
        buffered = buffered.reshape(n_corners, n_sizes, n_arcs, n_grid)
        buffered[..., self._single] = single[:, :, lane_of[:, self._single]]
        est = np.empty((n_corners, n_arcs, n_wire + n_sizes * n_grid))
        est[:, :, :n_wire] = wire_est
        grid = est[:, :, n_wire:].reshape(n_corners, n_arcs, n_sizes, n_grid)
        grid[...] = buffered.transpose(0, 2, 1, 3)

        name0 = self._corners[0].name
        return CandidateBatch(
            est=est,
            spacing=np.concatenate([ext_len, np.tile(spacing, n_sizes)], axis=1),
            valid_static=np.concatenate(
                [
                    np.ones((n_arcs, n_wire), dtype=bool),
                    np.tile(spacing <= wl_max, n_sizes),
                ],
                axis=1,
            ),
            min_count_geo=min_count_geo,
            driver_floor0=np.asarray(
                [c["driver_floor"][name0] for c in ctxs], dtype=float
            ),
            counts=self._counts_all,
            size_values=self._size_values,
            n_wire=n_wire,
            stage0=self._stage0,
        )


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark a per-kernel constant read-only: every table shares it."""
    array.flags.writeable = False
    return array
