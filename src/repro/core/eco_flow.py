"""Algorithm 1: the LP-guided ECO flow.

For every arc the LP wants changed, search the characterized stage-delay
LUTs for the (gate size, inter-pair wirelength, pair count) whose
*estimated* multi-corner delays best match the LP targets — the error
metric combines per-corner absolute error with cross-corner difference
error, exactly as in the paper's Lines 8-13 — then realize the winner
with :func:`repro.eco.operators.rebuild_arc` (rip-up, uniform re-insert,
U-shape detour when extra wirelength is required) and legalize.

Estimation details that keep the desired-vs-actual gap small (the paper's
stated goal for this flow):

* the start anchor's own pair delay is re-evaluated against its *new* net
  load (the rebuilt first hop replaces the old first edge), not reused
  from the baseline;
* wire hops use the same distributed D2M evaluation as the golden timer;
* slew is chased through the chain (driver output -> PERI degradation ->
  LUTdetail first stage -> steady state);
* wire-only candidates (count = 0) treat total wirelength as the free
  variable and solve for the best route length, so balancing detours that
  the CTS left on an arc are preserved rather than silently ripped out.

What remains unmodeled — legalization snap, slew interaction with
neighbouring nets, LUT grid snapping — is exactly the residual the paper
also accepts.

The search runs on the vectorized candidate kernel
(:mod:`repro.eco.candidate_kernel`), one chunk of arcs at a time; the
scalar scan in this module is its definition and test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.lp import LPModelData, LPSolution
from repro.eco.candidate_kernel import ArcQuery, ECOCandidateKernel, Pick
from repro.eco.legalize import Legalizer
from repro.eco.operators import ArcRebuildResult, rebuild_arc
from repro.geometry import BBox
from repro.netlist.arcs import Arc
from repro.netlist.tree import ClockTree
from repro.obs.trace import active as active_tracer
from repro.route.congestion import chain_length_factor
from repro.sta.gate import inverter_pair_timing
from repro.sta.incremental import IncrementalTimer
from repro.sta.signoff import signoff_gate_factor
from repro.sta.slew import wire_degraded_slew
from repro.sta.timer import CornerTiming
from repro.tech.library import Library
from repro.tech.stage_lut import StageDelayLUT, hop_wire_delay

#: Arcs searched together: one candidate-table build and one select each.
_ARC_CHUNK = 16


@dataclass(frozen=True)
class ECOConfig:
    """Tuning of the Algorithm-1 search."""

    delta_threshold_ps: float = 0.5
    count_window: int = 2  # the paper's u_est +- 2
    wl_stride: int = 1  # stride over the characterized wirelength axis
    max_pair_count: int = 40
    wire_extension_steps: Tuple[float, ...] = tuple(
        float(x) for x in range(0, 301, 15)
    )


@dataclass(frozen=True)
class ArcECO:
    """One realized arc change."""

    arc_index: int
    size: int
    pair_count: int
    spacing_um: float
    estimate_error_ps: float
    targets_ps: Tuple[float, ...]
    estimates_ps: Tuple[float, ...]
    realized: ArcRebuildResult


class LPGuidedECO:
    """Realizes an LP solution on a clock tree (Algorithm 1).

    The candidate search runs on the vectorized
    :class:`~repro.eco.candidate_kernel.ECOCandidateKernel`, built at
    construction; stage LUTs that do not fit it raise
    :class:`~repro.eco.candidate_kernel.ECOKernelUnsupported` with the
    reason.  :meth:`_search` is the one search entry point: it takes a
    chunk of :class:`~repro.eco.candidate_kernel.ArcQuery` and returns
    one pick per query.  :meth:`_scan_candidates` is the scalar scan of
    one query that the kernel reproduces bit for bit — the test oracle,
    which ``tests/oracles.py`` maps over a chunk in place of
    :meth:`_search`; no production path calls it.
    """

    def __init__(
        self,
        library: Library,
        stage_luts: Mapping[str, StageDelayLUT],
        legalizer: Legalizer,
        region: Optional[BBox] = None,
        config: ECOConfig = ECOConfig(),
        incremental: Optional[IncrementalTimer] = None,
    ) -> None:
        self._library = library
        self._luts = stage_luts
        self._legalizer = legalizer
        self._region = region or legalizer.region
        self._config = config
        self._incremental = incremental
        # Hoisted once per instance (corner name list, nominal index
        # lookup, per-size pin caps).
        self._corners = list(library.corners)
        self._corner_names = [c.name for c in self._corners]
        self._pin_caps = {s: library.input_cap_ff(s) for s in library.sizes}
        self._kernel = ECOCandidateKernel(library, stage_luts, config)
        # Realization counters beside the kernel's work counters: arcs
        # rebuilt, and arcs searched again after an earlier rebuild in
        # their chunk changed their table key.
        self._counters: Dict[str, int] = {"arcs_chosen": 0, "rekeyed": 0}

    @property
    def stats(self) -> Dict[str, object]:
        """The candidate kernel's counters and phase timers, plus ours."""
        stats = self._kernel.stats()
        stats["counters"].update(self._counters)
        return stats

    # ------------------------------------------------------------------
    def realize(
        self,
        tree: ClockTree,
        data: LPModelData,
        solution: LPSolution,
        timings: Optional[Mapping[str, CornerTiming]] = None,
        arc_indices: Optional[Sequence[int]] = None,
    ) -> List[ArcECO]:
        """Apply the LP's delay changes to ``tree`` (mutates it).

        ``timings`` must describe the *current* state of ``tree`` (they
        provide the anchors' loads/slews for estimation, and the current
        arc delays that the no-op candidate competes with).  When omitted
        they are measured here by the ECO's incremental engine (pass one
        at construction).  Pass ``arc_indices`` to realize a subset — the
        batched-verification driver in :mod:`repro.core.framework` uses
        this to commit the plan incrementally.  Returns a report per
        modified arc.
        """
        if timings is None:
            if self._incremental is None:
                raise ValueError(
                    "realize() needs timings or an incremental engine"
                )
            timings = self._incremental.corner_timings(tree)
        if arc_indices is None:
            arc_indices = solution.nonzero_arcs(self._config.delta_threshold_ps)
        arc_indices = list(arc_indices)
        report: List[ArcECO] = []
        rekeyed = 0
        with active_tracer().span("eco_realize", phase="eco") as span:
            for first in range(0, len(arc_indices), _ARC_CHUNK):
                chunk = arc_indices[first : first + _ARC_CHUNK]
                queries = [self._query(tree, data, solution, j, timings) for j in chunk]
                picks = self._search(queries)
                rebuilt = False
                for j, query, found in zip(chunk, queries, picks):
                    arc = data.arcs[j]
                    if rebuilt:
                        # A rebuild earlier in this chunk may have moved
                        # this arc's table key; a pick is only valid under
                        # the key it was searched with.
                        key = self._table_key(tree, arc, timings)
                        if key != query.key:
                            rekeyed += 1
                            query = ArcQuery(*key, query.targets, query.keep_err)
                            found = self._search([query])[0]
                    if found is not None:
                        report.append(self._rebuild(tree, arc, j, query.targets, found))
                        rebuilt = True
            tree.validate()
            span.set(arcs=len(arc_indices), realized=len(report), rekeyed=rekeyed)
        self._counters["arcs_chosen"] += len(report)
        self._counters["rekeyed"] += rekeyed
        return report

    # ------------------------------------------------------------------
    def _pin_cap(self, tree: ClockTree, nid: int) -> float:
        node = tree.node(nid)
        if node.is_sink:
            return self._library.sink_cap_ff
        return self._library.input_cap_ff(node.size)

    def _start_cell_size(self, tree: ClockTree, nid: int) -> int:
        node = tree.node(nid)
        return self._library.source_drive_size if node.is_source else node.size

    def _table_key(
        self,
        tree: ClockTree,
        arc: Arc,
        baseline: Mapping[str, CornerTiming],
    ) -> Tuple[float, float, Dict[str, Dict[str, float]]]:
        """The arc's ``(direct, end_cap, ctx)`` on the current ``tree``.

        ``ctx`` holds pre-move facts about the start anchor's net (per
        corner): total load and the old first edge's contribution, so
        candidate loads can be formed as (baseline load - old
        contribution + new hop).
        """
        start_loc = tree.node(arc.start).location
        end_loc = tree.node(arc.end).location
        direct = max(start_loc.manhattan(end_loc), 1.0)
        end_cap = self._pin_cap(tree, arc.end)
        return direct, end_cap, self._arc_context(tree, arc, baseline)

    def _query(
        self,
        tree: ClockTree,
        data: LPModelData,
        solution: LPSolution,
        arc_index: int,
        baseline: Mapping[str, CornerTiming],
    ) -> ArcQuery:
        """Arc ``arc_index``'s search inputs on the current ``tree``.

        The arc's *current* configuration competes as a no-op candidate:
        a pick must match the LP targets better than ``keep_err``, the
        error of leaving the arc alone.  Keeping a known-good arc always
        beats realizing a config that would land farther from the plan.
        """
        arc = data.arcs[arc_index]
        targets = data.arc_delay[arc_index] + solution.delta[arc_index]
        current = [
            float(baseline[name].arrival[arc.end] - baseline[name].arrival[arc.start])
            for name in self._corner_names
        ]
        keep_err = self._error(current, targets)
        return ArcQuery(*self._table_key(tree, arc, baseline), targets, keep_err)

    def _rebuild(
        self,
        tree: ClockTree,
        arc: Arc,
        arc_index: int,
        targets: np.ndarray,
        found: Pick,
    ) -> ArcECO:
        """Realize one arc's pick with :func:`rebuild_arc`."""
        size, spacing, count, best_err, best_est = found
        realized = rebuild_arc(
            tree,
            self._legalizer,
            arc.start,
            arc.end,
            arc.interior,
            size=size,
            pair_count=count,
            spacing_um=spacing,
            region=self._region,
            wire_target_um=spacing if count == 0 else None,
        )
        return ArcECO(
            arc_index=arc_index,
            size=size,
            pair_count=count,
            spacing_um=spacing,
            estimate_error_ps=best_err,
            targets_ps=tuple(float(t) for t in targets),
            estimates_ps=tuple(best_est),
            realized=realized,
        )

    def _search(self, queries: Sequence[ArcQuery]) -> List[Optional[Pick]]:
        """Best ``(size, spacing, count, error, estimates)`` per query.

        One kernel table build over the whole chunk plus one masked argmin
        per arc; ``None`` keeps that arc as it is.
        """
        batch = self._kernel.table(queries)
        return self._kernel.select(
            batch, [q.targets for q in queries], [q.keep_err for q in queries]
        )

    def _scan_candidates(
        self,
        direct: float,
        end_cap: float,
        ctx: Mapping[str, Mapping[str, float]],
        targets: np.ndarray,
        keep_err: float,
    ) -> Optional[Pick]:
        """Scalar candidate scan: the test oracle of :meth:`_search`."""
        cfg = self._config
        lib = self._library
        nominal = self._corner_names[0]
        prep = self._prepare_estimate(ctx)

        lut0 = self._luts[nominal]
        wl_axis = lut0.wl_axis[:: max(1, cfg.wl_stride)]
        wl_max = lut0.wl_axis[-1]
        target0 = float(targets[0])
        min_count_geo = max(0, int(math.ceil(direct / wl_max)) - 1)

        best_err = math.inf
        best: Optional[Tuple[int, float, int]] = None
        best_est: List[float] = []

        # Wire-only candidates: sweep total route length.
        for extension in cfg.wire_extension_steps:
            length = direct + extension
            est = self._estimate(0, length, 0, end_cap, prep)
            err = self._error(est, targets)
            if err < best_err:
                best_err = err
                best = (lib.sizes[0], length, 0)
                best_est = est

        # Buffered candidates: the paper's (size, wirelength, count) scan.
        chain_budget = target0 - ctx["driver_floor"][nominal]
        for size in lib.sizes:
            for wl in wl_axis:
                stage0 = lut0.uniform_delay(size, wl)
                if stage0 <= 0:
                    continue
                u_est = int(round(chain_budget / stage0))
                lo = max(0, u_est - cfg.count_window, min_count_geo)
                hi = min(
                    max(u_est + cfg.count_window, min_count_geo + cfg.count_window),
                    cfg.max_pair_count,
                )
                for count in range(max(lo, 1), hi + 1):
                    spacing = max(wl, direct / (count + 1))
                    if spacing > wl_max:
                        continue
                    est = self._estimate(size, spacing, count, end_cap, prep)
                    err = self._error(est, targets)
                    if err < best_err:
                        best_err = err
                        best = (size, spacing, count)
                        best_est = est

        if best is None or best_err >= keep_err:
            return None
        size, spacing, count = best
        return size, spacing, count, best_err, best_est

    # ------------------------------------------------------------------
    def _arc_context(
        self,
        tree: ClockTree,
        arc: Arc,
        baseline: Mapping[str, CornerTiming],
    ) -> Dict[str, Dict[str, float]]:
        """Per-corner facts about the arc's start anchor before the rebuild."""
        lib = self._library
        first_child = arc.edges[0]
        old_first_len = tree.edge_length(first_child)
        old_first_pin = self._pin_cap(tree, first_child)
        start_size = self._start_cell_size(tree, arc.start)

        from repro.route.congestion import routed_length_factor

        # The start anchor's net edges carry the router factor of *that*
        # net (fanout- and congestion-dependent), not the chain factor.
        start_children = tree.children(arc.start)
        net_points = [tree.node(arc.start).location] + [
            tree.node(c).location for c in start_children
        ]
        start_factor = routed_length_factor(
            max(len(start_children), 1), BBox.of_points(net_points).area
        )

        routed = start_factor
        load_base: Dict[str, float] = {}
        old_contrib: Dict[str, float] = {}
        in_slew: Dict[str, float] = {}
        driver_floor: Dict[str, float] = {}
        for corner in lib.corners:
            name = corner.name
            timing = baseline[name]
            wire = lib.wire(corner)
            load_base[name] = timing.driver_load.get(arc.start, 0.0)
            # Golden loads include the router's length overhead; mirror it.
            old_contrib[name] = (
                wire.segment_cap(old_first_len * routed) + old_first_pin
            )
            in_slew[name] = timing.input_slew.get(arc.start, lib.source_slew_ps)
            driver_floor[name] = timing.driver_delay.get(arc.start, 0.0)
        return {
            "load_base": load_base,
            "old_contrib": old_contrib,
            "in_slew": in_slew,
            "driver_floor": driver_floor,
            "start_size": {"value": float(start_size)},
            "start_factor": {"value": start_factor},
        }

    def _prepare_estimate(
        self, ctx: Mapping[str, Mapping[str, float]]
    ) -> Tuple[int, float, float, List[Tuple]]:
        """Hoist per-arc invariants out of the per-candidate estimate loop.

        The per-candidate work used to re-fetch the wire model, start
        cell, slews, and base loads for every corner of every candidate;
        they only change per arc.
        """
        lib = self._library
        start_size = int(ctx["start_size"]["value"])
        routed = ctx["start_factor"]["value"]
        # hop_wire_delay bakes in the chain factor; the first hop belongs
        # to the start anchor's net, so rescale its length accordingly.
        hop0_len_scale = routed / chain_length_factor()
        per_corner = []
        for corner in self._corners:
            name = corner.name
            per_corner.append(
                (
                    corner,
                    lib.wire(corner),
                    lib.cell(start_size, corner),
                    ctx["in_slew"][name],
                    ctx["load_base"][name] - ctx["old_contrib"][name],
                    self._luts[name],
                )
            )
        return start_size, routed, hop0_len_scale, per_corner

    def _estimate(
        self,
        size: int,
        spacing: float,
        count: int,
        end_cap: float,
        prep: Tuple[int, float, float, List[Tuple]],
    ) -> List[float]:
        """LUT-based multi-corner delay estimate for one candidate.

        ``spacing`` is the hop length between consecutive pairs for
        ``count >= 1``, or the total route length for ``count == 0``.
        Returns one estimate per corner, in library corner order.
        """
        lib = self._library
        start_size, routed, hop0_len_scale, per_corner = prep
        pin = self._pin_caps[size] if count >= 1 else end_cap
        first_pin = pin
        first_len = spacing
        estimates: List[float] = []
        for corner, wire, cell_start, in_slew, base_load, lut in per_corner:
            new_load = (base_load + wire.segment_cap(first_len * routed)) + first_pin
            pair = inverter_pair_timing(cell_start, in_slew, max(new_load, 0.0))
            # Match the golden engine's signoff gate-delay correction.
            total = pair.delay_ps * signoff_gate_factor(
                start_size, in_slew, max(new_load, 0.0)
            )
            hop0, elmore0 = hop_wire_delay(
                lib, corner, first_len * hop0_len_scale, first_pin
            )
            total += hop0
            if count == 0:
                estimates.append(total)
                continue
            slew1 = wire_degraded_slew(pair.output_slew_ps, elmore0)
            wl_snap = lut.snap_wl(spacing)
            if count == 1:
                total += lut.detail_delay(size, wl_snap, slew1, end_cap)
            else:
                total += lut.detail_delay(size, wl_snap, slew1, pin)
                total += lut.uniform_delay(size, wl_snap) * (count - 2)
                steady_slew = lut.steady_slew(size, wl_snap)
                total += lut.detail_delay(size, wl_snap, steady_slew, end_cap)
            estimates.append(total)
        return estimates

    @staticmethod
    def _error(estimates: Sequence[float], targets: np.ndarray) -> float:
        """Algorithm 1 Lines 8-13: per-corner + cross-corner error.

        ``estimates`` is ordered by library corner (index 0 nominal), so
        no name indirection is needed; the kernel replicates this exact
        term-by-term accumulation order as vector adds.
        """
        err = 0.0
        n = len(estimates)
        for k in range(n):
            err += abs(estimates[k] - float(targets[k]))
        for k in range(n):
            for k2 in range(k + 1, n):
                est_diff = estimates[k] - estimates[k2]
                tgt_diff = float(targets[k]) - float(targets[k2])
                err += abs(est_diff - tgt_diff)
        return err
