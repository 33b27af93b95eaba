"""Analytical delta-latency estimation for candidate moves.

Implements the first stage of the paper's two-stage model: estimate the
new routing pattern with a route-topology model (FLUTE-like RSMT or
single-trunk Steiner — or the golden star model for reference), compute
wire delays with Elmore and D2M, update the driver's delay and output
slew from the Liberty tables against the estimated wire load, and
propagate slew with PERI.  Gate delays are updated one stage downstream
of the perturbed buffer (the paper observes changes beyond two stages are
<1 ps; our nets are one stage shallower, so one downstream stage
suffices).

All estimates are *deltas* against a reference :class:`CornerTiming`
snapshot, per corner, split into:

* ``subtree`` — latency change of every sink under the moved buffer,
* ``old_siblings`` — change for sinks under the (old) parent's other
  children (driver-load coupling),
* ``new_siblings`` — for tree surgery, change under the new driver's
  previous children.

Both wire metrics are computed from one shared RC build per (route
model, corner); callers pick the metric per variant.

These are the per-move estimators: one move, one net plan and one RC
build at a time, with no memo.  The array feature kernel
(:mod:`repro.core.ml.feature_kernel`) is held bit-identical to them and
sends them the moves it does not compile (tree surgery, drive sizes off
the stacked tables); every feature parity test uses them as its oracle.
Sink weights come from :meth:`ClockTree.subtree_sinks`, which the tree
memoizes until its next connectivity edit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.moves import Move, MoveType
from repro.geometry import BBox, Point
from repro.netlist.tree import ClockTree
from repro.route.rc_net import route_rc_tree, star_rc_tree
from repro.route.rsmt import rsmt
from repro.route.single_trunk import single_trunk_tree
from repro.sta.d2m import d2m_delays
from repro.sta.elmore import elmore_delays
from repro.sta.gate import PairTiming, inverter_pair_timing, quantize_gate_inputs
from repro.sta.slew import wire_degraded_slew
from repro.tech.cells import InverterCell
from repro.sta.timer import CornerTiming
from repro.tech.corners import Corner
from repro.tech.library import Library

#: Route-topology models available to the estimator.
ROUTE_MODELS = ("star", "rsmt", "trunk")

#: Wire-delay metrics available to the estimator.
DELAY_METRICS = ("elmore", "d2m")

#: RC discretization for estimates (coarser than golden: it's a predictor).
ESTIMATE_SEGMENT_UM = 40.0


def _pair_timing(
    cell: InverterCell, in_slew_ps: float, load_ff: float
) -> PairTiming:
    """Gate evaluation on the shared quantized (slew, load) grid.

    Every analytical gate evaluation funnels through here so the
    estimator uses the same input quantization as the timing engines:
    slew jitter below half a quantum collapses to one table lookup.  The
    feature kernel (:mod:`repro.core.ml.feature_kernel`) runs this exact
    sequence on arrays (:func:`~repro.sta.gate.quantize_gate_arrays`,
    then the four lookups of the library's
    :meth:`~repro.tech.cells.NLDMStack.pair`), so any change here must
    be reflected there.
    """
    slew_q, load_q = quantize_gate_inputs(in_slew_ps, load_ff)
    return inverter_pair_timing(cell, slew_q, load_q)


@dataclass(frozen=True)
class NetEstimate:
    """Analytical timing of one driver's net under a candidate geometry.

    ``wire_delay_ps[metric][child]`` carries both metrics from one RC
    build; ``wire_elmore_ps`` feeds PERI slew degradation.
    """

    pair_delay_ps: float
    out_slew_ps: float
    wire_delay_ps: Dict[str, Dict[int, float]]
    wire_elmore_ps: Dict[int, float]
    total_load_ff: float
    wirelength_um: float
    fanout: int
    bbox_area_um2: float
    bbox_aspect: float

    def delay_to(self, child: int, metric: str) -> float:
        return self.wire_delay_ps[metric][child]


@dataclass(frozen=True)
class MoveImpact:
    """Per-corner delta-latency estimates of one move (one route/metric)."""

    subtree: Dict[str, float]
    old_siblings: Dict[str, float]
    new_siblings: Dict[str, float]
    net_after: NetEstimate  # moved buffer's (or new driver's) net, nominal
    parent_net: Optional[NetEstimate] = None  # driving net, nominal corner
    #: Wire-only subtree delta: route-estimate wire delays with gate
    #: delays frozen at baseline.  This is what the paper's Figure-6
    #: "analytical models" ({FLUTE, trunk} x {Elmore, D2M}) compute; the
    #: Liberty/PERI driver updating belongs to the ML input pipeline.
    subtree_wire_only: Dict[str, float] = None


def _pin_cap(tree: ClockTree, library: Library, nid: int) -> float:
    node = tree.node(nid)
    if node.is_sink:
        return library.sink_cap_ff
    return library.input_cap_ff(node.size)


@dataclass(frozen=True)
class _NetPlan:
    """Route topology for one candidate net, shared across corners."""

    driver_loc: Point
    children: Tuple[Tuple[int, Point, float], ...]
    route_model: str
    route: Optional[object]  # RouteTree for rsmt/trunk, None for star
    name_of: Dict[int, object]
    wirelength_um: float


def plan_net(
    driver_loc: Point,
    children: Sequence[Tuple[int, Point, float]],
    route_model: str,
) -> _NetPlan:
    """Build the (corner-independent) route topology for a net.

    An rsmt/trunk plan routes the driver as pin 0 and child ``i`` as
    pin ``i + 1``.
    """
    if route_model not in ROUTE_MODELS:
        raise ValueError(f"unknown route model {route_model!r}")
    children = tuple(children)
    if route_model == "star":
        return _NetPlan(
            driver_loc=driver_loc,
            children=children,
            route_model="star",
            route=None,
            name_of={cid: cid for cid, _, _ in children},
            wirelength_um=sum(driver_loc.manhattan(loc) for _, loc, _ in children),
        )
    points = [driver_loc, *(loc for _, loc, _ in children)]
    route = rsmt(points) if route_model == "rsmt" else single_trunk_tree(points)
    return _NetPlan(
        driver_loc=driver_loc,
        children=children,
        route_model=route_model,
        route=route,
        name_of={cid: i + 1 for i, (cid, _, _) in enumerate(children)},
        wirelength_um=route.length,
    )


def time_net(
    plan: _NetPlan,
    library: Library,
    corner: Corner,
    driver_size: int,
    in_slew_ps: float,
    segment_um: float = ESTIMATE_SEGMENT_UM,
) -> NetEstimate:
    """Evaluate a planned net at one corner (both wire metrics at once)."""
    wire = library.wire(corner)
    cell = library.cell(driver_size, corner)
    if plan.route_model == "star":
        edges = [
            (cid, [plan.driver_loc, loc], cap) for cid, loc, cap in plan.children
        ]
        rc = star_rc_tree(edges, wire, segment_um=segment_um)
    else:
        pin_loads = {
            plan.name_of[cid]: cap for cid, _, cap in plan.children
        }
        rc = route_rc_tree(plan.route, 0, pin_loads, wire, segment_um=segment_um)

    elmore = elmore_delays(rc)
    d2m = d2m_delays(rc)
    total_load = wire.segment_cap(plan.wirelength_um) + sum(
        c for _, _, c in plan.children
    )
    pair = _pair_timing(cell, in_slew_ps, total_load)

    points = [plan.driver_loc] + [loc for _, loc, _ in plan.children]
    bbox = BBox.of_points(points)
    return NetEstimate(
        pair_delay_ps=pair.delay_ps,
        out_slew_ps=pair.output_slew_ps,
        wire_delay_ps={
            "elmore": {cid: elmore[plan.name_of[cid]] for cid, _, _ in plan.children},
            "d2m": {cid: d2m[plan.name_of[cid]] for cid, _, _ in plan.children},
        },
        wire_elmore_ps={
            cid: elmore[plan.name_of[cid]] for cid, _, _ in plan.children
        },
        total_load_ff=total_load,
        wirelength_um=plan.wirelength_um,
        fanout=len(plan.children),
        bbox_area_um2=bbox.area,
        bbox_aspect=bbox.aspect_ratio,
    )


def _children_spec(
    tree: ClockTree,
    library: Library,
    driver: int,
    overrides: Mapping[int, Tuple[Point, float]] = None,
    drop: Optional[int] = None,
    extra: Sequence[Tuple[int, Point, float]] = (),
) -> List[Tuple[int, Point, float]]:
    """(id, location, pin cap) for a driver's children with modifications."""
    overrides = overrides or {}
    spec: List[Tuple[int, Point, float]] = []
    for child in tree.children(driver):
        if child == drop:
            continue
        if child in overrides:
            loc, cap = overrides[child]
        else:
            loc = tree.node(child).location
            cap = _pin_cap(tree, library, child)
        spec.append((child, loc, cap))
    spec.extend(extra)
    return spec


def _subtree_sink_weights(tree: ClockTree, nid: int) -> Dict[int, int]:
    """Sink count per child of ``nid`` (weights for aggregate deltas)."""
    return {
        child: max(len(tree.subtree_sinks(child)), 1)
        for child in tree.children(nid)
    }


def _weighted_child_delta(
    tree: ClockTree,
    driver: int,
    new_est: NetEstimate,
    metric: str,
    timing: CornerTiming,
    exclude: Optional[int] = None,
) -> float:
    """Sink-weighted mean change of per-child wire delay on a net."""
    weights = _subtree_sink_weights(tree, driver)
    total_w = 0.0
    total = 0.0
    for child, w in weights.items():
        if child == exclude or child not in new_est.wire_delay_ps[metric]:
            continue
        old = timing.edge_delay.get(child, 0.0)
        total += w * (new_est.wire_delay_ps[metric][child] - old)
        total_w += w
    return total / total_w if total_w else 0.0


def _driver_size(tree: ClockTree, library: Library, nid: int) -> int:
    node = tree.node(nid)
    return library.source_drive_size if node.is_source else node.size


def estimate_move_impacts(
    tree: ClockTree,
    library: Library,
    timings: Mapping[str, CornerTiming],
    move: Move,
    route_model: str,
) -> Dict[str, MoveImpact]:
    """Estimate a move's impact under one route model, both metrics.

    Returns ``{metric: MoveImpact}``.  ``tree`` is the pre-move tree and
    is never mutated.
    """
    if move.type is MoveType.SURGERY:
        return _estimate_surgery(tree, library, timings, move, route_model)
    return _estimate_displace(tree, library, timings, move, route_model)


def _estimate_displace(
    tree: ClockTree,
    library: Library,
    timings: Mapping[str, CornerTiming],
    move: Move,
    route_model: str,
) -> Dict[str, MoveImpact]:
    """Types I and II: displacement of the buffer plus a one-step resize."""
    b = move.buffer
    parent = tree.parent(b)
    node = tree.node(b)
    new_loc = node.location.translated(move.dx, move.dy)

    new_size = node.size
    if move.type is MoveType.SIZING_DISPLACE and move.size_step:
        new_size = library.step_size(node.size, move.size_step)
    new_pin = library.input_cap_ff(new_size)

    child_overrides: Dict[int, Tuple[Point, float]] = {}
    resized_child = None
    child_new_size = None
    if move.type is MoveType.CHILD_SIZING and move.child is not None:
        resized_child = move.child
        child_new_size = library.step_size(
            tree.node(resized_child).size, move.child_size_step
        )
        child_overrides[resized_child] = (
            tree.node(resized_child).location,
            library.input_cap_ff(child_new_size),
        )

    parent_plan = plan_net(
        tree.node(parent).location,
        _children_spec(tree, library, parent, overrides={b: (new_loc, new_pin)}),
        route_model,
    )
    b_plan = plan_net(
        new_loc,
        _children_spec(tree, library, b, overrides=child_overrides),
        route_model,
    )

    out: Dict[str, MoveImpact] = {
        m: MoveImpact(
            subtree={},
            old_siblings={},
            new_siblings={},
            net_after=None,
            subtree_wire_only={},
        )
        for m in DELAY_METRICS
    }
    nets_nominal: Dict[str, NetEstimate] = {}
    parent_size = _driver_size(tree, library, parent)

    for corner in library.corners:
        name = corner.name
        timing = timings[name]
        parent_est = time_net(
            parent_plan,
            library,
            corner,
            parent_size,
            timing.input_slew.get(parent, library.source_slew_ps),
        )
        slew_at_b = wire_degraded_slew(
            parent_est.out_slew_ps, parent_est.wire_elmore_ps[b]
        )
        b_est = time_net(b_plan, library, corner, new_size, slew_at_b)

        d_parent_pair = parent_est.pair_delay_ps - timing.driver_delay[parent]
        d_b_pair = b_est.pair_delay_ps - timing.driver_delay.get(b, 0.0)

        d_child_pair = 0.0
        if resized_child is not None and tree.children(resized_child):
            child_slew = wire_degraded_slew(
                b_est.out_slew_ps, b_est.wire_elmore_ps[resized_child]
            )
            child_cell = library.cell(child_new_size, corner)
            child_pair = _pair_timing(
                child_cell,
                child_slew,
                timing.driver_load.get(resized_child, 0.0),
            )
            weights = _subtree_sink_weights(tree, b)
            share = weights.get(resized_child, 1) / max(sum(weights.values()), 1)
            d_child_pair = share * (
                child_pair.delay_ps - timing.driver_delay.get(resized_child, 0.0)
            )

        for metric in DELAY_METRICS:
            d_wire_to_b = parent_est.delay_to(b, metric) - timing.edge_delay.get(
                b, 0.0
            )
            d_b_wire = _weighted_child_delta(tree, b, b_est, metric, timing)
            out[metric].subtree[name] = (
                d_parent_pair + d_wire_to_b + d_b_pair + d_b_wire + d_child_pair
            )
            out[metric].subtree_wire_only[name] = d_wire_to_b + d_b_wire
            out[metric].old_siblings[name] = (
                d_parent_pair
                + _weighted_child_delta(
                    tree, parent, parent_est, metric, timing, exclude=b
                )
            )
            out[metric].new_siblings[name] = 0.0
        if name == library.corners.nominal.name:
            nets_nominal["net"] = b_est
            nets_nominal["parent"] = parent_est

    return {
        metric: MoveImpact(
            subtree=out[metric].subtree,
            old_siblings=out[metric].old_siblings,
            new_siblings=out[metric].new_siblings,
            net_after=nets_nominal["net"],
            parent_net=nets_nominal["parent"],
            subtree_wire_only=out[metric].subtree_wire_only,
        )
        for metric in DELAY_METRICS
    }


def _estimate_surgery(
    tree: ClockTree,
    library: Library,
    timings: Mapping[str, CornerTiming],
    move: Move,
    route_model: str,
) -> Dict[str, MoveImpact]:
    """Type III: reassign buffer ``b`` from its parent to ``new_parent``."""
    b = move.buffer
    old_parent = tree.parent(b)
    new_parent = move.new_parent
    b_node = tree.node(b)
    b_pin = library.input_cap_ff(b_node.size)

    old_spec = _children_spec(tree, library, old_parent, drop=b)
    new_spec = _children_spec(
        tree, library, new_parent, extra=[(b, b_node.location, b_pin)]
    )
    old_plan = (
        plan_net(tree.node(old_parent).location, old_spec, route_model)
        if old_spec
        else None
    )
    new_plan = plan_net(tree.node(new_parent).location, new_spec, route_model)

    out: Dict[str, MoveImpact] = {
        m: MoveImpact(
            subtree={},
            old_siblings={},
            new_siblings={},
            net_after=None,
            subtree_wire_only={},
        )
        for m in DELAY_METRICS
    }
    nets_nominal: Dict[str, NetEstimate] = {}

    for corner in library.corners:
        name = corner.name
        timing = timings[name]

        d_old = {m: 0.0 for m in DELAY_METRICS}
        if old_plan is not None:
            old_est = time_net(
                old_plan,
                library,
                corner,
                _driver_size(tree, library, old_parent),
                timing.input_slew.get(old_parent, library.source_slew_ps),
            )
            base = old_est.pair_delay_ps - timing.driver_delay[old_parent]
            for m in DELAY_METRICS:
                d_old[m] = base + _weighted_child_delta(
                    tree, old_parent, old_est, m, timing, exclude=b
                )

        new_est = time_net(
            new_plan,
            library,
            corner,
            _driver_size(tree, library, new_parent),
            timing.input_slew.get(new_parent, library.source_slew_ps),
        )
        # A childless buffer (orphaned by an earlier surgery) has no
        # driver entry in the snapshot; its prior pair delay is zero
        # in every sink's latency, so the delta is the full new value.
        d_new_pair = new_est.pair_delay_ps - timing.driver_delay.get(
            new_parent, 0.0
        )
        slew_at_b = wire_degraded_slew(
            new_est.out_slew_ps, new_est.wire_elmore_ps[b]
        )
        b_cell = library.cell(b_node.size, corner)
        b_pair = _pair_timing(
            b_cell, slew_at_b, timing.driver_load.get(b, 0.0)
        )
        d_b_pair = b_pair.delay_ps - timing.driver_delay.get(b, 0.0)

        for m in DELAY_METRICS:
            new_arrival_b = (
                timing.arrival[new_parent]
                + new_est.pair_delay_ps
                + new_est.delay_to(b, m)
            )
            out[m].subtree[name] = (
                new_arrival_b - timing.arrival[b]
            ) + d_b_pair
            # Wire-only view: the new driver's gate delay stays at its
            # baseline value; only route-estimate wire delays move.
            out[m].subtree_wire_only[name] = (
                timing.arrival[new_parent]
                + timing.driver_delay.get(new_parent, 0.0)
                + new_est.delay_to(b, m)
            ) - timing.arrival[b]
            out[m].old_siblings[name] = d_old[m]
            out[m].new_siblings[name] = d_new_pair + _weighted_child_delta(
                tree, new_parent, new_est, m, timing, exclude=b
            )
        if name == library.corners.nominal.name:
            nets_nominal["net"] = new_est

    return {
        m: MoveImpact(
            subtree=out[m].subtree,
            old_siblings=out[m].old_siblings,
            new_siblings=out[m].new_siblings,
            net_after=nets_nominal["net"],
            parent_net=nets_nominal["net"],
            subtree_wire_only=out[m].subtree_wire_only,
        )
        for m in DELAY_METRICS
    }
