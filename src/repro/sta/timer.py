"""The golden timer: full-tree, all-corner clock latency analysis.

This plays the role Synopsys PrimeTime plays in the paper — the arbiter of
"actual" latencies, skews, and skew variations.  Per corner it performs a
single root-to-leaves propagation:

1. at each driver (source or buffer), evaluate the inverter pair against
   the corner's NLDM tables with the propagated input slew and the net's
   total capacitive load;
2. build the net's distributed RC tree (independently routed edges form a
   star at the driver output) and compute per-fanout wire delay with the
   D2M metric (Elmore selectable) and slew degradation from the Elmore
   delay via PERI.

Latency at a sink is the sum of pair delays and wire delays along its root
path.  Arc delays (for the LP) are arrival differences between arc
endpoints, so path latency is exactly the sum of its arc delays.

:class:`GoldenTimer` executes this model on the batched array kernel
(:mod:`repro.sta.kernel`); its scalar per-node form is the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.geometry import BBox, Point
from repro.netlist.arcs import Arc
from repro.netlist.tree import ClockTree
from repro.route.congestion import routed_length_factor
from repro.route.rc_net import DEFAULT_SEGMENT_UM, star_rc_tree
from repro.sta.d2m import d2m_delays
from repro.sta.elmore import elmore_delays
from repro.sta.gate import inverter_pair_timing, quantize_gate_inputs
from repro.sta.signoff import signoff_gate_factor
from repro.sta.skew import SkewAnalysis
from repro.sta.slew import wire_degraded_slew
from repro.tech.corners import Corner
from repro.tech.library import Library


@dataclass
class CornerTiming:
    """Per-corner analysis artifacts.

    ``arrival`` holds the arrival time at every node's *input* (ps, relative
    to the clock source input); ``input_slew`` the transition at each input;
    ``driver_delay`` the inverter-pair delay at each driver node.

    Fields are read-only mappings by contract: the batched kernel returns
    array-backed views (:class:`repro.sta.skew.ArrayMap`), the scalar
    reference fills plain dicts with identical lookup/iteration behavior.
    Consumers must not mutate them.
    """

    corner: Corner
    arrival: Mapping[int, float]
    input_slew: Mapping[int, float]
    driver_delay: Mapping[int, float]
    driver_load: Mapping[int, float]
    driver_out_slew: Mapping[int, float]
    edge_delay: Mapping[int, float]
    edge_elmore: Mapping[int, float]

    def latency(self, sink: int) -> float:
        return self.arrival[sink]


@dataclass(frozen=True)
class TimingResult:
    """All-corner timing of one tree state.

    ``latencies`` maps each corner to a read-only ``{sink: arrival}``
    mapping: a dict from the golden timer, an array view from the
    incremental engine.
    """

    per_corner: Dict[str, CornerTiming]
    latencies: Dict[str, Mapping[int, float]]
    skews: SkewAnalysis

    @property
    def total_variation(self) -> float:
        """The paper's objective value (ps)."""
        return self.skews.total_variation


class GoldenTimer:
    """Clock-tree STA across a library's corner set.

    Analysis runs on the array kernel (:mod:`repro.sta.kernel`): the tree
    compiles into struct-of-arrays form and all corners propagate at
    once.  :meth:`_analyze_corner_reference`, the scalar per-node,
    per-corner loop, is the authoritative definition of the timing model
    and the oracle of the differential tests; the kernel agrees with it
    bit for bit.  A library whose NLDM tables cannot be stacked
    (:attr:`~repro.tech.library.Library.nldm`; for example cells that do
    not share one grid) raises that :class:`ValueError` on first use.
    """

    def __init__(self, library: Library, wire_metric: str = "d2m") -> None:
        if wire_metric not in ("d2m", "elmore"):
            raise ValueError("wire_metric must be 'd2m' or 'elmore'")
        self._library = library
        self._wire_metric = wire_metric
        self._kernel = None

    @property
    def library(self) -> Library:
        return self._library

    @property
    def wire_metric(self) -> str:
        return self._wire_metric

    def _timing_kernel(self):
        """The shared :class:`~repro.sta.kernel.TimingKernel` (built lazily)."""
        if self._kernel is None:
            from repro.sta.kernel import TimingKernel

            self._kernel = TimingKernel(self._library, self._wire_metric)
        return self._kernel

    def analyze_corner(self, tree: ClockTree, corner: Corner) -> CornerTiming:
        """Propagate arrivals and slews through ``tree`` at one corner."""
        compiled = self._timing_kernel().compile(tree, corners=[corner])
        return compiled.corner_timing(compiled.propagate(), corner.name)

    def _analyze_corner_reference(
        self, tree: ClockTree, corner: Corner
    ) -> CornerTiming:
        """Scalar single-corner propagation (the authoritative model)."""
        lib = self._library
        wire = lib.wire(corner)
        arrival: Dict[int, float] = {tree.root: 0.0}
        input_slew: Dict[int, float] = {tree.root: lib.source_slew_ps}
        driver_delay: Dict[int, float] = {}
        driver_load: Dict[int, float] = {}
        driver_out_slew: Dict[int, float] = {}
        edge_delay: Dict[int, float] = {}
        edge_elmore: Dict[int, float] = {}

        for nid in tree.topological_order():
            node = tree.node(nid)
            children = tree.children(nid)
            if node.is_sink or not children:
                continue

            size = lib.source_drive_size if node.is_source else node.size
            cell = lib.cell(size, corner)

            # Router model: every edge's realized length carries a
            # congestion-dependent overhead over its estimated polyline
            # (see repro.route.congestion).  The jitter is keyed to the
            # edge endpoints, so re-analysis is deterministic.
            net_points = [node.location] + [
                tree.node(c).location for c in children
            ]
            bbox_area = BBox.of_points(net_points).area
            fanout = len(children)

            edges = []
            total_load = 0.0
            for child in children:
                child_node = tree.node(child)
                factor = routed_length_factor(
                    fanout, bbox_area, node.location, child_node.location
                )
                length = tree.edge_length(child) * factor
                pin_cap = (
                    lib.sink_cap_ff
                    if child_node.is_sink
                    else lib.input_cap_ff(child_node.size)
                )
                edges.append(
                    (child, [Point(0.0, 0.0), Point(length, 0.0)], pin_cap)
                )
                total_load += wire.segment_cap(length) + pin_cap

            gate_slew, gate_load = quantize_gate_inputs(
                input_slew[nid], total_load
            )
            pair = inverter_pair_timing(cell, gate_slew, gate_load)
            # Signoff correction: the golden engine's gate delays deviate
            # systematically from NLDM interpolation (see repro.sta.signoff).
            correction = signoff_gate_factor(size, gate_slew, gate_load)
            driver_delay[nid] = pair.delay_ps * correction
            driver_load[nid] = total_load
            driver_out_slew[nid] = pair.output_slew_ps

            rc = star_rc_tree(edges, wire, segment_um=DEFAULT_SEGMENT_UM)
            elmore = elmore_delays(rc)
            wire_delay = d2m_delays(rc) if self._wire_metric == "d2m" else elmore

            out_time = arrival[nid] + driver_delay[nid]
            for child in children:
                arrival[child] = out_time + wire_delay[child]
                edge_delay[child] = wire_delay[child]
                edge_elmore[child] = elmore[child]
                input_slew[child] = wire_degraded_slew(
                    pair.output_slew_ps, elmore[child]
                )
        return CornerTiming(
            corner=corner,
            arrival=arrival,
            input_slew=input_slew,
            driver_delay=driver_delay,
            driver_load=driver_load,
            driver_out_slew=driver_out_slew,
            edge_delay=edge_delay,
            edge_elmore=edge_elmore,
        )

    def analyze_all_corners(self, tree: ClockTree) -> Dict[str, CornerTiming]:
        """Timing of every library corner, keyed by name.

        The shared primitive behind :meth:`latencies` and
        :meth:`time_tree`, so callers that need both sink latencies and
        the per-corner artifacts run the analysis exactly once.  All
        corners propagate in one batched pass and each
        :class:`CornerTiming` is a view over its slice.
        """
        compiled = self._timing_kernel().compile(tree)
        state = compiled.propagate()
        return {
            corner.name: compiled.corner_timing(state, corner.name)
            for corner in self._library.corners
        }

    def latencies(self, tree: ClockTree) -> Dict[str, Dict[int, float]]:
        """Sink latency per corner name: ``{corner: {sink id: latency ps}}``."""
        sinks = tree.sinks()
        return {
            name: {s: timing.arrival[s] for s in sinks}
            for name, timing in self.analyze_all_corners(tree).items()
        }

    def time_tree(
        self,
        tree: ClockTree,
        pairs: Sequence[Tuple[int, int]],
        alphas: Optional[Mapping[str, float]] = None,
        timings: Optional[Dict[str, CornerTiming]] = None,
    ) -> TimingResult:
        """Full analysis: per-corner timing plus the skew-variation snapshot.

        Pass the baseline tree's ``alphas`` when evaluating an optimized
        tree so objectives are compared on a common normalization scale.
        Pass ``timings`` (from :meth:`analyze_all_corners`) to reuse an
        analysis already in hand instead of re-running it.
        """
        per_corner = timings or self.analyze_all_corners(tree)
        sinks = tree.sinks()
        latencies: Dict[str, Dict[int, float]] = {
            name: {s: timing.arrival[s] for s in sinks}
            for name, timing in per_corner.items()
        }
        skews = SkewAnalysis.from_latencies(
            latencies, list(pairs), self._library.corners, alphas
        )
        return TimingResult(
            per_corner=per_corner, latencies=latencies, skews=skews
        )

    def arc_delays(
        self, tree: ClockTree, arcs: Sequence[Arc], timing: CornerTiming
    ) -> List[float]:
        """Measured delay of every arc (arrival at end minus at start)."""
        return [timing.arrival[a.end] - timing.arrival[a.start] for a in arcs]

    def max_latency(self, timing: CornerTiming, sinks: Sequence[int]) -> float:
        """Maximum sink latency at one corner (for LP Constraint (9))."""
        return max(timing.arrival[s] for s in sinks)
