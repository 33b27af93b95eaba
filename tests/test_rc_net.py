"""RC net builders: edge, star, and shared-route topologies."""

import pytest

import numpy as np

from repro.geometry import Point
from repro.route.rc_net import (
    edge_rc_tree,
    route_rc_tree,
    star_rc_tree,
    straight_wire_moments,
)
from repro.route.rsmt import rsmt
from repro.sta.d2m import d2m_delays
from repro.sta.elmore import elmore_delay_to, elmore_delays
from repro.tech.corners import TABLE3_CORNERS
from repro.tech.derating import DerateModel
from repro.tech.wire import WireModel


@pytest.fixture(scope="module")
def wire():
    return WireModel.for_corner(
        TABLE3_CORNERS["c0"], DerateModel(reference=TABLE3_CORNERS["c0"])
    )


class TestEdgeRC:
    def test_total_cap_matches_wire_plus_load(self, wire):
        length = 100.0
        tree = edge_rc_tree([Point(0, 0), Point(length, 0)], wire, load_ff=5.0)
        assert tree.total_cap_ff() == pytest.approx(
            wire.segment_cap(length) + 5.0
        )

    def test_elmore_matches_distributed_formula(self, wire):
        """Fine discretization converges to rL(cL/2 + load)."""
        length, load = 200.0, 4.0
        tree = edge_rc_tree(
            [Point(0, 0), Point(length, 0)], wire, load, segment_um=1.0
        )
        expected = wire.segment_res(length) * (
            wire.segment_cap(length) / 2.0 + load
        )
        assert elmore_delay_to(tree, "sink") == pytest.approx(expected, rel=1e-3)

    def test_discretization_insensitivity_of_elmore(self, wire):
        """Elmore of the pi-chain is exact for any segment count."""
        poly = [Point(0, 0), Point(130, 0)]
        coarse = elmore_delay_to(edge_rc_tree(poly, wire, 3.0, segment_um=130.0), "sink")
        fine = elmore_delay_to(edge_rc_tree(poly, wire, 3.0, segment_um=5.0), "sink")
        assert coarse == pytest.approx(fine, rel=1e-9)

    def test_zero_length_edge(self, wire):
        tree = edge_rc_tree([Point(0, 0), Point(0, 0)], wire, load_ff=2.0)
        assert elmore_delay_to(tree, "sink") == 0.0
        assert tree.total_cap_ff() == pytest.approx(2.0)

    def test_detoured_polyline_counts_full_length(self, wire):
        direct = edge_rc_tree([Point(0, 0), Point(100, 0)], wire, 1.0)
        detour = edge_rc_tree(
            [Point(0, 0), Point(0, 30), Point(100, 30), Point(100, 0)], wire, 1.0
        )
        assert detour.total_cap_ff() > direct.total_cap_ff()
        assert elmore_delay_to(detour, "sink") > elmore_delay_to(direct, "sink")


def _moments(wire, lengths, loads):
    """:func:`straight_wire_moments` at one corner's wire parasitics."""
    return straight_wire_moments(wire.res_per_um, wire.cap_per_um, lengths, loads)


class TestStraightWireMoments:
    def test_lanes_equal_edge_trees(self, wire):
        """Each lane's (Elmore, D2M) equals its edge tree's, bit for bit."""
        lengths = [0.0, 0.3, 19.99, 20.0, 20.01, 100.0, 333.3, 901.25]
        loads = [0.0, 0.9, 4.0, 80.0, 2.5, 16.64, 1.04, 7.0]
        elmore, d2m = _moments(wire, lengths, loads)
        for i, (length, load) in enumerate(zip(lengths, loads)):
            tree = edge_rc_tree([Point(0, 0), Point(length, 0)], wire, load)
            assert elmore[i] == elmore_delays(tree)["sink"], length
            assert d2m[i] == d2m_delays(tree)["sink"], length

    def test_broadcasts_a_scalar_load(self, wire):
        lengths = np.array([[5.0, 45.0], [70.0, 0.0]])
        elmore, d2m = _moments(wire, lengths, 3.0)
        assert elmore.shape == d2m.shape == (2, 2)
        flat = _moments(wire, lengths.ravel(), [3.0] * 4)
        assert elmore.ravel().tolist() == flat[0].tolist()
        assert d2m.ravel().tolist() == flat[1].tolist()

    def test_corner_arrays_add_a_leading_axis(self, wire):
        """``(corners,)`` parasitics time every corner in one pass; each
        corner's row equals that corner's scalar call bit for bit."""
        res = np.array([wire.res_per_um, 1.3 * wire.res_per_um, 0.8 * wire.res_per_um])
        cap = np.array([wire.cap_per_um, 0.9 * wire.cap_per_um, 1.2 * wire.cap_per_um])
        lengths = np.array([[0.0, 19.99, 45.0], [120.5, 333.3, 20.0]])
        elmore, d2m = straight_wire_moments(res, cap, lengths, 2.5)
        assert elmore.shape == d2m.shape == (3, 2, 3)
        for k in range(3):
            one = straight_wire_moments(float(res[k]), float(cap[k]), lengths, 2.5)
            assert elmore[k].tolist() == one[0].tolist()
            assert d2m[k].tolist() == one[1].tolist()

    def test_empty_input(self, wire):
        elmore, d2m = _moments(wire, np.zeros(0), 1.0)
        assert elmore.size == d2m.size == 0

    @pytest.mark.parametrize("length, load", [(-1.0, 1.0), (10.0, -0.5)])
    def test_negative_length_or_load_raises(self, wire, length, load):
        with pytest.raises(ValueError):
            _moments(wire, [5.0, length], load)


class TestStarRC:
    def test_branches_independent(self, wire):
        """In a star, one branch's delay ignores sibling branches."""
        single = star_rc_tree(
            [("a", [Point(0, 0), Point(100, 0)], 2.0)], wire
        )
        double = star_rc_tree(
            [
                ("a", [Point(0, 0), Point(100, 0)], 2.0),
                ("b", [Point(0, 0), Point(0, 300)], 8.0),
            ],
            wire,
        )
        assert elmore_delays(double)["a"] == pytest.approx(
            elmore_delays(single)["a"]
        )

    def test_total_cap_sums_branches(self, wire):
        tree = star_rc_tree(
            [
                ("a", [Point(0, 0), Point(50, 0)], 1.0),
                ("b", [Point(0, 0), Point(0, 70)], 2.0),
            ],
            wire,
        )
        assert tree.total_cap_ff() == pytest.approx(
            wire.segment_cap(120.0) + 3.0
        )

    def test_d2m_bounded_by_elmore(self, wire):
        tree = star_rc_tree(
            [
                ("a", [Point(0, 0), Point(150, 0)], 1.5),
                ("b", [Point(0, 0), Point(0, 220)], 3.0),
            ],
            wire,
        )
        elmore = elmore_delays(tree)
        d2m = d2m_delays(tree)
        for name in ("a", "b"):
            assert 0.0 < d2m[name] <= elmore[name]


class TestRouteRC:
    def test_pin_delays_readable_by_index(self, wire):
        pts = [Point(0, 0), Point(100, 0), Point(50, 80)]
        route = rsmt(pts)
        rc = route_rc_tree(route, 0, {1: 2.0, 2: 2.0}, wire)
        delays = elmore_delays(rc)
        assert delays[1] > 0.0 and delays[2] > 0.0

    def test_invalid_root_rejected(self, wire):
        route = rsmt([Point(0, 0), Point(10, 0)])
        with pytest.raises(ValueError):
            route_rc_tree(route, 99, {}, wire)

    def test_shared_trunk_cheaper_than_star_far_cap(self, wire):
        """Two co-located far pins: shared routing halves the wire cap."""
        pts = [Point(0, 0), Point(200, 1), Point(200, -1)]
        route = rsmt(pts)
        shared = route_rc_tree(route, 0, {1: 1.0, 2: 1.0}, wire)
        star = star_rc_tree(
            [
                (1, [Point(0, 0), Point(200, 1)], 1.0),
                (2, [Point(0, 0), Point(200, -1)], 1.0),
            ],
            wire,
        )
        assert shared.total_cap_ff() < star.total_cap_ff() * 0.62
