"""Placement legalization."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eco.legalize import Legalizer
from repro.geometry import BBox, Point
from repro.netlist.tree import ClockTree
from tests.oracles import reference_legalize


@pytest.fixture()
def setup():
    region = BBox(0, 0, 100, 100)
    legalizer = Legalizer(region=region, pitch_um=5.0)
    tree = ClockTree()
    src = tree.add_source(Point(0, 0))
    b1 = tree.add_buffer(src, Point(50, 50), 8)
    b2 = tree.add_buffer(src, Point(55, 50), 8)
    return region, legalizer, tree, (src, b1, b2)


class TestSnap:
    def test_snap_to_grid(self, setup):
        _, legalizer, _, _ = setup
        assert legalizer.snap(Point(12.4, 47.6)) == Point(10, 50)

    def test_snap_clamps_to_region(self, setup):
        _, legalizer, _, _ = setup
        snapped = legalizer.snap(Point(500, -20))
        assert snapped == Point(100, 0)


class TestLegalize:
    def test_free_site_returned_directly(self, setup):
        _, legalizer, tree, (_, b1, _) = setup
        spot = legalizer.legalize(tree, b1, Point(20, 20))
        assert spot == Point(20, 20)

    def test_occupied_site_avoided(self, setup):
        _, legalizer, tree, (_, b1, b2) = setup
        # b1 sits at (50, 50); try to put b2 exactly there.
        spot = legalizer.legalize(tree, b2, Point(50, 50))
        assert spot != Point(50, 50)
        # ...but nearby (one ring away on the 5um grid).
        assert Point(50, 50).manhattan(spot) <= 10.0

    def test_self_occupancy_ignored(self, setup):
        _, legalizer, tree, (_, b1, _) = setup
        # Legalizing b1 onto its own site must succeed in place.
        spot = legalizer.legalize(tree, b1, tree.node(b1).location)
        assert spot == tree.node(b1).location

    def test_stays_in_region(self, setup):
        region, legalizer, tree, (_, b1, _) = setup
        spot = legalizer.legalize(tree, b1, Point(200, 200))
        assert region.contains(spot)

    @given(
        st.floats(-30, 130, allow_nan=False),
        st.floats(-30, 130, allow_nan=False),
    )
    @settings(max_examples=40)
    def test_always_on_grid_and_free(self, x, y):
        region = BBox(0, 0, 100, 100)
        legalizer = Legalizer(region=region, pitch_um=5.0)
        tree = ClockTree()
        src = tree.add_source(Point(0, 0))
        b1 = tree.add_buffer(src, Point(50, 50), 8)
        b2 = tree.add_buffer(src, Point(25, 25), 8)
        spot = legalizer.legalize(tree, b2, Point(x, y))
        assert region.contains(spot)
        assert spot.x % 5.0 == pytest.approx(0.0, abs=1e-9)
        assert spot.y % 5.0 == pytest.approx(0.0, abs=1e-9)
        assert spot != tree.node(b1).location or Point(x, y) != Point(50, 50)


# The array legalizer against the per-node set oracle on random trees:
# nodes half a pitch off the grid (``round`` and ``np.rint`` both break
# those ties to even), nodes outside the region, targets on the node's
# own site, and crowded rings.
_PITCH = 5.0
_HALF_STEPS = st.integers(-8, 48).map(lambda k: k * _PITCH / 2.0)
_COORDS = st.one_of(
    _HALF_STEPS,  # on the grid or exactly half a pitch off it
    st.floats(-30.0, 130.0, allow_nan=False),  # anywhere, in or out
)


def _random_tree(points):
    tree = ClockTree()
    src = tree.add_source(points[0])
    ids = [src]
    for k, point in enumerate(points[1:]):
        ids.append(tree.add_buffer(ids[k // 3], point, 8))
    return tree, ids


class TestAgainstOracle:
    @given(
        st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=40),
        st.tuples(_COORDS, _COORDS),
        st.integers(0, 39),
        st.integers(0, 79),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_trees(self, points, desired, pick, onto):
        """Targets anywhere, and onto other nodes' places (half a pitch
        off the grid among them) and the node's own."""
        legalizer = Legalizer(region=BBox(0, 0, 100, 100), pitch_um=_PITCH)
        tree, ids = _random_tree([Point(x, y) for x, y in points])
        nid = ids[pick % len(ids)]
        targets = [Point(*desired), tree.node(nid).location]
        if onto < len(ids):
            targets.append(tree.node(ids[onto]).location)
        for target in targets:
            assert legalizer.legalize(tree, nid, target) == reference_legalize(
                legalizer, tree, nid, target
            )

    def test_half_pitch_ties_round_to_even(self):
        """A node at (2.5, 7.5) holds site (0, 2), which the snapped
        target (2.5, 7.5) -> (0, 10) asks for."""
        legalizer = Legalizer(region=BBox(0, 0, 100, 100), pitch_um=_PITCH)
        tree, ids = _random_tree([Point(50.0, 50.0), Point(2.5, 7.5), Point(90.0, 90.0)])
        target = Point(2.5, 7.5)
        spot = legalizer.legalize(tree, ids[2], target)
        assert spot == reference_legalize(legalizer, tree, ids[2], target)
        assert spot != legalizer.snap(target) == Point(0.0, 10.0)

    @given(st.integers(1, 4), st.integers(0, 20), st.integers(0, 20), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_crowded_rings(self, rings, bx, by, rng):
        """Every site within ``rings`` rings of the target taken but a few
        (possibly none), some nodes stacked on one site."""
        legalizer = Legalizer(region=BBox(0, 0, 100, 100), pitch_um=_PITCH, max_rings=rings + 2)
        sites = [
            (bx + dx, by + dy)
            for dx in range(-rings, rings + 1)
            for dy in range(-rings, rings + 1)
            if abs(dx) + abs(dy) <= rings
        ]
        taken = [site for site in sites if rng.random() < 0.9]
        taken += rng.sample(taken, min(3, len(taken)))
        points = [Point(200.0, 200.0)] + [Point(x * _PITCH, y * _PITCH) for x, y in taken]
        tree, ids = _random_tree(points)
        target = Point(bx * _PITCH + 1.0, by * _PITCH - 1.0)
        for nid in (ids[0], ids[-1]):
            assert legalizer.legalize(tree, nid, target) == reference_legalize(
                legalizer, tree, nid, target
            )

    def test_no_free_site_raises_like_the_oracle(self):
        legalizer = Legalizer(region=BBox(0, 0, 10, 10), pitch_um=_PITCH, max_rings=3)
        points = [Point(x, y) for x in (0.0, 5.0, 10.0) for y in (0.0, 5.0, 10.0)]
        tree, ids = _random_tree([Point(50.0, 50.0)] + points)
        for legalize in (legalizer.legalize, functools.partial(reference_legalize, legalizer)):
            with pytest.raises(RuntimeError, match="no free site"):
                legalize(tree, ids[0], Point(5.0, 5.0))
