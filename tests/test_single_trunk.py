"""Single-trunk Steiner trees: the lockstep batch against the per-net oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.route.single_trunk import single_trunk_batch, single_trunk_tree
from tests.oracles import (
    reference_dedupe,
    reference_single_trunk,
    reference_trunk_tree,
)

coords = st.floats(0.0, 500.0, allow_nan=False)
point_lists = st.lists(
    st.builds(Point, coords, coords), min_size=1, max_size=12, unique=True
)


def test_single_pin():
    tree = single_trunk_tree([Point(5, 5)])
    assert tree.length == 0.0
    assert tree.num_pins == 1


def test_two_pins_is_direct(self=None):
    tree = single_trunk_tree([Point(0, 0), Point(10, 4)])
    tree.validate()
    assert tree.length == pytest.approx(14.0)


def test_horizontal_row_has_no_stubs():
    pts = [Point(float(x), 10.0) for x in (0, 10, 25, 40)]
    tree = single_trunk_tree(pts)
    tree.validate()
    assert tree.length == pytest.approx(40.0)


def test_trunk_at_median():
    # Three pins: trunk should pass through the median y.
    pts = [Point(0, 0), Point(10, 100), Point(20, 10)]
    tree = single_trunk_tree(pts)
    tree.validate()
    # Stub lengths: |0-10| + |100-10| + 0 = 100, trunk = 20 (H orientation);
    # V orientation: trunk at x=10: stubs 10+10, trunk span 100 -> 120.
    assert tree.length == pytest.approx(120.0)


def test_empty_rejected():
    with pytest.raises(ValueError):
        single_trunk_tree([])


@given(point_lists)
@settings(max_examples=40, deadline=None)
def test_trunk_tree_valid_and_spans(pts):
    tree = single_trunk_tree(pts)
    tree.validate()
    assert tree.num_pins == len(pts)
    for i, p in enumerate(pts):
        assert tree.points[i] == p


@given(point_lists)
@settings(max_examples=40, deadline=None)
def test_orientation_choice_not_worse_than_either(pts):
    tree = single_trunk_tree(pts)
    if len(pts) >= 2:
        h = reference_dedupe(reference_trunk_tree(pts, horizontal=True)).length
        v = reference_dedupe(reference_trunk_tree(pts, horizontal=False)).length
        assert tree.length == pytest.approx(min(h, v))


# Coordinates on a coarse grid, so pins share rows, columns, the median
# and each other's places (duplicates, collinear pins, taps on pins).
grid = st.integers(0, 6).map(lambda v: 10.0 * v)
grid_points = st.lists(st.builds(Point, grid, grid), min_size=1, max_size=12)


def _assert_same_tree(got, ref):
    assert got == ref
    assert got.length == ref.length
    assert [type(v) for p in got.points for v in (p.x, p.y)] == [
        float
    ] * (2 * len(got.points))


@given(st.lists(st.one_of(grid_points, point_lists), min_size=1, max_size=8))
@settings(max_examples=120, deadline=None)
def test_batch_equals_per_net_oracle(point_sets):
    """Each set of a mixed batch routes exactly as the per-net oracle."""
    trees = single_trunk_batch(point_sets)
    assert len(trees) == len(point_sets)
    for pts, tree in zip(point_sets, trees):
        _assert_same_tree(tree, reference_single_trunk(pts))


@pytest.mark.parametrize(
    "pts",
    [
        [Point(3.0, 4.0)],
        [Point(0.0, 0.0), Point(10.0, 4.0)],
        [Point(0.0, 0.0), Point(0.0, 0.0)],  # duplicate pins
        [Point(5.0, 5.0)] * 3,  # every pin in one place
        [Point(0.0, 0.0), Point(10.0, 0.0), Point(30.0, 0.0)],  # collinear
        [Point(0.0, 0.0), Point(10.0, 20.0), Point(20.0, 10.0), Point(30.0, 5.0)],
        # A tap lands on a pin, and two taps share a place.
        [Point(10.0, 10.0), Point(10.0, 40.0), Point(0.0, 10.0), Point(10.0, 0.0)],
        # Duplicate pins on the trunk, and a tap merged onto the first.
        [Point(0.0, 10.0), Point(20.0, 10.0), Point(20.0, 10.0), Point(20.0, 30.0)],
        # Odd and even counts whose median falls between two pins.
        [Point(0.0, 0.0), Point(10.0, 25.0), Point(20.0, 5.0), Point(30.0, 40.0)],
        [Point(-0.0, 0.0), Point(0.0, -0.0), Point(0.0, 10.0)],
    ],
)
def test_edge_cases_equal_oracle(pts):
    (tree,) = single_trunk_batch([pts])
    _assert_same_tree(tree, reference_single_trunk(pts))
    tree.validate()


def test_one_batch_mixes_every_case():
    sets = [
        [Point(3.0, 4.0)],
        [Point(0.0, 0.0), Point(10.0, 4.0)],
        [Point(0.0, 0.0), Point(0.0, 0.0)],
        [Point(0.0, 0.0), Point(10.0, 0.0), Point(30.0, 0.0)],
        [Point(10.0, 10.0), Point(10.0, 40.0), Point(0.0, 10.0), Point(10.0, 0.0)],
        [Point(float(x), float((7 * x) % 13)) for x in range(11)],
        [Point(0.0, 0.0), Point(10.0, 25.0), Point(20.0, 5.0), Point(30.0, 40.0)],
    ]
    trees = single_trunk_batch(sets)
    for pts, tree in zip(sets, trees):
        _assert_same_tree(tree, reference_single_trunk(pts))


def test_batch_rejects_an_empty_set():
    with pytest.raises(ValueError):
        single_trunk_batch([[Point(0.0, 0.0)], []])
