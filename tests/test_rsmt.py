"""Rectilinear Steiner tree construction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ml import feature_kernel
from repro.core.ml.pipeline import CandidatePipeline
from repro.core.moves import enumerate_moves
from repro.core.objective import SkewVariationProblem
from repro.geometry import Point, hpwl
from repro.route import rsmt as rsmt_module
from repro.route.rsmt import ONE_STEINER_MAX_PINS, rectilinear_mst, rsmt, rsmt_batch
from repro.testcases.cls1 import build_cls1
from tests.oracles import reference_rectilinear_mst, reference_rsmt

coords = st.floats(0.0, 1000.0, allow_nan=False)
point_lists = st.lists(
    st.builds(Point, coords, coords), min_size=1, max_size=14, unique=True
)


class TestMST:
    def test_two_pins(self):
        tree = rectilinear_mst([Point(0, 0), Point(3, 4)])
        assert tree.length == 7.0
        tree.validate()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rectilinear_mst([])

    def test_collinear_chain(self):
        pts = [Point(float(i * 10), 0.0) for i in range(5)]
        tree = rectilinear_mst(pts)
        assert tree.length == 40.0

    @given(point_lists)
    @settings(max_examples=40, deadline=None)
    def test_mst_valid_and_bounded(self, pts):
        tree = rectilinear_mst(pts)
        tree.validate()
        assert tree.length >= hpwl(pts) - 1e-6  # MST >= HPWL lower bound... loose


class TestRSMT:
    def test_l_shape_no_gain(self):
        tree = rsmt([Point(0, 0), Point(10, 10)])
        assert tree.length == 20.0

    def test_steiner_point_saves_wire(self):
        # Classic 4-corner cross: star via a Steiner point beats the MST.
        pts = [Point(0, 5), Point(10, 5), Point(5, 0), Point(5, 10)]
        steiner = rsmt(pts)
        mst = rectilinear_mst(pts)
        steiner.validate()
        assert steiner.length <= mst.length

    def test_t_configuration(self):
        pts = [Point(0, 0), Point(20, 0), Point(10, 15)]
        tree = rsmt(pts)
        tree.validate()
        # Optimal RSMT is 20 + 15 = 35 via a Steiner tap at (10, 0).
        assert tree.length == pytest.approx(35.0)

    def test_large_net_falls_back_to_mst(self):
        pts = [Point(float(i * 7 % 50), float(i * 13 % 60)) for i in range(
            ONE_STEINER_MAX_PINS + 5
        )]
        tree = rsmt(pts)
        tree.validate()
        assert tree.num_pins == len(pts)

    def test_pin_indices_preserved(self):
        pts = [Point(0, 0), Point(40, 0), Point(20, 30)]
        tree = rsmt(pts)
        for i, p in enumerate(pts):
            assert tree.points[i] == p

    @given(point_lists)
    @settings(max_examples=30, deadline=None)
    def test_rsmt_never_longer_than_mst(self, pts):
        steiner = rsmt(pts)
        mst = rectilinear_mst(pts)
        steiner.validate()
        assert steiner.length <= mst.length + 1e-6

    @given(point_lists)
    @settings(max_examples=30, deadline=None)
    def test_rsmt_at_least_hpwl_over_2ish(self, pts):
        # Any connected tree spanning the pins is at least the HPWL of the
        # pin bbox... for rectilinear trees HPWL is a valid lower bound
        # only for nets routed as a single trunk; use the safe bound:
        # length >= max pairwise Manhattan distance.
        tree = rsmt(pts)
        worst = max(
            (a.manhattan(b) for a in pts for b in pts), default=0.0
        )
        assert tree.length >= worst - 1e-6


# ---------------------------------------------------------------------------
# the lockstep router against the per-set iterated 1-Steiner loop
# ---------------------------------------------------------------------------
def _featurize_point_sets(design):
    """Every point set one featurize pass over ``design``'s full move set
    routes, in the order the pass asks for them."""
    problem = SkewVariationProblem.create(design)
    tree = design.tree
    timings = problem.evaluate(tree.clone()).per_corner
    recorded = []

    def recording(point_sets):
        recorded.extend(list(points) for points in point_sets)
        return rsmt_batch(point_sets)

    pipeline = CandidatePipeline(design.library)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(feature_kernel, "rsmt_batch", recording)
        pipeline.featurize(tree, timings, enumerate_moves(tree, design.library))
    return recorded


def _random_point_sets(seed, count):
    """Sets of 1-14 pins on small grids: duplicates, collinear pins and
    equal-gain Hanan points are common."""
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        n = rng.randint(1, 14)
        grid = rng.choice((2, 3, 5, 8, 1000))
        pts = [
            Point(float(rng.randrange(grid) * 10), float(rng.randrange(grid) * 10))
            for _ in range(n)
        ]
        if n > 2 and rng.random() < 0.3:
            pts[rng.randrange(1, n)] = pts[0]
        if n > 2 and rng.random() < 0.2:
            pts = [Point(pts[0].x, p.y) for p in pts]
        sets.append(pts)
    return sets


#: Hand-picked shapes: the symmetric cross (four equal-gain Hanan points),
#: a pin set that is all one point, a collinear row, and nets on either
#: side of the 1-Steiner/MST boundary.
_EDGE_SETS = [
    [Point(0, 5), Point(10, 5), Point(5, 0), Point(5, 10)],
    [Point(0, 0), Point(10, 10), Point(0, 10), Point(10, 0), Point(5, 5)],
    [Point(3.0, 3.0)] * 4,
    [Point(float(x), 7.0) for x in (0, 30, 10, 20)],
    [Point(float(i * 7 % 50), float(i * 13 % 60)) for i in range(ONE_STEINER_MAX_PINS)],
    [Point(float(i * 7 % 50), float(i * 13 % 60)) for i in range(ONE_STEINER_MAX_PINS + 1)],
]


class TestLockstepRouter:
    @pytest.mark.parametrize("build", [lambda: build_cls1(1), lambda: build_cls1(2)])
    def test_featurize_pass_routes_equal_oracle(self, build):
        sets = _featurize_point_sets(build())
        assert len(sets) > 300
        assert rsmt_batch(sets) == [reference_rsmt(pts) for pts in sets]

    def test_random_sets_equal_oracle(self):
        sets = _random_point_sets(seed=7, count=400) + _EDGE_SETS
        assert {len(pts) for pts in sets} >= set(range(1, 15))
        assert rsmt_batch(sets) == [reference_rsmt(pts) for pts in sets]

    def test_edge_sets_equal_oracle_one_at_a_time(self):
        for pts in _EDGE_SETS:
            assert rsmt(pts) == reference_rsmt(pts), pts
            assert rectilinear_mst(pts) == reference_rectilinear_mst(pts), pts

    def test_mixed_batch_equals_per_set_calls(self):
        sets = _random_point_sets(seed=11, count=60) + _EDGE_SETS
        random.Random(3).shuffle(sets)
        assert rsmt_batch(sets) == [rsmt(pts) for pts in sets]

    def test_one_row_chunks(self, monkeypatch):
        sets = _random_point_sets(seed=5, count=40) + _EDGE_SETS
        monkeypatch.setattr(rsmt_module, "LOCKSTEP_ROWS", 1)
        assert rsmt_batch(sets) == [reference_rsmt(pts) for pts in sets]

    def test_empty_inputs(self):
        assert rsmt_batch([]) == []
        with pytest.raises(ValueError):
            rsmt_batch([[Point(0, 0)], []])
