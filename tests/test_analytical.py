"""Analytical delta-latency estimates vs golden measurements."""

import numpy as np
import pytest

from repro.core.ml.analytical import estimate_move_impacts, plan_net, time_net
from repro.core.moves import Move, MoveType, apply_move, enumerate_moves
from repro.geometry import Point
from repro.sta.timer import GoldenTimer


@pytest.fixture(scope="module")
def scene(library_cls1):
    """A small tree plus its timing snapshot."""
    from repro.eco.legalize import Legalizer
    from repro.geometry import BBox
    from repro.netlist.tree import ClockTree

    t = ClockTree()
    src = t.add_source(Point(0, 0))
    top = t.add_buffer(src, Point(90, 90), 16)
    a = t.add_buffer(top, Point(160, 120), 8)
    b = t.add_buffer(top, Point(150, 60), 8)
    for loc in [(200, 130), (190, 110), (210, 120)]:
        t.add_sink(a, Point(*loc))
    for loc in [(190, 55), (200, 70)]:
        t.add_sink(b, Point(*loc))
    timer = GoldenTimer(library_cls1)
    timings = {
        c.name: timer.analyze_corner(t, c) for c in library_cls1.corners
    }
    legalizer = Legalizer(region=BBox(0, 0, 400, 400), pitch_um=1.0)
    return t, dict(src=src, top=top, a=a, b=b), timer, timings, legalizer


class TestEstimateNet:
    def test_star_estimate_tracks_timer_with_router_gap(self, scene, library_cls1):
        """The star estimate of an *unmoved* net tracks the golden timer,
        falling short only by the router's length-overhead model (the
        deliberate estimate-vs-actual gap the ML predictors learn)."""
        t, n, timer, timings, _ = scene
        corner = library_cls1.corners.nominal
        timing = timings[corner.name]
        children = [
            (c, t.node(c).location, library_cls1.sink_cap_ff)
            for c in t.children(n["a"])
        ]
        est = time_net(
            plan_net(t.node(n["a"]).location, children, "star"),
            library_cls1,
            corner,
            8,
            timing.input_slew[n["a"]],
            segment_um=20.0,  # match the golden discretization
        )
        # Estimate within ~20% of golden, and never above it: golden's
        # routed lengths are always >= the estimated polylines.
        assert est.pair_delay_ps == pytest.approx(
            timing.driver_delay[n["a"]], rel=0.2
        )
        assert est.pair_delay_ps <= timing.driver_delay[n["a"]] + 1e-9
        for child in t.children(n["a"]):
            golden = timing.edge_delay[child]
            assert est.wire_delay_ps["d2m"][child] <= golden + 1e-9
            assert est.wire_delay_ps["d2m"][child] == pytest.approx(
                golden, rel=0.45, abs=0.1
            )

    def test_rsmt_wirelength_not_above_star(self, scene, library_cls1):
        t, n, _, timings, _ = scene
        corner = library_cls1.corners.nominal
        timing = timings[corner.name]
        children = [
            (c, t.node(c).location, library_cls1.sink_cap_ff)
            for c in t.children(n["a"])
        ]
        driver = t.node(n["a"]).location
        slew = timing.input_slew[n["a"]]
        star = time_net(plan_net(driver, children, "star"), library_cls1, corner, 8, slew)
        shared = time_net(plan_net(driver, children, "rsmt"), library_cls1, corner, 8, slew)
        assert shared.wirelength_um <= star.wirelength_um + 1e-6

    def test_unknown_models_rejected(self):
        with pytest.raises(ValueError):
            plan_net(Point(0, 0), [(1, Point(1, 1), 1.0)], "maze")


class TestMoveImpactAccuracy:
    def golden_delta(self, scene, move, corner_name):
        t, _, timer, timings, legalizer = scene
        trial = t.clone()
        apply_move(trial, legalizer, timer.library, move)
        corner = timer.library.corners.by_name(corner_name)
        after = timer.analyze_corner(trial, corner)
        sinks = trial.subtree_sinks(move.buffer)
        return float(
            np.mean([after.arrival[s] - timings[corner_name].arrival[s] for s in sinks])
        )

    def test_displacement_estimate_tracks_golden(self, scene, library_cls1):
        t, n, _, timings, _ = scene
        move = Move(
            type=MoveType.SIZING_DISPLACE, buffer=n["a"], dx=10, dy=10, size_step=1
        )
        impact = estimate_move_impacts(t, library_cls1, timings, move, "star")["d2m"]
        golden = self.golden_delta(scene, move, "c0")
        # Tracks golden within the deliberate router/signoff modeling gap
        # (the gap the ML predictors are trained to close).
        assert impact.subtree["c0"] == pytest.approx(golden, abs=6.0)

    def test_surgery_estimate_tracks_golden(self, scene, library_cls1):
        t, n, _, timings, _ = scene
        move = Move(type=MoveType.SURGERY, buffer=n["a"], new_parent=n["b"])
        impact = estimate_move_impacts(t, library_cls1, timings, move, "star")["d2m"]
        golden = self.golden_delta(scene, move, "c0")
        # Surgery deltas are larger; allow proportional tolerance.
        assert impact.subtree["c0"] == pytest.approx(golden, abs=5.0 + 0.2 * abs(golden))

    def test_surgery_to_childless_driver(self, scene, library_cls1):
        """Regression: reassigning onto a buffer that currently drives
        nothing (orphaned by an earlier surgery) must not crash."""
        t, n, timer, _, _ = scene
        tree = t.clone()
        # Orphan buffer b by moving its sinks under a.
        for sink in list(tree.children(n["b"])):
            tree.reassign_parent(sink, n["a"])
        assert tree.children(n["b"]) == ()
        timings = {
            c.name: timer.analyze_corner(tree, c)
            for c in library_cls1.corners
        }
        move = Move(type=MoveType.SURGERY, buffer=n["a"], new_parent=n["b"])
        impact = estimate_move_impacts(tree, library_cls1, timings, move, "star")["d2m"]
        for value in impact.subtree.values():
            assert np.isfinite(value)

    def test_both_metrics_returned(self, scene, library_cls1):
        t, n, _, timings, _ = scene
        move = Move(
            type=MoveType.SIZING_DISPLACE, buffer=n["b"], dx=-10, dy=0, size_step=-1
        )
        impacts = estimate_move_impacts(t, library_cls1, timings, move, "rsmt")
        assert set(impacts) == {"elmore", "d2m"}

    def test_estimates_correlate_with_golden_over_move_set(
        self, scene, library_cls1
    ):
        """Across many moves, analytical estimates rank like golden."""
        t, n, timer, timings, legalizer = scene
        moves = enumerate_moves(t, library_cls1, buffers=[n["a"], n["b"]])[:24]
        est, gold = [], []
        for move in moves:
            impact = estimate_move_impacts(t, library_cls1, timings, move, "star")["d2m"]
            est.append(impact.subtree["c0"])
            gold.append(self.golden_delta(scene, move, "c0"))
        corr = float(np.corrcoef(est, gold)[0, 1])
        assert corr > 0.8
