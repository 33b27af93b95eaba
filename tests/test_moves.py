"""Table-2 candidate move enumeration and application."""

import pytest

from repro.core.moves import (
    Move,
    MoveType,
    SurgeryIndex,
    apply_move,
    apply_move_undoable,
    enumerate_moves,
    surgery_candidates,
    undo_move,
)
from repro.geometry import Point
from repro.netlist.tree import ClockTree
from repro.testcases.cls1 import build_cls1
from repro.testcases.mini import build_mini
from tests.oracles import reference_enumerate_moves


def move_tree():
    """Two parallel leaf buffers at the same level, close together."""
    t = ClockTree()
    src = t.add_source(Point(0, 0))
    top = t.add_buffer(src, Point(100, 100), 16)
    a = t.add_buffer(top, Point(120, 110), 8)
    b = t.add_buffer(top, Point(130, 95), 8)
    child = t.add_buffer(a, Point(150, 120), 4)
    t.add_sink(child, Point(170, 125))
    t.add_sink(a, Point(140, 130))
    t.add_sink(b, Point(150, 90))
    return t, dict(src=src, top=top, a=a, b=b, child=child)


class TestEnumeration:
    def test_type1_count_for_midsize_buffer(self, library):
        t, n = move_tree()
        moves = enumerate_moves(t, library, buffers=[n["b"]])
        type1 = [m for m in moves if m.type is MoveType.SIZING_DISPLACE]
        # 8 directions x 2 size steps (X8 can go both ways).
        assert len(type1) == 16

    def test_type1_clamped_at_size_extremes(self, library):
        t, n = move_tree()
        t.resize_buffer(n["b"], 32)  # only down-sizing possible
        moves = enumerate_moves(t, library, buffers=[n["b"]])
        type1 = [m for m in moves if m.type is MoveType.SIZING_DISPLACE]
        assert len(type1) == 8
        assert all(m.size_step == -1 for m in type1)

    def test_type2_requires_child_buffer(self, library):
        t, n = move_tree()
        moves_a = enumerate_moves(t, library, buffers=[n["a"]])
        moves_b = enumerate_moves(t, library, buffers=[n["b"]])
        assert any(m.type is MoveType.CHILD_SIZING for m in moves_a)
        assert not any(m.type is MoveType.CHILD_SIZING for m in moves_b)

    def test_type3_same_level_in_window(self, library):
        t, n = move_tree()
        cands = surgery_candidates(t, n["child"], window_um=50.0)
        # child's driver is `a`; `b` is at the same level and nearby.
        assert cands == [n["b"]]

    def test_type3_excludes_own_subtree_and_parent(self, library):
        t, n = move_tree()
        cands = surgery_candidates(t, n["a"], window_um=1000.0)
        assert n["a"] not in cands
        assert n["child"] not in cands
        assert n["top"] not in cands  # top is the current driver

    def test_window_limits_candidates(self, library):
        t, n = move_tree()
        none = surgery_candidates(t, n["child"], window_um=1.0)
        assert none == []

    def test_all_buffers_by_default(self, library):
        t, _ = move_tree()
        moves = enumerate_moves(t, library)
        touched = {m.buffer for m in moves}
        assert touched == set(t.buffers())


@pytest.mark.parametrize("build", [build_mini, lambda: build_cls1(1), lambda: build_cls1(2)])
def test_enumeration_equals_per_step_oracle(build):
    """The step table gives the moves, in order, that asking the library
    about every buffer, direction and step gives; buffers at both end
    sizes (clamped steps) included."""
    design = build()
    tree = design.tree.clone()
    sizes = design.library.sizes
    for i, nid in enumerate(sorted(tree.buffers())[:8]):
        tree.resize_buffer(nid, sizes[0] if i % 2 else sizes[-1])
    got = enumerate_moves(tree, design.library)
    assert got == reference_enumerate_moves(tree, design.library)
    steps = {(m.type, m.size_step or m.child_size_step) for m in got}
    assert {(MoveType.SIZING_DISPLACE, 1), (MoveType.SIZING_DISPLACE, -1)} <= steps
    assert {(MoveType.CHILD_SIZING, 1), (MoveType.CHILD_SIZING, -1)} <= steps


class TestApplication:
    @pytest.fixture()
    def ctx(self, library):
        from repro.eco.legalize import Legalizer
        from repro.geometry import BBox

        t, n = move_tree()
        legalizer = Legalizer(region=BBox(0, 0, 300, 300), pitch_um=2.5)
        return t, n, legalizer, library

    def test_apply_type1(self, ctx):
        t, n, legalizer, library = ctx
        move = Move(
            type=MoveType.SIZING_DISPLACE, buffer=n["b"], dx=10, dy=0, size_step=1
        )
        apply_move(t, legalizer, library, move)
        assert t.node(n["b"]).size == 16
        assert t.node(n["b"]).location.x > 125.0
        t.validate()

    def test_apply_type2(self, ctx):
        t, n, legalizer, library = ctx
        move = Move(
            type=MoveType.CHILD_SIZING,
            buffer=n["a"],
            dx=0,
            dy=10,
            child=n["child"],
            child_size_step=1,
        )
        apply_move(t, legalizer, library, move)
        assert t.node(n["child"]).size == 8
        assert t.node(n["a"]).size == 8  # unchanged
        t.validate()

    def test_apply_type3(self, ctx):
        t, n, legalizer, library = ctx
        move = Move(type=MoveType.SURGERY, buffer=n["child"], new_parent=n["b"])
        apply_move(t, legalizer, library, move)
        assert t.parent(n["child"]) == n["b"]
        t.validate()

    def test_describe_strings(self):
        m1 = Move(MoveType.SIZING_DISPLACE, 5, dx=10, dy=-10, size_step=-1)
        assert "I:" in m1.describe()
        m3 = Move(MoveType.SURGERY, 5, new_parent=9)
        assert "III" in m3.describe()


class TestUndo:
    """apply_move_undoable / undo_move round-trips restore bit-exactly."""

    @staticmethod
    def _snapshot(t):
        return {
            nid: (
                t.parent(nid),
                t.children(nid),
                t.node(nid).location,
                t.node(nid).size,
                t.node(nid).via,
            )
            for nid in t.node_ids()
        }

    def _roundtrip(self, t, legalizer, library, move):
        before = self._snapshot(t)
        undo = apply_move_undoable(t, legalizer, library, move)
        assert undo.dirty  # every move dirties at least one driver
        after = self._snapshot(t)
        assert after != before  # the move did something
        undo_move(t, undo)
        t.validate()
        assert self._snapshot(t) == before
        return undo

    @pytest.fixture()
    def ctx(self, library):
        from repro.eco.legalize import Legalizer
        from repro.geometry import BBox

        t, n = move_tree()
        legalizer = Legalizer(region=BBox(0, 0, 300, 300), pitch_um=2.5)
        return t, n, legalizer, library

    def test_type1_roundtrip(self, ctx):
        t, n, legalizer, library = ctx
        move = Move(
            type=MoveType.SIZING_DISPLACE, buffer=n["b"], dx=10, dy=0, size_step=1
        )
        undo = self._roundtrip(t, legalizer, library, move)
        assert undo.dirty == frozenset({n["top"], n["b"]})

    def test_type2_roundtrip(self, ctx):
        t, n, legalizer, library = ctx
        move = Move(
            type=MoveType.CHILD_SIZING,
            buffer=n["a"],
            dx=0,
            dy=10,
            child=n["child"],
            child_size_step=1,
        )
        undo = self._roundtrip(t, legalizer, library, move)
        assert undo.dirty == frozenset({n["top"], n["a"], n["child"]})

    def test_type3_roundtrip_restores_child_order(self, ctx):
        t, n, legalizer, library = ctx
        # Give the old parent a second child after `child` so the undo
        # must reinsert at the original index, not append.
        t.add_sink(n["a"], Point(125, 140))
        t.set_edge_via(n["child"], (Point(130, 115),))
        order_before = t.children(n["a"])
        move = Move(type=MoveType.SURGERY, buffer=n["child"], new_parent=n["b"])
        undo = self._roundtrip(t, legalizer, library, move)
        assert undo.dirty == frozenset({n["a"], n["b"]})
        assert t.children(n["a"]) == order_before
        assert t.node(n["child"]).via == (Point(130, 115),)

    def test_undoable_matches_plain_apply(self, ctx):
        t, n, legalizer, library = ctx
        mirror, _ = move_tree()
        for move in (
            Move(MoveType.SIZING_DISPLACE, n["b"], dx=-10, dy=10, size_step=-1),
            Move(MoveType.SURGERY, n["child"], new_parent=n["b"]),
        ):
            apply_move_undoable(t, legalizer, library, move)
            apply_move(mirror, legalizer, library, move)
            assert self._snapshot(t) == self._snapshot(mirror)

    def test_revision_advances_on_apply_and_undo(self, ctx):
        t, n, legalizer, library = ctx
        move = Move(
            type=MoveType.SIZING_DISPLACE, buffer=n["b"], dx=10, dy=0, size_step=1
        )
        rev0 = t.revision
        undo = apply_move_undoable(t, legalizer, library, move)
        assert t.revision > rev0
        rev1 = t.revision
        undo_move(t, undo)
        # Geometry is restored but the mutation counter keeps counting —
        # that is what lets the incremental timer detect "same object,
        # touched since" and require an explicit rebase.
        assert t.revision > rev1


class TestSurgeryIndex:
    @staticmethod
    def _spread_tree(n_leaves=40, seed=11):
        """Wide two-level tree with buffers scattered over ~6x6 cells."""
        import numpy as np

        rng = np.random.default_rng(seed)
        t = ClockTree()
        src = t.add_source(Point(0, 0))
        tops = [
            t.add_buffer(
                src, Point(float(x), float(y)), 16
            )
            for x, y in rng.uniform(0.0, 300.0, size=(6, 2))
        ]
        for x, y in rng.uniform(0.0, 300.0, size=(n_leaves, 2)):
            top = tops[int(rng.integers(len(tops)))]
            leaf = t.add_buffer(top, Point(float(x), float(y)), 8)
            t.add_sink(leaf, Point(float(x) + 5.0, float(y)))
        return t

    def test_indexed_candidates_match_full_scan(self):
        t = self._spread_tree()
        for window in (30.0, 50.0, 120.0):
            index = SurgeryIndex(t, cell_um=window)
            for nid in t.buffers():
                assert surgery_candidates(
                    t, nid, window_um=window, index=index
                ) == surgery_candidates(t, nid, window_um=window)

    def test_near_is_superset_of_window(self):
        t = self._spread_tree(seed=7)
        index = SurgeryIndex(t, cell_um=50.0)
        center = Point(150.0, 150.0)
        got = set(index.near(center, 25.0))
        for nid in t.buffers():
            loc = t.node(nid).location
            if abs(loc.x - center.x) <= 25.0 and abs(loc.y - center.y) <= 25.0:
                assert nid in got

    def test_rejects_degenerate_cell(self):
        t = self._spread_tree(n_leaves=2)
        with pytest.raises(ValueError):
            SurgeryIndex(t, cell_um=0.0)
