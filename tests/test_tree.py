"""ClockTree topology, geometry, and mutation operators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.netlist.tree import ClockTree, NodeKind


def walked_sinks(tree, nid):
    """The sinks under ``nid``, by a fresh walk over ``children``."""
    if tree.node(nid).is_sink:
        return {nid}
    return set().union(*(walked_sinks(tree, kid) for kid in tree.children(nid)))


def small_tree():
    """source -> b1 -> {b2 -> [s1, s2], b3 -> s3}."""
    t = ClockTree()
    src = t.add_source(Point(0, 0))
    b1 = t.add_buffer(src, Point(100, 0), 16)
    b2 = t.add_buffer(b1, Point(200, 50), 8)
    b3 = t.add_buffer(b1, Point(200, -50), 8)
    s1 = t.add_sink(b2, Point(260, 60))
    s2 = t.add_sink(b2, Point(240, 40))
    s3 = t.add_sink(b3, Point(260, -60))
    return t, dict(src=src, b1=b1, b2=b2, b3=b3, s1=s1, s2=s2, s3=s3)


class TestConstruction:
    def test_single_source_enforced(self):
        t = ClockTree()
        t.add_source(Point(0, 0))
        with pytest.raises(ValueError):
            t.add_source(Point(1, 1))

    def test_root_requires_source(self):
        with pytest.raises(ValueError):
            ClockTree().root

    def test_cannot_drive_from_sink(self):
        t, n = small_tree()
        with pytest.raises(ValueError):
            t.add_buffer(n["s1"], Point(0, 0), 8)
        with pytest.raises(ValueError):
            t.add_sink(n["s1"], Point(0, 0))

    def test_kinds(self):
        t, n = small_tree()
        assert t.node(n["src"]).kind is NodeKind.SOURCE
        assert t.node(n["b1"]).is_buffer
        assert t.node(n["s1"]).is_sink

    def test_counts(self):
        t, _ = small_tree()
        assert len(t.sinks()) == 3
        assert len(t.buffers()) == 3
        assert len(t) == 7

    def test_validate_ok(self):
        t, _ = small_tree()
        t.validate()


class TestQueries:
    def test_path_to_root(self):
        t, n = small_tree()
        assert t.path_to_root(n["s1"]) == [n["s1"], n["b2"], n["b1"], n["src"]]

    def test_buffer_level(self):
        t, n = small_tree()
        assert t.buffer_level(n["b1"]) == 1
        assert t.buffer_level(n["b2"]) == 2
        assert t.buffer_level(n["s1"]) == 2

    def test_subtree_sinks(self):
        t, n = small_tree()
        assert set(t.subtree_sinks(n["b2"])) == {n["s1"], n["s2"]}
        assert set(t.subtree_sinks(n["b1"])) == {n["s1"], n["s2"], n["s3"]}

    def test_drivers_excludes_sinks_and_leafless(self):
        t, n = small_tree()
        drivers = set(t.drivers())
        assert n["src"] in drivers
        assert n["s1"] not in drivers

    def test_topological_root_first(self):
        t, n = small_tree()
        order = t.topological_order()
        assert order[0] == n["src"]
        assert order.index(n["b1"]) < order.index(n["b2"])


class TestGeometry:
    def test_edge_length_direct(self):
        t, n = small_tree()
        assert t.edge_length(n["b1"]) == 100.0

    def test_edge_via_detour(self):
        t, n = small_tree()
        t.set_edge_via(n["b1"], [Point(50, 30), Point(80, 30)])
        assert t.edge_length(n["b1"]) == pytest.approx(50 + 30 + 30 + 30 + 20)

    def test_clear_edge_via(self):
        t, n = small_tree()
        t.set_edge_via(n["b1"], [Point(50, 30)])
        t.clear_edge_via(n["b1"])
        assert t.edge_length(n["b1"]) == 100.0

    def test_root_has_no_incoming_edge(self):
        t, n = small_tree()
        with pytest.raises(ValueError):
            t.edge_polyline(n["src"])

    def test_total_wirelength_sums_edges(self):
        t, _ = small_tree()
        total = sum(
            t.edge_length(nid)
            for nid in t.node_ids()
            if t.parent(nid) is not None
        )
        assert t.total_wirelength() == pytest.approx(total)


class TestMutations:
    def test_move_buffer(self):
        t, n = small_tree()
        t.move_node(n["b2"], Point(210, 55))
        assert t.node(n["b2"]).location == Point(210, 55)

    def test_move_sink_rejected(self):
        t, n = small_tree()
        with pytest.raises(ValueError):
            t.move_node(n["s1"], Point(0, 0))

    def test_resize(self):
        t, n = small_tree()
        t.resize_buffer(n["b2"], 16)
        assert t.node(n["b2"]).size == 16

    def test_reassign_parent(self):
        t, n = small_tree()
        t.reassign_parent(n["s3"], n["b2"])
        assert t.parent(n["s3"]) == n["b2"]
        assert n["s3"] not in t.children(n["b3"])
        t.validate()

    def test_reassign_cycle_rejected(self):
        t, n = small_tree()
        with pytest.raises(ValueError):
            t.reassign_parent(n["b1"], n["b2"])

    def test_reassign_source_rejected(self):
        t, n = small_tree()
        with pytest.raises(ValueError):
            t.reassign_parent(n["src"], n["b1"])

    def test_insert_buffer_on_edge(self):
        t, n = small_tree()
        mid = t.insert_buffer_on_edge(n["b2"], Point(150, 25), 8)
        assert t.parent(n["b2"]) == mid
        assert t.parent(mid) == n["b1"]
        assert t.children(mid) == (n["b2"],)
        t.validate()

    def test_remove_buffer_splices_children(self):
        t, n = small_tree()
        t.remove_buffer(n["b2"])
        assert t.parent(n["s1"]) == n["b1"]
        assert t.parent(n["s2"]) == n["b1"]
        assert n["b2"] not in t
        t.validate()

    def test_remove_nonbuffer_rejected(self):
        t, n = small_tree()
        with pytest.raises(ValueError):
            t.remove_buffer(n["s1"])

    def test_clone_independent(self):
        """Edits to a clone leave the original alone, and each tree's
        ``subtree_sinks`` memo follows its own edits only."""
        t, n = small_tree()
        assert set(t.subtree_sinks(n["b1"])) == {n["s1"], n["s2"], n["s3"]}  # warm
        c = t.clone()
        c.move_node(n["b2"], Point(0, 99))
        assert t.node(n["b2"]).location != Point(0, 99)
        assert set(c.subtree_sinks(n["b2"])) == {n["s1"], n["s2"]}
        c.reassign_parent(n["s3"], n["b2"])
        assert set(c.subtree_sinks(n["b2"])) == {n["s1"], n["s2"], n["s3"]}
        assert c.subtree_sinks(n["b3"]) == []
        assert set(t.subtree_sinks(n["b2"])) == {n["s1"], n["s2"]}
        assert t.subtree_sinks(n["b3"]) == [n["s3"]]
        t.reassign_parent(n["s1"], n["b3"])
        assert set(t.subtree_sinks(n["b3"])) == {n["s1"], n["s3"]}
        assert set(c.subtree_sinks(n["b2"])) == {n["s1"], n["s2"], n["s3"]}
        c.remove_buffer(n["b3"])
        assert n["b3"] in t
        assert set(c.subtree_sinks(n["b1"])) == {n["s1"], n["s2"], n["s3"]}
        assert t.subtree_sinks(n["b2"]) == [n["s2"]]
        t.validate()
        c.validate()

    def test_clone_preserves_ids_and_vias(self):
        t, n = small_tree()
        t.set_edge_via(n["b1"], [Point(50, 10)])
        c = t.clone()
        assert c.node(n["b1"]).via == (Point(50, 10),)


@given(st.integers(0, 200), st.lists(st.integers(0, 5), max_size=12))
@settings(max_examples=30, deadline=None)
def test_random_surgery_keeps_tree_valid(seed, ops):
    """Random reassign/remove/insert sequences never corrupt the tree, and
    never leave a stale ``subtree_sinks`` memo: each operation runs with
    the memo warm for every node, and every node's memoized sinks equal a
    fresh walk afterwards."""
    import numpy as np

    rng = np.random.default_rng(seed)
    t, n = small_tree()
    for op in ops:
        buffers = t.buffers()
        if not buffers:
            break
        for nid in t.node_ids():
            t.subtree_sinks(nid)
        nid = int(rng.choice(buffers))
        if op <= 1:
            # reassign a node under a random other driver if legal
            drivers = [d for d in t.drivers() if d not in t.subtree_ids(nid)]
            if drivers and t.parent(nid) is not None:
                t.reassign_parent(nid, int(rng.choice(drivers)))
        elif op == 2 and len(buffers) > 1:
            t.remove_buffer(nid)
        elif op >= 3:
            kids = t.children(nid)
            if kids:
                t.insert_buffer_on_edge(
                    int(rng.choice(kids)), Point(float(rng.uniform(0, 300)), 0.0), 8
                )
        for nid in t.node_ids():
            assert set(t.subtree_sinks(nid)) == walked_sinks(t, nid), (op, nid)
    t.validate()
    assert len(t.sinks()) == 3  # sinks are never lost
