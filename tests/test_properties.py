"""Cross-cutting property-based tests on core invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rc import RCTree
from repro.sta.d2m import d2m_delays
from repro.sta.elmore import elmore_delays
from repro.sta.skew import SkewAnalysis
from repro.tech.cells import NLDMTable
from repro.tech.corners import default_corners


class TestRCScaleInvariance:
    @given(st.floats(0.1, 10.0), st.lists(
        st.tuples(st.floats(0.05, 2.0), st.floats(0.1, 10.0)), min_size=1, max_size=6
    ))
    @settings(max_examples=40)
    def test_elmore_scales_quadratically_with_rc(self, scale, segments):
        """Scaling all R and C by s scales Elmore by s^2."""
        def build(factor):
            tree = RCTree()
            tree.add_root("n0")
            prev = "n0"
            for i, (res, cap) in enumerate(segments, 1):
                tree.add_node(f"n{i}", prev, res * factor, cap * factor)
                prev = f"n{i}"
            return tree, prev

        base_tree, last = build(1.0)
        scaled_tree, _ = build(scale)
        base = elmore_delays(base_tree)[last]
        scaled = elmore_delays(scaled_tree)[last]
        assert scaled == pytest.approx(base * scale * scale, rel=1e-9)

    @given(st.lists(
        st.tuples(st.floats(0.05, 2.0), st.floats(0.1, 10.0)), min_size=2, max_size=8
    ))
    @settings(max_examples=40)
    def test_d2m_monotone_along_chain(self, segments):
        tree = RCTree()
        tree.add_root("n0")
        prev = "n0"
        names = []
        for i, (res, cap) in enumerate(segments, 1):
            name = f"n{i}"
            tree.add_node(name, prev, res, cap)
            names.append(name)
            prev = name
        d2m = d2m_delays(tree)
        values = [d2m[n] for n in names]
        assert values == sorted(values)


class TestSkewInvariances:
    @given(
        st.lists(st.floats(50.0, 500.0), min_size=4, max_size=8),
        st.floats(1.1, 3.0),
    )
    @settings(max_examples=40)
    def test_objective_invariant_under_common_latency_shift(
        self, latencies, shift_factor
    ):
        """Adding a constant to all latencies at one corner changes no skew."""
        corners = default_corners(("c0", "c1"))
        sinks = list(range(len(latencies)))
        pairs = [(sinks[i], sinks[i + 1]) for i in range(len(sinks) - 1)]
        base = {
            "c0": dict(enumerate(latencies)),
            "c1": {i: v * shift_factor for i, v in enumerate(latencies)},
        }
        shifted = {
            "c0": base["c0"],
            "c1": {i: v + 123.0 for i, v in base["c1"].items()},
        }
        analysis = SkewAnalysis.from_latencies(base, pairs, corners)
        a = analysis.total_variation
        b = SkewAnalysis.from_latencies(
            shifted, pairs, corners, analysis.alphas
        ).total_variation
        assert a == pytest.approx(b, abs=1e-6)

    @given(st.floats(0.5, 2.0), st.floats(0.5, 2.0))
    @settings(max_examples=30)
    def test_objective_scales_linearly_with_all_latencies(self, s1, s2):
        corners = default_corners(("c0", "c1"))
        base = {
            "c0": {0: 100.0, 1: 140.0, 2: 90.0},
            "c1": {0: 210.0, 1: 260.0, 2: 200.0},
        }
        pairs = [(0, 1), (1, 2)]
        alphas = {"c0": 1.0, "c1": 1.0}
        a = SkewAnalysis.from_latencies(base, pairs, corners, alphas).total_variation
        scaled = {
            name: {k: v * s1 for k, v in lat.items()} for name, lat in base.items()
        }
        b = SkewAnalysis.from_latencies(scaled, pairs, corners, alphas).total_variation
        assert b == pytest.approx(a * s1, rel=1e-9)


class TestNLDMProperties:
    @given(
        st.floats(1.0, 300.0),
        st.floats(0.1, 300.0),
        st.floats(1.0, 300.0),
        st.floats(0.1, 300.0),
    )
    @settings(max_examples=60)
    def test_monotone_table_lookup_is_monotone(self, s1, c1, s2, c2):
        """Bilinear interpolation preserves a monotone grid's ordering."""
        table = NLDMTable(
            slew_axis=(5.0, 20.0, 80.0),
            load_axis=(1.0, 8.0, 64.0),
            values=(
                (1.0, 2.0, 4.0),
                (1.5, 2.5, 4.5),
                (2.5, 3.5, 5.5),
            ),
        )
        lo = table.lookup(min(s1, s2), min(c1, c2))
        hi = table.lookup(max(s1, s2), max(c1, c2))
        assert lo <= hi + 1e-9
