"""Skew-variation arithmetic (Equations (1)-(3))."""

import builtins

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sta.skew import PairPositions, SkewAnalysis, pair_skew
from repro.tech.corners import default_corners
from tests.oracles import (
    normalization_factors,
    normalized_skew_variation,
    reference_skew_analysis,
    sum_of_skew_variations,
    worst_pair_variation,
)


@pytest.fixture(scope="module")
def corners():
    return default_corners(("c0", "c1", "c3"))


def latency_fixture():
    """Three sinks at three corners; c1 stretched 2x, c3 shrunk 0.5x."""
    base = {1: 100.0, 2: 120.0, 3: 90.0}
    return {
        "c0": dict(base),
        "c1": {k: 2.0 * v for k, v in base.items()},
        "c3": {k: 0.5 * v for k, v in base.items()},
    }


PAIRS = [(1, 2), (2, 3), (1, 3)]


class TestSkewBasics:
    def test_pair_skew_sign(self):
        lat = latency_fixture()["c0"]
        assert pair_skew(lat, (1, 2)) == pytest.approx(-20.0)
        assert pair_skew(lat, (2, 1)) == pytest.approx(20.0)

    def test_alpha_nominal_is_one(self, corners):
        alphas = normalization_factors(latency_fixture(), PAIRS, corners)
        assert alphas["c0"] == 1.0

    def test_alpha_inverts_uniform_scaling(self, corners):
        alphas = normalization_factors(latency_fixture(), PAIRS, corners)
        assert alphas["c1"] == pytest.approx(0.5)
        assert alphas["c3"] == pytest.approx(2.0)

    def test_uniform_scaling_gives_zero_variation(self, corners):
        """If a corner is a pure rescale of nominal, normalization
        removes all variation — the founding identity of Eq. (1)."""
        lat = latency_fixture()
        alphas = normalization_factors(lat, PAIRS, corners)
        total = sum_of_skew_variations(lat, PAIRS, corners, alphas)
        assert total == pytest.approx(0.0, abs=1e-9)

    def test_nonuniform_corner_yields_variation(self, corners):
        lat = latency_fixture()
        lat["c1"][1] += 30.0  # breaks proportionality for pairs with sink 1
        alphas = normalization_factors(latency_fixture(), PAIRS, corners)
        total = sum_of_skew_variations(lat, PAIRS, corners, alphas)
        assert total > 1.0

    def test_variation_symmetric_in_corner_order(self, corners):
        lat = latency_fixture()
        lat["c1"][2] += 17.0
        alphas = normalization_factors(lat, PAIRS, corners)
        c0 = corners.by_name("c0")
        c1 = corners.by_name("c1")
        v_ab = normalized_skew_variation(lat, (1, 2), c0, c1, alphas)
        v_ba = normalized_skew_variation(lat, (1, 2), c1, c0, alphas)
        assert v_ab == pytest.approx(v_ba)

    def test_worst_pair_variation_is_max(self, corners):
        lat = latency_fixture()
        lat["c1"][1] += 40.0
        alphas = normalization_factors(lat, PAIRS, corners)
        worst = worst_pair_variation(lat, (1, 2), corners, alphas)
        singles = [
            normalized_skew_variation(lat, (1, 2), a, b, alphas)
            for a, b in corners.pairs()
        ]
        assert worst == pytest.approx(max(singles))


class TestSkewAnalysis:
    def test_from_latencies_totals(self, corners):
        lat = latency_fixture()
        lat["c1"][3] -= 25.0
        analysis = SkewAnalysis.from_latencies(lat, PAIRS, corners)
        assert analysis.total_variation == pytest.approx(
            sum(analysis.pair_variation.values())
        )

    def test_local_skew_is_max_abs_pair_skew(self, corners):
        lat = latency_fixture()
        analysis = SkewAnalysis.from_latencies(lat, PAIRS, corners)
        assert analysis.local_skew["c0"] == pytest.approx(30.0)  # |90 - 120|

    def test_external_alphas_respected(self, corners):
        lat = latency_fixture()
        fixed = {"c0": 1.0, "c1": 1.0, "c3": 1.0}
        analysis = SkewAnalysis.from_latencies(lat, PAIRS, corners, alphas=fixed)
        # Without normalization the 2x corner shows raw variation.
        assert analysis.total_variation > 10.0

    def test_degraded_local_skew_detection(self, corners):
        lat = latency_fixture()
        good = SkewAnalysis.from_latencies(lat, PAIRS, corners)
        worse = {k: dict(v) for k, v in lat.items()}
        worse["c0"][2] += 100.0
        bad = SkewAnalysis.from_latencies(worse, PAIRS, corners)
        assert bad.degraded_local_skew(good)
        assert not good.degraded_local_skew(bad)

    @given(st.floats(1.05, 3.0), st.floats(0.2, 0.95))
    @settings(max_examples=30)
    def test_pure_rescale_invariance_property(self, f1, f3):
        corners = default_corners(("c0", "c1", "c3"))
        base = {1: 100.0, 2: 137.0, 3: 81.0, 4: 150.0}
        lat = {
            "c0": dict(base),
            "c1": {k: f1 * v for k, v in base.items()},
            "c3": {k: f3 * v for k, v in base.items()},
        }
        pairs = [(1, 2), (3, 4), (1, 4)]
        analysis = SkewAnalysis.from_latencies(lat, pairs, corners)
        assert analysis.total_variation == pytest.approx(0.0, abs=1e-6)


def _assert_same_analysis(got, want, context=None):
    """Array analysis vs the per-pair oracle: every value ``==``."""
    assert got.total_variation == want.total_variation, context
    assert list(got.pair_variation.items()) == list(want.pair_variation.items()), context
    assert list(got.local_skew.items()) == list(want.local_skew.items()), context
    assert list(got.alphas.items()) == list(want.alphas.items()), context


class TestEmptyPairs:
    """No pairs: the objective is the float 0.0 and every local skew 0.0."""

    @pytest.mark.parametrize("analyze", [SkewAnalysis.from_latencies, reference_skew_analysis])
    def test_total_is_float_zero(self, analyze):
        corners = default_corners(("c0", "c1", "c3"))
        analysis = analyze(latency_fixture(), [], corners)
        assert type(analysis.total_variation) is float
        assert repr(analysis.total_variation) == "0.0"
        assert dict(analysis.local_skew) == {"c0": 0.0, "c1": 0.0, "c3": 0.0}
        assert all(type(v) is float for v in analysis.local_skew.values())
        assert dict(analysis.pair_variation) == {}
        assert dict(analysis.alphas) == {"c0": 1.0, "c1": 1.0, "c3": 1.0}

    def test_from_arrivals_with_no_positions(self):
        corners = default_corners(("c0", "c1", "c3"))
        arrival = np.arange(12.0).reshape(3, 4)
        analysis = SkewAnalysis.from_arrivals(
            arrival, PairPositions.build([], {}), corners, {"c0": 1.0, "c1": 0.5, "c3": 2.0}
        )
        assert repr(analysis.total_variation) == "0.0"
        assert dict(analysis.local_skew) == {"c0": 0.0, "c1": 0.0, "c3": 0.0}


class TestArrayParity:
    """``from_arrivals`` and ``from_latencies`` against the per-pair loop."""

    @pytest.mark.parametrize("names", [("c0", "c1", "c3"), ("c0", "c1", "c2", "c3")])
    @pytest.mark.parametrize("fixed_alphas", [False, True])
    def test_random_latencies(self, names, fixed_alphas):
        corners = default_corners(names)
        rng = np.random.default_rng(len(names) + 7 * fixed_alphas)
        sinks = list(range(100, 160))
        latencies = {
            name: dict(zip(sinks, rng.uniform(50.0, 400.0, len(sinks)).tolist()))
            for name in names
        }
        pairs = [tuple(int(s) for s in rng.choice(sinks, 2, replace=False)) for _ in range(90)]
        pairs += pairs[:5]  # a repeated pair is counted once
        alphas = dict(zip(names, rng.uniform(0.5, 2.0, len(names)).tolist())) if fixed_alphas else None
        got = SkewAnalysis.from_latencies(latencies, pairs, corners, alphas)
        want = reference_skew_analysis(latencies, pairs, corners, alphas)
        _assert_same_analysis(got, want)
        assert len(got.pair_variation) == len(set(pairs))

    def test_sums_are_builtin_sum(self, monkeypatch):
        """The alphas' sums and the total call ``sum``, as the loop does
        (its rounding differs between Python versions): under a ``sum``
        that adds right to left both sides still agree, and the result
        differs from the builtin one's."""
        names = ("c0", "c1", "c3")
        corners = default_corners(names)
        rng = np.random.default_rng(11)
        sinks = list(range(200))
        latencies = {
            name: dict(zip(sinks, rng.uniform(50.0, 400.0, len(sinks)).tolist()))
            for name in names
        }
        pairs = [(s, s + 1) for s in range(0, 199, 2)]
        plain = SkewAnalysis.from_latencies(latencies, pairs, corners)
        builtin_sum = sum

        def reversed_sum(iterable, start=0):
            items = list(iterable)
            if not all(type(x) is float for x in items):
                return builtin_sum(items, start)
            for x in reversed(items):
                start += x
            return start

        monkeypatch.setattr(builtins, "sum", reversed_sum)
        got = SkewAnalysis.from_latencies(latencies, pairs, corners)
        want = reference_skew_analysis(latencies, pairs, corners)
        monkeypatch.undo()
        _assert_same_analysis(got, want)
        assert got.total_variation != plain.total_variation

    def test_arrival_block_with_extra_columns(self):
        """An arrival block holds every node; positions pick the sinks."""
        corners = default_corners(("c0", "c1", "c3"))
        rng = np.random.default_rng(3)
        arrival = rng.uniform(10.0, 300.0, size=(3, 40))
        column = {nid: 39 - nid for nid in range(40)}
        pairs = [(1, 2), (5, 30), (30, 7), (12, 13)]
        got = SkewAnalysis.from_arrivals(arrival, PairPositions.build(pairs, column), corners)
        latencies = {
            c.name: {nid: float(arrival[k, column[nid]]) for nid in range(40)}
            for k, c in enumerate(corners)
        }
        _assert_same_analysis(got, reference_skew_analysis(latencies, pairs, corners))

    def test_mappings_are_read_only(self, corners):
        analysis = SkewAnalysis.from_latencies(latency_fixture(), PAIRS, corners)
        with pytest.raises(TypeError):
            analysis.pair_variation[PAIRS[0]] = 0.0
        with pytest.raises(TypeError):
            analysis.local_skew["c0"] = 0.0


def _walk_designs():
    from repro.testcases.cls1 import build_cls1
    from repro.testcases.cls2 import build_cls2
    from repro.testcases.mini import build_mini

    return {
        "MINI": build_mini,
        "CLS1v1": lambda: build_cls1(1),
        "CLS1v2": lambda: build_cls1(2),
        "CLS2v1": build_cls2,
    }


class TestVerdictWalk:
    """Every verdict of a random preview/commit walk equals the oracle's.

    The incremental engine judges previews and commits from its kernel
    state's arrival rows; the oracle re-judges each result's latency
    maps with the per-pair loop.  A surgery commit recompiles the tree,
    which re-derives the pair positions.
    """

    @pytest.mark.parametrize("name", ["MINI", "CLS1v1", "CLS1v2", "CLS2v1"])
    def test_walk_verdicts_equal_oracle(self, name):
        import random

        from repro.core.moves import MoveType, enumerate_moves
        from repro.core.objective import SkewVariationProblem

        design = _walk_designs()[name]()
        problem = SkewVariationProblem.create(design)
        corners = design.library.corners
        baseline = reference_skew_analysis(
            problem.baseline.latencies, problem.pairs, corners
        )
        _assert_same_analysis(problem.baseline.skews, baseline, "baseline")
        tree = design.tree.clone()
        rng = random.Random(17)

        def candidates():
            # A wider surgery window than the flow's default, so CLS1v2
            # has a surgery to commit too.
            return enumerate_moves(tree, design.library, surgery_window_um=100.0)

        moves = candidates()
        surgeries = 0
        for step in range(60):
            surgery = [m for m in moves if m.type is MoveType.SURGERY]
            commit = step % 6 == 5 or (step == 20 and surgery)
            move = surgery[0] if step == 20 and surgery else rng.choice(moves)
            if commit:
                compiled = problem.engine()._compiled
                result = problem.commit_move(tree, move)
                if move.type is MoveType.SURGERY:
                    surgeries += 1
                    assert problem.engine()._compiled is not compiled
                moves = candidates()
            else:
                result = problem.evaluate_move(tree, move)
            want = reference_skew_analysis(
                result.latencies, problem.pairs, corners, problem.alphas
            )
            _assert_same_analysis(result.skews, want, (name, step, move))
            for tol in (0.0, 0.5):
                assert result.skews.degraded_local_skew(
                    problem.baseline.skews, tol_ps=tol
                ) == want.degraded_local_skew(baseline, tol_ps=tol)
        assert surgeries == 1
