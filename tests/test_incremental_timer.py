"""Differential tests: IncrementalTimer vs the golden oracle.

The incremental engine's contract is that it produces the golden timer's
numbers — not an approximation of them.  Every test here drives the
engine over tree states, re-times each one with the golden timer's
scalar reference loop, and requires agreement to ``TOL_PS``
(1e-9 ps, far tighter than any physical relevance) on every artifact:
per-node arrivals, slews, driver delays and loads, edge delays, sink
latencies, and the skew-variation objective.

The property-style test applies hundreds of randomized Table-2 moves
(types I/II/III) with interleaved undos and commits, across all corners
and both wire metrics, re-verifying the full state after every step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.moves import (
    MoveType,
    apply_move_undoable,
    enumerate_moves,
    undo_move,
)
from repro.core.objective import SkewVariationProblem
from repro.sta.incremental import IncrementalTimer
from repro.sta.timer import GoldenTimer
from repro.testcases.cls1 import build_cls1
from repro.testcases.mini import build_mini
from tests.oracles import reference_time_tree

TOL_PS = 1e-9


@pytest.fixture(scope="module")
def cls1_design():
    return build_cls1(1)


@pytest.fixture(scope="module")
def mini4_design():
    """MINI at the full four-corner set (c0..c3)."""
    return build_mini(corner_names=("c0", "c1", "c2", "c3"))


def _assert_dict_close(got, want, label):
    assert set(got) == set(want), f"{label}: key sets differ"
    for key, value in want.items():
        assert got[key] == pytest.approx(value, abs=TOL_PS), (
            f"{label}[{key}]: {got[key]!r} != {value!r}"
        )


def _assert_matches_golden(tree, golden, inc_result, pairs):
    """Full-artifact comparison of an incremental result vs fresh golden."""
    want = reference_time_tree(golden, tree, pairs)
    for name, want_ct in want.per_corner.items():
        got_ct = inc_result.per_corner[name]
        _assert_dict_close(got_ct.arrival, want_ct.arrival, f"{name}.arrival")
        _assert_dict_close(
            got_ct.input_slew, want_ct.input_slew, f"{name}.input_slew"
        )
        _assert_dict_close(
            got_ct.driver_delay, want_ct.driver_delay, f"{name}.driver_delay"
        )
        _assert_dict_close(
            got_ct.driver_load, want_ct.driver_load, f"{name}.driver_load"
        )
        _assert_dict_close(
            got_ct.edge_delay, want_ct.edge_delay, f"{name}.edge_delay"
        )
        _assert_dict_close(
            got_ct.edge_elmore, want_ct.edge_elmore, f"{name}.edge_elmore"
        )
    for name, lat in want.latencies.items():
        _assert_dict_close(inc_result.latencies[name], lat, f"{name}.latency")
    assert inc_result.total_variation == pytest.approx(
        want.total_variation, abs=TOL_PS
    )


@pytest.mark.parametrize("metric", ["d2m", "elmore"])
def test_full_attach_matches_golden_mini(mini_design, metric):
    design = mini_design
    golden = GoldenTimer(design.library, wire_metric=metric)
    inc = IncrementalTimer(design.library, wire_metric=metric)
    result = inc.time_tree(design.tree, design.pairs)
    _assert_matches_golden(design.tree, golden, result, design.pairs)
    assert inc.stats["full_passes"] == 1


def test_full_attach_matches_golden_cls1(cls1_design):
    design = cls1_design
    golden = GoldenTimer(design.library)
    inc = IncrementalTimer(design.library)
    result = inc.time_tree(design.tree, design.pairs)
    _assert_matches_golden(design.tree, golden, result, design.pairs)


def test_reattach_is_cached(mini_design):
    """Re-timing the same tree state adds no full pass."""
    inc = IncrementalTimer(mini_design.library)
    first = inc.time_tree(mini_design.tree, mini_design.pairs)
    assert inc.stats["full_passes"] == 1
    inc.time_tree(mini_design.tree, mini_design.pairs)
    assert inc.stats["full_passes"] == 1
    # A clone is a different object but identical geometry: attaching to
    # it is one full pass with the same result.
    clone = mini_design.tree.clone()
    again = inc.time_tree(clone, mini_design.pairs)
    assert inc.stats["full_passes"] == 2
    assert again.latencies == first.latencies


def _run_move_property(design, metric, steps, commit_every, seed):
    """Randomized move/undo walk, verifying full state at every step."""
    golden = GoldenTimer(design.library, wire_metric=metric)
    inc = IncrementalTimer(design.library, wire_metric=metric)
    rng = np.random.default_rng(seed)
    tree = design.tree.clone()
    pairs = design.pairs

    inc.ensure(tree)
    applied = 0
    committed = 0
    by_type = {t: 0 for t in MoveType}

    def grouped(all_moves):
        groups = {t: [m for m in all_moves if m.type is t] for t in MoveType}
        return {t: ms for t, ms in groups.items() if ms}

    moves = grouped(enumerate_moves(tree, design.library))
    while applied < steps:
        if not moves:
            break
        # Stratified sampling: rotate through the move classes so short
        # walks still exercise type III (rare in uniform draws).
        types = sorted(moves, key=lambda t: t.value)
        pick = types[applied % len(types)]
        pool = moves[pick]
        move = pool[int(rng.integers(len(pool)))]
        undo = apply_move_undoable(
            tree, design.legalizer, design.library, move
        )
        applied += 1
        by_type[move.type] += 1
        commit = applied % commit_every == 0
        if commit:
            result = inc.advance(tree, undo.dirty, pairs)
            committed += 1
            # The committed state changes the move universe.
            moves = grouped(enumerate_moves(tree, design.library))
        else:
            result = inc.preview(tree, undo.dirty, pairs)
        _assert_matches_golden(tree, golden, result, pairs)
        if not commit:
            undo_move(tree, undo)
            inc.rebase(tree)
    assert applied >= steps
    assert committed > 0
    # The walk must exercise every move class.
    assert all(count > 0 for count in by_type.values()), by_type
    # After all the undo round-trips, the retained state still matches a
    # from-scratch golden pass of the final tree.
    _assert_matches_golden(
        tree, golden, inc.time_tree(tree, pairs), pairs
    )
    assert inc.stats["retimes"] == applied


@pytest.mark.parametrize(
    "metric,steps,seed",
    [("d2m", 120, 2015), ("elmore", 90, 607)],
)
def test_property_random_moves_all_corners(mini4_design, metric, steps, seed):
    """≥200 randomized type I/II/III applications across both metrics.

    Interleaves previews (undone) with commits (kept) on the four-corner
    MINI design; every single step is checked against a fresh golden
    full-tree analysis at every corner.
    """
    _run_move_property(
        mini4_design, metric, steps=steps, commit_every=7, seed=seed
    )


def test_property_moves_cls1(cls1_design):
    """A shorter randomized walk at CLS1v1 scale (496 nodes, 3 corners)."""
    _run_move_property(
        cls1_design, "d2m", steps=24, commit_every=5, seed=42
    )


def test_evaluate_move_leaves_tree_and_engine_intact(mini_design):
    """The problem-level trial API restores the tree bit-exactly."""
    problem = SkewVariationProblem.create(mini_design)
    tree = mini_design.tree.clone()
    before = problem.evaluate(tree)
    moves = enumerate_moves(tree, mini_design.library)
    rng = np.random.default_rng(3)
    picks = [moves[int(rng.integers(len(moves)))] for _ in range(12)]
    for move in picks:
        trial = problem.evaluate_move(tree, move)
        # Trial timing equals golden timing of the mutated clone.
        clone = tree.clone()
        from repro.core.moves import apply_move

        apply_move(clone, mini_design.legalizer, mini_design.library, move)
        want = reference_time_tree(
            problem.timer, clone, problem.pairs, alphas=problem.alphas
        )
        assert trial.total_variation == pytest.approx(
            want.total_variation, abs=TOL_PS
        )
        # And the tree is back: evaluating it reproduces the baseline.
        after = problem.evaluate(tree)
        assert after.total_variation == pytest.approx(
            before.total_variation, abs=TOL_PS
        )


def test_commit_move_adopts_state(mini_design):
    problem = SkewVariationProblem.create(mini_design)
    tree = mini_design.tree.clone()
    moves = enumerate_moves(tree, mini_design.library)
    move = moves[len(moves) // 2]
    committed = problem.commit_move(tree, move)
    want = reference_time_tree(problem.timer, tree, problem.pairs, alphas=problem.alphas)
    assert committed.total_variation == pytest.approx(
        want.total_variation, abs=TOL_PS
    )
    # Engine stays attached: the follow-up evaluation is retime-free.
    engine = problem.engine()
    passes = engine.stats["full_passes"]
    problem.evaluate(tree)
    assert engine.stats["full_passes"] == passes


def test_stale_tree_falls_back_to_full_pass(mini_design):
    """Out-of-band surgery (no dirty set) is caught by the revision stamp."""
    inc = IncrementalTimer(mini_design.library)
    tree = mini_design.tree.clone()
    inc.time_tree(tree, mini_design.pairs)
    passes = inc.stats["full_passes"]
    buffers = sorted(tree.buffers())
    victim = buffers[len(buffers) // 2]
    tree.move_node(victim, tree.node(victim).location.translated(5.0, 0.0))
    result = inc.time_tree(tree, mini_design.pairs)
    assert inc.stats["full_passes"] == passes + 1
    golden = GoldenTimer(mini_design.library)
    _assert_matches_golden(tree, golden, result, mini_design.pairs)


def test_preview_requires_attachment(mini_design):
    inc = IncrementalTimer(mini_design.library)
    tree = mini_design.tree.clone()
    with pytest.raises(ValueError):
        inc.preview(tree, frozenset({tree.root}), mini_design.pairs)
