"""Differential tests: batched timing kernel vs the scalar reference.

The kernel (:mod:`repro.sta.kernel`) is a pure execution-engine swap —
same model, same float operations, vectorized.  Its contract is
agreement with the scalar oracles (``GoldenTimer._analyze_corner_reference``
and ``ReferenceIncrementalTimer``) to ≤1e-9 ps on every artifact at
every corner (in practice the two are bit-identical), and a
byte-identical local-opt trajectory when the oracles time the run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.eco_flow import ECOConfig
from repro.core.local_opt import LocalOptConfig, LocalOptimizer
from repro.core.ml.feature_kernel import FeatureKernel
from repro.core.ml.training import train_predictor
from repro.core.moves import MoveType, apply_move_undoable, enumerate_moves, undo_move
from repro.core.objective import SkewVariationProblem
from repro.eco.candidate_kernel import ECOCandidateKernel
from repro.geometry import Point
from repro.rc import RCTree
from repro.route import rc_net
from repro.sta import incremental as incremental_mod
from repro.sta import kernel as kernel_mod
from repro.sta import timer as timer_mod
from repro.sta.incremental import IncrementalTimer, ReferenceIncrementalTimer
from repro.sta.kernel import ArrayMap, KernelStale, TimingKernel
from repro.sta.timer import GoldenTimer
from repro.tech.stage_lut import characterize_stage_luts
from repro.testcases.cls1 import build_cls1
from repro.testcases.cls2 import build_cls2
from repro.testcases.mini import build_mini
from tests.oracles import (
    reference_compile_row,
    reference_compiled_rows,
    reference_time_tree,
    reference_timings,
)

TOL_PS = 1e-9

FIELDS = (
    "arrival",
    "input_slew",
    "driver_delay",
    "driver_load",
    "driver_out_slew",
    "edge_delay",
    "edge_elmore",
)


@pytest.fixture(scope="module")
def mini4_design():
    return build_mini(corner_names=("c0", "c1", "c2", "c3"))


@pytest.fixture(scope="module")
def cls1_design():
    return build_cls1(1)


def _assert_timings_match(got, want, context):
    assert set(got) == set(want), f"{context}: corner sets differ"
    for name in want:
        got_ct, want_ct = got[name], want[name]
        for field in FIELDS:
            got_map = getattr(got_ct, field)
            want_map = getattr(want_ct, field)
            assert set(got_map) == set(want_map), (
                f"{context} {name}.{field}: key sets differ"
            )
            for key, value in want_map.items():
                assert abs(got_map[key] - value) <= TOL_PS, (
                    f"{context} {name}.{field}[{key}]: "
                    f"{got_map[key]!r} != {value!r}"
                )


# ----------------------------------------------------------------------
# Full-tree propagation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("metric", ["d2m", "elmore"])
def test_golden_kernel_matches_reference_mini(mini4_design, metric):
    design = mini4_design
    timer = GoldenTimer(design.library, wire_metric=metric)
    _assert_timings_match(
        timer.analyze_all_corners(design.tree),
        reference_timings(timer, design.tree),
        f"MINI/{metric}",
    )


@pytest.mark.parametrize("metric", ["d2m", "elmore"])
def test_golden_kernel_matches_reference_cls1(cls1_design, metric):
    design = cls1_design
    timer = GoldenTimer(design.library, wire_metric=metric)
    _assert_timings_match(
        timer.analyze_all_corners(design.tree),
        reference_timings(timer, design.tree),
        f"CLS1/{metric}",
    )


def test_single_corner_analysis_matches(mini4_design):
    design = mini4_design
    timer = GoldenTimer(design.library)
    for corner in design.library.corners:
        _assert_timings_match(
            {corner.name: timer.analyze_corner(design.tree, corner)},
            {corner.name: timer._analyze_corner_reference(design.tree, corner)},
            f"single/{corner.name}",
        )


def test_latencies_and_objective_match(cls1_design):
    design = cls1_design
    timer = GoldenTimer(design.library)
    want = reference_time_tree(timer, design.tree, design.pairs)
    got = timer.time_tree(design.tree, design.pairs)
    assert got.latencies == want.latencies
    assert got.total_variation == want.total_variation


# ----------------------------------------------------------------------
# Incremental retime path: randomized move walks
# ----------------------------------------------------------------------
def _differential_walk(design, metric, steps, seed, commit_every=5):
    """Drive kernel and reference IncrementalTimers through one move walk.

    Both engines see the same apply/undo/commit stream; every step
    compares every artifact at every corner.  Returns the number of
    moves applied.
    """
    ref = ReferenceIncrementalTimer(design.library, wire_metric=metric)
    ker = IncrementalTimer(design.library, wire_metric=metric)
    rng = np.random.default_rng(seed)
    tree_ref = design.tree.clone()
    tree_ker = design.tree.clone()
    ref.ensure(tree_ref)
    ker.ensure(tree_ker)
    pairs = design.pairs
    moves = enumerate_moves(tree_ref, design.library)
    applied = 0
    while applied < steps and moves:
        move = moves[int(rng.integers(len(moves)))]
        undo_ref = apply_move_undoable(
            tree_ref, design.legalizer, design.library, move
        )
        undo_ker = apply_move_undoable(
            tree_ker, design.legalizer, design.library, move
        )
        applied += 1
        commit = applied % commit_every == 0
        if commit:
            got = ker.advance(tree_ker, undo_ker.dirty, pairs)
            want = ref.advance(tree_ref, undo_ref.dirty, pairs)
            # Committed-state invalidation must match: the candidate
            # pipeline keys its reuse decisions off these sets.
            assert ker.last_touched == ref.last_touched, applied
            moves = enumerate_moves(tree_ref, design.library)
        else:
            got = ker.preview(tree_ker, undo_ker.dirty, pairs)
            want = ref.preview(tree_ref, undo_ref.dirty, pairs)
        _assert_timings_match(
            got.per_corner, want.per_corner, f"step {applied}"
        )
        assert got.latencies == want.latencies, applied
        assert got.total_variation == want.total_variation, applied
        if not commit:
            undo_move(tree_ref, undo_ref)
            ref.rebase(tree_ref)
            undo_move(tree_ker, undo_ker)
            ker.rebase(tree_ker)
    assert applied >= steps
    # The rigid-shift bookkeeping must replicate decision for decision.
    assert ker.stats["subtree_shifts"] == ref.stats["subtree_shifts"]
    assert ker.stats["retimes"] == ref.stats["retimes"]
    return applied


@pytest.mark.parametrize(
    "metric,steps,seed",
    [("d2m", 120, 2015), ("elmore", 90, 607)],
)
def test_random_walk_kernel_matches_reference(mini4_design, metric, steps, seed):
    """≥200 randomized apply/undo/commit steps across both wire metrics."""
    _differential_walk(mini4_design, metric, steps=steps, seed=seed)


def test_random_walk_cls1(cls1_design):
    _differential_walk(cls1_design, "d2m", steps=20, seed=42)


# ----------------------------------------------------------------------
# Trajectory byte-identity, kernel vs the scalar oracles
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def predictor():
    design = build_mini()
    return train_predictor(design.library, [], "full_rsmt_d2m")


def _trajectory(predictor, reference):
    """Serial local-opt trajectory, timed by the kernel or the oracles.

    With ``reference``, the baseline comes from the scalar golden loop
    and the reference dict engine is seeded as the problem's engine, so
    every evaluation, trial and commit runs on the oracles.
    """
    design = build_mini()
    if reference:
        timer = GoldenTimer(design.library)
        baseline = reference_time_tree(timer, design.tree, design.pairs)
        problem = SkewVariationProblem(design=design, timer=timer, baseline=baseline)
        problem.__dict__["_engine"] = ReferenceIncrementalTimer(design.library)
    else:
        problem = SkewVariationProblem.create(design)
    config = LocalOptConfig(max_iterations=3, top_r=5)
    outcome = LocalOptimizer(problem, predictor, config).run()
    if reference:
        assert problem.engine().stats["net_evals"] > 0
    return [
        (
            repr(record.move),
            record.predicted_reduction_ps,
            record.actual_reduction_ps,
            record.objective_after_ps,
        )
        for record in outcome.history
    ]


def test_local_opt_trajectory_identical_kernel_on_off(predictor):
    """Serial local opt commits the same move stream on kernel and oracles."""
    kernel = _trajectory(predictor, reference=False)
    assert kernel == _trajectory(predictor, reference=True)
    assert len(kernel) > 0


# ----------------------------------------------------------------------
# View semantics
# ----------------------------------------------------------------------
def test_array_map_behaves_like_dict(mini4_design):
    design = mini4_design
    timer = GoldenTimer(design.library)
    corner = design.library.corners[0]
    want = timer._analyze_corner_reference(design.tree, corner)
    got = timer.analyze_corner(design.tree, corner)
    assert isinstance(got.arrival, ArrayMap)
    # Mapping protocol: equality against the reference dicts.
    assert dict(got.arrival) == dict(want.arrival)
    assert got.driver_delay == dict(want.driver_delay)
    assert len(got.edge_delay) == len(want.edge_delay)
    assert sorted(got.input_slew.keys()) == sorted(want.input_slew.keys())
    # Masked keys raise and report absent, like the reference dicts.
    root = design.tree.root
    assert root not in got.edge_delay
    with pytest.raises(KeyError):
        got.edge_delay[root]
    assert got.edge_delay.get(root) is None
    sink = design.tree.sinks()[0]
    assert sink not in got.driver_load
    assert got.arrival.get(sink) == want.arrival[sink]


# ----------------------------------------------------------------------
# Row evaluation: one pass per compile or override set vs per-net oracle
# ----------------------------------------------------------------------
ROW_FIELDS = ("load", "edge_wdelay", "edge_elmore", "edge_step_sq")

COMPILE_BUILDS = {
    "MINI/3": build_mini,
    "MINI/4": lambda: build_mini(corner_names=("c0", "c1", "c2", "c3")),
    "CLS1v1": lambda: build_cls1(1),
    "CLS1v2": lambda: build_cls1(2),
    "CLS2v1": build_cls2,
}


def _assert_rows_equal_oracle(compiled, tree):
    want = reference_compiled_rows(compiled, tree)
    for field in ROW_FIELDS:
        assert np.array_equal(getattr(compiled, field), want[field]), field


@pytest.mark.parametrize("metric", ["d2m", "elmore"])
@pytest.mark.parametrize("name", sorted(COMPILE_BUILDS))
def test_compile_rows_match_per_net_oracle(name, metric):
    design = COMPILE_BUILDS[name]()
    compiled = TimingKernel(design.library, metric).compile(design.tree)
    _assert_rows_equal_oracle(compiled, design.tree)


@pytest.mark.parametrize("metric", ["d2m", "elmore"])
def test_zero_length_edge_and_wide_fanout(mini4_design, metric):
    """A sink on its driver's pin (zero-length edge) and a 40-fanout
    driver compile to the oracle's rows, and time like the scalar loop."""
    tree = mini4_design.tree.clone()
    buffer = tree.buffers()[0]
    here = tree.node(buffer).location
    tree.add_sink(buffer, here)
    while len(tree.children(buffer)) < 40:
        k = len(tree.children(buffer))
        tree.add_sink(buffer, Point(here.x + 7.0 * (k % 6), here.y + 11.0 * (k // 6)))
    tree.validate()
    zero = [c for c in tree.children(buffer) if tree.edge_length(c) == 0.0]
    assert zero
    compiled = TimingKernel(mini4_design.library, metric).compile(tree)
    i = compiled.index[buffer]
    assert compiled.fanout[i] == 40
    _assert_rows_equal_oracle(compiled, tree)
    e = int(compiled.child_ptr[i]) + tree.children(buffer).index(zero[0])
    assert not compiled.edge_wdelay[:, e].any()
    timer = GoldenTimer(mini4_design.library, wire_metric=metric)
    _assert_timings_match(
        timer.analyze_all_corners(tree), reference_timings(timer, tree), "fanout-40"
    )


def _assert_overrides_match_oracle(compiled, tree, dirty):
    overrides, seeds = compiled.build_overrides(tree, dirty)
    wanted = {
        compiled.index[nid]: nid
        for nid in dirty
        if nid in tree and not tree.node(nid).is_sink
    }
    assert sorted(overrides) == sorted(wanted)
    assert sorted(pos for _, pos in seeds) == sorted(wanted)
    for pos, nid in wanted.items():
        row = overrides[pos]
        want = reference_compile_row(compiled, tree, nid)
        if want is None:
            assert row is None
            continue
        positions, child_ids, size_idx, load, wdelay, elmore, step_sq = want
        assert row.child_pos.tolist() == positions
        assert row.child_ids == child_ids and row.size_idx == size_idx
        for got, value in (
            (row.load, load),
            (row.wdelay, wdelay),
            (row.elmore, elmore),
            (row.step_sq, step_sq),
        ):
            assert np.array_equal(got, value)
    return overrides


@pytest.mark.parametrize("metric,seed", [("d2m", 5), ("elmore", 6)])
def test_overrides_match_per_row_oracle_on_random_walk(mini4_design, metric, seed):
    """Every move type's override set equals the per-row oracle, on
    previews and on commits alike (surgery commits recompile)."""
    design = mini4_design
    inc = IncrementalTimer(design.library, wire_metric=metric)
    tree = design.tree.clone()
    inc.ensure(tree)
    rng = np.random.default_rng(seed)
    seen = set()
    for step in range(60):
        moves = enumerate_moves(tree, design.library)
        by_type = {t: [m for m in moves if m.type is t] for t in MoveType}
        move_type = list(MoveType)[step % len(MoveType)]
        if not by_type[move_type]:
            continue
        move = by_type[move_type][int(rng.integers(len(by_type[move_type])))]
        undo = apply_move_undoable(tree, design.legalizer, design.library, move)
        _assert_overrides_match_oracle(inc._compiled, tree, set(undo.dirty))
        seen.add(move.type)
        if step % 4 == 3:
            inc.advance(tree, undo.dirty, design.pairs)
            _assert_rows_equal_oracle(inc._compiled, tree)
        else:
            inc.preview(tree, undo.dirty, design.pairs)
            undo_move(tree, undo)
            inc.rebase(tree)
    assert seen == set(MoveType)


def test_unknown_nodes_and_sizes_raise_stale_and_recompile(mini4_design):
    design = mini4_design
    inc = IncrementalTimer(design.library)
    tree = design.tree.clone()
    inc.ensure(tree)
    compiled = inc._compiled
    # A resize to a drive size outside the library.
    buffer = tree.buffers()[0]
    tree.resize_buffer(buffer, max(design.library.sizes) + 1)
    with pytest.raises(KernelStale, match="drive size"):
        compiled.build_overrides(tree, {buffer})
    with pytest.raises(KernelStale, match="drive size"):
        reference_compile_row(compiled, tree, buffer)
    tree.resize_buffer(buffer, design.library.sizes[0])
    # A buffer the compiled arrays do not know (ECO insertion).
    child = tree.children(buffer)[0]
    parent_loc, child_loc = tree.node(buffer).location, tree.node(child).location
    mid = Point((parent_loc.x + child_loc.x) / 2, (parent_loc.y + child_loc.y) / 2)
    new = tree.insert_buffer_on_edge(child, mid, design.library.sizes[0])
    with pytest.raises(KernelStale, match="unknown child"):
        compiled.build_overrides(tree, {buffer})
    with pytest.raises(KernelStale, match="unknown"):
        compiled.build_overrides(tree, {new})
    full = inc.stats["full_passes"]
    got = inc.advance(tree, {buffer, new}, design.pairs)
    # The stale override set fell back to a full recompile.
    assert inc._compiled is not compiled and new in inc._compiled.index
    assert inc.stats["full_passes"] == full
    _assert_rows_equal_oracle(inc._compiled, tree)
    want = reference_time_tree(GoldenTimer(design.library), tree, design.pairs)
    assert got.latencies == want.latencies


def test_production_timing_builds_no_rc_tree(mini4_design, monkeypatch):
    """Compiles, previews and commits evaluate every edge without an
    RC tree, in one all-corner straight-wire pass per compile or
    override set."""

    def forbidden(*args, **kwargs):
        raise AssertionError("production timing built an RC tree")

    for module in (rc_net, timer_mod, incremental_mod):
        for name in ("star_rc_tree", "edge_rc_tree"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(RCTree, "__init__", forbidden)
    calls = []
    moments = kernel_mod.straight_wire_moments

    def counting(*args, **kwargs):
        calls.append(1)
        return moments(*args, **kwargs)

    monkeypatch.setattr(kernel_mod, "straight_wire_moments", counting)
    design = mini4_design
    GoldenTimer(design.library).analyze_all_corners(design.tree)
    assert len(calls) == 1
    inc = IncrementalTimer(design.library)
    tree = design.tree.clone()
    inc.time_tree(tree, design.pairs)
    rng = np.random.default_rng(3)
    for step in range(30):
        moves = enumerate_moves(tree, design.library)
        move = moves[int(rng.integers(len(moves)))]
        undo = apply_move_undoable(tree, design.legalizer, design.library, move)
        calls.clear()
        if step % 3 == 2:
            inc.advance(tree, undo.dirty, design.pairs)
            # One override set, plus one recompile for a surgery commit.
            assert len(calls) <= (2 if move.type is MoveType.SURGERY else 1)
        else:
            inc.preview(tree, undo.dirty, design.pairs)
            assert len(calls) <= 1
            undo_move(tree, undo)
            inc.rebase(tree)


# ----------------------------------------------------------------------
# Compile coverage: every shipped testcase
# ----------------------------------------------------------------------
def test_every_shipped_testcase_compiles():
    """All three kernels accept every shipped library and tree.

    No scalar fallback exists, so an input the kernels cannot compile
    would fail the flow; this pins the shipped set as compilable.
    """
    builds = {
        "MINI/3": build_mini,
        "MINI/4": lambda: build_mini(corner_names=("c0", "c1", "c2", "c3")),
        "CLS1v1": lambda: build_cls1(1),
        "CLS1v2": lambda: build_cls1(2),
        "CLS2v1": build_cls2,
    }
    luts = {}
    for name, build in builds.items():
        design = build()
        library = design.library
        compiled = TimingKernel(library).compile(design.tree)
        assert compiled.n == len(design.tree), name
        FeatureKernel(library)
        corners = tuple(c.name for c in library.corners)
        if corners not in luts:
            luts[corners] = characterize_stage_luts(library)
        ECOCandidateKernel(library, luts[corners], ECOConfig())
