"""Differential tests for the array-backed analytical feature kernel.

``FeatureKernel`` compiles candidate-move batches into structure-of-array
plans and evaluates every estimator variant for every corner in broadcast
numpy.  It is contracted to be a *pure performance transform* of the
per-move walk (``compute_move_components``): every array of a component
record (base row, subtree and wire-only deltas, input slews, side-effect
row), every analytical prediction and every score must be
**bit-identical** — not merely close — because the local optimizer's
tie-breaking and the CI trajectory gates compare exact floats.

The suite checks that contract six ways:

* direct per-move record equality against the per-move path on MINI
  (full move set, fallback moves included), CLS1v1 and CLS1v2
  (randomized subsets), and every analytical kind's predictions on a
  batch that mixes kernel and fallback moves;
* the one-pass program compile of a batch's net geometries, straight
  from its spec rows and filled with each plan's pin caps, against the
  per-plan program compile, array by array;
* the spec-keyed wire and route memos against the tuple-keyed planning
  per (spec, route model) they replaced (``TupleKeyedPlanner``): equal
  counters over multi-batch walks with commits, and the key's value
  semantics (-0.0, last bits, ids, pin caps, repeats in a batch);
* a 200+-step randomized move/undo walk where featurize / commit /
  invalidate rounds interleave with returns to the pristine tree, so the
  value-keyed wire memo is exercised warm, cold, and across epochs, and
  a walk that holds the dependency-set move cache to a per-move
  registry;
* full Algorithm-2 trajectory byte-identity against the scalar oracles
  swapped in (per-move featurization and scoring), with the analytical
  and a learned (HSM) predictor, and serial vs a 4-worker verification
  pool;
* failure outcomes — unsupported moves (surgery) take the per-move path
  inside a kernel batch; an unstackable library raises the NLDM stack's
  ``ValueError`` (here, and for every kernel in ``tests/test_cells.py``).
"""

import dataclasses
import functools
import random

import numpy as np
import pytest

from repro.core.local_opt import (
    LocalOptConfig,
    LocalOptimizer,
    batched_variation_reductions,
)
from repro.core.ml.analytical import estimate_move_impacts, plan_net
from repro.core.ml import feature_kernel
from repro.core.ml.feature_kernel import _ROUTE_MODELS, FeatureKernel
from repro.core.ml.features import (
    ESTIMATOR_VARIANTS,
    FEATURE_NAMES,
    MoveComponents,
    compute_move_components,
)
from repro.core.ml.pipeline import CandidatePipeline, FeatureBatch
from repro.core.ml.training import (
    ANALYTICAL_KINDS,
    FULL_ANALYTICAL_KINDS,
    train_predictor,
)
from repro.core.moves import MoveType, enumerate_moves
from repro.core.objective import SkewVariationProblem
from repro.geometry import BBox
from repro.parallel.pool import effective_cpu_count, resolve_workers
from repro.tech.cells import NLDMTable
from repro.testcases.cls1 import build_cls1
from repro.testcases.mini import build_mini
from tests.oracles import (
    PerMoveRegistryPipeline,
    TupleKeyedPlanner,
    per_move_components,
    predicted_variation_reduction,
    reference_batch_specs,
    reference_compile_plan,
    spec_nets,
    use_scalar_features,
)

#: The record's arrays: every field but ``move``.
RECORD_ARRAYS = tuple(f.name for f in dataclasses.fields(MoveComponents) if f.name != "move")


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _assert_components_equal(got, ref):
    """Exact (bitwise) equality of a kernel vs reference MoveComponents:
    the same move and every array ``array_equal``, shapes included."""
    assert got.move == ref.move
    for name in RECORD_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(ref, name)), (ref.move, name)


def _reference_components(tree, library, timings, moves):
    return [compute_move_components(tree, library, timings, move) for move in moves]


def _kernel_vs_reference(design, subset=None, seed=3):
    problem = SkewVariationProblem.create(design)
    tree = design.tree
    result = problem.evaluate(tree.clone())
    moves = enumerate_moves(tree, design.library)
    if subset is not None and len(moves) > subset:
        moves = random.Random(seed).sample(moves, subset)
    kernel = FeatureKernel(design.library)
    batch = kernel.compute_components_batch(tree, result.per_corner, moves)
    reference = _reference_components(tree, design.library, result.per_corner, moves)
    assert len(batch) == len(moves)
    for got, ref in zip(batch, reference):
        _assert_components_equal(got, ref)
    return kernel, moves


# ---------------------------------------------------------------------------
# per-feature parity against the scalar reference
# ---------------------------------------------------------------------------
class TestKernelParity:
    def test_mini_full_move_set_bit_identical(self, mini_design):
        kernel, moves = _kernel_vs_reference(mini_design)
        assert kernel.stats["kernel_moves"] > 0
        # Surgery (or off-grid sizes) fall back; everything else must
        # have gone through the array path.  The full set has both.
        surgeries = sum(1 for m in moves if m.type is MoveType.SURGERY)
        assert 0 < kernel.stats["fallback_moves"] <= surgeries

    def test_cls1_subset_bit_identical(self):
        design = build_cls1(1)
        kernel, _ = _kernel_vs_reference(design, subset=96, seed=5)
        assert kernel.stats["kernel_moves"] > 0

    def test_cls1v2_subset_bit_identical(self):
        design = build_cls1(2)
        kernel, _ = _kernel_vs_reference(design, subset=96, seed=7)
        assert kernel.stats["kernel_moves"] > 0

    def test_all_corners_covered(self, mini_design):
        """Every array has one row or column per corner (no broadcast
        slips), and a kernel record's arrays are read-only views."""
        problem = SkewVariationProblem.create(mini_design)
        result = problem.evaluate(mini_design.tree.clone())
        moves = enumerate_moves(mini_design.tree, mini_design.library)[:8]
        kernel = FeatureKernel(mini_design.library)
        batch = kernel.compute_components_batch(mini_design.tree, result.per_corner, moves)
        n_corner = len(mini_design.library.corners)
        assert n_corner >= 2
        shapes = {
            "base_row": (len(FEATURE_NAMES),),
            "estimates": (n_corner, len(ESTIMATOR_VARIANTS)),
            "wire_only": (n_corner, len(ESTIMATOR_VARIANTS)),
            "input_slew": (n_corner,),
            "side": (2, n_corner),
        }
        assert set(shapes) == set(RECORD_ARRAYS)
        for comp in batch:
            for name, shape in shapes.items():
                array = getattr(comp, name)
                assert array.shape == shape, name
                assert array.dtype == np.float64, name
                assert not array.flags.writeable, name

    def test_wire_memo_reused_across_batches(self, mini_design):
        problem = SkewVariationProblem.create(mini_design)
        result = problem.evaluate(mini_design.tree.clone())
        moves = enumerate_moves(mini_design.tree, mini_design.library)
        kernel = FeatureKernel(mini_design.library)
        kernel.compute_components_batch(mini_design.tree, result.per_corner, moves)
        assert kernel.stats["wire_hits"] == 0  # cold: in-batch dedupe only
        misses = kernel.stats["wire_misses"]
        assert misses > 0
        # A repeat batch reuses every compiled plan from the value-keyed
        # memo — no new compilations, hits only.
        kernel.compute_components_batch(mini_design.tree, result.per_corner, moves)
        assert kernel.stats["wire_misses"] == misses
        assert kernel.stats["wire_hits"] > 0

    def test_full_wire_memo_keeps_the_batch_metrics(self, mini_design):
        """A batch that overflows the memo still reads all its own rows.

        With ``max_entries`` far below the batch's row count, eviction
        must not drop a row the batch has yet to read (a cold batch,
        then a warm repeat that also hits); the memo is back within its
        bound afterwards, its blocks whole and contiguous.
        """
        problem = SkewVariationProblem.create(mini_design)
        tree = mini_design.tree
        timings = problem.evaluate(tree.clone()).per_corner
        moves = enumerate_moves(tree, mini_design.library)[:40]
        kernel = FeatureKernel(mini_design.library)
        kernel.max_entries = 8
        reference = _reference_components(tree, mini_design.library, timings, moves)
        for _ in range(2):
            batch = kernel.compute_components_batch(tree, timings, moves)
            for got, ref in zip(batch, reference):
                _assert_components_equal(got, ref)
        assert kernel.stats["wire_hits"] > 0
        n_route = len(_ROUTE_MODELS)
        memo, rows = kernel._wire_memo, kernel._wire_rows
        assert 0 < n_route * len(memo) <= kernel.max_entries
        # The memo's arrays were compacted to the blocks it keeps, each
        # one spec's rows in route-model order.
        assert rows.rows == n_route * len(memo)
        assert sorted(memo.values()) == list(range(0, rows.rows, n_route))
        for key, first in memo.items():
            values = np.frombuffer(key)
            ((driver, children),) = spec_nets(values[None, :], np.array([(values.size - 2) // 4]))
            for k, model in enumerate(_ROUTE_MODELS):
                plan = plan_net(driver, children, model)
                assert rows.fanout[first + k] == len(children)
                assert rows.shape[0, first + k] == plan.wirelength_um


class TestSpecKeys:
    """One value key per net spec: the bytes of its row, -0.0 as +0.0."""

    @staticmethod
    def _specs(*nets):
        rows = [[x, y, *(v for child in children for v in child)] for (x, y), children in nets]
        width = max(len(row) for row in rows)
        specs = np.array([row + [0.0] * (width - len(row)) for row in rows])
        return specs, np.array([len(children) for _, children in nets])

    NET = ((0.0, 50.0), ((1, 0.0, 90.0, 0.5), (2, 40.0, 50.0, 0.7), (3, 40.0, 130.0, 0.7)))

    def test_negative_zero_hits_the_positive_zero_entry(self, mini_design):
        kernel = FeatureKernel(mini_design.library)
        first = kernel.ensure_metrics(*self._specs(self.NET))
        (_, y), children = self.NET
        flipped = ((-0.0, y), ((1, -0.0, 90.0, 0.5), *children[1:]))
        again = kernel.ensure_metrics(*self._specs(flipped))
        assert again.tolist() == first.tolist()
        assert kernel.stats["wire_misses"] == len(_ROUTE_MODELS)
        assert kernel.stats["wire_hits"] == len(_ROUTE_MODELS)
        assert len(kernel._wire_memo) == 1

    def test_ids_caps_and_last_bits_miss(self, mini_design):
        (x, y), children = self.NET
        variants = [
            ((x, y), ((4, *children[0][1:]), *children[1:])),  # another child id
            ((x, y), (children[0], (2, 40.0, 50.0, 0.75), children[2])),  # a pin cap
            ((x, np.nextafter(y, np.inf)), children),  # the driver's last bit
            ((x, y), (children[0], (2, np.nextafter(40.0, 0.0), 50.0, 0.7), children[2])),
        ]
        kernel = FeatureKernel(mini_design.library)
        rows = kernel.ensure_metrics(*self._specs(self.NET, *variants))
        assert len(set(rows.tolist())) == 1 + len(variants)
        assert kernel.stats["wire_misses"] == len(_ROUTE_MODELS) * (1 + len(variants))
        assert kernel.stats["wire_hits"] == 0

    def test_repeated_spec_is_evaluated_once(self, mini_design):
        kernel = FeatureKernel(mini_design.library)
        other = ((10.0, 10.0), ((5, 60.0, 10.0, 0.4),))
        rows = kernel.ensure_metrics(*self._specs(self.NET, other, self.NET))
        assert rows[0] == rows[2] != rows[1]
        n_route = len(_ROUTE_MODELS)
        assert kernel.stats["wire_misses"] == 2 * n_route
        assert kernel.stats["wire_hits"] == 0
        assert kernel.stats["programs_compiled"] == 2 * n_route
        assert kernel._wire_rows.rows == 2 * n_route


class TestTupleKeyedOracle:
    """Counters of multi-batch walks with a commit between batches."""

    @pytest.mark.parametrize(
        "build, buffers",
        [(build_mini, None), (lambda: build_cls1(1), 8), (lambda: build_cls1(2), 8)],
        ids=["MINI", "CLS1v1", "CLS1v2"],
    )
    def test_counters_equal_the_tuple_keyed_planning(self, build, buffers):
        """The spec-keyed memos count every wire and route lookup, route
        call and compile as planning each (spec, route model) under tuple
        keys did, and every component stays the per-move oracle's.

        Each batch takes the moves of a few buffers drawn from a small
        pool, so batches revisit specs (wire hits), sizing variants share
        geometries (route hits) and commits make new specs (misses).
        """
        design = build()
        library = design.library
        problem = SkewVariationProblem.create(design)
        tree = design.tree.clone()
        result = problem.evaluate(tree)
        kernel = FeatureKernel(library)
        planner = TupleKeyedPlanner()
        rng = random.Random(43)
        pool = list(tree.buffers())
        if buffers is not None:
            pool = rng.sample(pool, 2 * buffers)
        for step in range(3):
            chosen = pool if buffers is None else rng.sample(pool, buffers)
            moves = [
                m
                for m in enumerate_moves(tree, library, buffers=chosen)
                if buffers is None or rng.random() < 0.5
            ]
            got = kernel.compute_components_batch(tree, result.per_corner, moves)
            planner.batch(reference_batch_specs(tree, library, moves))
            assert {key: kernel.stats[key] for key in planner.stats} == planner.stats, step
            reference = _reference_components(tree, library, result.per_corner, moves)
            for g, ref in zip(got, reference):
                _assert_components_equal(g, ref)
            move = rng.choice([m for m in moves if m.type is not MoveType.SURGERY])
            result = problem.commit_move(tree, move)
        stats = planner.stats
        assert stats["wire_hits"] > 0 and stats["route_hits"] > 0
        assert stats["rsmt_batches"] == stats["trunk_batches"] == 3


# ---------------------------------------------------------------------------
# the one-pass compile against the per-plan program compile
# ---------------------------------------------------------------------------
def _batch_specs(design):
    """The spec rows of one batch over the full move set."""
    kernel = FeatureKernel(design.library)
    batch, _ = kernel._prepare(design.tree, enumerate_moves(design.tree, design.library))
    return batch.specs, batch.fanout


def _assert_programs_equal(library, specs, fanout, chunk=64):
    """Route and compile the spec rows' geometries in one pass, fill each
    plan's program with its pin caps, and hold it to the per-plan oracle
    (plan ``3 * j + k``: spec ``j`` under ``_ROUTE_MODELS[k]``)."""
    kernel = FeatureKernel(library)
    misses = kernel._plan(specs, fanout)
    programs = misses.programs
    nets = spec_nets(specs, fanout)
    plans = [plan_net(driver, children, model) for driver, children in nets for model in _ROUTE_MODELS]
    geometries = {(p.route_model, p.driver_loc, *(loc for _, loc, _ in p.children)) for p in plans}
    assert programs.n_nodes.size == len(geometries)
    assert kernel.stats["programs_compiled"] == len(geometries)
    for i, plan in enumerate(plans):
        box = BBox.of_points([plan.driver_loc] + [loc for _, loc, _ in plan.children])
        assert programs.bbox_area[misses.geo[i]] == box.area
        assert programs.bbox_aspect[misses.geo[i]] == box.aspect_ratio
        assert misses.wirelength[i] == plan.wirelength_um
        assert misses.capsum[i] == sum(c for _, _, c in plan.children)
    start = np.cumsum(misses.fanout) - misses.fanout
    for lo in range(0, len(plans), chunk):
        part = plans[lo : lo + chunk]
        hi = lo + len(part)
        parent, valid, seg, code, tval, (rows, slots) = feature_kernel._pad_programs(
            programs, misses.geo[lo:hi], misses.caps[start[lo] : start[hi - 1] + misses.fanout[hi - 1]]
        )
        for i, plan in enumerate(part):
            ref = reference_compile_plan(None, plan)
            n, t = ref.n_nodes, ref.term_code.shape[1]
            assert valid[i].sum() == n and valid[i, :n].all()
            assert np.array_equal(parent[i, :n], ref.parent)
            assert np.array_equal(seg[i, :n], ref.seg)
            assert np.array_equal(code[i, :n, :t], ref.term_code)
            assert np.array_equal(tval[i, :n, :t], ref.term_val)
            assert not code[i, n:].any() and not code[i, :, t:].any()
            assert not tval[i, n:].any() and not tval[i, :, t:].any()
            assert np.array_equal(slots[rows == i], ref.child_slot)
    return plans, programs


def build_cls1v2():
    return build_cls1(2)


class TestTemplates:
    @pytest.mark.parametrize("build", [build_mini, lambda: build_cls1(1), build_cls1v2])
    def test_programs_equal_per_plan_compile(self, build):
        """One compile pass over a full-move-set batch, from its spec
        rows: every plan's padded program is the oracle's, the widest
        star root included."""
        design = build()
        specs, fanout = _batch_specs(design)
        plans, programs = _assert_programs_equal(design.library, specs, fanout)
        assert programs.n_nodes.size < len(plans)
        # The widest star root: one near-end half cap per child, in one
        # row as wide as the widest program.
        star = [p for p in plans if p.route_model == "star"]
        widest = max(star, key=lambda p: len(p.children))
        assert max(programs.width) >= len(widest.children) >= 6

    def test_zero_length_edges_and_taps_on_pins(self, mini_design):
        """Children at the driver's place (zero-length edges), duplicate
        children, multi-piece edges and trunk taps that land on pins."""
        nets = [
            ((100.0, 100.0), ((1, 100.0, 100.0, 0.5), (2, 180.0, 100.0, 0.7))),
            ((100.0, 100.0), ((1, 100.0, 130.0, 0.5), (2, 100.0, 130.0, 0.6))),
            # Horizontal trunk at y = 100: the taps of pins 2 and 3 land
            # on pins 1 and 0.
            (
                (100.0, 100.0),
                (
                    (1, 160.0, 100.0, 0.4),
                    (2, 160.0, 150.0, 0.4),
                    (3, 100.0, 20.0, 0.4),
                    (4, 300.0, 110.0, 0.9),
                ),
            ),
            ((100.0, 100.0), ((1, 100.0, 100.0, 0.3), (2, 100.0, 100.0, 0.3), (3, 20.0, 0.0, 0.3))),
        ]
        specs, fanout = TestSpecKeys._specs(*nets)
        plans, programs = _assert_programs_equal(mini_design.library, specs, fanout, chunk=5)
        trunk = plans[2 * 3 + _ROUTE_MODELS.index("trunk")].route
        assert len(trunk.points) < 2 * trunk.num_pins - 1  # taps merged
        assert (programs.seg == 0.0).sum() > len(plans)  # roots + zero-length edges

    def test_child_sizing_pair_compiles_one_template(self, mini_design):
        """Two resizes of one child, at one displacement, share every net
        geometry."""
        tree, library = mini_design.tree, mini_design.library
        problem = SkewVariationProblem.create(mini_design)
        timings = problem.evaluate(tree.clone()).per_corner
        sizing = [
            m for m in enumerate_moves(tree, library) if m.type is MoveType.CHILD_SIZING
        ]
        pair = next(
            (a, b)
            for a in sizing
            for b in sizing
            if (a.buffer, a.child, a.dx, a.dy) == (b.buffer, b.child, b.dx, b.dy)
            and a.child_size_step != b.child_size_step
        )
        kernel = FeatureKernel(library)
        got = kernel.compute_components_batch(tree, timings, pair)
        # One parent net and two own nets, under three route models; the
        # own nets differ only in the resized child's pin cap.
        assert kernel.stats["wire_misses"] == 9
        assert kernel.stats["programs_compiled"] == 6
        for g, ref in zip(got, _reference_components(tree, library, timings, pair)):
            _assert_components_equal(g, ref)

    def test_small_eval_chunks_keep_the_batch_metrics(self, mini_design, monkeypatch):
        """Templates shared across lockstep chunks give the same metrics."""
        problem = SkewVariationProblem.create(mini_design)
        tree = mini_design.tree
        timings = problem.evaluate(tree.clone()).per_corner
        moves = enumerate_moves(tree, mini_design.library)[:40]
        reference = _reference_components(tree, mini_design.library, timings, moves)
        monkeypatch.setattr(feature_kernel, "_EVAL_CHUNK", 5)
        kernel = FeatureKernel(mini_design.library)
        batch = kernel.compute_components_batch(tree, timings, moves)
        assert kernel.stats["wire_misses"] > 5 * 4
        for got, ref in zip(batch, reference):
            _assert_components_equal(got, ref)


# ---------------------------------------------------------------------------
# randomized move/undo walk (200+ steps)
# ---------------------------------------------------------------------------
class TestRandomWalk:
    def test_mini_walk_with_commits_and_undo(self):
        """Kernel stays bit-identical across commits and tree restores.

        Each round featurizes a random move subset through the kernel
        pipeline and a pipeline whose kernel batch is swapped for the
        per-move oracle (byte-equal matrices + components), commits a
        random move, and
        invalidates like the optimizer.  Every other round restores the
        pristine tree ("undo"), which re-exercises the kernel's warm
        wire memo against geometry it has already compiled under a
        different epoch.  Total compared moves exceed 200.
        """
        design = build_mini()
        problem = SkewVariationProblem.create(design)
        pristine = design.tree.clone()
        tree = design.tree.clone()
        result = problem.evaluate(tree)
        kernel_pipe = CandidatePipeline(design.library)
        ref_pipe = CandidatePipeline(design.library)
        ref_pipe.kernel.compute_components_batch = functools.partial(
            per_move_components, ref_pipe.kernel
        )
        rng = random.Random(17)
        compared = 0

        def invalidate(pipe, move):
            touched = problem.engine().last_touched
            if touched is None:
                pipe.flush()
                return
            pipe.invalidate(
                touched_local=touched[0],
                touched_arrival=touched[1],
                structural=move.type is MoveType.SURGERY,
            )

        for step in range(8):
            moves = enumerate_moves(tree, design.library)
            subset = rng.sample(moves, min(40, len(moves)))
            got = kernel_pipe.featurize(tree, result.per_corner, subset)
            want = ref_pipe.featurize(tree, result.per_corner, subset)
            for corner in design.library.corners:
                assert np.array_equal(
                    got.matrices[corner.name], want.matrices[corner.name]
                ), step
            for g, w in zip(got.components, want.components):
                _assert_components_equal(g, w)
            compared += len(subset)
            if step % 2 == 0:
                move = rng.choice(subset)
                result = problem.commit_move(tree, move)
                invalidate(kernel_pipe, move)
                invalidate(ref_pipe, move)
            else:
                # Undo: restart from the pristine tree.  The pipelines'
                # move caches are keyed per-epoch state, so flush; the
                # kernel's wire memo is value-keyed and survives.
                tree = pristine.clone()
                result = problem.evaluate(tree)
                kernel_pipe.flush()
                ref_pipe.flush()
        assert compared >= 200
        assert kernel_pipe.kernel.stats["wire_hits"] > 0
        assert ref_pipe.kernel.stats["batches"] == 0


    def test_registry_evicts_what_a_per_move_registry_evicts(self):
        """Dependency-set groups drop exactly the per-move oracle's moves.

        Two pipelines featurize the same random move subsets of a MINI
        walk: this one, and one that registers and evicts each move on
        its own.  Commits (one of them a surgery, which flushes), undos
        and extra invalidations of random node sets must leave both with
        the same cached moves and counters, and every ``invalidate`` must
        return the same count.
        """
        design = build_mini()
        problem = SkewVariationProblem.create(design)
        pristine = design.tree.clone()
        tree = design.tree.clone()
        result = problem.evaluate(tree)
        pipe = CandidatePipeline(design.library)
        oracle = PerMoveRegistryPipeline(design.library)
        rng = random.Random(29)
        checked = 0

        def same_state(context):
            assert set(pipe._components) == set(oracle._components), context
            assert pipe.stats == oracle.stats, context

        def invalidate(**touched):
            nonlocal checked
            assert pipe.invalidate(**touched) == oracle.invalidate(**touched)
            same_state(touched)
            checked += 1

        for step in range(9):
            moves = enumerate_moves(tree, design.library)
            subset = rng.sample(moves, min(80, len(moves)))
            pipe.featurize(tree, result.per_corner, subset)
            oracle.featurize(tree, result.per_corner, subset)
            same_state(step)
            ids = tree.node_ids()
            for _ in range(2):
                invalidate(
                    touched_local=rng.sample(ids, 3),
                    touched_arrival=rng.sample(ids, 2),
                )
            if step % 3 == 2:
                tree = pristine.clone()
                result = problem.evaluate(tree)
                pipe.flush()
                oracle.flush()
                continue
            surgery = [m for m in moves if m.type is MoveType.SURGERY]
            move = surgery[0] if step == 4 and surgery else rng.choice(subset)
            result = problem.commit_move(tree, move)
            local, arrival = problem.engine().last_touched
            invalidate(
                touched_local=local,
                touched_arrival=arrival,
                structural=move.type is MoveType.SURGERY,
            )
        assert pipe.stats["flushes"] >= 4  # the undos and the surgery
        assert pipe.stats["invalidated"] > 0
        assert checked >= 20


# ---------------------------------------------------------------------------
# trajectory byte-identity (kernel vs oracles, serial vs pooled)
# ---------------------------------------------------------------------------
class TestTrajectoryIdentity:
    def _run(self, predictor, workers=1):
        problem = SkewVariationProblem.create(build_mini())
        optimizer = LocalOptimizer(
            problem,
            predictor,
            LocalOptConfig(
                max_iterations=4,
                max_batches_per_iteration=2,
                workers=workers,
            ),
        )
        outcome = optimizer.run()
        trajectory = [
            (h.move, h.predicted_reduction_ps, h.objective_after_ps)
            for h in outcome.history
        ]
        return trajectory, outcome

    def test_kernel_matches_reference_serial(self, library_cls1, monkeypatch):
        predictor = train_predictor(library_cls1, [], "full_rsmt_d2m")
        kernel_traj, kernel_out = self._run(predictor)
        with monkeypatch.context() as patch:
            use_scalar_features(patch)
            ref_traj, ref_out = self._run(predictor)
        assert kernel_traj == ref_traj
        assert kernel_out.final_objective_ps == ref_out.final_objective_ps
        assert kernel_out.stats["pipeline"]["kernel"]["batches"] > 0
        assert ref_out.stats["pipeline"]["kernel"]["batches"] == 0

    def test_learned_predictor_matches_reference(self, hsm_predictor, monkeypatch):
        """The learned branch of ``predict_matrix`` against the oracles.

        ``repro optimize`` ranks with a learned predictor by default; its
        trajectory with the kernel and the grouped scorer must equal the
        one with the per-move featurizer and scorer swapped in.
        """
        kernel_traj, kernel_out = self._run(hsm_predictor)
        with monkeypatch.context() as patch:
            use_scalar_features(patch)
            ref_traj, ref_out = self._run(hsm_predictor)
        assert kernel_traj
        assert kernel_traj == ref_traj
        assert kernel_out.final_objective_ps == ref_out.final_objective_ps
        assert ref_out.stats["pipeline"]["kernel"]["batches"] == 0

    def test_kernel_workers4_matches_serial(self, library_cls1):
        predictor = train_predictor(library_cls1, [], "full_rsmt_d2m")
        serial_traj, serial_out = self._run(predictor, workers=1)
        pooled_traj, pooled_out = self._run(predictor, workers=4)
        assert serial_traj == pooled_traj
        assert serial_out.final_objective_ps == pooled_out.final_objective_ps
        assert pooled_out.stats["workers"]["effective"] == 4


# ---------------------------------------------------------------------------
# vectorized score parity
# ---------------------------------------------------------------------------
class TestScoreParity:
    def test_batched_reductions_bit_equal_scalar(self, mini_design):
        """Grouped scores equal the scalar scorer, row by row.

        CLS1v1 adds surgery moves, whose groups carry nonzero
        new-sibling corrections.
        """
        for design in (mini_design, build_cls1(1)):
            problem = SkewVariationProblem.create(design)
            tree = design.tree.clone()
            result = problem.evaluate(tree)
            moves = enumerate_moves(tree, design.library)
            pipeline = CandidatePipeline(design.library)
            batch = pipeline.featurize(tree, result.per_corner, moves)
            names = [c.name for c in design.library.corners]
            rng = np.random.default_rng(23)
            predictions = rng.normal(0.0, 3.0, size=(len(moves), len(names)))
            batched = batched_variation_reductions(
                problem, tree, result, batch.components, predictions
            )
            scalar = [
                predicted_variation_reduction(
                    problem, tree, result, feats, dict(zip(names, row.tolist()))
                )
                for feats, row in zip(batch.components, predictions)
            ]
            assert batched.shape == (len(moves),)
            assert batched.tolist() == scalar, design.name
            assert any(r != 0.0 for r in scalar)
            if design is not mini_design:
                new_siblings = [
                    value
                    for comp in batch.components
                    if comp.move.type is MoveType.SURGERY
                    for value in comp.side[1].tolist()
                ]
                assert any(v != 0.0 for v in new_siblings)


    @staticmethod
    def _scores(problem, tree, result, moves, seed=23):
        """Array and per-move scores of ``moves`` under random predictions."""
        library = problem.design.library
        batch = CandidatePipeline(library).featurize(tree, result.per_corner, moves)
        names = [c.name for c in library.corners]
        rng = np.random.default_rng(seed)
        predictions = rng.normal(0.0, 3.0, size=(len(moves), len(names)))
        batched = batched_variation_reductions(
            problem, tree, result, batch.components, predictions
        )
        scalar = [
            predicted_variation_reduction(
                problem, tree, result, feats, dict(zip(names, row.tolist()))
            )
            for feats, row in zip(batch.components, predictions)
        ]
        return batched.tolist(), scalar

    @staticmethod
    def _hits(problem, tree, move):
        """Pairs the move's group touches (the oracle's affected set)."""
        sinks = set(tree.subtree_sinks(tree.parent(move.buffer)))
        if move.type is MoveType.SURGERY:
            sinks |= set(tree.subtree_sinks(move.new_parent))
        return sum(1 for a, b in problem.pairs if a in sinks or b in sinks)

    def test_group_that_hits_no_pair_scores_zero(self, mini_design):
        """Pairs kept only under one buffer leave the other groups
        with nothing to score: their moves read exactly 0.0."""
        tree = mini_design.tree.clone()
        buffer = max(tree.buffers(), key=lambda b: (tree.buffer_level(b), b))
        inside = set(tree.subtree_sinks(buffer))
        pairs = [p for p in mini_design.pairs if p[0] in inside and p[1] in inside]
        assert pairs
        problem = SkewVariationProblem.create(
            dataclasses.replace(mini_design, pairs=pairs)
        )
        result = problem.evaluate(tree)
        moves = enumerate_moves(tree, mini_design.library)
        batched, scalar = self._scores(problem, tree, result, moves)
        assert batched == scalar
        idle = [i for i, m in enumerate(moves) if self._hits(problem, tree, m) == 0]
        assert idle and all(batched[i] == 0.0 for i in idle)
        assert any(v != 0.0 for v in batched)

    def test_root_group_hits_every_pair(self):
        """The CLS1v2 group whose old parent is the root touches all 268
        pairs, the widest pass."""
        design = build_cls1(2)
        problem = SkewVariationProblem.create(design)
        tree = design.tree.clone()
        result = problem.evaluate(tree)
        moves = [
            m
            for m in enumerate_moves(tree, design.library)
            if self._hits(problem, tree, m) == len(problem.pairs)
        ]
        assert len(problem.pairs) == 268 and moves
        batched, scalar = self._scores(problem, tree, result, moves)
        assert batched == scalar

    def test_one_move_batch(self, mini_design):
        problem = SkewVariationProblem.create(mini_design)
        tree = mini_design.tree.clone()
        result = problem.evaluate(tree)
        for move in enumerate_moves(tree, mini_design.library)[:3]:
            batched, scalar = self._scores(problem, tree, result, [move])
            assert len(batched) == 1 and batched == scalar

    def test_whole_batch_of_every_group_width(self):
        """A whole CLS1v2 batch: groups touching a few pairs up to all
        268, each scored in its own pass."""
        design = build_cls1(2)
        problem = SkewVariationProblem.create(design)
        tree = design.tree.clone()
        result = problem.evaluate(tree)
        moves = enumerate_moves(tree, design.library)
        hits = {self._hits(problem, tree, move) for move in moves}
        assert min(hits) < 8 and max(hits) == len(problem.pairs)
        batched, scalar = self._scores(problem, tree, result, moves)
        assert batched == scalar


class TestAnalyticalPredictions:
    @pytest.mark.parametrize("build", [build_mini, lambda: build_cls1(1)])
    def test_predict_matrix_equals_per_move_read(self, build):
        """Every plain and ``full_`` analytical kind predicts, for a batch
        of kernel and fallback (surgery) moves, the floats the per-move
        estimators' impact dicts hold: ``subtree_wire_only`` for plain
        kinds, ``subtree`` for ``full_`` kinds, in corner order."""
        design = build()
        library = design.library
        problem = SkewVariationProblem.create(design)
        tree = design.tree.clone()
        timings = problem.evaluate(tree).per_corner
        moves = enumerate_moves(tree, library)
        surgeries = [m for m in moves if m.type is MoveType.SURGERY]
        others = [m for m in moves if m.type is not MoveType.SURGERY]
        moves = random.Random(13).sample(others, min(len(others), 160)) + surgeries[:40]
        pipeline = CandidatePipeline(library)
        batch = pipeline.featurize(tree, timings, moves)
        stats = pipeline.kernel.stats
        assert stats["kernel_moves"] > 0 and stats["fallback_moves"] > 0
        names = [c.name for c in library.corners]
        impacts = {
            route: [estimate_move_impacts(tree, library, timings, m, route) for m in moves]
            for route in ("rsmt", "trunk")
        }
        for kind in (*ANALYTICAL_KINDS, *FULL_ANALYTICAL_KINDS):
            got = train_predictor(library, [], kind).predict_matrix(batch)
            route, metric = kind.removeprefix("full_").rsplit("_", 1)
            expected = []
            for by_metric in impacts[route]:
                impact = by_metric[metric]
                full = kind.startswith("full_")
                source = impact.subtree if full else impact.subtree_wire_only
                expected.append([source[name] for name in names])
            assert got.tolist() == expected, kind

    def test_mixed_batch_equals_per_move_records(self, mini_design):
        """All 8 analytical kinds predict ``==`` from a pipeline batch
        that mixes kernel and fallback moves and from the per-move
        path's records of the same moves."""
        library = mini_design.library
        problem = SkewVariationProblem.create(mini_design)
        tree = mini_design.tree.clone()
        timings = problem.evaluate(tree).per_corner
        moves = enumerate_moves(tree, library)
        pipeline = CandidatePipeline(library)
        batch = pipeline.featurize(tree, timings, moves)
        stats = pipeline.kernel.stats
        assert stats["kernel_moves"] > 0 and stats["fallback_moves"] > 0
        names = [c.name for c in library.corners]
        reference = FeatureBatch.assemble(
            _reference_components(tree, library, timings, moves), names
        )
        for kind in (*ANALYTICAL_KINDS, *FULL_ANALYTICAL_KINDS):
            predictor = train_predictor(library, [], kind)
            got = predictor.predict_matrix(batch)
            assert got.shape == (len(moves), len(names))
            assert got.tolist() == predictor.predict_matrix(reference).tolist(), kind

    def test_corner_order_follows_the_predictor(self, mini_design):
        """Columns come in the predictor's corner order, whatever the
        library's."""
        problem = SkewVariationProblem.create(mini_design)
        tree = mini_design.tree.clone()
        result = problem.evaluate(tree)
        moves = enumerate_moves(tree, mini_design.library)
        batch = CandidatePipeline(mini_design.library).featurize(
            tree, result.per_corner, moves
        )
        predictor = train_predictor(mini_design.library, [], "full_trunk_elmore")
        flipped = dataclasses.replace(
            predictor, corner_names=tuple(reversed(predictor.corner_names))
        )
        assert np.array_equal(
            flipped.predict_matrix(batch), predictor.predict_matrix(batch)[:, ::-1]
        )


# ---------------------------------------------------------------------------
# unsupported inputs
# ---------------------------------------------------------------------------
class TestFallbacks:
    def test_unstackable_library_raises(self, mini_design):
        """No scalar fallback: the pipeline refuses the library."""
        library = mini_design.library
        corner, size = library.corners[-1], library.sizes[-1]
        cell = library.cell(size, corner)
        table = cell.delay_table
        shifted = NLDMTable(
            tuple(s + 1.0 for s in table.slew_axis), table.load_axis, table.values
        )
        cells = dict(library.cells)
        cells[(size, corner.name)] = dataclasses.replace(cell, delay_table=shifted)
        library = dataclasses.replace(library, cells=cells)
        with pytest.raises(ValueError, match="one NLDM grid"):
            CandidatePipeline(library)

    def test_surgery_moves_use_per_move_fallback(self, mini_design):
        problem = SkewVariationProblem.create(mini_design)
        result = problem.evaluate(mini_design.tree.clone())
        moves = enumerate_moves(mini_design.tree, mini_design.library)
        surgeries = [m for m in moves if m.type is MoveType.SURGERY]
        if not surgeries:
            pytest.skip("MINI enumerates no surgery moves")
        kernel = FeatureKernel(mini_design.library)
        kernel.compute_components_batch(mini_design.tree, result.per_corner, surgeries)
        assert kernel.stats["fallback_moves"] == len(surgeries)
        assert kernel.stats["kernel_moves"] == 0


# ---------------------------------------------------------------------------
# worker resolution
# ---------------------------------------------------------------------------
class TestResolveWorkers:
    def test_explicit_int_passthrough(self):
        assert resolve_workers(1) == (1, "explicit")
        # The count always passes through exactly; the note calls out
        # oversubscription when it exceeds the effective CPU count.
        count, note = resolve_workers(4)
        assert count == 4
        if effective_cpu_count() >= 4:
            assert note == "explicit"
        else:
            assert "oversubscribe" in note

    def test_auto_sizes_to_effective_cpus(self):
        count, note = resolve_workers("auto")
        cpus = effective_cpu_count()
        if cpus < 2:
            assert count == 1
            assert "serial" in note
        else:
            assert count == cpus
            assert "auto" in note

    def test_auto_degrades_to_serial_on_one_cpu(self, monkeypatch):
        import repro.parallel.pool as pool_mod

        monkeypatch.setattr(pool_mod, "effective_cpu_count", lambda: 1)
        count, note = resolve_workers("auto")
        assert count == 1
        assert "serial" in note

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            resolve_workers(-2)
