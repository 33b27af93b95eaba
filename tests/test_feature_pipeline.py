"""Differential tests for the incremental candidate pipeline.

The batched/cached featurization path (``CandidatePipeline``) must be a
pure performance transform: its per-corner design matrices have to match
the scalar featurizer's (``compute_move_components``, uncached) rows to
1e-9 ps — on fresh trees, on randomized move subsets, and (critically)
after committed moves invalidate part of the cache.  Trajectory identity
against the scalar oracles is checked in ``tests/test_feature_kernel.py``.
``predict_matrix``, the one predict call, is tested here too.
"""

import random

import numpy as np
import pytest

from repro.core.local_opt import LocalOptConfig, LocalOptimizer
from repro.core.ml.features import compute_move_components
from repro.core.ml.pipeline import CandidatePipeline, FeatureBatch, move_dependencies
from repro.core.ml.training import train_predictor
from repro.core.moves import MoveType, enumerate_moves
from repro.core.objective import SkewVariationProblem
from repro.obs.metrics import minor_faults
from repro.testcases.cls1 import build_cls1
from repro.testcases.mini import build_mini

#: Agreement bound between the batched and per-move paths (ps).
TOL = 1e-9


def _assert_batch_matches(problem, tree, timings, moves, batch):
    """Pipeline output vs fresh per-move featurization, all corners."""
    library = problem.design.library
    names = [corner.name for corner in library.corners]
    reference = [compute_move_components(tree, library, timings, m) for m in moves]
    expected = FeatureBatch.assemble(reference, names)
    for name in names:
        ref = expected.matrices[name]
        got = batch.matrices[name]
        assert got.shape == ref.shape
        assert float(np.max(np.abs(got - ref))) <= TOL
    # The scorer also reads each component's side-effect row, the star
    # variant's sibling deltas, and analytical predictors the wire-only
    # deltas; those rows must agree too.
    for comp, feats in zip(batch.components, reference):
        assert float(np.max(np.abs(comp.side - feats.side))) <= TOL
        assert float(np.max(np.abs(comp.wire_only - feats.wire_only))) <= TOL


def _invalidate_like_optimizer(problem, pipeline, move):
    """Mirror ``LocalOptimizer._invalidate_pipeline`` after a commit."""
    touched = problem.engine().last_touched
    if touched is None:
        pipeline.flush()
        return
    pipeline.invalidate(
        touched_local=touched[0],
        touched_arrival=touched[1],
        structural=move.type is MoveType.SURGERY,
    )


def _run_rounds(design, rounds, subset, seed):
    """Featurize / commit / invalidate / re-featurize and diff each round."""
    problem = SkewVariationProblem.create(design)
    tree = design.tree.clone()
    result = problem.evaluate(tree)
    pipeline = CandidatePipeline(problem.design.library)
    rng = random.Random(seed)

    for _ in range(rounds):
        moves = enumerate_moves(tree, problem.design.library)
        if len(moves) > subset:
            moves = rng.sample(moves, subset)
        batch = pipeline.featurize(tree, result.per_corner, moves)
        _assert_batch_matches(problem, tree, result.per_corner, moves, batch)
        # Commit a random candidate and invalidate exactly like the
        # optimizer does; the survivors must still match fresh
        # extraction against the *new* timing snapshot next round.
        move = rng.choice(moves)
        result = problem.commit_move(tree, move)
        _invalidate_like_optimizer(problem, pipeline, move)
    return pipeline


class TestBatchEqualsPerMove:
    def test_mini_full_batch(self, mini_problem):
        problem = mini_problem
        tree = problem.design.tree
        result = problem.baseline
        moves = enumerate_moves(tree, problem.design.library)
        pipeline = CandidatePipeline(problem.design.library)
        batch = pipeline.featurize(tree, result.per_corner, moves)
        _assert_batch_matches(problem, tree, result.per_corner, moves, batch)
        assert pipeline.stats["move_misses"] == len(moves)

    def test_repeat_featurize_all_hits_and_identical(self, mini_problem):
        problem = mini_problem
        tree = problem.design.tree
        result = problem.baseline
        moves = enumerate_moves(tree, problem.design.library)
        pipeline = CandidatePipeline(problem.design.library)
        first = pipeline.featurize(tree, result.per_corner, moves)
        second = pipeline.featurize(tree, result.per_corner, moves)
        assert pipeline.stats["move_hits"] == len(moves)
        for corner in problem.design.library.corners:
            assert np.array_equal(
                first.matrices[corner.name], second.matrices[corner.name]
            )

    def test_mini_after_committed_moves(self):
        _run_rounds(build_mini(), rounds=4, subset=60, seed=7)

    def test_cls1_randomized_batches_after_commits(self):
        pipeline = _run_rounds(build_cls1(1), rounds=3, subset=60, seed=11)
        # On CLS1v1 the dirty frontier is a sliver of the tree, so
        # cross-round reuse must actually happen.
        assert pipeline.stats["move_hits"] > 0


class TestInvalidation:
    def test_dependencies_cover_commit_frontier(self, mini_problem):
        """A cached move on the committed buffer itself must be evicted."""
        problem = SkewVariationProblem.create(build_mini())
        tree = problem.design.tree.clone()
        result = problem.evaluate(tree)
        moves = enumerate_moves(tree, problem.design.library)
        displace = [m for m in moves if m.type is not MoveType.SURGERY]
        assert displace
        committed = displace[0]
        same_buffer = [m for m in moves if m.buffer == committed.buffer]
        pipeline = CandidatePipeline(problem.design.library)
        pipeline.featurize(tree, result.per_corner, moves)
        result = problem.commit_move(tree, committed)
        _invalidate_like_optimizer(problem, pipeline, committed)
        for move in same_buffer:
            assert move not in pipeline._components

    def test_surgery_commit_flushes(self):
        problem = SkewVariationProblem.create(build_mini())
        tree = problem.design.tree.clone()
        result = problem.evaluate(tree)
        moves = enumerate_moves(tree, problem.design.library)
        surgeries = [m for m in moves if m.type is MoveType.SURGERY]
        if not surgeries:
            pytest.skip("MINI enumerates no surgery moves")
        pipeline = CandidatePipeline(problem.design.library)
        pipeline.featurize(tree, result.per_corner, moves)
        result = problem.commit_move(tree, surgeries[0])
        _invalidate_like_optimizer(problem, pipeline, surgeries[0])
        assert len(pipeline._components) == 0
        assert pipeline.stats["flushes"] >= 1

    def test_move_dependencies_shape(self, mini_problem):
        tree = mini_problem.design.tree
        moves = enumerate_moves(tree, mini_problem.design.library)
        for move in moves:
            local, arrival = move_dependencies(tree, move)
            assert move.buffer in local
            if move.type is MoveType.SURGERY:
                assert move.new_parent in arrival and move.buffer in arrival
            else:
                assert not arrival


class TestPredictMatrix:
    @pytest.mark.parametrize("kind", ["hsm", "full_rsmt_d2m", "rsmt_d2m"])
    def test_rows_equal_one_row_batches(self, kind, mini_problem, library_cls1, request):
        """Each move predicted alone gives its row of the whole batch.

        A learned model's matrix products round differently for a
        different row count, so HSM rows may move in the last bits
        (DESIGN §5); analytical kinds read fixed deltas and match
        exactly.
        """
        if kind == "hsm":
            predictor = request.getfixturevalue("hsm_predictor")
        else:
            predictor = train_predictor(library_cls1, [], kind)
        tree = mini_problem.design.tree
        result = mini_problem.baseline
        moves = enumerate_moves(tree, mini_problem.design.library)
        batch = CandidatePipeline(mini_problem.design.library).featurize(
            tree, result.per_corner, moves
        )
        matrix = predictor.predict_matrix(batch)
        names = [c.name for c in mini_problem.design.library.corners]
        assert list(predictor.corner_names) == names
        assert matrix.shape == (len(moves), len(names))
        assert matrix.dtype == np.float64
        alone = np.vstack(
            [
                predictor.predict_matrix(FeatureBatch.assemble([comp], names))
                for comp in batch.components
            ]
        )
        if predictor.is_learned:
            assert float(np.max(np.abs(alone - matrix))) <= TOL
        else:
            assert alone.tolist() == matrix.tolist()

    def test_empty_batch(self, hsm_predictor):
        batch = FeatureBatch.assemble([], hsm_predictor.corner_names)
        assert hsm_predictor.predict_matrix(batch).shape == (
            0,
            len(hsm_predictor.corner_names),
        )


class TestTrajectoryIdentity:
    def test_stats_payload_present(self, library_cls1):
        predictor = train_predictor(library_cls1, [], "full_rsmt_d2m")
        problem = SkewVariationProblem.create(build_mini())
        optimizer = LocalOptimizer(
            problem, predictor, LocalOptConfig(max_iterations=2)
        )
        outcome = optimizer.run()
        stats = outcome.stats
        assert stats is not None
        assert set(stats) - {"minor_faults"} == {
            "stage",
            "pipeline",
            "engine",
            "parallel",
            "workers",
            "gc",
        }
        assert ("minor_faults" in stats) == (minor_faults() is not None)
        assert stats["parallel"] is None  # serial run: no pool engaged
        assert stats["workers"]["effective"] == 1
        assert "featurize" in stats["stage"]["seconds"]
        assert "predict" in stats["stage"]["seconds"]
        assert stats["pipeline"] is not None
        assert stats["pipeline"]["move_misses"] > 0
        assert stats["pipeline"]["kernel"]["kernel_moves"] > 0
