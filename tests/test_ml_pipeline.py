"""Feature extraction, dataset generation, and predictor training."""

import numpy as np
import pytest

from repro.core.ml.dataset import (
    dataset_arrays,
    generate_case,
    generate_dataset,
    generate_tree_case,
    golden_subtree_delta,
)
from repro.core.ml.features import (
    ESTIMATOR_VARIANTS,
    FEATURE_NAMES,
    compute_move_components,
)
from repro.core.ml.pipeline import FeatureBatch
from repro.core.ml.training import (
    ANALYTICAL_KINDS,
    AccuracyReport,
    evaluate_predictor,
    train_predictor,
)
from repro.core.moves import MoveType, enumerate_moves
from repro.sta.timer import GoldenTimer
from tests.oracles import (
    PARITY_LIBRARIES,
    reference_golden_subtree_delta,
    use_per_corner_labels,
)


@pytest.fixture(scope="module")
def tiny_dataset(library_cls1):
    return generate_dataset(
        library_cls1, n_cases=6, moves_per_case=8, seed=21
    )


class TestArtificialCases:
    def test_case_in_paper_parameter_ranges(self, library_cls1):
        rng = np.random.default_rng(4)
        case = generate_case(library_cls1, rng, last_stage=False)
        case.tree.validate()
        fanout = len(case.tree.children(case.target_buffer))
        assert 1 <= fanout <= 5

    def test_last_stage_case_fanout(self, library_cls1):
        rng = np.random.default_rng(4)
        case = generate_case(library_cls1, rng, last_stage=True)
        fanout = len(case.tree.children(case.target_buffer))
        # Last-stage range covers the paper's 20-40 plus the smaller leaf
        # clusters our scaled CTS emits.
        assert 6 <= fanout <= 40

    def test_tree_case_targets_real_buffer(self, library_cls1):
        rng = np.random.default_rng(4)
        case = generate_tree_case(library_cls1, rng)
        case.tree.validate()
        assert case.target_buffer in case.tree.buffers()


class TestFeatures:
    def test_vector_length_matches_names(self, library_cls1):
        rng = np.random.default_rng(6)
        case = generate_case(library_cls1, rng)
        timer = GoldenTimer(library_cls1)
        timings = {
            c.name: timer.analyze_corner(case.tree, c)
            for c in library_cls1.corners
        }
        moves = enumerate_moves(case.tree, library_cls1, [case.target_buffer])
        comp = compute_move_components(case.tree, library_cls1, timings, moves[0])
        names = [corner.name for corner in library_cls1.corners]
        batch = FeatureBatch.assemble([comp], names)
        for name in names:
            assert batch.matrices[name].shape == (1, len(FEATURE_NAMES))

    def test_all_variants_present(self, tiny_dataset, library_cls1):
        """One subtree and one wire-only delta per variant and corner."""
        feats = tiny_dataset[0].features
        shape = (len(library_cls1.corners), len(ESTIMATOR_VARIANTS))
        assert feats.estimates.shape == feats.wire_only.shape == shape
        assert np.isfinite(feats.estimates).all() and np.isfinite(feats.wire_only).all()

    def test_feature_matrix_stacks(self, tiny_dataset, library_cls1):
        names = [corner.name for corner in library_cls1.corners]
        batch = FeatureBatch.assemble([s.features for s in tiny_dataset[:5]], names)
        assert batch.matrices["c0"].shape == (5, len(FEATURE_NAMES))


class TestDataset:
    def test_sample_count(self, tiny_dataset):
        assert len(tiny_dataset) == 6 * 8

    def test_targets_finite_all_corners(self, tiny_dataset, library_cls1):
        for sample in tiny_dataset:
            for corner in library_cls1.corners:
                assert np.isfinite(sample.target[corner.name])

    def test_targets_nontrivial(self, tiny_dataset):
        y = np.asarray([s.target["c0"] for s in tiny_dataset])
        assert np.std(y) > 0.5  # moves actually change latency

    def test_arrays(self, tiny_dataset):
        x, y = dataset_arrays(tiny_dataset, "c1")
        assert len(x) == len(y) == len(tiny_dataset)

    def test_deterministic(self, library_cls1):
        a = generate_dataset(library_cls1, n_cases=2, moves_per_case=4, seed=9)
        b = generate_dataset(library_cls1, n_cases=2, moves_per_case=4, seed=9)
        assert [s.target for s in a] == [s.target for s in b]


class TestLabelParity:
    """Labels from one all-corner analysis per tree equal per-corner ones."""

    @pytest.mark.parametrize("name", ["CLS1v1", "MINI/4"])
    def test_subtree_delta_matches_per_corner_oracle(self, name):
        library = PARITY_LIBRARIES[name]()
        # Seed 11 synthesizes a tree with surgery candidates, so all three
        # Table-2 move types are covered (the default training set samples
        # no type-III move).
        case = generate_tree_case(library, np.random.default_rng(11))
        moves = enumerate_moves(case.tree, library, buffers=list(case.tree.buffers()))
        timer = GoldenTimer(library)
        before = timer.analyze_all_corners(case.tree)
        for move_type in MoveType:
            move = next(m for m in moves if m.type is move_type)
            got = golden_subtree_delta(timer, case.tree, case.legalizer, move, before)
            want = reference_golden_subtree_delta(
                timer, case.tree, case.legalizer, move, before
            )
            assert list(got) == [c.name for c in library.corners]
            assert got == want, move_type

    def test_dataset_matches_per_corner_oracle(
        self, tiny_dataset, library_cls1, monkeypatch
    ):
        use_per_corner_labels(monkeypatch)
        reference = generate_dataset(
            library_cls1, n_cases=6, moves_per_case=8, seed=21
        )
        assert [s.target for s in tiny_dataset] == [s.target for s in reference]
        for corner in library_cls1.corners:
            assert np.array_equal(
                dataset_arrays(tiny_dataset, corner.name)[0],
                dataset_arrays(reference, corner.name)[0],
            )


class TestTraining:
    def test_learned_predictor_beats_trivial(self, tiny_dataset, library_cls1):
        split = int(len(tiny_dataset) * 0.75)
        predictor = train_predictor(library_cls1, tiny_dataset[:split], "svr")
        reports = evaluate_predictor(predictor, tiny_dataset[split:])
        for name, report in reports.items():
            trivial = np.mean(np.abs(np.asarray(report.actual)))
            assert report.mean_abs_error_ps < trivial * 1.5

    def test_analytical_kinds_need_no_data(self, library_cls1):
        for kind in ANALYTICAL_KINDS:
            predictor = train_predictor(library_cls1, [], kind)
            assert not predictor.is_learned

    def test_analytical_prediction_reads_wire_only_impact(
        self, tiny_dataset, library_cls1
    ):
        """Figure-6 analytical comparators are the raw wire-delay deltas."""
        predictor = train_predictor(library_cls1, [], "rsmt_d2m")
        sample = tiny_dataset[0]
        batch = FeatureBatch.assemble([sample.features], predictor.corner_names)
        pred = predictor.predict_matrix(batch)[0]
        column = ESTIMATOR_VARIANTS.index(("rsmt", "d2m"))
        assert pred.tolist() == sample.features.wire_only[:, column].tolist()

    def test_unknown_kind_rejected(self, library_cls1):
        with pytest.raises(ValueError):
            train_predictor(library_cls1, [], "forest")

    def test_full_analytical_reads_full_pipeline(self, tiny_dataset, library_cls1):
        """``full_*`` kinds use Liberty/PERI-updated estimates."""
        predictor = train_predictor(library_cls1, [], "full_rsmt_d2m")
        assert not predictor.is_learned
        sample = tiny_dataset[0]
        batch = FeatureBatch.assemble([sample.features], predictor.corner_names)
        pred = predictor.predict_matrix(batch)[0]
        column = ESTIMATOR_VARIANTS.index(("rsmt", "d2m"))
        assert pred.tolist() == sample.features.estimates[:, column].tolist()

    def test_learned_requires_samples(self, library_cls1):
        with pytest.raises(ValueError):
            train_predictor(library_cls1, [], "svr")

    def test_accuracy_report_stats(self):
        report = AccuracyReport(
            corner_name="c0",
            predicted=(10.0, 20.0, 30.0),
            actual=(12.0, 18.0, 33.0),
        )
        assert report.mean_abs_error_ps == pytest.approx((2 + 2 + 3) / 3)
        assert len(report.percent_errors) == 3
