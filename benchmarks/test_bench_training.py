"""Bench: bulk HSM predictor training vs the per-corner, per-layer oracles.

Every ``repro optimize --predictor hsm`` run trains its per-corner
delta-latency models on artificial testcases labelled by the golden
timer (paper Section 4.2).  Production labels each training tree and
each trial clone with one all-corner golden analysis, and trains the
corners' ANNs in lockstep groups (every corner's cross-validation fold
fits in one stack, their full-data refits in another), one Adam update
per step over the group's parameter matrix.  The oracles in
``tests/oracles.py`` run a per-corner analysis (one compile and one
propagation per corner) and one network at a time with the per-layer
Adam loop instead.  Both produce the same labels, feature rows and
network weights bit for bit, so this bench measures pure speedup.

Writes ``results/BENCH_training.json`` for the CLS1v2 library at the
``repro optimize`` training-set size (16 cases x 12 moves) and asserts a
>= 1.4x floor on dataset plus fit.  A round runs each oracle leg next to
its production leg, so drift in host speed hits both sides of a ratio
alike; a sub-second leg is timed as the best of a few back-to-back runs
(``_util.best_of``).  Times are medians of the rounds (three full, seven
smoke) and each speedup is the median of the rounds' ratios.  A MINI
smoke variant (``-k smoke``) writes ``BENCH_training_smoke.json`` for
CI.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from _util import best_of, emit, median_ms, median_speedup, write_record

from repro.core.ml.dataset import dataset_arrays, generate_dataset
from repro.core.ml.pipeline import FeatureBatch
from repro.core.ml.training import train_predictor
from repro.testcases.cls1 import build_cls1
from repro.testcases.mini import build_mini
from tests.oracles import use_per_corner_labels, use_per_layer_adam

#: Required speedup of bulk training (dataset + fit) over the oracles.
SPEEDUP_FLOOR = 1.4

#: Rounds of every leg, full and smoke; times and ratios are medians
#: over the rounds.
ROUNDS = 3
SMOKE_ROUNDS = 7


def _timed(call, oracle=None):
    """One leg: ``call()`` (with ``oracle`` patched in), best of a few
    back-to-back runs when sub-second."""

    def once():
        with pytest.MonkeyPatch.context() as patch:
            if oracle is not None:
                oracle(patch)
            t0 = time.perf_counter()
            out = call()
            return out, time.perf_counter() - t0

    return best_of(once)


def _labels_identical(got, want, corner_names):
    return [s.target for s in got] == [s.target for s in want] and all(
        np.array_equal(dataset_arrays(got, name)[0], dataset_arrays(want, name)[0])
        for name in corner_names
    )


def _weights_identical(got, want, samples):
    for name in got.corner_names:
        a, b = got.models[name], want.models[name]
        if a.cv_mse != b.cv_mse or a.weights != b.weights:
            return False
        ann_a, ann_b = a._models[0], b._models[0]
        params_a = ann_a._weights + ann_a._biases
        params_b = ann_b._weights + ann_b._biases
        if not all(np.array_equal(p, q) for p, q in zip(params_a, params_b)):
            return False
    batch = FeatureBatch.assemble([s.features for s in samples], got.corner_names)
    return np.array_equal(got.predict_matrix(batch), want.predict_matrix(batch))


def _run_comparison(design, n_cases, moves_per_case, rounds):
    library = design.library
    corner_names = [c.name for c in library.corners]

    def dataset():
        return generate_dataset(library, n_cases=n_cases, moves_per_case=moves_per_case)

    timed = []
    labels_identical = weights_identical = True
    for _ in range(rounds):
        ref_samples, ref_dataset_s = _timed(dataset, use_per_corner_labels)
        samples, dataset_s = _timed(dataset)

        def fit():
            return train_predictor(library, samples, "hsm")

        ref_predictor, ref_fit_s = _timed(fit, use_per_layer_adam)
        predictor, fit_s = _timed(fit)
        labels_identical &= _labels_identical(samples, ref_samples, corner_names)
        weights_identical &= _weights_identical(predictor, ref_predictor, samples)
        timed.append(
            {
                "ref_dataset": ref_dataset_s,
                "dataset": dataset_s,
                "ref_fit": ref_fit_s,
                "fit": fit_s,
                "ref": ref_dataset_s + ref_fit_s,
                "bulk": dataset_s + fit_s,
            }
        )

    return {
        "design": design.name,
        "corners": corner_names,
        "n_cases": n_cases,
        "moves_per_case": moves_per_case,
        "samples": len(samples),
        "labels_identical": labels_identical,
        "weights_identical": weights_identical,
        "rounds": rounds,
        "reference_dataset_ms": median_ms(timed, "ref_dataset"),
        "bulk_dataset_ms": median_ms(timed, "dataset"),
        "reference_fit_ms": median_ms(timed, "ref_fit"),
        "bulk_fit_ms": median_ms(timed, "fit"),
        "reference_ms": median_ms(timed, "ref"),
        "bulk_ms": median_ms(timed, "bulk"),
        "dataset_speedup": median_speedup(timed, "ref_dataset", "dataset"),
        "fit_speedup": median_speedup(timed, "ref_fit", "fit"),
        "speedup": median_speedup(timed, "ref", "bulk"),
    }


def _report(tag, record):
    lines = [
        f"BENCH training ({record['design']}): HSM predictor, "
        f"{len(record['corners'])} corners, {record['n_cases']} cases x "
        f"{record['moves_per_case']} moves = {record['samples']} samples",
        f"  dataset : {record['reference_dataset_ms']:9.3f} -> "
        f"{record['bulk_dataset_ms']:9.3f} ms ({record['dataset_speedup']:.2f}x)",
        f"  fit     : {record['reference_fit_ms']:9.3f} -> "
        f"{record['bulk_fit_ms']:9.3f} ms ({record['fit_speedup']:.2f}x)",
        f"  total   : {record['reference_ms']:9.3f} -> "
        f"{record['bulk_ms']:9.3f} ms ({record['speedup']:.2f}x)",
        f"  labels identical  : {record['labels_identical']}",
        f"  weights identical : {record['weights_identical']}",
    ]
    emit(tag, "\n".join(lines))


def test_bench_training_cls1v2():
    """Acceptance: bit-identical training and >= 1.4x on CLS1v2 at 16 x 12."""
    record = _run_comparison(build_cls1(2), n_cases=16, moves_per_case=12, rounds=ROUNDS)
    _report("BENCH_training", record)
    write_record("BENCH_training", record)
    assert record["labels_identical"] and record["weights_identical"], record
    assert record["speedup"] >= SPEEDUP_FLOOR, record


def test_bench_training_smoke():
    """MINI-scale smoke (CI): the same identity and floor."""
    record = _run_comparison(
        build_mini(), n_cases=8, moves_per_case=8, rounds=SMOKE_ROUNDS
    )
    _report("BENCH_training_smoke", record)
    write_record("BENCH_training_smoke", record)
    assert record["labels_identical"] and record["weights_identical"], record
    assert record["speedup"] >= SPEEDUP_FLOOR, record
