"""Figure 5: predicted vs actual latency and percentage-error histogram.

Trains the per-corner HSM delta-latency models on artificial testcases
and evaluates them on held-out moves: (a) predicted-vs-actual scatter
summary, (b) percentage error histogram.

Paper shape: predictions hug the diagonal; mean error ~2.8% across
corners with worst-case tails around +-20%.
"""

from __future__ import annotations

import numpy as np
from _util import emit

from repro.analysis.histograms import Histogram
from repro.analysis.report import render_scatter_summary, render_table
from repro.core.ml.dataset import generate_dataset
from repro.core.ml.pipeline import FeatureBatch
from repro.core.ml.training import evaluate_predictor, train_predictor
from repro.tech.library import default_library


def test_fig5_model_accuracy(benchmark):
    library = default_library(("c0", "c1", "c3"))
    samples = generate_dataset(library, n_cases=30, moves_per_case=16, seed=777)
    split = int(len(samples) * 0.8)
    train, test = samples[:split], samples[split:]
    predictor = train_predictor(library, train, kind="hsm")
    reports = evaluate_predictor(predictor, test)

    sections = []
    rows = []
    for name, report in reports.items():
        sections.append(
            render_scatter_summary(
                f"Figure 5(a) — predicted vs actual delta-latency, corner {name}",
                report.predicted,
                report.actual,
            )
        )
        hist = Histogram.of(report.percent_errors, bins=12)
        sections.append(
            hist.render(label=f"Figure 5(b) — % error histogram, corner {name}")
        )
        rows.append(
            [
                name,
                f"{report.mean_abs_error_ps:.2f}",
                f"{report.mean_abs_percent_error:.2f}%",
                f"{np.max(np.abs(report.percent_errors)):.1f}%",
            ]
        )
        # Shape: errors are single-digit percent on average, like the
        # paper's 2.8% (we allow headroom for the smaller training set).
        assert report.mean_abs_percent_error < 15.0

    summary = render_table(
        "Figure 5 summary (held-out moves)",
        ["corner", "MAE ps", "mean |%err|", "max |%err|"],
        rows,
    )
    emit("fig5_model_accuracy", summary + "\n\n" + "\n\n".join(sections))

    batch = FeatureBatch.assemble([s.features for s in test], predictor.corner_names)
    benchmark(lambda: predictor.predict_matrix(batch))
