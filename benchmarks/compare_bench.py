"""Perf-regression gate: diff fresh smoke-bench JSONs against baselines.

Usage (what the CI perf-smoke job runs)::

    # snapshot the committed baselines before the benches overwrite them
    cp -r benchmarks/results /tmp/bench_baseline
    PYTHONPATH=src python -m pytest benchmarks -k smoke -q
    python benchmarks/compare_bench.py \
        --baseline /tmp/bench_baseline --fresh benchmarks/results

Each tracked bench exposes ratio metrics (speedups) that are largely
machine-independent, so a fresh run on a different box is comparable to
the committed baseline.  The gate fails (exit 1) when any tracked
metric drops more than ``--tolerance`` (default 25%) below its
baseline, and when a correctness flag (``trajectory_identical``)
regresses to false.  Missing fresh files fail the gate — a bench that
silently stopped producing output is itself a regression; missing
*baselines* only warn, so brand-new benches can land before their first
committed baseline.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: file name -> ratio metrics gated at (1 - tolerance) * baseline.
TRACKED = {
    "BENCH_timer_smoke.json": ("speedup",),
    "BENCH_localopt_smoke.json": ("speedup",),
    "BENCH_parallel_smoke.json": (),
    "BENCH_pool_smoke.json": (),
    "BENCH_kernel_smoke.json": ("speedup",),
    "BENCH_eco_smoke.json": ("speedup",),
    "BENCH_features_smoke.json": ("speedup",),
    "BENCH_characterize_smoke.json": ("speedup",),
    "BENCH_training_smoke.json": ("speedup",),
}

#: file name -> boolean flags that must not regress to false.
FLAGS = {
    "BENCH_localopt_smoke.json": ("trajectory_identical",),
    "BENCH_parallel_smoke.json": ("trajectory_identical",),
    "BENCH_pool_smoke.json": ("verdicts_identical",),
    "BENCH_kernel_smoke.json": ("kernel_identical",),
    "BENCH_eco_smoke.json": ("kernel_identical",),
    "BENCH_features_smoke.json": ("kernel_identical", "pooled_identical"),
    "BENCH_characterize_smoke.json": ("kernel_identical",),
    "BENCH_training_smoke.json": ("labels_identical", "weights_identical"),
    "BENCH_trace_smoke.json": (
        "schema_valid",
        "span_tree_stable",
        "result_identical",
    ),
}

#: file name -> {metric: absolute ceiling}.  Ceilings are baseline-free:
#: the metric is a bounded contract (the trace-overhead budget), not a
#: machine-relative ratio, so the fresh value alone is gated.
CEILINGS = {
    "BENCH_trace_smoke.json": {
        "overhead_pct": 2.0,
        # The background resource sampler at its default interval must
        # fit inside the same traced-overhead budget.
        "sampler_overhead_pct": 2.0,
    },
}

#: file name -> {metric: absolute minimum}.  Floors are baseline-free
#: like ceilings, but lower bounds: the metric is a structural speedup
#: (work the optimization removes outright, not a machine-relative
#: ratio), so the fresh value must clear the acceptance bar on its own.
FLOORS = {
    "BENCH_pool_smoke.json": {
        "respawn_speedup": 5.0,
    },
}


def load(path: pathlib.Path):
    with open(path) as handle:
        return json.load(handle)


def compare(baseline_dir: pathlib.Path, fresh_dir: pathlib.Path, tolerance: float):
    failures = []
    warnings = []
    for name in sorted(set(TRACKED) | set(FLAGS) | set(CEILINGS) | set(FLOORS)):
        fresh_path = fresh_dir / name
        base_path = baseline_dir / name
        if not fresh_path.exists():
            failures.append(f"{name}: fresh result missing ({fresh_path})")
            continue
        fresh = load(fresh_path)
        for flag in FLAGS.get(name, ()):
            if not fresh.get(flag, False):
                failures.append(f"{name}: {flag} is false")
        for metric, ceiling in CEILINGS.get(name, {}).items():
            fresh_value = fresh.get(metric)
            if fresh_value is None:
                failures.append(f"{name}: fresh result lacks {metric!r}")
                continue
            status = "OK" if float(fresh_value) <= ceiling else "REGRESSION"
            line = (
                f"{name}: {metric} fresh={fresh_value:.2f} "
                f"ceiling={ceiling:.2f} [{status}]"
            )
            print(line)
            if status == "REGRESSION":
                failures.append(line)
        for metric, floor in FLOORS.get(name, {}).items():
            fresh_value = fresh.get(metric)
            if fresh_value is None:
                failures.append(f"{name}: fresh result lacks {metric!r}")
                continue
            status = "OK" if float(fresh_value) >= floor else "REGRESSION"
            line = (
                f"{name}: {metric} fresh={fresh_value:.2f} "
                f"floor={floor:.2f} [{status}]"
            )
            print(line)
            if status == "REGRESSION":
                failures.append(line)
        if not base_path.exists():
            warnings.append(f"{name}: no committed baseline yet; skipping ratios")
            continue
        base = load(base_path)
        for metric in TRACKED.get(name, ()):
            base_value = base.get(metric)
            fresh_value = fresh.get(metric)
            if base_value is None:
                warnings.append(f"{name}: baseline lacks {metric!r}; skipping")
                continue
            if fresh_value is None:
                failures.append(f"{name}: fresh result lacks {metric!r}")
                continue
            floor = (1.0 - tolerance) * float(base_value)
            status = "OK" if float(fresh_value) >= floor else "REGRESSION"
            line = (
                f"{name}: {metric} baseline={base_value:.2f} "
                f"fresh={fresh_value:.2f} floor={floor:.2f} [{status}]"
            )
            print(line)
            if status == "REGRESSION":
                failures.append(line)
    return failures, warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        required=True,
        help="directory holding the committed baseline JSONs",
    )
    parser.add_argument(
        "--fresh",
        type=pathlib.Path,
        required=True,
        help="directory holding the freshly produced JSONs",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional drop below baseline (default 0.25)",
    )
    args = parser.parse_args(argv)

    failures, warnings = compare(args.baseline, args.fresh, args.tolerance)
    for warning in warnings:
        print(f"WARNING: {warning}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf gate: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
