"""Perf-regression gate: check fresh BENCH records against bounds and baselines.

Usage (what the CI perf-smoke job runs; the nightly job runs the full
benches instead and passes ``--tolerance 0.5``)::

    # snapshot the committed baselines before the benches overwrite them
    cp -r benchmarks/results /tmp/bench_baseline
    PYTHONPATH=src python -m pytest benchmarks -k smoke -q
    python benchmarks/compare_bench.py \
        --baseline /tmp/bench_baseline --fresh benchmarks/results

Every bench ``x`` in :data:`BENCHES` writes a smoke record
``BENCH_x_smoke.json`` and a full record ``BENCH_x.json``.  Each record
is checked the same way:

* every flag in :data:`FLAGS` must be true;
* every metric in :data:`CEILINGS` must stay under its absolute bound
  (baseline-free contracts);
* every top-level number whose key contains ``speedup`` (higher is
  better) or ends in ``_cost_ms`` or ``_cost_ratio`` (lower is better)
  may move in its bad direction by at most ``--tolerance`` (default
  25%) of the same key in the baseline record.  A zero baseline is never gated relatively: the
  drift is undefined, and absolute contracts belong to the ceilings.

The trace bench's ``*overhead_pct`` keys divide the tracer's own cost by
the traced flow's CPU time, so a faster flow raises them while the
tracer costs the same: they are gated by their absolute ceilings only,
and the costs themselves (``tracer_cost_ms``, ``sampler_cost_ms``) by
the relative rule.

The smoke record is required: a missing fresh one fails, since a bench
that silently stopped producing output is itself a regression.  The full
record is checked whenever the fresh directory holds it.  A missing
*baseline* only warns, so brand-new benches can land before their first
committed baseline.  Exit status: 0 when every check passes, 1 when any
fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: Every gated bench, by name.
BENCHES = (
    "characterize",
    "eco",
    "features",
    "kernel",
    "localopt",
    "parallel",
    "pool",
    "timer",
    "trace",
    "training",
)

#: bench name -> boolean flags that must be true.
FLAGS = {
    "localopt": ("trajectory_identical",),
    "parallel": ("trajectory_identical",),
    "pool": ("verdicts_identical",),
    "kernel": ("kernel_identical",),
    "eco": ("kernel_identical",),
    "features": ("kernel_identical", "pooled_identical"),
    "characterize": ("kernel_identical",),
    "training": ("labels_identical", "weights_identical"),
    "trace": ("schema_valid", "span_tree_stable", "result_identical"),
}

#: bench name -> {metric: absolute ceiling}.  The metric is a bounded
#: contract (the trace-overhead budget), not a machine-relative ratio,
#: so the fresh value alone is gated.
CEILINGS = {
    "trace": {
        "overhead_pct": 2.0,
        # The background resource sampler at its default interval must
        # fit inside the same traced-overhead budget.
        "sampler_overhead_pct": 2.0,
    },
}

def direction(metric: str):
    """``"higher"`` for speedups, ``"lower"`` for costs, else None."""
    lowered = metric.lower()
    if "speedup" in lowered:
        return "higher"
    if lowered.endswith(("_cost_ms", "_cost_ratio")):
        return "lower"
    return None


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load(path: pathlib.Path) -> dict:
    """One record; raises ValueError when it is not a JSON object."""
    with open(path) as handle:
        record = json.load(handle)
    if not isinstance(record, dict):
        raise ValueError("not a JSON object")
    return record


def check_record(bench, fresh, base, name, tolerance, failures, warnings):
    """Append the failures and warnings of one fresh record.

    ``base`` is the baseline record, or None when there is none.
    """

    def bound(metric, value, limit, kind, ok, baseline=None):
        prefix = "" if baseline is None else f"baseline={baseline:.2f} "
        status = "OK" if ok else "REGRESSION"
        line = (
            f"{name}: {metric} {prefix}fresh={value:.2f} "
            f"{kind}={limit:.2f} [{status}]"
        )
        print(line)
        if not ok:
            failures.append(line)

    for flag in FLAGS.get(bench, ()):
        if not fresh.get(flag, False):
            failures.append(f"{name}: {flag} is false")
    for metric, limit in CEILINGS.get(bench, {}).items():
        value = fresh.get(metric)
        if not _number(value):
            failures.append(f"{name}: fresh result lacks {metric!r}")
            continue
        bound(metric, value, limit, "ceiling", value <= limit)
    if base is None:
        warnings.append(f"{name}: no committed baseline yet; skipping ratios")
        return
    for metric in sorted(set(base) | set(fresh)):
        better = direction(metric)
        if better is None:
            continue
        base_value, value = base.get(metric), fresh.get(metric)
        if not _number(base_value):
            if _number(value):
                warnings.append(f"{name}: baseline lacks {metric!r}; skipping")
            continue
        if not _number(value):
            failures.append(f"{name}: fresh result lacks {metric!r}")
            continue
        if base_value == 0:
            print(
                f"{name}: {metric} baseline=0.00 fresh={value:.2f} "
                "[not gated: zero baseline]"
            )
            continue
        slack = tolerance * abs(base_value)
        if better == "higher":
            bound(metric, value, base_value - slack, "floor",
                  value >= base_value - slack, base_value)
        else:
            bound(metric, value, base_value + slack, "ceiling",
                  value <= base_value + slack, base_value)


def compare(baseline_dir: pathlib.Path, fresh_dir: pathlib.Path, tolerance: float):
    """(failures, warnings) over the smoke and full record of every bench."""
    failures = []
    warnings = []
    for bench in BENCHES:
        for name, required in (
            (f"BENCH_{bench}_smoke.json", True),
            (f"BENCH_{bench}.json", False),
        ):
            fresh_path = fresh_dir / name
            if not fresh_path.exists():
                if required:
                    failures.append(f"{name}: fresh result missing ({fresh_path})")
                continue
            base_path = baseline_dir / name
            try:
                fresh = load(fresh_path)
                base = load(base_path) if base_path.exists() else None
            except (OSError, ValueError) as exc:
                failures.append(f"{name}: cannot read record ({exc})")
                continue
            check_record(bench, fresh, base, name, tolerance, failures, warnings)
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
        help="allowed fractional move in the bad direction (default 0.25)",
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
