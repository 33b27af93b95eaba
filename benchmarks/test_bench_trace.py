"""Bench: trace-overhead contract for the observability layer.

Every span site in the optimization loop goes through the process-wide
active tracer, which defaults to a shared no-op (``NullTracer``) — so an
untraced run pays one attribute lookup per site.  This bench runs the
same local flow traced and untraced (best-of-N walls, fresh design per
run so no state leaks between repetitions), and records

* ``overhead_pct`` — traced wall over untraced wall, gated at <= 2% by
  ``compare_bench.py`` (the CI perf-smoke job);
* ``sampler_overhead_pct`` — the same flow traced *with* the background
  resource sampler at its default interval, against the untraced wall;
  the sampler must fit inside the same <= 2% ceiling (its thread only
  reads /proc and plain attributes, so it rides along nearly free);
* ``schema_valid`` — the produced traces (sampler lane included) pass
  ``repro.obs.schema``;
* ``span_tree_stable`` — two traced runs yield the same canonical span
  tree (the determinism contract, here checked run-to-run rather than
  across worker counts; sampler events are metrics, so they never
  perturb the tree).

The MINI smoke variant (``-k smoke``) backs the CI gate; the CLS1v1
variant records the full-scale number for the nightly trend artifacts.
"""

from __future__ import annotations

import time

from _util import emit, write_record
from repro.core.local_opt import LocalOptConfig, LocalOptimizer
from repro.core.ml.training import train_predictor
from repro.core.objective import SkewVariationProblem
from repro.obs.merge import span_tree
from repro.obs.sampler import ResourceSampler
from repro.obs.schema import validate_events
from repro.obs.trace import Tracer, tracing
from repro.testcases.cls1 import build_cls1
from repro.testcases.mini import build_mini

#: Measured variants, in rotation order.
_MODES = ("untraced", "traced", "sampled")


def _run_once(build, max_iterations, mode):
    """One fresh flow; returns (wall seconds of run(), trace events)."""
    design = build()
    problem = SkewVariationProblem.create(design)
    predictor = train_predictor(design.library, [], "full_rsmt_d2m")
    optimizer = LocalOptimizer(
        problem,
        predictor,
        LocalOptConfig(max_iterations=max_iterations, max_batches_per_iteration=8),
    )
    if mode == "untraced":
        t0 = time.perf_counter()
        outcome = optimizer.run()
        return time.perf_counter() - t0, None, outcome
    with tracing(Tracer()) as tracer:
        sampler = (
            ResourceSampler(tracer).start() if mode == "sampled" else None
        )
        t0 = time.perf_counter()
        outcome = optimizer.run()
        wall = time.perf_counter() - t0
        if sampler is not None:
            sampler.stop()
    return wall, tracer.events, outcome


def _measure(build, max_iterations, repeats):
    """Interleaved best-of-N walls for all three measured variants."""
    walls = {mode: [] for mode in _MODES}
    traces, sampled_traces = [], []
    final_ps = set()
    for rep in range(repeats):
        # Rotate which variant runs first: walls drift as the machine
        # warms, so a fixed order would bias whichever ran later.
        order = _MODES[rep % len(_MODES):] + _MODES[: rep % len(_MODES)]
        for mode in order:
            wall, events, outcome = _run_once(build, max_iterations, mode)
            final_ps.add(round(outcome.final_objective_ps, 9))
            walls[mode].append(wall)
            if mode == "traced":
                traces.append(events)
            elif mode == "sampled":
                sampled_traces.append(events)

    untraced = min(walls["untraced"])
    traced = min(walls["traced"])
    sampled = min(walls["sampled"])
    overhead_pct = max(0.0, 100.0 * (traced - untraced) / untraced)
    sampler_overhead_pct = max(0.0, 100.0 * (sampled - untraced) / untraced)
    trees = [span_tree(events) for events in traces + sampled_traces]
    record = {
        "iterations": max_iterations,
        "repeats": repeats,
        "untraced_s": round(untraced, 4),
        "traced_s": round(traced, 4),
        "sampled_s": round(sampled, 4),
        "overhead_pct": round(overhead_pct, 3),
        "sampler_overhead_pct": round(sampler_overhead_pct, 3),
        "events": len(traces[0]),
        "sampler_events": sum(
            1 for e in sampled_traces[0] if e.get("worker", 0) != 0
        ),
        "span_paths": len(trees[0]),
        "schema_valid": all(
            validate_events(events) == []
            for events in traces + sampled_traces
        ),
        "span_tree_stable": all(tree == trees[0] for tree in trees),
        "result_identical": len(final_ps) == 1,
    }
    return record


def _report(tag, design_name, record):
    lines = [
        f"BENCH trace ({design_name}): {record['iterations']} iterations, "
        f"best of {record['repeats']}",
        f"  untraced : {record['untraced_s']:8.3f} s",
        f"  traced   : {record['traced_s']:8.3f} s "
        f"({record['events']} events, {record['span_paths']} span paths)",
        f"  sampled  : {record['sampled_s']:8.3f} s "
        f"({record['sampler_events']} sampler events at default interval)",
        f"  overhead : {record['overhead_pct']:.2f}% traced, "
        f"{record['sampler_overhead_pct']:.2f}% sampled (contract: <= 2%)",
        f"  schema_valid={record['schema_valid']} "
        f"span_tree_stable={record['span_tree_stable']} "
        f"result_identical={record['result_identical']}",
    ]
    emit(tag, "\n".join(lines))


def _run_bench(tag, design_name, build, max_iterations, repeats):
    record = dict(design=design_name)
    record.update(_measure(build, max_iterations, repeats))
    _report(tag, design_name, record)
    write_record(tag, record)
    assert record["schema_valid"], record
    assert record["span_tree_stable"], record
    # Tracing must not change the optimization result.
    assert record["result_identical"], record
    return record


def test_bench_trace_smoke():
    """MINI-scale smoke (CI): the <= 2% gate runs in compare_bench.py."""
    record = _run_bench("BENCH_trace_smoke", "MINI", build_mini, 3, repeats=7)
    # In-bench guard is loose (shared CI boxes are noisy); the strict 2%
    # ceiling is enforced on the recorded JSON by compare_bench.py.
    assert record["overhead_pct"] < 25.0, record
    assert record["sampler_overhead_pct"] < 25.0, record
    assert record["sampler_events"] > 0, record


def test_bench_trace_cls1():
    """Full-scale overhead number for the nightly trend artifacts."""
    record = _run_bench(
        "BENCH_trace", "CLS1v1", lambda: build_cls1(1), 4, repeats=3
    )
    assert record["overhead_pct"] < 25.0, record
