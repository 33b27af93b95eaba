"""Bench: trace-overhead contract for the observability layer.

Every span site in the optimization loop goes through the process-wide
active tracer, which defaults to a shared no-op (``NullTracer``) — so an
untraced run pays one attribute lookup per site.  This bench runs the
same local flow untraced, traced, and traced with the background
resource sampler, once each per round (fresh design per run so no state
leaks between repetitions), and records

* ``overhead_pct`` — the seconds a traced run spends inside the
  tracer's own ``span`` and ``metric`` calls, over the rest of that
  run's main-thread CPU time; the median over rounds is gated at <= 2%
  by ``compare_bench.py``;
* ``sampler_overhead_pct`` — the same for the run traced *with* the
  sampler at its default interval, counting the sampler thread's CPU
  time in its samples too; it must fit inside the same <= 2% ceiling;
* ``traced_cpu_ratio`` / ``sampled_cpu_ratio`` — the end-to-end cross
  check: the median over rounds of the run's main-thread CPU time (plus
  the sampler's) over the untraced run's of the same round.  Work that
  a flow does only when tracing is on, outside the tracer, shows here;
* ``schema_valid`` — the produced traces (sampler lane included) pass
  ``repro.obs.schema``;
* ``span_tree_stable`` — two traced runs yield the same canonical span
  tree (the determinism contract, here checked run-to-run rather than
  across worker counts; sampler events are metrics, so they never
  perturb the tree).

Why the gated numbers are accounted inside the traced run rather than
taken as a traced-minus-untraced difference: on a shared 2-CPU box the
same CPU-bound loop takes 0.46-0.67 s of CPU time from one second to
the next, and adjacent runs of this flow differ by 10-20%, so a
difference of two runs cannot resolve 2% in any affordable number of
rounds.  A traced run emits about 150 events; timing them where they
happen resolves hundredths of a percent.  The cross-check ratios keep
the end-to-end view, with a loose in-bench bound.

The MINI smoke variant (``-k smoke``) and the CLS1v1 variant are both
gated by ``compare_bench.py``.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

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


class _CostedTracer(Tracer):
    """A :class:`Tracer` that sums the seconds spent in its own calls."""

    def __init__(self):
        super().__init__()
        self.cost_s = 0.0

    @contextmanager
    def span(self, name, phase=None, **attrs):
        t0 = time.perf_counter()
        context = super().span(name, phase, **attrs)
        handle = context.__enter__()
        self.cost_s += time.perf_counter() - t0
        try:
            yield handle
        finally:
            t0 = time.perf_counter()
            context.__exit__(None, None, None)
            self.cost_s += time.perf_counter() - t0

    def metric(self, *args, **kwargs):
        t0 = time.perf_counter()
        super().metric(*args, **kwargs)
        self.cost_s += time.perf_counter() - t0


class _CostedSampler(ResourceSampler):
    """A :class:`ResourceSampler` that sums its samples' thread CPU time."""

    cost_s = 0.0

    def _sample(self):
        t0 = time.thread_time()
        super()._sample()
        self.cost_s += time.thread_time() - t0


def _run_once(build, max_iterations, mode):
    """One fresh flow: (main-thread CPU s, tracer s, sampler s), events, outcome."""
    design = build()
    problem = SkewVariationProblem.create(design)
    predictor = train_predictor(design.library, [], "full_rsmt_d2m")
    optimizer = LocalOptimizer(
        problem,
        predictor,
        LocalOptConfig(max_iterations=max_iterations, max_batches_per_iteration=8),
    )
    if mode == "untraced":
        t0 = time.thread_time()
        outcome = optimizer.run()
        return (time.thread_time() - t0, 0.0, 0.0), None, outcome
    with tracing(_CostedTracer()) as tracer:
        sampler = _CostedSampler(tracer).start() if mode == "sampled" else None
        t0 = time.thread_time()
        outcome = optimizer.run()
        cpu = time.thread_time() - t0
        if sampler is not None:
            sampler.stop()
    sampler_s = sampler.cost_s if sampler is not None else 0.0
    return (cpu, tracer.cost_s, sampler_s), tracer.events, outcome


def _measure(build, max_iterations, rounds):
    """Per-round times of all three variants, summarized as medians over rounds."""
    runs = {mode: [] for mode in _MODES}
    traces, sampled_traces = [], []
    final_ps = set()
    for rnd in range(rounds):
        # Rotate which variant runs first, so no variant always runs
        # on a warmer (or cooler) machine than the others.
        order = _MODES[rnd % len(_MODES):] + _MODES[: rnd % len(_MODES)]
        for mode in order:
            times, events, outcome = _run_once(build, max_iterations, mode)
            final_ps.add(round(outcome.final_objective_ps, 9))
            runs[mode].append(times)
            if mode == "traced":
                traces.append(events)
            elif mode == "sampled":
                sampled_traces.append(events)

    def overhead_pct(mode):
        # The tracer runs on the main thread, inside ``cpu``; the sampler
        # runs on its own thread, outside it.
        return round(100.0 * statistics.median(
            (tracer_s + sampler_s) / (cpu - tracer_s)
            for cpu, tracer_s, sampler_s in runs[mode]
        ), 3)

    def cpu_ratio(mode):
        return round(statistics.median(
            (cpu + sampler_s) / base[0]
            for (cpu, _tracer_s, sampler_s), base in zip(runs[mode], runs["untraced"])
        ), 4)

    trees = [span_tree(events) for events in traces + sampled_traces]
    record = {
        "iterations": max_iterations,
        "rounds": rounds,
        "untraced_cpu_s": round(statistics.median(r[0] for r in runs["untraced"]), 4),
        "traced_cpu_s": round(statistics.median(r[0] for r in runs["traced"]), 4),
        "sampled_cpu_s": round(statistics.median(r[0] for r in runs["sampled"]), 4),
        "tracer_cost_ms": round(1000.0 * statistics.median(r[1] for r in runs["traced"]), 3),
        "sampler_cost_ms": round(1000.0 * statistics.median(r[2] for r in runs["sampled"]), 3),
        "overhead_pct": overhead_pct("traced"),
        "sampler_overhead_pct": overhead_pct("sampled"),
        "traced_cpu_ratio": cpu_ratio("traced"),
        "sampled_cpu_ratio": cpu_ratio("sampled"),
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
        f"median CPU time of {record['rounds']} rounds",
        f"  untraced : {record['untraced_cpu_s']:8.3f} s",
        f"  traced   : {record['traced_cpu_s']:8.3f} s "
        f"({record['events']} events, {record['span_paths']} span paths)",
        f"  sampled  : {record['sampled_cpu_s']:8.3f} s "
        f"({record['sampler_events']} sampler events at default interval)",
        f"  overhead : {record['overhead_pct']:.2f}% traced "
        f"({record['tracer_cost_ms']:.2f} ms in the tracer), "
        f"{record['sampler_overhead_pct']:.2f}% sampled "
        f"({record['sampler_cost_ms']:.2f} ms in samples) (contract: <= 2%)",
        f"  cross-check CPU ratio to untraced: {record['traced_cpu_ratio']:.3f} "
        f"traced, {record['sampled_cpu_ratio']:.3f} sampled",
        f"  schema_valid={record['schema_valid']} "
        f"span_tree_stable={record['span_tree_stable']} "
        f"result_identical={record['result_identical']}",
    ]
    emit(tag, "\n".join(lines))


def _run_bench(tag, design_name, build, max_iterations, rounds):
    record = dict(design=design_name)
    record.update(_measure(build, max_iterations, rounds))
    _report(tag, design_name, record)
    write_record(tag, record)
    assert record["schema_valid"], record
    assert record["span_tree_stable"], record
    # Tracing must not change the optimization result.
    assert record["result_identical"], record
    return record


def _check_cross(record):
    # The end-to-end ratios are as noisy as the box (see the module
    # docstring), so their guard is loose; the strict 2% ceiling is
    # enforced on the recorded overheads by compare_bench.py.
    assert record["traced_cpu_ratio"] < 1.25, record
    assert record["sampled_cpu_ratio"] < 1.25, record


def test_bench_trace_smoke():
    """MINI-scale smoke (CI): the <= 2% gate runs in compare_bench.py."""
    record = _run_bench("BENCH_trace_smoke", "MINI", build_mini, 3, rounds=7)
    _check_cross(record)
    assert record["sampler_events"] > 0, record


def test_bench_trace_cls1():
    """CLS1v1 overhead, gated by compare_bench.py like the smoke record."""
    record = _run_bench(
        "BENCH_trace", "CLS1v1", lambda: build_cls1(1), 4, rounds=3
    )
    _check_cross(record)
