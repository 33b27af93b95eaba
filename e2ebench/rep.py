"""One repetition of a benchmark workload, in a process of its own.

``run.py`` starts this script once per repetition, so every repetition
pays the cold module-level memos a command-line user pays, and
``ru_maxrss`` measures this repetition alone::

    python3 e2ebench/rep.py --workload local-cls1v2 --trace 0

Set-up builds the testcase, creates the ``SkewVariationProblem``,
characterizes the ``TechnologyCache`` (stage LUTs and ratio bounds) and,
for workloads that run the local phase, trains the HSM predictor the way
``repro optimize`` does (same training-set size, same fixed seed).
It then runs the workload's flow once through
``GlobalLocalOptimizer.run`` and checks the result.  With ``--trace 1``
the layer spans of ``layers.py`` are recorded.

The last line of standard output is one JSON object with the
measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

if "E2EBENCH_CPU" in os.environ:
    # ``run.py`` probes this CPU's speed while we run.  Pin before numpy
    # loads, so its thread pools size themselves to the one CPU.  A
    # serial workload therefore runs BLAS on one thread where a
    # ``repro optimize`` user's would use every CPU; its flows are
    # dominated by Python-level loops and small arrays.
    os.sched_setaffinity(0, {int(os.environ["E2EBENCH_CPU"])})

import numpy  # noqa: E402
import scipy  # noqa: E402
from layers import FlowWrappers, SpanRecorder, Untraced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.analysis.metrics import table5_row  # noqa: E402
from repro.core.framework import (  # noqa: E402
    FrameworkConfig,
    GlobalLocalOptimizer,
    GlobalOptConfig,
    TechnologyCache,
)
from repro.core.local_opt import LocalOptConfig  # noqa: E402
from repro.core.ml.dataset import generate_dataset  # noqa: E402
from repro.core.ml.training import train_predictor  # noqa: E402
from repro.core.objective import SkewVariationProblem  # noqa: E402
from repro.netlist.serialize import tree_to_json  # noqa: E402
from repro.testcases.cls1 import build_cls1  # noqa: E402
from repro.testcases.cls2 import build_cls2  # noqa: E402

#: Training set size of ``repro optimize``'s HSM predictor (CLI defaults).
TRAIN_CASES = 16
TRAIN_MOVES_PER_CASE = 12
#: How far the uncached golden timer may disagree with the reported total.
GOLDEN_TOL_PS = 1e-6

BUILDERS = {
    "CLS1v1": lambda: build_cls1(1),
    "CLS1v2": lambda: build_cls1(2),
    "CLS2v1": build_cls2,
}

SPANS_DIR = HERE / "out"


def framework_config(spec) -> FrameworkConfig:
    """The configs ``repro optimize`` builds for this workload."""
    backend = "shm" if spec.workers > 1 else "pipe"
    rounds = {} if spec.global_iterations is None else {"max_iterations": spec.global_iterations}
    return FrameworkConfig(
        global_config=GlobalOptConfig(
            sweep_factors=(1.0, 1.15), workers=spec.workers, pool_backend=backend, **rounds
        ),
        local_config=LocalOptConfig(
            max_iterations=spec.local_iterations,
            buffers_per_iteration=spec.buffers_per_iteration,
            workers=spec.workers,
            pool_backend=backend,
        ),
    )


def set_up(spec, rec):
    design = rec.call("testcases.build", BUILDERS[spec.testcase])
    problem = rec.call("objective.create", SkewVariationProblem.create, design)
    tech = TechnologyCache(design.library)
    rec.call("tech.stage_luts", getattr, tech, "stage_luts")
    rec.call("tech.ratio_bounds", getattr, tech, "ratio_bounds")
    predictor = None
    if spec.trains:
        samples = rec.call(
            "ml.dataset",
            generate_dataset,
            design.library,
            n_cases=TRAIN_CASES,
            moves_per_case=TRAIN_MOVES_PER_CASE,
        )
        predictor = rec.call("ml.fit", train_predictor, design.library, samples, "hsm")
    return design, problem, tech, predictor


def check(problem, result) -> list:
    """Reasons the result is wrong (empty when it passes every check)."""
    failures = []
    try:
        result.tree.validate()
    except ValueError as exc:
        failures.append(f"result tree invalid: {exc}")
    if not problem.accepts(result.timing):
        failures.append("local skew degraded at some corner")
    original = problem.baseline.total_variation
    final = result.timing.total_variation
    if final > original:
        failures.append(f"objective rose from {original!r} to {final!r} ps")
    golden = problem.evaluate_golden(result.tree).total_variation
    if abs(golden - final) > GOLDEN_TOL_PS:
        failures.append(f"golden timer reads {golden!r} ps, flow reported {final!r} ps")
    return failures


def trajectory(local_result) -> list:
    """The committed-move trajectory (the ``--trajectory-out`` fields)."""
    if local_result is None:
        return []
    return [
        {
            "iteration": record.iteration,
            "move": repr(record.move),
            "predicted_reduction_ps": record.predicted_reduction_ps,
            "actual_reduction_ps": record.actual_reduction_ps,
            "objective_after_ps": record.objective_after_ps,
        }
        for record in local_result.history
    ]


def digest(result, variation_norm: float) -> str:
    """Hash of everything a deterministic rerun must reproduce bit for bit."""
    payload = json.dumps(
        {
            "trajectory": trajectory(result.local_result),
            "tree": tree_to_json(result.tree),
            "variation_norm": variation_norm.hex(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any pool worker it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def cpu_seconds() -> float:
    """CPU seconds of this process and of every pool worker it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(rec: SpanRecorder, result, wall_s: float) -> dict:
    """Per-layer self times and counts of one traced repetition."""
    metrics = {f"{layer}_s": secs for layer, secs in rec.self_times().items()}
    metrics["unattributed_s"] = wall_s - rec.root_seconds()
    metrics["framework.global_total_s"] = rec.inclusive("framework.global")
    metrics["framework.local_total_s"] = rec.inclusive("framework.local")
    for key in (
        "lp.solves",
        "lp.infeasible",
        "sta.verifies",
        "sta.trials",
        "sta.commits",
        "framework.sweep_points",
        "local.iterations",
        "local.moves",
        "parallel.steals",
        "parallel.requeued",
        "parallel.crashes",
    ):
        metrics[key] = rec.counts[key]

    glob = result.global_result
    eco = glob.stats.get("eco", {}).get("counters", {}) if glob else {}
    built = eco.get("tables_built", 0)
    metrics["eco.tables_built"] = built
    metrics["eco.table_evictions"] = eco.get("table_evictions", 0)
    metrics["eco.candidates"] = eco.get("candidates_evaluated", 0)
    metrics["eco.arcs_chosen"] = eco.get("arcs_chosen", 0)
    metrics["eco.table_hit_rate"] = _ratio(
        eco.get("table_hits", 0), eco.get("table_hits", 0) + built
    )
    metrics["framework.batch_commit_rate"] = (
        _ratio(glob.batches_committed, glob.batches_committed + glob.batches_reverted)
        if glob
        else 0.0
    )

    local = result.local_result
    stats = (local.stats or {}) if local else {}
    pipeline = stats.get("pipeline") or {}
    hits = pipeline.get("move_hits", 0)
    metrics["ml.move_hit_rate"] = _ratio(hits, hits + pipeline.get("move_misses", 0))
    commits = len(local.history) if local else 0
    # Pooled trials run in the workers; the pool counts them.
    pooled_trials = (stats.get("parallel") or {}).get("verify_tasks", 0)
    metrics["local.commits"] = commits
    metrics["local.accept_rate"] = _ratio(commits, rec.counts["sta.trials"] + pooled_trials)
    return metrics


def machine() -> dict:
    """Software versions for the record (``run.py`` adds the CPU counts)."""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]
    rec = SpanRecorder() if args.trace else Untraced()

    # Monotonic stamps: ``run.py`` matches them against its speed probe.
    started = time.monotonic()
    cpu_started = cpu_seconds()
    design, problem, tech, predictor = set_up(spec, rec)
    setup_ended = time.monotonic()
    cpu_setup_ended = cpu_seconds()

    optimizer = GlobalLocalOptimizer(problem, predictor, tech, framework_config(spec))
    wrappers = FlowWrappers(rec) if args.trace else contextlib.nullcontext()
    with wrappers:
        flow_started = time.monotonic()
        cpu_flow_started = cpu_seconds()
        result = optimizer.run(spec.flow)
        ended = time.monotonic()
    cpu_ended = cpu_seconds()
    peak = peak_rss_mb()

    row = table5_row(
        design.with_tree(result.tree),
        spec.flow,
        result.timing,
        baseline_variation_ps=problem.baseline.total_variation,
    )
    out = dict(
        setup_s=setup_ended - started,
        setup_cpu_s=cpu_setup_ended - cpu_started,
        setup_at=[started, setup_ended],
        flow_s=ended - flow_started,
        flow_cpu_s=cpu_ended - cpu_flow_started,
        flow_at=[flow_started, ended],
        wall_s=ended - started,
        wall_cpu_s=cpu_ended - cpu_started,
        wall_at=[started, ended],
        peak_rss_mb=peak,
        variation_norm=row.variation_norm,
        power_mw=row.power_mw,
        failures=check(problem, result),
        digest=digest(result, row.variation_norm),
        machine=machine(),
    )
    if args.trace:
        out["layers"] = layer_metrics(rec, result, ended - started)
        out["span_problems"] = rec.nesting_problems(started, ended)
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{args.workload}.json"
        spans_path.write_text(json.dumps(rec.export(started)) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
