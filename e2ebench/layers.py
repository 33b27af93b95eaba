"""Per-layer attribution for the traced benchmark run.

Spans are recorded from the benchmark's own code, never from inside the
program: the set-up calls are timed where the benchmark makes them, and
for the duration of the flow a handful of public ``repro`` functions and
methods are replaced by thin wrappers that open a span around the
original call.  The program's own ``repro.obs`` tracer stays off.

A span is ``[name, start, end, parent]``; spans are kept in memory and
written out once the run ends.  A layer's self time is the sum over its
spans of the span's duration minus the durations of its direct child
spans.  Wrappers only time and count -- they pass arguments and results
through untouched, so a traced run commits the same trajectory as an
untraced one (the benchmark checks this).

Pool workers are forked from the traced process and so inherit the
wrappers; a wrapper called in another process or thread than the one
that installed it passes straight through.  Work done inside workers
therefore shows up as the parent's wait under ``parallel.*``.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

#: Every timed layer, in report order.  The metric of layer ``x`` is
#: ``x_s``: its self time in seconds.
LAYERS = (
    "testcases.build",
    "objective.create",
    "tech.stage_luts",
    "tech.ratio_bounds",
    "ml.dataset",
    "ml.fit",
    "framework.global",
    "framework.local",
    "lp.model",
    "lp.solve",
    "eco.realize",
    "eco.table",
    "eco.select",
    "eco.legalize",
    "sta.verify",
    "sta.trial",
    "sta.commit",
    "local.enumerate",
    "ml.featurize",
    "ml.predict",
    "ml.score",
    "parallel.start",
    "parallel.call",
    "parallel.verify",
)


class SpanRecorder:
    """In-memory span stack for one thread of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.monotonic(), None, parent]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.monotonic()
            self._stack.pop()

    def in_owner(self) -> bool:
        return os.getpid() == self._pid and threading.get_ident() == self._thread

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer (every layer in :data:`LAYERS` present)."""
        child_total = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_total[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for (name, start, end, _parent), children in zip(self.spans, child_total):
            out[name] += (end - start) - children
        return out

    def nesting_problems(self, started: float, ended: float) -> List[str]:
        """Ways the spans fail to nest (empty when they nest).

        Every span must lie inside its parent, the root spans inside
        ``[started, ended]``, and spans sharing a parent must not overlap.
        When they nest, no self time is negative and the self times plus
        the time outside the root spans add up to ``ended - started``.
        """
        problems: Counter = Counter()
        siblings = defaultdict(list)
        for name, start, end, parent in self.spans:
            low, high = (started, ended) if parent < 0 else self.spans[parent][1:3]
            if start < low or end > high:
                problems[f"a {name} span lies outside its parent"] += 1
            siblings[parent].append((start, end, name))
        for spans in siblings.values():
            spans.sort()
            for (_s, end, name), (start, _e, other) in zip(spans, spans[1:]):
                if start < end:
                    problems[f"sibling {name} and {other} spans overlap"] += 1
        return [f"{problem} ({count}x)" for problem, count in sorted(problems.items())]

    def root_seconds(self) -> float:
        """Total duration of the outermost spans."""
        return sum(end - start for _n, start, end, parent in self.spans if parent < 0)

    def inclusive(self, name: str) -> float:
        """Total duration of the spans named ``name`` (none nest in another)."""
        return sum(end - start for n, start, end, _p in self.spans if n == name)

    def export(self, origin: float) -> List[dict]:
        """Spans as JSON-ready dicts, times relative to ``origin``."""
        return [
            {
                "name": name,
                "start": round(start - origin, 9),
                "end": round(end - origin, 9),
                "parent": parent,
            }
            for name, start, end, parent in self.spans
        ]


class Untraced:
    """Stand-in for :class:`SpanRecorder` in untraced runs: no spans."""

    @staticmethod
    def call(name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)


# ----------------------------------------------------------------------
# Flow wrappers
# ----------------------------------------------------------------------
def _count_solve(rec: SpanRecorder, args, result) -> None:
    rec.counts["lp.solves"] += 1
    if not result.feasible:
        rec.counts["lp.infeasible"] += 1


def _count(key: str) -> Callable:
    def hook(rec: SpanRecorder, args, result) -> None:
        rec.counts[key] += 1

    return hook


def _count_sweep(rec: SpanRecorder, args, result) -> None:
    rec.counts["framework.sweep_points"] += len(result)


def _count_moves(rec: SpanRecorder, args, result) -> None:
    rec.counts["local.iterations"] += 1
    rec.counts["local.moves"] += len(result)


def _count_pool(rec: SpanRecorder, args, result) -> None:
    pool = args[0]
    for key in ("steals", "requeued", "crashes"):
        rec.counts[f"parallel.{key}"] += int(pool.stats[key])


def _wrap(
    rec: SpanRecorder,
    fn: Callable,
    name: Optional[str],
    hook: Optional[Callable],
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.in_owner():
            return fn(*args, **kwargs)
        if name is None:
            result = fn(*args, **kwargs)
        else:
            result = rec.call(name, fn, *args, **kwargs)
        if hook is not None:
            hook(rec, args, result)
        return result

    return wrapper


def _flow_targets():
    """``(owner, attribute, layer or None, count hook or None)`` rows."""
    from repro.core import framework, local_opt
    from repro.core.eco_flow import LPGuidedECO
    from repro.core.lp import GlobalSkewLP
    from repro.core.ml.pipeline import CandidatePipeline
    from repro.core.ml.training import DeltaLatencyPredictor
    from repro.eco.candidate_kernel import ECOCandidateKernel
    from repro.eco.legalize import Legalizer
    from repro.parallel import pool, sweep, verify
    from repro.sta.incremental import IncrementalTimer

    # ``framework`` and ``local_opt`` bind some layer functions by name
    # at import, so those are patched in the calling module's namespace.
    # A closed pool is only counted: joining its workers stays with the
    # caller's self time.
    return [
        (framework.GlobalOptimizer, "run", "framework.global", None),
        (local_opt.LocalOptimizer, "run", "framework.local", None),
        (framework, "build_model_data", "lp.model", None),
        (GlobalSkewLP, "__init__", "lp.model", None),
        (GlobalSkewLP, "minimize_variation", "lp.solve", _count_solve),
        (GlobalSkewLP, "minimize_changes", "lp.solve", _count_solve),
        (framework, "sweep_upper_bound", None, _count_sweep),
        (LPGuidedECO, "realize", "eco.realize", None),
        (ECOCandidateKernel, "table", "eco.table", None),
        (ECOCandidateKernel, "select", "eco.select", None),
        (Legalizer, "legalize", "eco.legalize", None),
        (IncrementalTimer, "time_tree", "sta.verify", _count("sta.verifies")),
        (IncrementalTimer, "corner_timings", "sta.verify", _count("sta.verifies")),
        (IncrementalTimer, "preview", "sta.trial", _count("sta.trials")),
        (IncrementalTimer, "advance", "sta.commit", _count("sta.commits")),
        (local_opt, "enumerate_moves", "local.enumerate", _count_moves),
        (CandidatePipeline, "featurize", "ml.featurize", None),
        (DeltaLatencyPredictor, "predict_matrix", "ml.predict", None),
        (local_opt, "batched_variation_reductions", "ml.score", None),
        (pool.WorkerPool, "__init__", "parallel.start", None),
        (sweep, "publish_sweep_arena", "parallel.start", None),
        (verify, "publish_replica_arena", "parallel.start", None),
        (pool.WorkerPool, "call", "parallel.call", None),
        (verify.ParallelVerifier, "verify_batch", "parallel.verify", None),
        (pool.WorkerPool, "close", None, _count_pool),
    ]


class FlowWrappers:
    """Install the flow wrappers on enter; restore the originals on exit."""

    def __init__(self, rec: SpanRecorder) -> None:
        self._rec = rec
        self._saved: list = []

    def __enter__(self) -> "FlowWrappers":
        for owner, attr, name, hook in _flow_targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self._rec, original, name, hook))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
