"""Worker-side entry points for the parallel U-sweep (global flow).

The global flow's sweep points are embarrassingly parallel: each solves
Eq. (4) at its own bound and realizes the resulting plan starting from
the *same* base tree.  These functions are the ``"module:function"``
targets :meth:`repro.parallel.pool.WorkerPool.call` resolves inside a
worker process, so the workers need no replica state.

The static realization context — library, stage LUT arrays,
legalizer, region, frozen baseline artifacts — is the sweep pool's
start state (:func:`publish_sweep_arena`), which the workers inherit;
per-point payloads carry only the dynamic part (tree, LP data,
solution).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Tuple

from repro.netlist.serialize import tree_from_dict, tree_to_dict
from repro.parallel.pool import worker_state
from repro.sta.incremental import IncrementalTimer


def solve_bound(payload: Tuple[Any, float]):
    """Solve ``minimize_changes`` at one swept bound.

    ``payload`` is ``(lp, bound)`` — :class:`~repro.core.lp.GlobalSkewLP`
    pickles whole (it is numpy arrays plus scalars) and HiGHS is
    deterministic, so the remote solution equals the local one.
    """
    lp, bound = payload
    return lp.minimize_changes(bound)


def publish_sweep_arena(ctx, problem) -> Tuple[Any, str]:
    """A sweep pool's start state: ``ctx`` without its engine, and the
    engine's wire metric.

    The name is historical (the context once went into a shared-memory
    arena); it stays because ``e2ebench/layers.py`` wraps this function
    by name.
    """
    return dataclasses.replace(ctx, engine=None), problem.timer.wire_metric


def realize_point(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Realize one sweep point's LP plan inside a worker.

    Rebuilds the tree from the payload and gives the worker's static
    context a fresh engine, runs the same :func:`realize_verified_plan`
    the serial path runs, and ships the realized tree back serialized
    (the main process re-evaluates it with its own engine before the
    fold).
    """
    from repro.core.framework import realize_verified_plan

    state = worker_state()
    if state is None:
        raise RuntimeError("sweep payload in a worker without a sweep start state")
    static, wire_metric = state
    ctx = dataclasses.replace(
        static, engine=IncrementalTimer(static.library, wire_metric=wire_metric)
    )
    realized, _result, stats, eco_stats = realize_verified_plan(
        ctx,
        tree_from_dict(payload["tree"]),
        payload["data"],
        payload["solution"],
        allow_batches=payload["allow_batches"],
    )
    return {
        "tree": tree_to_dict(realized),
        "stats": list(stats),
        "eco_stats": eco_stats,
    }


def build_realize_payload(tree, data, solution, allow_batches: bool) -> Dict[str, Any]:
    """Package one sweep point's dynamic part for :func:`realize_point`."""
    return {
        "tree": tree_to_dict(tree),
        "data": data,
        "solution": solution,
        "allow_batches": allow_batches,
    }
