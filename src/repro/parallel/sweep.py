"""Worker-side entry points for the parallel U-sweep (global flow).

The global flow's sweep points are embarrassingly parallel: each solves
Eq. (4) at its own bound and realizes the resulting plan starting from
the *same* base tree.  These functions are the ``"module:function"``
targets :meth:`repro.parallel.pool.WorkerPool.call` resolves inside a
worker process, so the workers need no replica state.

The static realization context — library, stage LUTs, legalizer,
region, frozen baseline artifacts — is published once into the sweep
pool's :class:`~repro.parallel.shm.SharedPlaneArena`
(:func:`publish_sweep_arena`) together with the compiled ECO
:class:`~repro.tech.stage_lut.StageLUTPlanes` arrays; per-point payloads
carry only the dynamic part (tree, LP data, solution), and workers seed
their stage-LUT plane memos with zero-copy views of the shared arrays
instead of recompiling them.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Tuple

from repro.netlist.serialize import tree_from_dict, tree_to_dict
from repro.sta.incremental import IncrementalTimer

#: Per-worker cache of the unpickled shared sweep context (the arena is
#: attached once per worker process, so one unpickle serves all points).
_SWEEP_CTX: Dict[int, Dict[str, Any]] = {}


def solve_bound(payload: Tuple[Any, float]):
    """Solve ``minimize_changes`` at one swept bound.

    ``payload`` is ``(lp, bound)`` — :class:`~repro.core.lp.GlobalSkewLP`
    pickles whole (it is numpy arrays plus scalars) and HiGHS is
    deterministic, so the remote solution equals the local one.
    """
    lp, bound = payload
    return lp.minimize_changes(bound)


def publish_sweep_arena(arena, ctx, problem) -> str:
    """Export the static sweep context (and ECO planes) into ``arena``."""
    ctx_payload = {
        "library": ctx.library,
        "stage_luts": ctx.stage_luts,
        "legalizer": ctx.legalizer,
        "region": ctx.region,
        "pairs": list(ctx.pairs),
        "alphas": dict(ctx.alphas),
        "baseline_skews": ctx.baseline_skews,
        "eco_config": ctx.eco_config,
        "batch_size": ctx.batch_size,
        "improvement_eps_ps": ctx.improvement_eps_ps,
        "wire_metric": problem.timer.wire_metric,
        "segment_um": problem.timer.segment_um,
    }
    blobs = {"sweep_ctx": pickle.dumps(ctx_payload, protocol=5)}
    arrays: Dict[str, Any] = {}
    eco_planes = []
    for name, lut in ctx.stage_luts.items():
        planes = lut.planes()
        for field in (
            "uniform",
            "uniform_slew",
            "detail",
            "detail_slew",
            "detail_slew_axis",
            "detail_load_axis",
        ):
            arrays[f"eco/{name}/{field}"] = getattr(planes, field)
        eco_planes.append(
            {
                "corner": name,
                "sizes": list(planes.sizes),
                "wl_axis": list(planes.wl_axis),
            }
        )
    meta = {"kind": "sweep", "eco_planes": eco_planes}
    return arena.export(blobs, arrays, meta)


def _arena_context() -> Dict[str, Any]:
    """The shared sweep context this worker's arena published.

    Unpickled once per worker; the stage LUTs' ``StageLUTPlanes`` memos
    are seeded with read-only views of the shared plane arrays, so the
    ECO candidate kernel compiles from zero-copy data.
    """
    from repro.parallel.pool import worker_arena
    from repro.tech.stage_lut import StageLUTPlanes

    view = worker_arena()
    if view is None:
        raise RuntimeError("sweep payload in a worker without a sweep arena")
    cached = _SWEEP_CTX.get(view.generation)
    if cached is not None:
        return cached
    ctx_payload: Dict[str, Any] = pickle.loads(view.blob("sweep_ctx"))
    stage_luts = ctx_payload["stage_luts"]
    for entry in view.meta.get("eco_planes", ()):
        name = entry["corner"]
        lut = stage_luts.get(name)
        if lut is None:
            continue
        planes = StageLUTPlanes(
            sizes=tuple(entry["sizes"]),
            wl_axis=tuple(entry["wl_axis"]),
            uniform=view.arrays[f"eco/{name}/uniform"],
            uniform_slew=view.arrays[f"eco/{name}/uniform_slew"],
            detail=view.arrays[f"eco/{name}/detail"],
            detail_slew=view.arrays[f"eco/{name}/detail_slew"],
            detail_slew_axis=view.arrays[f"eco/{name}/detail_slew_axis"],
            detail_load_axis=view.arrays[f"eco/{name}/detail_load_axis"],
        )
        object.__setattr__(lut, "_planes", planes)
    _SWEEP_CTX.clear()
    _SWEEP_CTX[view.generation] = ctx_payload
    return ctx_payload


def realize_point(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Realize one sweep point's LP plan inside a worker.

    Rebuilds the tree and a :class:`RealizationContext` from the
    payload plus the static context in the worker's attached arena,
    runs the same :func:`realize_verified_plan` the serial path runs,
    and ships the realized tree back serialized (the main process
    re-evaluates it with its own engine before the fold).
    """
    from repro.core.framework import RealizationContext, realize_verified_plan

    static = _arena_context()
    tree = tree_from_dict(payload["tree"])
    engine = IncrementalTimer(
        static["library"],
        wire_metric=static["wire_metric"],
        segment_um=static["segment_um"],
    )
    ctx = RealizationContext(
        library=static["library"],
        stage_luts=static["stage_luts"],
        legalizer=static["legalizer"],
        region=static["region"],
        pairs=static["pairs"],
        alphas=static["alphas"],
        baseline_skews=static["baseline_skews"],
        eco_config=static["eco_config"],
        batch_size=static["batch_size"],
        improvement_eps_ps=static["improvement_eps_ps"],
        engine=engine,
    )
    realized, _result, stats, eco_stats = realize_verified_plan(
        ctx,
        tree,
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
