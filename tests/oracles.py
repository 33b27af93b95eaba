"""The scalar oracles of the array kernels, in the shape tests call them.

Every production layer runs on one array kernel.  Its scalar twin stays
in the library, unchanged, as the kernel's definition; the differential
tests reach it through these helpers — by calling it, or by
monkeypatching it in where the kernel would run — never through a
production option.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest

from repro.core import local_opt, placement_model
from repro.core.eco_flow import LPGuidedECO
from repro.core.ml import dataset
from repro.core.ml.analytical import ESTIMATE_SEGMENT_UM, _children_spec, _driver_size
from repro.core.ml.ann import ANNRegressor
from repro.core.ml.feature_kernel import (
    _ROUTE_MODELS,
    _TERM_CONST,
    _TERM_HALF,
    _TERM_WIRE,
    FeatureKernel,
)
from repro.core.ml.features import compute_move_components
from repro.core.ml.pipeline import (
    MAX_CACHED_MOVES,
    CandidatePipeline,
    FeatureBatch,
    move_dependencies,
)
from repro.core.moves import (
    DISPLACE_UM,
    Move,
    MoveType,
    SurgeryIndex,
    _pick_child_buffer,
    apply_move,
    surgery_candidates,
)
from repro.geometry import COMPASS_DIRECTIONS, BBox, Point, compass_offset, path_length
from repro.route.congestion import chain_length_factor, routed_length_factor
from repro.route.rc_net import DEFAULT_SEGMENT_UM, edge_rc_tree, star_rc_tree
from repro.route.rsmt import (
    ONE_STEINER_MAX_PINS,
    RouteTree,
    _prune_useless_steiner,
)
from repro.sta.d2m import d2m_delays
from repro.sta.elmore import elmore_delays
from repro.sta.kernel import KernelStale
from repro.sta.skew import SkewAnalysis, pair_skew
from repro.sta.slew import LN9
from repro.sta.timer import GoldenTimer
from repro.tech import ratio_bounds
from repro.tech.library import default_library
from repro.tech.ratio_bounds import RatioBounds, RatioCloud
from repro.tech.stage_lut import (
    DEFAULT_WL_AXIS,
    DETAIL_LOAD_AXIS,
    DETAIL_SLEW_AXIS,
    StageDelayLUT,
    stage_delay,
    steady_state_stage,
)
from repro.testcases.cls1 import build_cls1
from repro.testcases.cls2 import build_cls2

#: Libraries of the testcases the characterization parity tests cover
#: (MINI builds on ``default_library`` of its corner names).
PARITY_LIBRARIES = {
    "MINI": lambda: default_library(("c0", "c1", "c3")),
    "MINI/4": lambda: default_library(("c0", "c1", "c2", "c3")),
    "CLS1v1": lambda: build_cls1(1).library,
    "CLS2v1": lambda: build_cls2().library,
}


def reference_timings(timer, tree):
    """Per-corner timing of ``tree`` from the scalar golden loop."""
    return {
        corner.name: timer._analyze_corner_reference(tree, corner)
        for corner in timer.library.corners
    }


def reference_time_tree(timer, tree, pairs, alphas=None):
    """:meth:`GoldenTimer.time_tree` over :func:`reference_timings`."""
    return timer.time_tree(tree, pairs, alphas, timings=reference_timings(timer, tree))


def per_corner_timings(timer, tree):
    """Oracle of :meth:`GoldenTimer.analyze_all_corners`: one compile and
    one propagation per corner."""
    return {
        corner.name: timer.analyze_corner(tree, corner)
        for corner in timer.library.corners
    }


def reference_eval_net(compiled, tree, node, children):
    """Oracle of the timing kernel's row evaluator for one driver net.

    Per-corner ``(load, wire delay, Elmore, step²)`` of ``node`` driving
    ``children``: one scalar loop per corner and edge, each edge's
    metrics read off its own single-edge star RC tree.
    """
    kernel = compiled._kernel
    lib = kernel.library
    child_nodes = [tree.node(c) for c in children]
    net_points = [node.location] + [c.location for c in child_nodes]
    bbox_area = BBox.of_points(net_points).area
    fanout = len(children)
    lengths: List[float] = []
    pin_caps: List[float] = []
    for child, child_node in zip(children, child_nodes):
        factor = routed_length_factor(
            fanout, bbox_area, node.location, child_node.location
        )
        lengths.append(tree.edge_length(child) * factor)
        pin_caps.append(
            lib.sink_cap_ff if child_node.is_sink else lib.input_cap_ff(child_node.size)
        )
    load = np.empty(compiled.C)
    wdelay = np.empty((compiled.C, fanout))
    elmore = np.empty((compiled.C, fanout))
    step_sq = np.empty((compiled.C, fanout))
    use_d2m = kernel.wire_metric == "d2m"
    for k, corner in enumerate(compiled.corners):
        wire = lib.wire(corner)
        total = 0.0
        for j, (length, pin_cap) in enumerate(zip(lengths, pin_caps)):
            total += wire.segment_cap(length) + pin_cap
            rc = star_rc_tree(
                [("end", [Point(0.0, 0.0), Point(length, 0.0)], pin_cap)],
                wire,
                segment_um=DEFAULT_SEGMENT_UM,
            )
            elm = elmore_delays(rc)["end"]
            elmore[k, j] = elm
            wdelay[k, j] = d2m_delays(rc)["end"] if use_d2m else elm
            step = LN9 * elm
            step_sq[k, j] = step * step
        load[k] = total
    return load, wdelay, elmore, step_sq


def reference_compiled_rows(compiled, tree):
    """Oracle of a compile's row arrays: ``{name: array}`` for ``load``,
    ``edge_wdelay``, ``edge_elmore`` and ``edge_step_sq``, one
    :func:`reference_eval_net` per driver in CSR order."""
    n_edges = int(compiled.child_ptr[-1])
    out = {
        "load": np.zeros((compiled.C, compiled.n)),
        "edge_wdelay": np.empty((compiled.C, n_edges)),
        "edge_elmore": np.empty((compiled.C, n_edges)),
        "edge_step_sq": np.empty((compiled.C, n_edges)),
    }
    for i, nid in enumerate(compiled.ids):
        node = tree.node(nid)
        children = tree.children(nid)
        if node.is_sink or not children:
            continue
        e0, e1 = int(compiled.child_ptr[i]), int(compiled.child_ptr[i + 1])
        load, wdelay, elmore, step_sq = reference_eval_net(compiled, tree, node, children)
        out["load"][:, i] = load
        out["edge_wdelay"][:, e0:e1] = wdelay
        out["edge_elmore"][:, e0:e1] = elmore
        out["edge_step_sq"][:, e0:e1] = step_sq
    return out


def reference_compile_row(compiled, tree, nid):
    """Oracle of one row of ``CompiledTree.build_overrides``: ``None`` for
    a driver with no fanout, else ``(child positions, child ids, size
    index, load, wire delay, Elmore, step²)``; raises
    :class:`~repro.sta.kernel.KernelStale` where the kernel must."""
    node = tree.node(nid)
    children = tree.children(nid)
    if not children:
        return None
    positions = []
    for child in children:
        pos = compiled.index.get(child)
        if pos is None:
            raise KernelStale(f"unknown child {child}")
        positions.append(pos)
    lib = compiled._kernel.library
    size = lib.source_drive_size if node.is_source else node.size
    size_pos = lib.nldm.size_pos.get(size)
    if size_pos is None:
        raise KernelStale(f"drive size {size} not in library")
    return (positions, tuple(children), size_pos) + reference_eval_net(
        compiled, tree, node, children
    )


def reference_golden_subtree_delta(timer, tree, legalizer, move, before):
    """Oracle of :func:`repro.core.ml.dataset.golden_subtree_delta`: the
    trial clone is timed one corner at a time."""
    trial = tree.clone()
    apply_move(trial, legalizer, timer.library, move)
    sinks = trial.subtree_sinks(move.buffer)
    out = {}
    for corner in timer.library.corners:
        after = timer.analyze_corner(trial, corner)
        deltas = [after.arrival[s] - before[corner.name].arrival[s] for s in sinks]
        out[corner.name] = float(np.mean(deltas)) if deltas else 0.0
    return out


def use_per_corner_labels(patch):
    """Label training moves one corner at a time wherever the dataset
    generator would run one all-corner analysis: the case trees and every
    trial clone."""
    patch.setattr(GoldenTimer, "analyze_all_corners", per_corner_timings)
    patch.setattr(dataset, "golden_subtree_delta", reference_golden_subtree_delta)


def _layer_forward(model, x):
    """The per-layer forward pass of one network (activations kept)."""
    activations = [x]
    h = x
    for i, (w, b) in enumerate(zip(model._weights, model._biases)):
        z = h @ w + b
        h = z if i == len(model._weights) - 1 else np.tanh(z)
        activations.append(h)
    return h, activations


def _layer_backward(model, activations, grad_out):
    """The per-layer backward pass of one network."""
    grads_w = [None] * len(model._weights)
    grads_b = [None] * len(model._weights)
    delta = grad_out
    for i in reversed(range(len(model._weights))):
        grads_w[i] = activations[i].T @ delta + model.config.l2 * model._weights[i]
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model._weights[i].T) * (1.0 - activations[i] ** 2)
    return grads_w, grads_b


def reference_ann_fit(model, x, y):
    """Oracle of :meth:`ANNRegressor.fit`: one network at a time, its
    parameters and Adam moments kept per layer array, one Adam update
    per array and step, 2-D matmuls."""
    cfg = model.config
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("x must be 2-D with one row per target")
    rng = np.random.default_rng(cfg.seed)

    model._x_mean = x.mean(axis=0)
    model._x_std = np.where(x.std(axis=0) > 1e-12, x.std(axis=0), 1.0)
    model._y_mean = float(y.mean())
    model._y_std = float(y.std()) or 1.0
    xs = (x - model._x_mean) / model._x_std
    ys = (y - model._y_mean) / model._y_std

    n = xs.shape[0]
    n_val = max(1, int(n * cfg.validation_fraction)) if n >= 10 else 0
    order = rng.permutation(n)
    val_idx, train_idx = order[:n_val], order[n_val:]
    x_train, y_train = xs[train_idx], ys[train_idx]
    x_val, y_val = xs[val_idx], ys[val_idx]

    sizes = [xs.shape[1], *cfg.hidden, 1]
    model._weights = []
    model._biases = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        scale = np.sqrt(2.0 / (fan_in + fan_out))
        model._weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
        model._biases.append(np.zeros(fan_out))
    m_w = [np.zeros_like(w) for w in model._weights]
    v_w = [np.zeros_like(w) for w in model._weights]
    m_b = [np.zeros_like(b) for b in model._biases]
    v_b = [np.zeros_like(b) for b in model._biases]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    best_val = np.inf
    best_params = None
    stall = 0
    model.epochs = 0
    for _ in range(cfg.max_epochs):
        model.epochs += 1
        perm = rng.permutation(len(x_train))
        for start in range(0, len(perm), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            pred, acts = _layer_forward(model, xb)
            grad = 2.0 * (pred - yb[:, None]) / max(len(idx), 1)
            gw, gb = _layer_backward(model, acts, grad)
            step += 1
            for i in range(len(model._weights)):
                m_w[i] = beta1 * m_w[i] + (1 - beta1) * gw[i]
                v_w[i] = beta2 * v_w[i] + (1 - beta2) * gw[i] ** 2
                m_b[i] = beta1 * m_b[i] + (1 - beta1) * gb[i]
                v_b[i] = beta2 * v_b[i] + (1 - beta2) * gb[i] ** 2
                mw_hat = m_w[i] / (1 - beta1**step)
                vw_hat = v_w[i] / (1 - beta2**step)
                mb_hat = m_b[i] / (1 - beta1**step)
                vb_hat = v_b[i] / (1 - beta2**step)
                model._weights[i] -= cfg.learning_rate * mw_hat / (
                    np.sqrt(vw_hat) + eps
                )
                model._biases[i] -= cfg.learning_rate * mb_hat / (
                    np.sqrt(vb_hat) + eps
                )
        if n_val:
            val_pred, _ = _layer_forward(model, x_val)
            val_mse = float(np.mean((val_pred[:, 0] - y_val) ** 2))
            if val_mse < best_val - 1e-6:
                best_val = val_mse
                best_params = (
                    [w.copy() for w in model._weights],
                    [b.copy() for b in model._biases],
                )
                stall = 0
            else:
                stall += 1
                if stall >= cfg.patience:
                    break
    if best_params is not None:
        model._weights, model._biases = best_params
    return model


def reference_ann_fit_group(jobs):
    """Oracle of :meth:`ANNRegressor.fit_group`: one
    :func:`reference_ann_fit` per job."""
    for model, x, y in jobs:
        reference_ann_fit(model, x, y)


def use_per_layer_adam(patch):
    """Train every ANN, alone or in a group, with the per-layer Adam oracle."""
    patch.setattr(ANNRegressor, "fit", reference_ann_fit)
    patch.setattr(ANNRegressor, "fit_group", staticmethod(reference_ann_fit_group))


def reference_svr_kernel(model, a, b):
    """Oracle of :meth:`RBFKernelSVR._kernel`: the out-of-place
    expression, four fresh ``(rows, columns)`` arrays."""
    sq = (
        np.sum(a**2, axis=1)[:, None]
        + np.sum(b**2, axis=1)[None, :]
        - 2.0 * a @ b.T
    )
    return np.exp(-model._gamma * np.maximum(sq, 0.0))


def reference_svr_predict(model, x):
    """Oracle of :meth:`RBFKernelSVR.predict`: one kernel block for up to
    ``PREDICT_CHUNK_ROWS`` rows, the chunk loop beyond, both over
    :func:`reference_svr_kernel`."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] == 0:
        return np.empty(0)
    xs = (x - model._x_mean) / model._x_std
    if xs.shape[0] <= model.PREDICT_CHUNK_ROWS:
        k = reference_svr_kernel(model, xs, model._x_train)
        return k @ model._dual * model._y_std + model._y_mean
    out = np.empty(xs.shape[0])
    for start in range(0, xs.shape[0], model.PREDICT_CHUNK_ROWS):
        chunk = xs[start : start + model.PREDICT_CHUNK_ROWS]
        k = reference_svr_kernel(model, chunk, model._x_train)
        out[start : start + len(chunk)] = k @ model._dual
    return out * model._y_std + model._y_mean


def per_move_components(kernel, tree, timings, moves):
    """Oracle of :meth:`FeatureKernel.compute_components_batch`: the
    per-move featurizer, uncached."""
    return [compute_move_components(tree, kernel.library, timings, move) for move in moves]


def predicted_variation_reduction(problem, tree, result, features, subtree_delta):
    """Oracle of the move scorer: one move, one pair at a time.

    Applies the predicted subtree delta ``{corner: ps}`` to the moved
    buffer's sinks and the star side-effect sibling corrections (the
    rows of ``features.side``, columns in library corner order) to the
    neighbouring subtrees, then recomputes the affected pairs' worst
    normalized variations against the current values.
    """
    move = features.move
    corners = problem.design.library.corners
    names = [corner.name for corner in corners]
    old_siblings = dict(zip(names, features.side[0].tolist()))
    new_siblings = dict(zip(names, features.side[1].tolist()))
    alphas = problem.alphas

    subtree_sinks = set(tree.subtree_sinks(move.buffer))
    old_parent = tree.parent(move.buffer)
    old_sib_sinks = (
        set(tree.subtree_sinks(old_parent)) - subtree_sinks
        if old_parent is not None
        else set()
    )
    new_sib_sinks = set()
    if move.type is MoveType.SURGERY and move.new_parent is not None:
        new_sib_sinks = set(tree.subtree_sinks(move.new_parent)) - subtree_sinks

    affected = subtree_sinks | old_sib_sinks | new_sib_sinks
    pairs = [p for p in problem.pairs if p[0] in affected or p[1] in affected]
    if not pairs:
        return 0.0

    def delta_for(sink, corner_name):
        if sink in subtree_sinks:
            return subtree_delta[corner_name]
        if sink in old_sib_sinks:
            return old_siblings[corner_name]
        if sink in new_sib_sinks:
            return new_siblings[corner_name]
        return 0.0

    total_delta = 0.0
    for pair in pairs:
        current_v = result.skews.pair_variation[pair]
        adjusted = {
            corner.name: {
                pair[0]: result.latencies[corner.name][pair[0]]
                + delta_for(pair[0], corner.name),
                pair[1]: result.latencies[corner.name][pair[1]]
                + delta_for(pair[1], corner.name),
            }
            for corner in corners
        }
        new_v = worst_pair_variation(adjusted, pair, corners, alphas)
        total_delta += new_v - current_v
    return -total_delta


def per_move_reductions(problem, tree, result, features, predictions):
    """Oracle of :func:`repro.core.local_opt.batched_variation_reductions`.

    ``predictions`` is the ``(n_moves, n_corners)`` matrix; each row is
    turned back into the ``{corner: float}`` the scalar scorer takes.
    """
    names = [c.name for c in problem.design.library.corners]
    return [
        predicted_variation_reduction(
            problem, tree, result, feats, dict(zip(names, map(float, row)))
        )
        for feats, row in zip(features, predictions)
    ]


def use_scalar_features(monkeypatch):
    """Featurize, score and judge trials per move and per pair wherever
    the array kernels would run."""
    monkeypatch.setattr(FeatureKernel, "compute_components_batch", per_move_components)
    monkeypatch.setattr(local_opt, "batched_variation_reductions", per_move_reductions)
    use_scalar_verdicts(monkeypatch)


def per_move_grid_reductions(problem, tree, result, predictor, moves):
    """Oracle of :func:`repro.core.placement_model._grid_reductions`.

    Each grid move is featurized by the scalar featurizer, predicted as
    a one-row batch and scored by the scalar scorer.
    """
    library = problem.design.library
    names = predictor.corner_names
    reductions = []
    for move in moves:
        comp = compute_move_components(tree, library, result.per_corner, move)
        row = predictor.predict_matrix(FeatureBatch.assemble([comp], names))[0]
        reductions.append(
            predicted_variation_reduction(
                problem, tree, result, comp, dict(zip(names, row.tolist()))
            )
        )
    return np.asarray(reductions)


def use_per_move_location_fit(patch):
    """Fit location models from per-move scores instead of one batch."""
    patch.setattr(placement_model, "_grid_reductions", per_move_grid_reductions)


def per_arc_scan(eco, queries):
    """Oracle of :meth:`LPGuidedECO._search`: the scalar scan, arc by arc."""
    return [eco._scan_candidates(*query) for query in queries]


def use_scalar_scan(patch):
    """Search ECO candidates with the scalar scan wherever the kernel would run.

    ``_search`` is the ECO's one search entry point, so no kernel table
    is built while the patch holds.
    """
    patch.setattr(LPGuidedECO, "_search", per_arc_scan)


# --- Move enumeration: one library question per buffer, direction, step --
def reference_enumerate_moves(tree, library, displace_um=DISPLACE_UM):
    """Oracle of :func:`repro.core.moves.enumerate_moves`: asks the library
    whether each resize changes the size for every buffer, direction and
    step (default surgery window)."""

    def sizeable(size, step):
        return library.step_size(size, step) != size

    moves = []
    index = SurgeryIndex(tree)
    for nid in sorted(tree.buffers()):
        node = tree.node(nid)
        if not node.is_buffer:
            continue
        child = _pick_child_buffer(tree, nid)
        for direction, _ in COMPASS_DIRECTIONS:
            dx, dy = compass_offset(direction, displace_um)
            for step in (+1, -1):
                if sizeable(node.size, step):
                    moves.append(
                        Move(MoveType.SIZING_DISPLACE, nid, dx=dx, dy=dy, size_step=step)
                    )
                if child is not None and sizeable(tree.node(child).size, step):
                    moves.append(
                        Move(
                            MoveType.CHILD_SIZING,
                            nid,
                            dx=dx,
                            dy=dy,
                            child=child,
                            child_size_step=step,
                        )
                    )
        for new_parent in surgery_candidates(tree, nid, index=index):
            moves.append(Move(MoveType.SURGERY, nid, new_parent=new_parent))
    return moves


# --- Feature kernel: one program compiled per plan -----------------------
@dataclass(frozen=True)
class _NetProgram:
    """One net plan's RC construction, replayed as flat arrays."""

    n_nodes: int
    parent: np.ndarray  # (n,) parent slot, -1 for the root
    seg: np.ndarray  # (n,) pi-piece length (res = res_per_um * seg)
    term_code: np.ndarray  # (n, T) term codes, 0 = absent
    term_val: np.ndarray  # (n, T) term payloads (lengths or constants)
    child_slot: np.ndarray  # (fanout,) RC slot per plan child, spec order


def reference_compile_plan(kernel, plan) -> _NetProgram:
    """Oracle of the feature kernel's templates: one plan's RC
    construction, pin caps included, replayed as flat arrays."""
    slot_of: Dict[object, int] = {}
    parent: List[int] = []
    seg: List[float] = []
    terms: List[List[Tuple[int, float]]] = []

    def add_root(name) -> None:
        slot_of[name] = len(parent)
        parent.append(-1)
        seg.append(0.0)
        terms.append([])

    def add_node(name, up, piece_len, term) -> None:
        slot_of[name] = len(parent)
        parent.append(slot_of[up])
        seg.append(piece_len)
        terms.append([term] if term is not None else [])

    def add_cap(name, term) -> None:
        terms[slot_of[name]].append(term)

    def add_wire_path(start, end, length) -> None:
        # Mirrors route.rc_net._add_wire_path's construction order.
        if length <= 0.0:
            add_node(end, start, 0.0, None)
            return
        pieces = max(1, int(np.ceil(length / ESTIMATE_SEGMENT_UM)))
        piece_len = length / pieces
        add_cap(start, (_TERM_HALF, piece_len))
        prev = start
        for i in range(pieces):
            name = (end, "seg", i) if i < pieces - 1 else end
            term = (
                (_TERM_WIRE, piece_len)
                if i < pieces - 1
                else (_TERM_HALF, piece_len)
            )
            add_node(name, prev, piece_len, term)
            prev = name

    if plan.route_model == "star":
        add_root("drv")
        for cid, loc, cap in plan.children:
            add_wire_path(
                "drv", cid, path_length([plan.driver_loc, loc])
            )
            add_cap(cid, (_TERM_CONST, cap))
    else:
        route = plan.route
        pin_loads = {plan.name_of[cid]: cap for cid, _, cap in plan.children}
        adj = route.adjacency()
        add_root(0)
        if 0 in pin_loads:
            add_cap(0, (_TERM_CONST, pin_loads[0]))
        visited = {0}
        stack = [0]
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if nxt in visited:
                    continue
                visited.add(nxt)
                length = route.points[cur].manhattan(route.points[nxt])
                add_wire_path(cur, nxt, length)
                if nxt in pin_loads:
                    add_cap(nxt, (_TERM_CONST, pin_loads[nxt]))
                stack.append(nxt)

    n = len(parent)
    max_terms = max((len(t) for t in terms), default=0)
    term_code = np.zeros((n, max(max_terms, 1)), dtype=np.int8)
    term_val = np.zeros((n, max(max_terms, 1)))
    for slot, tlist in enumerate(terms):
        for t, (code, val) in enumerate(tlist):
            term_code[slot, t] = code
            term_val[slot, t] = val
    child_slot = np.array(
        [slot_of[plan.name_of[cid]] for cid, _, _ in plan.children],
        dtype=np.int64,
    )
    return _NetProgram(
        n_nodes=n,
        parent=np.asarray(parent, dtype=np.int64),
        seg=np.asarray(seg),
        term_code=term_code,
        term_val=term_val,
        child_slot=child_slot,
    )


# --- Feature kernel: tuple-keyed planning per (spec, route model) -------
def spec_nets(specs, fanout):
    """The ``(driver, children)`` nets of the kernel's spec rows, with
    ``Point`` s and int ids, as the per-move path builds them."""
    nets = []
    for row, f in zip(specs.tolist(), fanout.tolist()):
        children = tuple(
            (int(row[2 + 4 * k]), Point(row[3 + 4 * k], row[4 + 4 * k]), row[5 + 4 * k])
            for k in range(f)
        )
        nets.append((Point(row[0], row[1]), children))
    return nets


def reference_batch_specs(tree, library, moves):
    """The nets the feature kernel plans for a batch of ``moves``: each
    distinct parent-net spec (buffer, displacement, new size) in first-use
    order, then each distinct own-net spec (buffer, displacement, resized
    child, child size), built from ``_children_spec`` tuples and
    ``Point.translated`` one move at a time."""
    size_pos = library.nldm.size_pos
    parent_nets = {}
    own_nets = {}
    for move in moves:
        if move.type is MoveType.SURGERY:
            continue
        b = move.buffer
        node = tree.node(b)
        parent = tree.parent(b)
        new_size = node.size
        if move.type is MoveType.SIZING_DISPLACE and move.size_step:
            new_size = library.step_size(node.size, move.size_step)
        child = child_size = None
        if move.type is MoveType.CHILD_SIZING and move.child is not None:
            child = move.child
            child_size = library.step_size(tree.node(child).size, move.child_size_step)
        if (
            _driver_size(tree, library, parent) not in size_pos
            or new_size not in size_pos
            or (child_size is not None and child_size not in size_pos)
        ):
            continue
        new_loc = node.location.translated(move.dx, move.dy)
        key = (b, move.dx, move.dy, new_size)
        if key not in parent_nets:
            parent_nets[key] = (
                tree.node(parent).location,
                tuple(
                    (b, new_loc, library.input_cap_ff(new_size)) if cid == b else (cid, loc, cap)
                    for cid, loc, cap in _children_spec(tree, library, parent)
                ),
            )
        key = (b, move.dx, move.dy, child, child_size)
        if key not in own_nets:
            own_nets[key] = (
                new_loc,
                tuple(
                    (cid, loc, library.input_cap_ff(child_size)) if cid == child else (cid, loc, cap)
                    for cid, loc, cap in _children_spec(tree, library, b)
                ),
            )
    return [*parent_nets.values(), *own_nets.values()]


class TupleKeyedPlanner:
    """Oracle of the feature kernel's memo traffic: planning per (spec,
    route model) under tuple keys, which the spec-keyed memo replaced.

    Each batch plans every spec under every route model in turn.  A plan
    memo is keyed by ``(model, driver, children)``; a plan the batch
    already missed is a hit.  Each rsmt/trunk plan miss looks its route
    up by ``(model, driver, child locations)``, a route the batch already
    missed being a hit, and a batch with missing routes of a model makes
    one lockstep call of it.  Then every plan is looked up in a wire
    memo under its key: a plan missed earlier in the batch counts
    neither way, and the missed plans compile one program per distinct
    ``(model, driver, child locations)``.  Nothing is evicted.
    """

    def __init__(self) -> None:
        self.plans = set()
        self.routes = set()
        self.wire = set()
        self.stats = dict.fromkeys(
            (
                "wire_hits",
                "wire_misses",
                "programs_compiled",
                "route_hits",
                "route_misses",
                "rsmt_batches",
                "trunk_batches",
            ),
            0,
        )

    @staticmethod
    def _geometry(model, driver, children):
        return (model, driver, tuple(loc for _, loc, _ in children))

    def batch(self, nets) -> None:
        """Count one batch of ``(driver, children)`` nets."""
        stats = self.stats
        missed_routes = {"rsmt": False, "trunk": False}
        for driver, children in nets:
            for model in _ROUTE_MODELS:
                key = (model, driver, children)
                if key in self.plans:
                    continue
                self.plans.add(key)
                if model == "star":
                    continue
                geometry = self._geometry(model, driver, children)
                if geometry in self.routes:
                    stats["route_hits"] += 1
                else:
                    stats["route_misses"] += 1
                    self.routes.add(geometry)
                    missed_routes[model] = True
        for model, missed in missed_routes.items():
            stats[f"{model}_batches"] += missed
        pending = set()
        geometries = set()
        for driver, children in nets:
            for model in _ROUTE_MODELS:
                key = (model, driver, children)
                if key in self.wire:
                    stats["wire_hits"] += 1
                elif key not in pending:
                    stats["wire_misses"] += 1
                    pending.add(key)
                    geometries.add(self._geometry(model, driver, children))
        stats["programs_compiled"] += len(geometries)
        self.wire |= pending


# --- ECO legalizer: a set of every other node's site ---------------------
def reference_legalize(legalizer, tree, nid, desired):
    """Oracle of :meth:`Legalizer.legalize`: the set of every other
    node's site key, two ``round`` s per node, built before the snapped
    site is looked at, then the same ring search against it."""
    occupied = {
        legalizer._site_key(node.location) for node in tree.nodes() if node.id != nid
    }
    base = legalizer.snap(desired)
    bx, by = legalizer._site_key(base)
    if (bx, by) not in occupied:
        return base
    region, pitch = legalizer.region, legalizer.pitch_um
    for ring in range(1, legalizer.max_rings + 1):
        candidates = []
        for dx in range(-ring, ring + 1):
            dy_mag = ring - abs(dx)
            for dy in sorted({dy_mag, -dy_mag}):
                candidates.append((bx + dx, by + dy))
        for cx, cy in sorted(candidates):
            point = Point(region.xlo + cx * pitch, region.ylo + cy * pitch)
            if region.contains(point) and (cx, cy) not in occupied:
                return point
    raise RuntimeError(f"no free site within {legalizer.max_rings} rings of {desired}")


# --- Candidate pipeline: one registry entry per cached move -------------
class PerMoveRegistryPipeline(CandidatePipeline):
    """Oracle of :class:`CandidatePipeline`'s move registry.

    Every cached move is registered against its own dependency nodes
    and evicted alone; the production pipeline registers and evicts a
    whole dependency set at a time.
    """

    def __init__(self, library) -> None:
        super().__init__(library)
        self._deps = {}

    def _remember(self, tree, moves, components) -> None:
        for move, comp in zip(moves, components):
            self._remember_one(tree, move, comp)

    def invalidate(self, touched_local=(), touched_arrival=(), structural=False):
        if structural:
            count = len(self._components)
            self.flush()
            return count
        doomed = set()
        for nid in touched_local:
            bucket = self._by_local.get(nid)
            if bucket:
                doomed.update(bucket)
        for nid in touched_arrival:
            bucket = self._by_arrival.get(nid)
            if bucket:
                doomed.update(bucket)
        for move in doomed:
            self._evict(move)
        self.stats["invalidated"] += len(doomed)
        return len(doomed)

    def flush(self) -> None:
        self.stats["flushes"] += 1
        self._components.clear()
        self._deps.clear()
        self._by_local.clear()
        self._by_arrival.clear()

    def _remember_one(self, tree, move, comp) -> None:
        if len(self._components) >= MAX_CACHED_MOVES:
            self.flush()
        deps_local, deps_arrival = move_dependencies(tree, move)
        self._components[move] = comp
        self._deps[move] = (deps_local, deps_arrival)
        for nid in deps_local:
            self._by_local.setdefault(nid, set()).add(move)
        for nid in deps_arrival:
            self._by_arrival.setdefault(nid, set()).add(move)

    def _evict(self, move) -> None:
        self._components.pop(move, None)
        deps_local, deps_arrival = self._deps.pop(move, (frozenset(), frozenset()))
        for nid in deps_local:
            bucket = self._by_local.get(nid)
            if bucket is not None:
                bucket.discard(move)
        for nid in deps_arrival:
            bucket = self._by_arrival.get(nid)
            if bucket is not None:
                bucket.discard(move)


# --- RSMT: the per-set iterated 1-Steiner loop ---------------------------
def _distance_matrix(points: Sequence[Point]) -> np.ndarray:
    xs = np.asarray([p.x for p in points])
    ys = np.asarray([p.y for p in points])
    return np.abs(xs[:, None] - xs[None, :]) + np.abs(ys[:, None] - ys[None, :])


def _mst_edges(dist: np.ndarray) -> List[Tuple[int, int]]:
    """Prim's algorithm on a dense Manhattan distance matrix."""
    n = dist.shape[0]
    if n <= 1:
        return []
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best_dist = dist[0].copy()
    best_src = np.zeros(n, dtype=int)
    edges: List[Tuple[int, int]] = []
    for _ in range(n - 1):
        masked = np.where(in_tree, np.inf, best_dist)
        nxt = int(np.argmin(masked))
        edges.append((int(best_src[nxt]), nxt))
        in_tree[nxt] = True
        closer = dist[nxt] < best_dist
        best_dist = np.where(closer, dist[nxt], best_dist)
        best_src = np.where(closer, nxt, best_src)
    return edges


def _mst_length(dist: np.ndarray) -> float:
    n = dist.shape[0]
    if n <= 1:
        return 0.0
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = dist[0].copy()
    total = 0.0
    for _ in range(n - 1):
        masked = np.where(in_tree, np.inf, best)
        nxt = int(np.argmin(masked))
        total += masked[nxt]
        in_tree[nxt] = True
        best = np.minimum(best, dist[nxt])
    return float(total)


def _batched_trial_lengths(
    current: Sequence[Point], candidates: Sequence[Point]
) -> np.ndarray:
    """MST length of ``current + [cand]`` for every candidate at once.

    Runs Prim's algorithm on all ``C`` trial point sets in lockstep —
    every array operation applies :func:`_mst_length`'s scalar operation
    elementwise across candidates in the same order (same argmin
    tie-breaks, same ``minimum`` relaxations, same left-to-right adds),
    so entry ``c`` is bit-identical to
    ``_mst_length(_distance_matrix(current + [candidates[c]]))``.
    """
    xs = np.asarray([p.x for p in current])
    ys = np.asarray([p.y for p in current])
    base = np.abs(xs[:, None] - xs[None, :]) + np.abs(ys[:, None] - ys[None, :])
    cx = np.asarray([p.x for p in candidates])
    cy = np.asarray([p.y for p in candidates])
    cross = np.abs(cx[:, None] - xs[None, :]) + np.abs(cy[:, None] - ys[None, :])
    n_cand, n = cross.shape
    m = n + 1
    dist = np.empty((n_cand, m, m))
    dist[:, :n, :n] = base
    dist[:, n, :n] = cross
    dist[:, :n, n] = cross
    dist[:, n, n] = 0.0

    in_tree = np.zeros((n_cand, m), dtype=bool)
    in_tree[:, 0] = True
    best = dist[:, 0, :].copy()
    total = np.zeros(n_cand)
    rows = np.arange(n_cand)
    for _ in range(m - 1):
        masked = np.where(in_tree, np.inf, best)
        nxt = np.argmin(masked, axis=1)
        total = total + masked[rows, nxt]
        in_tree[rows, nxt] = True
        best = np.minimum(best, dist[rows, nxt, :])
    return total


def reference_rectilinear_mst(points: Sequence[Point]) -> RouteTree:
    """Oracle of :func:`repro.route.rsmt.rectilinear_mst`."""
    pts = tuple(points)
    if not pts:
        raise ValueError("cannot route an empty pin set")
    dist = _distance_matrix(pts)
    return RouteTree(points=pts, edges=tuple(_mst_edges(dist)), num_pins=len(pts))


def _hanan_candidates(points: Sequence[Point]) -> List[Point]:
    xs = sorted({p.x for p in points})
    ys = sorted({p.y for p in points})
    existing = {(p.x, p.y) for p in points}
    return [
        Point(x, y) for x in xs for y in ys if (x, y) not in existing
    ]


def reference_rsmt(points: Sequence[Point]) -> RouteTree:
    """Oracle of :func:`repro.route.rsmt.rsmt_batch`: one point set at a time.

    Uses iterated 1-Steiner (greedy Hanan-point insertion) for nets up to
    :data:`ONE_STEINER_MAX_PINS` pins and a rectilinear MST beyond that.
    Duplicated pin locations are handled (zero-length edges).
    """
    pts = list(points)
    if not pts:
        raise ValueError("cannot route an empty pin set")
    if len(pts) <= 2 or len(pts) > ONE_STEINER_MAX_PINS:
        return reference_rectilinear_mst(pts)

    chosen: List[Point] = []
    current = list(pts)
    current_len = _mst_length(_distance_matrix(current))
    candidates = _hanan_candidates(pts)
    while candidates:
        best_gain = 1e-9
        best_point = None
        trial_lengths = _batched_trial_lengths(current, candidates)
        for cand, trial_len in zip(candidates, trial_lengths.tolist()):
            gain = current_len - trial_len
            if gain > best_gain:
                best_gain = gain
                best_point = cand
        if best_point is None:
            break
        chosen.append(best_point)
        current.append(best_point)
        current_len -= best_gain
        candidates = [c for c in candidates if c != best_point]

    all_points = tuple(pts) + tuple(chosen)
    dist = _distance_matrix(all_points)
    edges = _mst_edges(dist)
    tree = RouteTree(points=all_points, edges=tuple(edges), num_pins=len(pts))
    return _prune_useless_steiner(tree)


# --- Single trunk: one net at a time -------------------------------------
def reference_trunk_tree(points: Sequence[Point], horizontal: bool) -> RouteTree:
    """One orientation's trunk tree, before coincident taps merge."""
    pts = list(points)
    if horizontal:
        trunk_coord = statistics.median(p.y for p in pts)
        taps = [Point(p.x, trunk_coord) for p in pts]
        order = sorted(range(len(pts)), key=lambda i: (taps[i].x, i))
    else:
        trunk_coord = statistics.median(p.x for p in pts)
        taps = [Point(trunk_coord, p.y) for p in pts]
        order = sorted(range(len(pts)), key=lambda i: (taps[i].y, i))

    all_points: List[Point] = list(pts)
    edges: List[Tuple[int, int]] = []
    tap_index: List[int] = []
    for i, tap in enumerate(taps):
        if tap == pts[i]:
            tap_index.append(i)
        else:
            all_points.append(tap)
            idx = len(all_points) - 1
            edges.append((i, idx))
            tap_index.append(idx)
    for a, b in zip(order, order[1:]):
        if tap_index[a] != tap_index[b]:
            edges.append((tap_index[a], tap_index[b]))
    return RouteTree(
        points=tuple(all_points), edges=tuple(edges), num_pins=len(pts)
    )


def reference_dedupe(tree: RouteTree) -> RouteTree:
    """Merge coincident tap points so the edge count matches a tree."""
    seen = {}
    remap = {}
    points: List[Point] = []
    for idx, p in enumerate(tree.points):
        key = (p.x, p.y)
        if idx < tree.num_pins:
            remap[idx] = len(points)
            points.append(p)
            # Pins are never merged away, but later taps may merge onto them.
            seen.setdefault(key, remap[idx])
        else:
            if key in seen:
                remap[idx] = seen[key]
            else:
                remap[idx] = len(points)
                seen[key] = remap[idx]
                points.append(p)
    edges = set()
    for a, b in tree.edges:
        ra, rb = remap[a], remap[b]
        if ra != rb:
            edges.add((min(ra, rb), max(ra, rb)))
    return RouteTree(
        points=tuple(points), edges=tuple(sorted(edges)), num_pins=tree.num_pins
    )


def reference_single_trunk(points: Sequence[Point]) -> RouteTree:
    """Oracle of :func:`repro.route.single_trunk.single_trunk_batch`: one
    net at a time, the shorter of its horizontal and vertical trunk trees
    (horizontal on a tie)."""
    pts = list(points)
    if not pts:
        raise ValueError("cannot route an empty pin set")
    if len(pts) == 1:
        return RouteTree(points=tuple(pts), edges=(), num_pins=1)
    horizontal = reference_dedupe(reference_trunk_tree(pts, horizontal=True))
    vertical = reference_dedupe(reference_trunk_tree(pts, horizontal=False))
    return horizontal if horizontal.length <= vertical.length else vertical


def reference_hop_fill(row, buckets):
    """Oracle of ``_HopRow.fill``: one discretized RC tree per bucket."""
    wire = row.library.wire(row.corner)
    for bucket in buckets:
        length = bucket / 4.0 * chain_length_factor()
        rc = edge_rc_tree([Point(0.0, 0.0), Point(length, 0.0)], wire, row.load_ff)
        row.delay[bucket] = d2m_delays(rc)["sink"]
        row.elmore[bucket] = elmore_delays(rc)["sink"]
        row.filled[bucket] = True


def reference_stage_luts(
    library,
    sizes: Sequence[int] = (),
    wl_axis: Sequence[float] = DEFAULT_WL_AXIS,
    detail_slew_axis: Sequence[float] = DETAIL_SLEW_AXIS,
    detail_load_axis: Sequence[float] = DETAIL_LOAD_AXIS,
) -> Dict[str, StageDelayLUT]:
    """Oracle of :func:`~repro.tech.stage_lut.characterize_stage_luts`.

    One scalar :func:`steady_state_stage` per LUTuniform entry and one
    scalar :func:`stage_delay` per LUTdetail grid point.
    """
    use_sizes = tuple(sizes) if sizes else library.sizes
    slews = np.asarray(detail_slew_axis, dtype=float)
    loads = np.asarray(detail_load_axis, dtype=float)
    shape = (len(use_sizes), len(wl_axis))
    luts: Dict[str, StageDelayLUT] = {}
    for corner in library.corners:
        uniform = np.empty(shape)
        uniform_slew = np.empty(shape)
        detail = np.empty(shape + (slews.size, loads.size))
        detail_slew = np.empty_like(detail)
        for i, size in enumerate(use_sizes):
            for j, wl in enumerate(wl_axis):
                uniform[i, j], uniform_slew[i, j] = steady_state_stage(
                    library, corner, size, wl
                )
                for a, slew_in in enumerate(detail_slew_axis):
                    for b, load in enumerate(detail_load_axis):
                        detail[i, j, a, b], detail_slew[i, j, a, b] = stage_delay(
                            library, corner, size, wl, slew_in, load
                        )
        luts[corner.name] = StageDelayLUT(
            corner=corner,
            sizes=use_sizes,
            wl_axis=tuple(wl_axis),
            slew_axis=slews,
            load_axis=loads,
            uniform=uniform,
            uniform_slew=uniform_slew,
            detail=detail,
            detail_slew=detail_slew,
        )
    return luts


#: The array fields of a :class:`~repro.tech.stage_lut.StageDelayLUT`.
LUT_ARRAYS = (
    "slew_axis",
    "load_axis",
    "uniform",
    "uniform_slew",
    "detail",
    "detail_slew",
)


def stage_luts_equal(got, expected) -> bool:
    """Two ``{corner: StageDelayLUT}`` maps agree on every axis and value."""
    return got.keys() == expected.keys() and all(
        (lut.corner, lut.sizes, lut.wl_axis) == (ref.corner, ref.sizes, ref.wl_axis)
        and all(np.array_equal(getattr(lut, f), getattr(ref, f)) for f in LUT_ARRAYS)
        for lut, ref in ((got[name], expected[name]) for name in got)
    )


def reference_ratio_cloud(
    library,
    corner_a,
    corner_b,
    sizes: Sequence[int] = (),
    wl_axis: Sequence[float] = DEFAULT_WL_AXIS,
    slew_axis: Sequence[float] = DETAIL_SLEW_AXIS,
    load_axis: Sequence[float] = DETAIL_LOAD_AXIS,
    wl_stride: int = 2,
) -> RatioCloud:
    """Oracle of :func:`~repro.tech.ratio_bounds.sample_ratio_cloud`.

    Three scalar :func:`stage_delay` calls per configuration.
    """
    use_sizes = tuple(sizes) if sizes else library.sizes
    nominal = library.corners.nominal
    densities: List[float] = []
    ratios: List[float] = []
    for size in use_sizes:
        for wl in wl_axis[::wl_stride]:
            for slew in slew_axis:
                for load in load_axis:
                    d_nom, _ = stage_delay(library, nominal, size, wl, slew, load)
                    d_a, _ = stage_delay(library, corner_a, size, wl, slew, load)
                    d_b, _ = stage_delay(library, corner_b, size, wl, slew, load)
                    if d_b <= 0.0:
                        continue
                    densities.append(d_nom / wl)
                    ratios.append(d_a / d_b)
    return RatioCloud(
        corner_a=corner_a,
        corner_b=corner_b,
        density=tuple(densities),
        ratio=tuple(ratios),
    )


def reference_widen_to_cover(
    bounds: RatioBounds, density: np.ndarray, ratio: np.ndarray
) -> RatioBounds:
    """Oracle of ``ratio_bounds._widen_to_cover``: one sample at a time."""
    upper_gap = 0.0
    lower_gap = 0.0
    for d, r in zip(density, ratio):
        upper_gap = max(upper_gap, r - bounds.upper(d))
        lower_gap = max(lower_gap, bounds.lower(d) - r)
    upper = np.asarray(bounds.upper_coeffs, dtype=float)
    lower = np.asarray(bounds.lower_coeffs, dtype=float)
    upper[-1] += upper_gap
    lower[-1] -= lower_gap
    return RatioBounds(
        corner_a=bounds.corner_a,
        corner_b=bounds.corner_b,
        degree=bounds.degree,
        upper_coeffs=tuple(upper),
        lower_coeffs=tuple(lower),
        density_min=bounds.density_min,
        density_max=bounds.density_max,
    )


def reference_ratio_bounds(library, degree: int = 2) -> Dict[Tuple[str, str], RatioBounds]:
    """Oracle of :func:`~repro.tech.ratio_bounds.fit_all_ratio_bounds`.

    Scalar clouds, one per ordered pair, fitted with the scalar widening.
    """
    out: Dict[Tuple[str, str], RatioBounds] = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ratio_bounds, "_widen_to_cover", reference_widen_to_cover)
        for a in library.corners:
            for b in library.corners:
                if a.name == b.name:
                    continue
                cloud = reference_ratio_cloud(library, a, b)
                out[(a.name, b.name)] = ratio_bounds.fit_ratio_bounds(
                    cloud, degree=degree
                )
    return out


# --- Skew verdicts: Eqs. (1)-(3) one pair and one corner pair at a time ---
def normalization_factors(latencies, pairs, corners) -> Dict[str, float]:
    """Per-corner ``alpha_k = sum |skew^{c0}| / sum |skew^{ck}|`` (Table 1).

    ``alpha_0`` is exactly 1; corners at which the tree shows zero total
    skew fall back to 1.0.
    """
    nominal = corners.nominal.name
    base = sum(abs(pair_skew(latencies[nominal], p)) for p in pairs)
    factors: Dict[str, float] = {}
    for corner in corners:
        total = sum(abs(pair_skew(latencies[corner.name], p)) for p in pairs)
        if corner.name == nominal or total <= 0.0 or base <= 0.0:
            factors[corner.name] = 1.0
        else:
            factors[corner.name] = base / total
    return factors


def normalized_skew_variation(latencies, pair, corner_a, corner_b, alphas) -> float:
    """Eq. (1): normalized skew variation of one pair across one corner pair."""
    skew_a = pair_skew(latencies[corner_a.name], pair)
    skew_b = pair_skew(latencies[corner_b.name], pair)
    return abs(alphas[corner_a.name] * skew_a - alphas[corner_b.name] * skew_b)


def worst_pair_variation(latencies, pair, corners, alphas) -> float:
    """Eq. (2): max normalized skew variation of ``pair`` over corner pairs."""
    return max(
        normalized_skew_variation(latencies, pair, ca, cb, alphas)
        for ca, cb in corners.pairs()
    )


def sum_of_skew_variations(latencies, pairs, corners, alphas) -> float:
    """Eq. (3) objective: sum over pairs of the worst normalized variation."""
    return sum(
        worst_pair_variation(latencies, pair, corners, alphas) for pair in pairs
    )


def reference_skew_analysis(latencies, pairs, corners, alphas=None) -> SkewAnalysis:
    """Oracle of :class:`~repro.sta.skew.SkewAnalysis`: the per-pair loop.

    The analysis holds plain dicts; a pair listed twice is counted once.
    With no pairs the total is 0.0 and every local skew 0.0.
    """
    if alphas is None:
        alphas = normalization_factors(latencies, pairs, corners)
    alphas = {c.name: alphas[c.name] for c in corners}
    pair_var: Dict[Tuple[int, int], float] = {}
    for pair in pairs:
        pair_var[pair] = worst_pair_variation(latencies, pair, corners, alphas)
    local: Dict[str, float] = {}
    for corner in corners:
        per_corner = latencies[corner.name]
        local[corner.name] = max(
            (abs(pair_skew(per_corner, p)) for p in pairs), default=0.0
        )
    return SkewAnalysis(
        alphas=alphas,
        pair_variation=pair_var,
        total_variation=sum(pair_var.values(), 0.0),
        local_skew=local,
    )


def reference_from_arrivals(arrival, positions, corners, alphas=None) -> SkewAnalysis:
    """Oracle of :meth:`SkewAnalysis.from_arrivals`: gathers the pairs'
    latencies into dicts and runs :func:`reference_skew_analysis`."""
    latencies = {c.name: {} for c in corners}
    for row, (launch, capture) in enumerate(positions.pairs):
        for k, corner in enumerate(corners):
            latencies[corner.name][launch] = float(arrival[k, positions.launch[row]])
            latencies[corner.name][capture] = float(arrival[k, positions.capture[row]])
    return reference_skew_analysis(latencies, list(positions.pairs), corners, alphas)


def use_scalar_verdicts(patch):
    """Judge every timing result with the per-pair loop, golden and
    incremental engines alike (both analyze through ``from_arrivals``)."""
    patch.setattr(SkewAnalysis, "from_arrivals", staticmethod(reference_from_arrivals))
