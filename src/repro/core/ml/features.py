"""Feature extraction for the delta-latency models.

Per the paper, the inputs to the machine-learning model are the
analytical delay estimates from {FLUTE tree, single-trunk Steiner tree} x
{Elmore, D2M}, plus the number of fanout cells and the area and aspect
ratio of the bounding box containing the driving pin and fanout cells.
We add the move descriptors (type, size steps, displacement) that the
estimates are conditioned on.

One feature vector is produced per (move, corner); the paper trains one
model per corner.  A featurized move, :class:`MoveComponents`, is one
array record that the per-move featurizer here and the array feature
kernel (:mod:`repro.core.ml.feature_kernel`) fill the same way;
:meth:`~repro.core.ml.pipeline.FeatureBatch.assemble` stacks a batch of
them into one design matrix per corner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.core.ml.analytical import MoveImpact, estimate_move_impacts
from repro.core.moves import Move, MoveType
from repro.netlist.tree import ClockTree
from repro.sta.timer import CornerTiming
from repro.tech.library import Library

#: The four analytical estimator variants, in feature order.
ESTIMATOR_VARIANTS: Tuple[Tuple[str, str], ...] = (
    ("rsmt", "elmore"),
    ("rsmt", "d2m"),
    ("trunk", "elmore"),
    ("trunk", "d2m"),
)

#: Extra impact computed for side-effect (sibling) corrections — uses the
#: golden router's own star topology, but is NOT part of the feature
#: vector (the ML features stay faithful to the paper's list).
SIDE_EFFECT_VARIANT: Tuple[str, str] = ("star", "d2m")

#: Human-readable names of the feature columns.  The parent-net block
#: describes the *driving* net: the driver-delay component of a move's
#: latency change depends on that net's congestion context, so the model
#: needs it to learn router-vs-estimate discrepancies there too.
FEATURE_NAMES: Tuple[str, ...] = (
    "est_rsmt_elmore",
    "est_rsmt_d2m",
    "est_trunk_elmore",
    "est_trunk_d2m",
    "fanout",
    "bbox_area_kum2",
    "bbox_aspect",
    "wirelength_um",
    "parent_fanout",
    "parent_bbox_area_kum2",
    "parent_bbox_aspect",
    "parent_wirelength_um",
    "input_slew_ps",
    "size_after",
    "drive_res_proxy",
    "move_type_I",
    "move_type_II",
    "move_type_III",
    "size_step",
    "child_size_step",
    "displacement_um",
)


#: Columns of the feature row that differ between corners: the four
#: estimator deltas followed (later) by the buffer's input slew.  Every
#: other column is corner-independent and shared across the batch.
N_ESTIMATE_COLS = len(ESTIMATOR_VARIANTS)
SLEW_COL = FEATURE_NAMES.index("input_slew_ps")


@dataclass(frozen=True)
class MoveComponents:
    """One featurized move as plain arrays, corners in library order.

    ``base_row`` is the ``(features,)`` feature row with the
    corner-dependent columns (the four estimator deltas and
    ``input_slew_ps``) left at zero;
    :meth:`~repro.core.ml.pipeline.FeatureBatch.assemble` fills them per
    corner from ``estimates`` and ``input_slew``.  ``estimates`` holds
    the :data:`ESTIMATOR_VARIANTS` subtree deltas (driver update and
    PERI slew applied) and ``wire_only`` the same variants' wire-only
    deltas (gate delays frozen at baseline: the paper's Figure-6
    analytical models), one row per corner.  ``side`` holds
    :data:`SIDE_EFFECT_VARIANT`'s old- and new-sibling deltas, the only
    impact values the move scorer reads.
    """

    move: Move
    base_row: np.ndarray  # (features,)
    estimates: np.ndarray  # (corners, 4) subtree deltas
    wire_only: np.ndarray  # (corners, 4) wire-only subtree deltas
    input_slew: np.ndarray  # (corners,) slew at the buffer (ps)
    side: np.ndarray  # (2, corners) old-/new-sibling side-effect deltas


def compute_move_components(
    tree: ClockTree,
    library: Library,
    timings: Mapping[str, CornerTiming],
    move: Move,
) -> MoveComponents:
    """The per-move featurizer: the components of ``move`` against ``timings``.

    One move at a time, through the per-move analytical estimators.  The
    array :class:`~repro.core.ml.feature_kernel.FeatureKernel` is held
    bit-identical to it and runs it itself for the moves it does not
    compile (surgery, off-table sizes).
    """
    impacts: Dict[Tuple[str, str], MoveImpact] = {}
    route_models = {r for r, _ in (*ESTIMATOR_VARIANTS, SIDE_EFFECT_VARIANT)}
    for route_model in sorted(route_models):
        by_metric = estimate_move_impacts(tree, library, timings, move, route_model)
        for metric, impact in by_metric.items():
            impacts[(route_model, metric)] = impact

    reference = impacts[ESTIMATOR_VARIANTS[1]]  # rsmt + d2m
    net = reference.net_after
    parent_net = reference.parent_net or net
    size_after = tree.node(move.buffer).size or 0
    if move.type is MoveType.SIZING_DISPLACE and move.size_step:
        size_after = library.step_size(size_after, move.size_step)
    type_onehot = {
        MoveType.SIZING_DISPLACE: (1.0, 0.0, 0.0),
        MoveType.CHILD_SIZING: (0.0, 1.0, 0.0),
        MoveType.SURGERY: (0.0, 0.0, 1.0),
    }[move.type]
    displacement = abs(move.dx) + abs(move.dy)

    base_row = np.asarray(
        [
            *([0.0] * N_ESTIMATE_COLS),
            float(net.fanout),
            net.bbox_area_um2 / 1000.0,
            net.bbox_aspect,
            net.wirelength_um,
            float(parent_net.fanout),
            parent_net.bbox_area_um2 / 1000.0,
            parent_net.bbox_aspect,
            parent_net.wirelength_um,
            0.0,  # input_slew_ps, scattered per corner
            float(size_after),
            1.0 / max(size_after, 1),
            *type_onehot,
            float(move.size_step),
            float(move.child_size_step),
            displacement,
        ],
        dtype=float,
    )

    names = [corner.name for corner in library.corners]
    side = impacts[SIDE_EFFECT_VARIANT]
    return MoveComponents(
        move=move,
        base_row=base_row,
        estimates=np.array(
            [[impacts[v].subtree[name] for v in ESTIMATOR_VARIANTS] for name in names]
        ),
        wire_only=np.array(
            [
                [impacts[v].subtree_wire_only[name] for v in ESTIMATOR_VARIANTS]
                for name in names
            ]
        ),
        input_slew=np.array(
            [float(timings[name].input_slew.get(move.buffer, 0.0)) for name in names]
        ),
        side=np.array(
            [
                [side.old_siblings[name] for name in names],
                [side.new_siblings[name] for name in names],
            ]
        ),
    )
