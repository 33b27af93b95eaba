"""Builders turning route geometry into distributed RC trees.

Three builders cover every analysis need:

* :func:`edge_rc_tree` — one routed edge (polyline) with a lumped load at
  the far end.
* :func:`star_rc_tree` — a driver with several independently routed edges
  (the clock tree's electrical net model); the root is the driver output.
  The golden timer's scalar loop, the timing kernels' oracle, builds one
  per net.
* :func:`route_rc_tree` — an arbitrary :class:`~repro.route.rsmt.RouteTree`
  (RSMT or single-trunk) with pin loads; used by the delta-latency
  predictor's analytical features.

All wire segments are discretized into pi-segments of at most
``segment_um`` so that Elmore/D2M see distributed, not lumped, wire.

:func:`straight_wire_moments` evaluates the far-end Elmore and D2M of
many :func:`edge_rc_tree` straight wires at once, at one corner's wire
parasitics or at every corner's, without building the trees.  Star
branches share only the driver output, so each branch of a
:func:`star_rc_tree` has its own straight wire's metrics bit for bit:
the timing kernel (all corners in one call) and the stage-delay
characterization (one corner's hops) evaluate every edge through it
and build no RC tree.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Sequence, Tuple

import numpy as np

from repro.geometry import Point, path_length
from repro.route.rsmt import RouteTree
from repro.rc import RCTree
from repro.sta.d2m import LN2
from repro.tech.wire import WireModel

#: Default maximum RC segment length (um).
DEFAULT_SEGMENT_UM = 20.0


def _add_wire_path(
    tree: RCTree,
    start_name: Hashable,
    end_name: Hashable,
    length_um: float,
    wire: WireModel,
    segment_um: float,
) -> None:
    """Attach a discretized wire of ``length_um`` between two RC nodes.

    Uses pi-segments: each segment contributes half its capacitance to its
    near node and half to its far node, converging to the distributed line
    as ``segment_um`` shrinks.
    """
    if length_um <= 0.0:
        tree.add_node(end_name, start_name, res_kohm=0.0, cap_ff=0.0)
        return
    pieces = max(1, int(math.ceil(length_um / segment_um)))
    piece_len = length_um / pieces
    piece_res = wire.segment_res(piece_len)
    piece_cap = wire.segment_cap(piece_len)
    prev = start_name
    tree.add_cap(prev, piece_cap / 2.0)
    for i in range(pieces):
        name = (end_name, "seg", i) if i < pieces - 1 else end_name
        # Interior junctions take a half-cap from each adjacent segment.
        cap = piece_cap if i < pieces - 1 else piece_cap / 2.0
        tree.add_node(name, prev, res_kohm=piece_res, cap_ff=cap)
        prev = name


def edge_rc_tree(
    polyline: Sequence[Point],
    wire: WireModel,
    load_ff: float,
    segment_um: float = DEFAULT_SEGMENT_UM,
) -> RCTree:
    """RC tree of a single routed edge; sink node is named ``"sink"``."""
    tree = RCTree()
    tree.add_root("drv")
    _add_wire_path(tree, "drv", "sink", path_length(list(polyline)), wire, segment_um)
    tree.add_cap("sink", load_ff)
    return tree


def straight_wire_moments(
    res_per_um,
    cap_per_um,
    lengths,
    loads,
    segment_um: float = DEFAULT_SEGMENT_UM,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(elmore, d2m)`` at the far end of straight wires, one lane each.

    Lane ``i`` is the :func:`edge_rc_tree` of a wire ``lengths[i]`` long
    with ``loads[i]`` at its far end (the two broadcast together), on a
    wire of ``res_per_um``/``cap_per_um`` parasitics.  Scalars time one
    corner; ``(corners,)`` arrays time every corner in one pass and add
    a leading corner axis to the result, since the piece layout does not
    depend on the corner.  The chains are laid out on a segment axis
    padded with zero caps past each lane's far end: downstream sums are
    reversed ``np.cumsum``s and the moments forward ones, which add the
    tree recursions' terms in their order, and the padding only adds
    exact zeros.  Every value therefore equals
    :func:`~repro.sta.elmore.elmore_delays` and
    :func:`~repro.sta.d2m.d2m_delays` on the tree bit for bit.  A
    negative length or load raises :class:`ValueError`, as
    :meth:`WireModel.segment_cap` and :meth:`RCTree.add_cap` do.
    """
    lengths, loads = np.broadcast_arrays(
        np.asarray(lengths, dtype=float), np.asarray(loads, dtype=float)
    )
    shape = lengths.shape
    lengths, loads = lengths.ravel(), loads.ravel()
    if (lengths < 0.0).any():
        raise ValueError("negative wire length")
    if (loads < 0.0).any():
        raise ValueError("negative capacitance")
    res_per_um = np.asarray(res_per_um, dtype=float)
    lead = res_per_um.shape
    # A zero length takes one zero-RC piece: the same zero moments as
    # the tree's zero-length node.
    pieces = np.maximum(np.ceil(lengths / segment_um), 1.0)
    piece_len = lengths / pieces
    res = res_per_um[..., None] * piece_len
    cap = np.asarray(cap_per_um, dtype=float)[..., None] * piece_len
    last = pieces.astype(np.intp) - 1
    lane = np.arange(lengths.size)
    # Node caps below the driver: a full piece cap at each interior
    # junction, half a piece plus the pin at the far end, zeros after.
    axis = np.arange(int(last.max()) + 1 if lengths.size else 0)
    caps = np.where(axis < last[:, None], cap[..., None], 0.0)
    caps[..., lane, last] = cap / 2.0 + loads
    res = res[..., None]
    down = np.cumsum(caps[..., ::-1], axis=-1)[..., ::-1]
    m1 = np.cumsum(res * down, axis=-1)
    down_cm = np.cumsum((caps * m1)[..., ::-1], axis=-1)[..., ::-1]
    m2 = np.cumsum(res * down_cm, axis=-1)
    first = m1[..., lane, last]
    second = m2[..., lane, last]
    live = (second > 0.0) & (first > 0.0)
    d2m = np.zeros_like(first)
    d2m[live] = np.minimum(
        LN2 * first[live] * first[live] / np.sqrt(second[live]), first[live]
    )
    return first.reshape(lead + shape), d2m.reshape(lead + shape)


def star_rc_tree(
    edges: Sequence[Tuple[Hashable, Sequence[Point], float]],
    wire: WireModel,
    segment_um: float = DEFAULT_SEGMENT_UM,
) -> RCTree:
    """RC tree of a multi-fanout net routed as independent edges.

    ``edges`` is a sequence of ``(sink_name, polyline, load_ff)``; every
    polyline starts at the driver location.  The returned tree's root is
    ``"drv"``; each sink's RC node carries its pin load.
    """
    tree = RCTree()
    tree.add_root("drv")
    for sink_name, polyline, load_ff in edges:
        _add_wire_path(
            tree, "drv", sink_name, path_length(list(polyline)), wire, segment_um
        )
        tree.add_cap(sink_name, load_ff)
    return tree


def route_rc_tree(
    route: RouteTree,
    root_pin: int,
    pin_loads: Dict[int, float],
    wire: WireModel,
    segment_um: float = DEFAULT_SEGMENT_UM,
) -> RCTree:
    """RC tree of a shared routing topology rooted at ``root_pin``.

    ``pin_loads`` maps pin indices (``< route.num_pins``) to capacitance;
    RC node names are the route-tree point indices, so callers can read
    delays at pin indices directly.
    """
    if root_pin >= len(route.points):
        raise ValueError("root pin outside route tree")
    adj = route.adjacency()
    tree = RCTree()
    tree.add_root(root_pin)
    if root_pin in pin_loads:
        tree.add_cap(root_pin, pin_loads[root_pin])
    visited = {root_pin}
    stack = [root_pin]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt in visited:
                continue
            visited.add(nxt)
            length = route.points[cur].manhattan(route.points[nxt])
            _add_wire_path(tree, cur, nxt, length, wire, segment_um)
            if nxt in pin_loads:
                tree.add_cap(nxt, pin_loads[nxt])
            stack.append(nxt)
    return tree
