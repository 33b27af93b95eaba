"""Single-trunk Steiner tree.

The second route-topology estimator of the paper's predictor feature set:
a single horizontal or vertical trunk at the median coordinate, with a
perpendicular stub from every pin to the trunk.  The orientation with the
smaller total wirelength is selected.

:func:`single_trunk_batch` routes many nets at once in one padded numpy
pass per orientation; :func:`single_trunk_tree` is its one-set call.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry import Point
from repro.route.rsmt import RouteTree, _padded


def single_trunk_tree(points: Sequence[Point]) -> RouteTree:
    """Single-trunk Steiner tree over ``points`` (best of H/V orientation)."""
    return single_trunk_batch([points])[0]


def _trunk_pass(
    along: np.ndarray, across: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """One orientation's trunk trees of every row of a padded batch.

    Row ``r`` holds ``counts[r] >= 2`` pins: ``along`` is their
    coordinate along the trunk, ``across`` the one across it.  The trunk
    sits at the median ``across`` value (the mean of the two middle ones
    for an even count).  A pin on the trunk is its own tap; the others
    get a tap at ``(along, median)``, merged onto the first pin at that
    place, else onto the first earlier tap there, else appended as a new
    point, numbered in pin order.  Stubs join each pin to its tap and
    the trunk joins the taps in ``(along, pin index)`` order.  Returns
    ``(median, tap_row, tap_along, edge_row, edge_u, edge_v, edge_len)``:
    the new taps in point order, and each row's distinct edges as sorted
    ``(u, v)`` pairs, ``u < v``, with their Manhattan lengths.
    """
    n_rows, width = along.shape
    rows = np.arange(n_rows)
    valid = np.arange(width)[None, :] < counts[:, None]
    mid = counts // 2
    ranked = np.sort(np.where(valid, across, np.inf), axis=1, kind="stable")
    median = np.where(
        counts % 2 == 1,
        ranked[rows, mid],
        (ranked[rows, mid - 1] + ranked[rows, mid]) / 2.0,
    )
    on_trunk = valid & (across == median[:, None])

    # Pins in (along, index) order, flat over the rows; runs of equal
    # ``along`` share one tap place.
    order = np.argsort(np.where(valid, along, np.inf), axis=1, kind="stable")
    keep = np.flatnonzero(valid.ravel())
    row = keep // width
    pin = order.ravel()[keep]
    a_sorted = np.take_along_axis(along, order, axis=1).ravel()[keep]
    on = np.take_along_axis(on_trunk, order, axis=1).ravel()[keep]
    first = np.r_[True, (row[1:] != row[:-1]) | (a_sorted[1:] != a_sorted[:-1])]
    run = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    # A run's tap merges onto its first pin on the trunk, if any.
    on_pin = np.minimum.reduceat(np.where(on, pin, width), starts)
    run_row = row[starts]
    owner = pin[starts]  # the run's first pin: its tap comes first
    new = np.flatnonzero(on_pin == width)
    new = new[np.lexsort((owner[new], run_row[new]))]
    tap_row = run_row[new]
    rank = np.arange(new.size) - np.searchsorted(tap_row, tap_row)
    tap_of_run = on_pin.copy()
    tap_of_run[new] = counts[tap_row] + rank
    tap = np.where(on, pin, tap_of_run[run])

    # Stubs of the pins off the trunk, then the trunk between taps.
    off = ~on
    link = (row[1:] == row[:-1]) & (tap[1:] != tap[:-1])
    edge_row = np.r_[row[off], row[1:][link]]
    a = np.r_[pin[off], tap[:-1][link]]
    b = np.r_[tap[off], tap[1:][link]]
    span = 2 * width
    codes = np.unique(edge_row * span * span + np.minimum(a, b) * span + np.maximum(a, b))
    edge_row, pair = np.divmod(codes, span * span)
    edge_u, edge_v = np.divmod(pair, span)

    # Every point's coordinates: the pins, then the new taps.
    tap_along = along[tap_row, owner[new]]
    pa = np.zeros((n_rows, span))
    pc = np.zeros((n_rows, span))
    pa[:, :width] = along
    pc[:, :width] = across
    pa[tap_row, counts[tap_row] + rank] = tap_along
    pc[tap_row, counts[tap_row] + rank] = median[tap_row]
    edge_len = np.abs(pa[edge_row, edge_u] - pa[edge_row, edge_v]) + np.abs(
        pc[edge_row, edge_u] - pc[edge_row, edge_v]
    )
    return median, tap_row, tap_along, edge_row, edge_u, edge_v, edge_len


def _row_slices(row: np.ndarray, n_rows: int) -> List[Tuple[int, int]]:
    """``(lo, hi)`` of each row's entries in a row-sorted flat array."""
    ends = np.cumsum(np.bincount(row, minlength=n_rows)).tolist()
    return list(zip([0] + ends[:-1], ends))


def single_trunk_batch(point_sets: Sequence[Sequence[Point]]) -> List[RouteTree]:
    """Single-trunk Steiner trees over many point sets at once.

    Both orientations of every set of two pins or more are built in one
    padded pass each (:func:`_trunk_pass`); each set keeps the
    horizontal trunk unless the vertical one is shorter.  Each tree
    equals the per-set construction (``tests/oracles.py``
    ``reference_single_trunk``), ``length`` included: the lengths
    compared are the builtin sums over the sorted edges that
    :attr:`RouteTree.length` takes.  Duplicated pin locations are
    handled (zero-length edges).
    """
    sets = [tuple(points) for points in point_sets]
    if any(not pts for pts in sets):
        raise ValueError("cannot route an empty pin set")
    trees = [
        RouteTree(points=pts, edges=(), num_pins=1) if len(pts) == 1 else None
        for pts in sets
    ]
    multi = [i for i, pts in enumerate(sets) if len(pts) > 1]
    if not multi:
        return trees
    routed = [sets[i] for i in multi]
    counts = np.array([len(pts) for pts in routed], dtype=np.intp)
    width = int(counts.max())
    xs = _padded([[float(p.x) for p in pts] for pts in routed], width)
    ys = _padded([[float(p.y) for p in pts] for pts in routed], width)
    passes = []
    for along, across in ((xs, ys), (ys, xs)):
        median, tap_row, tap_along, edge_row, u, v, lengths = _trunk_pass(
            along, across, counts
        )
        lengths = lengths.tolist()
        slices = _row_slices(edge_row, len(routed))
        passes.append(
            (
                median.tolist(),
                _row_slices(tap_row, len(routed)),
                tap_along.tolist(),
                slices,
                list(zip(u.tolist(), v.tolist())),
                [sum(lengths[lo:hi]) for lo, hi in slices],
            )
        )
    horizontal, vertical = passes
    for r, (i, pts) in enumerate(zip(multi, routed)):
        h = horizontal[5][r] <= vertical[5][r]
        median, taps, tap_along, slices, edges, _ = horizontal if h else vertical
        lo, hi = taps[r]
        m = median[r]
        steiner = tuple(
            Point(t, m) if h else Point(m, t) for t in tap_along[lo:hi]
        )
        lo, hi = slices[r]
        trees[i] = RouteTree(
            points=pts + steiner, edges=tuple(edges[lo:hi]), num_pins=len(pts)
        )
    return trees
