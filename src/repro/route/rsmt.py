"""Rectilinear Steiner tree construction (FLUTE-stand-in).

The paper uses FLUTE [Chu, ICCAD 2004] for fast route-topology estimation.
FLUTE's published lookup tables are not redistributable, so we implement
the classic *iterated 1-Steiner* heuristic (Kahng/Robins) over the Hanan
grid for small nets and fall back to a rectilinear Prim MST for large
nets.  Iterated 1-Steiner is within a few percent of optimal RSMT on the
net sizes clock trees produce, which is the same accuracy class as FLUTE.

:func:`rsmt_batch` routes many nets at once: every Prim pass of every
net runs in one padded numpy pass over all rows (net, or net plus one
Hanan candidate), so a featurization batch pays the numpy call overhead
once per step instead of once per net.  :func:`rsmt` is its one-set call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry import Point

#: Nets at or below this pin count use iterated 1-Steiner; larger use MST.
ONE_STEINER_MAX_PINS = 10


@dataclass(frozen=True)
class RouteTree:
    """A routing tree over a point set.

    ``points[:num_pins]`` are the original pins (pin *i* of the input keeps
    index *i*); any further points are Steiner points.  ``edges`` are index
    pairs; the tree is unrooted until consumed by an RC builder, which
    roots it at the driver pin index.
    """

    points: Tuple[Point, ...]
    edges: Tuple[Tuple[int, int], ...]
    num_pins: int

    @property
    def length(self) -> float:
        """Total Manhattan wirelength (um)."""
        return sum(
            self.points[a].manhattan(self.points[b]) for a, b in self.edges
        )

    def adjacency(self) -> Dict[int, List[int]]:
        """Undirected adjacency lists."""
        adj: Dict[int, List[int]] = {i: [] for i in range(len(self.points))}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def validate(self) -> None:
        """Raise ``ValueError`` unless the tree spans all points acyclically."""
        n = len(self.points)
        if len(self.edges) != n - 1 and n > 0:
            raise ValueError(
                f"{len(self.edges)} edges cannot span {n} points as a tree"
            )
        if n == 0:
            return
        adj = self.adjacency()
        seen: Set[int] = set()
        stack = [0]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(adj[cur])
        if len(seen) != n:
            raise ValueError("route tree is disconnected")


#: Rows of one lockstep Prim chunk.  A row is one tree: a net, or a net
#: plus one Hanan candidate; the chunk's transient arrays are ``rows x
#: points`` floats, so this bounds them to a few MB.
LOCKSTEP_ROWS = 4096


def _prim_chunk(
    xs: np.ndarray, ys: np.ndarray, counts: np.ndarray, with_edges: bool
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Prim's algorithm on every row of a padded chunk at once.

    Row ``r`` spans the points ``(xs[r, :counts[r]], ys[r, :counts[r]])``;
    later columns are padding, marked in-tree from the start so the
    argmin never picks them.  Each step applies one scalar Prim step to
    every row: the first-index argmin tie-break, the left-to-right
    length sum (finished rows add exact zeros), and, for edges, the
    strict ``<`` relaxation that keeps the earlier source on ties.  A
    distance row is computed when its point joins, as
    ``|x_i - x_j| + |y_i - y_j|``, the value of the dense matrix entry.
    Returns the lengths and, with ``with_edges``, the ``(rows, steps)``
    edge sources and targets.  The widest row has two points or more.
    """
    n_rows, width = xs.shape
    steps = int(counts.max()) - 1
    rows = np.arange(n_rows)
    in_tree = np.arange(width)[None, :] >= counts[:, None]
    in_tree[:, 0] = True
    best = np.abs(xs[:, :1] - xs) + np.abs(ys[:, :1] - ys)
    total = np.zeros(n_rows)
    if with_edges:
        src = np.zeros((n_rows, width), dtype=np.intp)
        edge_src = np.zeros((n_rows, steps), dtype=np.intp)
        edge_dst = np.zeros_like(edge_src)
    for step in range(steps):
        masked = np.where(in_tree, np.inf, best)
        nxt = masked.argmin(axis=1)
        total = total + np.where(step < counts - 1, masked[rows, nxt], 0.0)
        in_tree[rows, nxt] = True
        dist = np.abs(xs[rows, nxt][:, None] - xs) + np.abs(
            ys[rows, nxt][:, None] - ys
        )
        if with_edges:
            edge_src[:, step] = src[rows, nxt]
            edge_dst[:, step] = nxt
            closer = dist < best
            best = np.where(closer, dist, best)
            src = np.where(closer, nxt[:, None], src)
        else:
            best = np.minimum(best, dist)
    if not with_edges:
        return total, None, None
    return total, edge_src, edge_dst


def _lockstep_prim(
    px: np.ndarray,
    py: np.ndarray,
    net: np.ndarray,
    counts: np.ndarray,
    extra: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    with_edges: bool = False,
) -> Tuple[np.ndarray, List[List[Tuple[int, int]]]]:
    """MST length (and edges) of many rows, in chunks.

    Row ``r`` is the first ``counts[r]`` points of row ``net[r]`` of
    ``(px, py)``; with ``extra``, its last point is ``(extra[0][r],
    extra[1][r])`` instead.  Rows are chunked in order of point count,
    :data:`LOCKSTEP_ROWS` at a time, and each chunk's padded arrays are
    built for it alone, as wide as its widest row; a row's result does
    not depend on its chunk.  Edges are ``[]`` unless requested.
    """
    n_rows = counts.size
    lengths = np.zeros(n_rows)
    edges: List[List[Tuple[int, int]]] = [[] for _ in range(n_rows)]
    order = np.argsort(counts, kind="stable")
    for lo in range(0, n_rows, LOCKSTEP_ROWS):
        take = order[lo : lo + LOCKSTEP_ROWS]
        chunk_counts = counts[take]
        width = int(chunk_counts.max())
        if width < 2:
            continue
        xs = px[net[take], :width]
        ys = py[net[take], :width]
        if extra is not None:
            last = (np.arange(take.size), chunk_counts - 1)
            xs[last] = extra[0][take]
            ys[last] = extra[1][take]
        total, edge_src, edge_dst = _prim_chunk(xs, ys, chunk_counts, with_edges)
        lengths[take] = total
        if with_edges:
            for r, n, a, b in zip(
                take.tolist(),
                chunk_counts.tolist(),
                edge_src.tolist(),
                edge_dst.tolist(),
            ):
                edges[r] = list(zip(a[: n - 1], b[: n - 1]))
    return lengths, edges


def _padded(coords: Sequence[Sequence[float]], width: int) -> np.ndarray:
    """``coords`` as the rows of a zero-padded ``(len, width)`` array."""
    out = np.zeros((len(coords), width))
    sizes = np.array([len(c) for c in coords], dtype=np.intp)
    rows = np.repeat(np.arange(len(coords)), sizes)
    cols = np.arange(rows.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    out[rows, cols] = [v for c in coords for v in c]
    return out


def rectilinear_mst(points: Sequence[Point]) -> RouteTree:
    """Rectilinear minimum spanning tree over ``points`` (no Steiner points)."""
    pts = tuple(points)
    if not pts:
        raise ValueError("cannot route an empty pin set")
    xs = np.array([[float(p.x) for p in pts]])
    ys = np.array([[float(p.y) for p in pts]])
    _, edges = _lockstep_prim(
        xs, ys, np.zeros(1, dtype=np.intp), np.array([len(pts)]), with_edges=True
    )
    return RouteTree(points=pts, edges=tuple(edges[0]), num_pins=len(pts))


def _hanan_candidates(points: Sequence[Point]) -> List[Tuple[float, float]]:
    """Hanan-grid points not on a pin, x-major over the sorted axes."""
    xs = sorted({p.x for p in points})
    ys = sorted({p.y for p in points})
    existing = {(p.x, p.y) for p in points}
    return [(x, y) for x in xs for y in ys if (x, y) not in existing]


def rsmt(points: Sequence[Point]) -> RouteTree:
    """Rectilinear Steiner tree over ``points`` (one set of :func:`rsmt_batch`)."""
    return rsmt_batch([points])[0]


def rsmt_batch(point_sets: Sequence[Sequence[Point]]) -> List[RouteTree]:
    """Rectilinear Steiner trees over many point sets at once.

    Nets of 3 to :data:`ONE_STEINER_MAX_PINS` pins use iterated 1-Steiner
    (greedy Hanan-point insertion); the others a rectilinear MST.  All
    nets advance in lockstep: each round evaluates the MST of every
    (net, remaining Hanan candidate) row in one padded Prim pass and
    gives each net its first candidate of maximal gain, if that gain
    exceeds 1e-9 um.  The final spanning trees are one more pass, then
    degree-<=2 Steiner points are pruned.  Each tree equals the one a
    per-set loop builds, to the last float: rows keep the candidate
    order, Prim's tie-breaks and the sequential sums.  Duplicated pin
    locations are handled (zero-length edges).
    """
    sets = [tuple(points) for points in point_sets]
    if any(not pts for pts in sets):
        raise ValueError("cannot route an empty pin set")
    n_sets = len(sets)
    all_nets = np.arange(n_sets)
    n_pts = np.array([len(pts) for pts in sets], dtype=np.intp)
    # Current points per net: the pins, then the Steiner points chosen
    # (the arrays widen when a net outgrows them).
    width = int(n_pts.max()) + 1 if n_sets else 1
    cur_x = _padded([[float(p.x) for p in pts] for pts in sets], width)
    cur_y = _padded([[float(p.y) for p in pts] for pts in sets], width)
    # Hanan candidates of every 1-Steiner net, flat in net then
    # candidate order, with their owner net.
    cands = [
        _hanan_candidates(pts) if 2 < len(pts) <= ONE_STEINER_MAX_PINS else []
        for pts in sets
    ]
    flat = [c for net_cands in cands for c in net_cands]
    cand_x = np.array([float(x) for x, _ in flat])
    cand_y = np.array([float(y) for _, y in flat])
    owner = np.repeat(all_nets, [len(c) for c in cands])
    alive = np.ones(len(flat), dtype=bool)
    chosen: List[List[int]] = [[] for _ in range(n_sets)]

    active = np.zeros(n_sets, dtype=bool)
    active[owner] = True
    cur_len = np.zeros(n_sets)
    first = np.flatnonzero(active)
    cur_len[first], _ = _lockstep_prim(cur_x, cur_y, first, n_pts[first])
    while active.any():
        rows = np.flatnonzero(alive & active[owner])
        net = owner[rows]
        trial, _ = _lockstep_prim(
            cur_x, cur_y, net, n_pts[net] + 1, (cand_x[rows], cand_y[rows])
        )
        gain = cur_len[net] - trial
        # Rows are grouped by net in candidate order: the first maximum
        # of each group is the scalar loop's strict-``>`` pick.
        starts = np.flatnonzero(np.r_[True, net[1:] != net[:-1]])
        sizes = np.diff(np.r_[starts, net.size])
        group_max = np.maximum.reduceat(gain, starts)
        pick = np.minimum.reduceat(
            np.where(
                gain == np.repeat(group_max, sizes), np.arange(net.size), net.size
            ),
            starts,
        )
        win = group_max > 1e-9
        winners = net[starts[win]]
        picked = rows[pick[win]]
        slot = n_pts[winners]
        if winners.size and int(slot.max()) + 2 > cur_x.shape[1]:
            # Keep a free column for the next round's candidate.
            grow = ((0, 0), (0, cur_x.shape[1]))
            cur_x, cur_y = np.pad(cur_x, grow), np.pad(cur_y, grow)
        cur_x[winners, slot] = cand_x[picked]
        cur_y[winners, slot] = cand_y[picked]
        n_pts[winners] += 1
        alive[picked] = False
        cur_len[winners] = cur_len[winners] - group_max[win]
        for k, c in zip(winners.tolist(), picked.tolist()):
            chosen[k].append(c)
        active[:] = False
        active[winners] = True
        active &= np.bincount(owner[alive], minlength=n_sets) > 0

    _, edges = _lockstep_prim(cur_x, cur_y, all_nets, n_pts, with_edges=True)
    trees = []
    for pts, picks, net_edges in zip(sets, chosen, edges):
        steiner = tuple(Point(*flat[c]) for c in picks)
        tree = RouteTree(
            points=pts + steiner, edges=tuple(net_edges), num_pins=len(pts)
        )
        trees.append(_prune_useless_steiner(tree) if steiner else tree)
    return trees


def _prune_useless_steiner(tree: RouteTree) -> RouteTree:
    """Remove degree-<=2 Steiner points by splicing their edges.

    Degree-2 Steiner points on a Manhattan tree never reduce length and
    degree-0/1 ones are pure overhead; pruning keeps RC builders lean.
    """
    points = list(tree.points)
    edges = [tuple(e) for e in tree.edges]
    changed = True
    while changed:
        changed = False
        adj: Dict[int, List[int]] = {i: [] for i in range(len(points))}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        for idx in range(tree.num_pins, len(points)):
            if points[idx] is None:
                continue  # already pruned; only the final remap removes it
            degree = len(adj[idx])
            if degree >= 3:
                continue
            if degree == 2:
                u, v = adj[idx]
                edges = [e for e in edges if idx not in e]
                edges.append((u, v))
            elif degree == 1:
                edges = [e for e in edges if idx not in e]
            # degree 0 needs no edge surgery.
            # Mark the point as dropped; indices remap below.
            points[idx] = None
            changed = True
            break

    keep = [i for i, p in enumerate(points) if p is not None]
    remap = {old: new for new, old in enumerate(keep)}
    new_points = tuple(points[i] for i in keep)
    new_edges = tuple(
        (remap[a], remap[b]) for a, b in edges if a in remap and b in remap
    )
    return RouteTree(points=new_points, edges=new_edges, num_pins=tree.num_pins)
