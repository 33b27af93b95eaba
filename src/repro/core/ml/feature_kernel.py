"""Array-backed analytical feature kernel: batched move featurization.

The scalar featurization path (:mod:`repro.core.ml.analytical` +
:func:`repro.core.ml.features.compute_move_components`) walks one move
at a time: plan two nets per route model, rebuild each net's RC chain,
run the Elmore/D2M moment recursions per corner, and evaluate NLDM gate
pairs one lookup at a time.  On CLS1v1 that is ~96% of a local-opt
iteration.  This module compiles a whole candidate batch into
struct-of-arrays form and evaluates **every move x every corner x every
estimator variant** ({rsmt, single_trunk} x {Elmore, D2M}, plus the
star side-effect variant) in broadcast numpy:

* **one compile pass per batch** — the RC construction
  (:func:`~repro.route.rc_net.star_rc_tree` /
  :func:`~repro.route.rc_net.route_rc_tree`) of every net geometry
  (route model, driver location, child locations) a batch misses is
  replayed at once into flat arrays: parent slot per node, per-node
  segment length (resistance = ``res_per_um * len`` per corner), and an
  ordered list of capacitance terms (wire half/full pi-caps as lengths,
  pin loads as constants).  Only each routed net's walk from the driver
  runs in Python; pieces, slots and terms expand with ``repeat`` /
  ``cumsum``.  Plans that share a geometry — the sizing variants of one
  displacement — differ only in pin caps, which each plan scatters into
  its geometry's constant-term slots as the padded eval arrays fill;
* **lockstep moment engine** — downstream caps, first moments, the
  D2M second-moment recursion and the Elmore forward pass run over all
  (plans x corners) at once, one vectorized gather/scatter per node
  step, preserving each net's per-node operation order exactly;
* **batched NLDM gate rounds** — driver pairs evaluate through the
  library's shared :class:`~repro.tech.cells.NLDMStack`
  (:attr:`Library.nldm`) with the same quantize -> clamp ->
  ``searchsorted`` -> four-corner-blend sequence as
  :func:`repro.sta.gate.inverter_pair_timing` via
  ``repro.core.ml.analytical._pair_timing``;
* **spec-keyed wire memo** — per-plan child Elmore/D2M delays, driver
  loads, wirelength, fanout and bounding box are slew- and
  size-independent, so they cache under the net spec's value key (the
  bytes of its row: driver x, y, then each child's id, x, y and pin
  cap), as a block of one row per route model in flat per-kernel arrays
  (:class:`_WireRows`), and survive across local-opt epochs; a batch
  builds its specs' rows with one gather and one scatter, looks each
  key up once, and routes its missed geometries through the kernel's
  own route memo.  Each evaluated chunk writes its rows in one scatter
  and a batch gathers its nets' rows by index.  No plan object is
  built on this path;
* **one array record per move** — every array of a component
  (:class:`~repro.core.ml.features.MoveComponents`: the base feature
  row, the ``(corners, 4)`` subtree and wire-only deltas of the four
  estimator variants, the ``(corners,)`` input slews and the
  ``(2, corners)`` star side-effect row the move scorer reads) is a
  read-only row view of one batch array, so featurizing, predicting
  and scoring build no per-move impact object.

Bit-compatibility contract
--------------------------
Same as the STA/ECO kernels: every array operation reproduces the
scalar reference's float operations in the same order, so components
from :meth:`FeatureKernel.compute_components_batch` equal
:func:`~repro.core.ml.features.compute_move_components` bit for bit
(``tests/test_feature_kernel.py`` holds every array of both records
``array_equal`` and the local-opt trajectory to byte identity).
Sequential sums use ``0.0 + x == x`` / masked ``+ 0.0`` accumulation;
the sink weights are the tree's memoized subtree sink counts, as the
per-move path reads them, and integers, so their sums are exact;
``np.sqrt`` / ``np.minimum`` / ``np.rint`` match their
``math``/builtin scalar counterparts bitwise on these inputs.

Moves the array path cannot express — tree surgery (changes both
drivers' child sets) and drive sizes outside the stacked tables — take
the per-move :func:`~repro.core.ml.features.compute_move_components`
inside a batch; it is the only path for those inputs, and the test
oracle for every other move.  A library whose NLDM tables cannot be
stacked raises the stack's :class:`ValueError` at construction; there
is no wholesale scalar fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.ml.analytical import (
    ESTIMATE_SEGMENT_UM,
    _children_spec,
    _driver_size,
)
from repro.core.ml.features import (
    ESTIMATOR_VARIANTS,
    N_ESTIMATE_COLS,
    SIDE_EFFECT_VARIANT,
    MoveComponents,
    compute_move_components,
)
from repro.core.moves import Move, MoveType
from repro.geometry import Point
from repro.netlist.tree import ClockNode, ClockTree
from repro.obs.metrics import StageTimers
from repro.route.rsmt import RouteTree, rsmt_batch
from repro.route.single_trunk import single_trunk_batch
from repro.sta.d2m import LN2
from repro.sta.gate import quantize_gate_arrays
from repro.sta.slew import LN9
from repro.sta.timer import CornerTiming
from repro.tech.library import Library


#: Route models featurization evaluates, in the reference's sorted order.
_ROUTE_MODELS: Tuple[str, ...] = tuple(
    sorted({r for r, _ in (*ESTIMATOR_VARIANTS, SIDE_EFFECT_VARIANT)})
)
#: Capacitance-term codes of a compiled plan program.
_TERM_WIRE = 1  # cap_per_um * value          (full pi-segment cap)
_TERM_HALF = 2  # (cap_per_um * value) / 2.0  (boundary half cap)
_TERM_CONST = 3  # value                      (pin load, corner-free)

#: Plans per lockstep moment-engine evaluation (memory bound).
_EVAL_CHUNK = 2048

#: Entries of the kernel's route memo; a full memo drops its oldest entry.
MAX_CACHE_ENTRIES = 200_000


@dataclass(frozen=True)
class _Programs:
    """The RC constructions of a batch's missed net geometries, compiled
    in one pass into flat arrays.

    Geometry ``g`` owns nodes ``node_start[g] : + n_nodes[g]`` (slot
    order: the root, then per routed edge its pi-pieces, near end
    first), capacitance terms ``term_start[g] : + n_terms[g]`` (each a
    node slot, a column in that node's ordered term list, a code and a
    payload; pin caps hold 0.0 here) and children ``child_start[g] :
    + fanout[g]`` (each child's node slot and the column of its pin cap,
    in spec order).  A plan of the geometry supplies its pin caps.
    """

    n_nodes: np.ndarray  # (G,)
    node_start: np.ndarray  # (G,)
    parent: np.ndarray  # (N,) parent slot, -1 for the root
    seg: np.ndarray  # (N,) pi-piece length (res = res_per_um * seg)
    n_terms: np.ndarray  # (G,)
    term_start: np.ndarray  # (G,)
    term_slot: np.ndarray  # (T,)
    term_col: np.ndarray  # (T,)
    term_code: np.ndarray  # (T,) int8 term codes
    term_val: np.ndarray  # (T,) term payloads (lengths or constants)
    width: np.ndarray  # (G,) term columns, at least 1
    fanout: np.ndarray  # (G,)
    child_start: np.ndarray  # (G,)
    child_slot: np.ndarray  # (C,)
    child_col: np.ndarray  # (C,)
    bbox_area: np.ndarray  # (G,) bounding box of driver and children
    bbox_aspect: np.ndarray  # (G,)


def _group_cumsum(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Inclusive running sums of ``values``, restarting at each group of
    ``counts`` consecutive entries."""
    total = np.cumsum(values)
    starts = np.cumsum(counts) - counts
    return total - np.repeat(np.r_[0, total][starts], counts)


def _compile_programs(
    nets: Sequence[Tuple[Optional[RouteTree], Optional[List[float]]]]
) -> _Programs:
    """Compile net geometries in one pass.

    Each net is ``(route, pins)``: an rsmt/trunk net's route, in which
    child ``k`` is pin ``k + 1``, or ``None`` and a star net's pins
    (driver x, y, then each child's x, y).  Each geometry's routed edges
    are listed in the RC builders' construction order (see
    ``route.rc_net``): a star net runs from the driver to child ``k`` in
    spec order; a routed net walks its route from the driver pin 0 as
    :func:`~repro.route.rc_net.route_rc_tree` does.  That walk is the
    only Python per geometry.  Pieces, node slots, parents, segment
    lengths and every node's ordered cap terms (its own piece cap, its
    pin cap, then the near-end half caps of the edges leaving it) follow
    for all geometries at once.
    """
    xs: List[float] = []
    ys: List[float] = []
    e_from: List[int] = []  # flat point ids
    e_to: List[int] = []
    e_pin: List[int] = []  # child k of the far point, or -1
    n_edges: List[int] = []
    point_base: List[int] = []
    fanouts: List[int] = []
    for route, pins in nets:
        base = len(xs)
        if route is None:
            fanout = len(pins) // 2 - 1
            e_from.extend([base] * fanout)
            e_to.extend(range(base + 1, base + 1 + fanout))
            e_pin.extend(range(fanout))
            n_edges.append(fanout)
            xs.extend(pins[0::2])
            ys.extend(pins[1::2])
        else:
            fanout = route.num_pins - 1
            points = route.points
            adj: List[List[int]] = [[] for _ in points]
            for a, b in route.edges:
                adj[a].append(b)
                adj[b].append(a)
            seen = [False] * len(points)
            seen[0] = True
            stack = [0]
            count = len(e_from)
            while stack:
                cur = stack.pop()
                for nxt in adj[cur]:
                    if not seen[nxt]:
                        seen[nxt] = True
                        e_from.append(base + cur)
                        e_to.append(base + nxt)
                        e_pin.append(nxt - 1 if 0 < nxt <= fanout else -1)
                        stack.append(nxt)
            n_edges.append(len(e_from) - count)
            xs.extend([p.x for p in points])
            ys.extend([p.y for p in points])
        point_base.append(base)
        fanouts.append(fanout)

    x = np.array(xs, dtype=float)
    y = np.array(ys, dtype=float)
    src = np.array(e_from, dtype=np.int64)
    dst = np.array(e_to, dtype=np.int64)
    pin = np.array(e_pin, dtype=np.int64)
    n_edges = np.array(n_edges, dtype=np.int64)
    fanout = np.array(fanouts, dtype=np.int64)
    n_geo = fanout.size
    edge_geo = np.repeat(np.arange(n_geo), n_edges)
    length = np.abs(x[src] - x[dst]) + np.abs(y[src] - y[dst])

    # Pieces and node slots: edge e's nodes end at slot far[e].
    routed = length > 0.0
    pieces = np.where(
        routed, np.maximum(np.ceil(length / ESTIMATE_SEGMENT_UM), 1.0), 1.0
    ).astype(np.int64)
    piece_len = np.where(routed, length / pieces, 0.0)
    far = _group_cumsum(pieces, n_edges)
    slot_of = np.zeros(x.size, dtype=np.int64)
    slot_of[dst] = far
    near = slot_of[src]
    n_nodes = 1 + np.bincount(edge_geo, weights=pieces, minlength=n_geo).astype(
        np.int64
    )
    node_start = np.cumsum(n_nodes) - n_nodes
    parent = np.full(int(n_nodes.sum()), -1, dtype=np.int64)
    seg = np.zeros(parent.size)
    edge_of, step = _flat_slots(pieces)
    slot = far[edge_of] - pieces[edge_of] + 1 + step
    node = node_start[edge_geo[edge_of]] + slot
    parent[node] = np.where(step == 0, near[edge_of], slot - 1)
    seg[node] = piece_len[edge_of]

    # Cap terms: each routed piece's own cap (column 0), each pin's cap
    # after it, then the near-end half caps of the edges leaving a node,
    # in construction order.  A node's edges leave it consecutively.
    own = np.flatnonzero(routed[edge_of])
    own_edge = edge_of[own]
    pins = np.flatnonzero(pin >= 0)
    base_col = np.zeros(x.size, dtype=np.int64)
    base_col[dst] = routed.astype(np.int64) + (pin >= 0)
    halves = np.flatnonzero(routed)
    leaves = src[halves]
    first = np.ones(halves.size, dtype=bool)
    first[1:] = leaves[1:] != leaves[:-1]
    run_start = np.maximum.accumulate(np.where(first, np.arange(halves.size), 0))
    term_geo = np.concatenate([edge_geo[own_edge], edge_geo[pins], edge_geo[halves]])
    order = np.argsort(term_geo, kind="stable")
    term_slot = np.concatenate([slot[own], far[pins], near[halves]])[order]
    term_col = np.concatenate(
        [
            np.zeros(own.size, dtype=np.int64),
            routed[pins].astype(np.int64),
            base_col[leaves] + np.arange(halves.size) - run_start,
        ]
    )[order]
    term_code = np.concatenate(
        [
            np.where(step[own] < pieces[own_edge] - 1, _TERM_WIRE, _TERM_HALF),
            np.full(pins.size, _TERM_CONST),
            np.full(halves.size, _TERM_HALF),
        ]
    ).astype(np.int8)[order]
    term_val = np.concatenate(
        [piece_len[own_edge], np.zeros(pins.size), piece_len[halves]]
    )[order]
    term_geo = term_geo[order]
    n_terms = np.bincount(term_geo, minlength=n_geo)
    width = np.ones(n_geo, dtype=np.int64)
    np.maximum.at(width, term_geo, term_col + 1)

    child_start = np.cumsum(fanout) - fanout
    child_slot = np.zeros(int(fanout.sum()), dtype=np.int64)
    child_col = np.zeros_like(child_slot)
    at = child_start[edge_geo[pins]] + pin[pins]
    child_slot[at] = far[pins]
    child_col[at] = routed[pins]

    # Bounding box of the driver and the children (route points 0..f).
    rows, cols = _flat_slots(fanout + 1)
    pin_x = x[np.array(point_base, dtype=np.int64)[rows] + cols]
    pin_y = y[np.array(point_base, dtype=np.int64)[rows] + cols]
    box = np.cumsum(fanout + 1) - (fanout + 1)
    w = np.maximum.reduceat(pin_x, box) - np.minimum.reduceat(pin_x, box)
    h = np.maximum.reduceat(pin_y, box) - np.minimum.reduceat(pin_y, box)
    hi = np.maximum(w, h)
    with np.errstate(invalid="ignore", divide="ignore"):
        aspect = np.where(hi == 0.0, 1.0, np.minimum(w, h) / hi)
    return _Programs(
        n_nodes=n_nodes,
        node_start=node_start,
        parent=parent,
        seg=seg,
        n_terms=n_terms,
        term_start=np.cumsum(n_terms) - n_terms,
        term_slot=term_slot,
        term_col=term_col,
        term_code=term_code,
        term_val=term_val,
        width=width,
        fanout=fanout,
        child_start=child_start,
        child_slot=child_slot,
        child_col=child_col,
        bbox_area=w * h,
        bbox_aspect=aspect,
    )


def _pad_programs(
    programs: _Programs, geo: np.ndarray, caps: Sequence[float]
) -> Tuple[np.ndarray, ...]:
    """Padded program arrays of plans given by geometry and pin caps.

    ``geo[i]`` is plan ``i``'s geometry and ``caps`` every plan's pin
    caps, flat in plan then spec order.  Each array is filled by one
    scatter from the flat programs.  Returns ``(parent, valid, seg,
    code, tval)``, each ``(plans, nodes[, terms])`` wide enough for the
    plans' largest geometry, and the ``(rows, slots)`` of every plan
    child in spec order.
    """
    n_plan = geo.size
    n = programs.n_nodes[geo]
    max_n = int(n.max())
    max_t = int(programs.width[geo].max())
    rows, cols = _flat_slots(n)
    node = np.repeat(programs.node_start[geo], n) + cols
    parent = np.zeros((n_plan, max_n), dtype=np.int64)
    valid = np.zeros((n_plan, max_n), dtype=bool)
    seg = np.zeros((n_plan, max_n))
    parent[rows, cols] = programs.parent[node]
    valid[rows, cols] = True
    seg[rows, cols] = programs.seg[node]
    nt = programs.n_terms[geo]
    rows, k = _flat_slots(nt)
    term = np.repeat(programs.term_start[geo], nt) + k
    at = (rows, programs.term_slot[term], programs.term_col[term])
    code = np.zeros((n_plan, max_n, max_t), dtype=np.int8)
    tval = np.zeros((n_plan, max_n, max_t))
    code[at] = programs.term_code[term]
    tval[at] = programs.term_val[term]
    fan = programs.fanout[geo]
    rows, k = _flat_slots(fan)
    child = np.repeat(programs.child_start[geo], fan) + k
    slots = programs.child_slot[child]
    tval[rows, slots, programs.child_col[child]] = caps
    return parent, valid, seg, code, tval, (rows, slots)


class _WireRows:
    """The wire memo's values: one row per plan, in flat arrays.

    Row ``r`` is one plan's driver load ``load[:, r]`` (all corners),
    its ``(wirelength, bbox area, bbox aspect)`` in ``shape[:, r]``, and
    its children's Elmore and D2M delays ``elm[:, j]`` / ``d2m[:, j]``
    for ``j`` in ``start[r] : start[r] + fanout[r]``, in spec order.
    Only the first ``rows`` rows and ``children`` child columns are
    live; the arrays grow geometrically.
    """

    def __init__(self, n_corner: int) -> None:
        self.rows = 0
        self.children = 0
        self.start = np.zeros(0, dtype=np.int64)
        self.fanout = np.zeros(0, dtype=np.int64)
        self.shape = np.zeros((3, 0))
        self.load = np.zeros((n_corner, 0))
        self.elm = np.zeros((n_corner, 0))
        self.d2m = np.zeros((n_corner, 0))

    def child_index(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Child columns of ``rows``, row after row, and their fanouts."""
        fan = self.fanout[rows]
        _, k = _flat_slots(fan)
        return np.repeat(self.start[rows], fan) + k, fan

    def reserve(self, rows: int, children: int) -> None:
        """Room for ``rows`` more rows and ``children`` more children."""

        def grown(array: np.ndarray, live: int, need: int) -> np.ndarray:
            if need <= array.shape[-1]:
                return array
            size = max(need, array.shape[-1] * 3 // 2)
            out = np.empty(array.shape[:-1] + (size,), dtype=array.dtype)
            out[..., :live] = array[..., :live]
            return out

        need = self.rows + rows
        self.start = grown(self.start, self.rows, need)
        self.fanout = grown(self.fanout, self.rows, need)
        self.shape = grown(self.shape, self.rows, need)
        self.load = grown(self.load, self.rows, need)
        need = self.children + children
        self.elm = grown(self.elm, self.children, need)
        self.d2m = grown(self.d2m, self.children, need)

    def append(
        self,
        fanout: np.ndarray,
        shape: np.ndarray,
        load: np.ndarray,
        elm: np.ndarray,
        d2m: np.ndarray,
    ) -> int:
        """Write rows after the live ones, one slice per array; returns
        the first new row."""
        n, k = fanout.size, elm.shape[1]
        self.reserve(n, k)
        r0, c0 = self.rows, self.children
        self.start[r0 : r0 + n] = c0 + np.cumsum(fanout) - fanout
        self.fanout[r0 : r0 + n] = fanout
        self.shape[:, r0 : r0 + n] = shape
        self.load[:, r0 : r0 + n] = load
        self.elm[:, c0 : c0 + k] = elm
        self.d2m[:, c0 : c0 + k] = d2m
        self.rows += n
        self.children += k
        return r0

    def take(self, rows: np.ndarray) -> "_WireRows":
        """A memo of ``rows`` alone, renumbered from 0 in their order."""
        child, fan = self.child_index(rows)
        out = _WireRows(self.load.shape[0])
        out.append(
            fan, self.shape[:, rows], self.load[:, rows], self.elm[:, child], self.d2m[:, child]
        )
        return out


@dataclass(frozen=True)
class _Buffer:
    """A moved buffer's fixed context within one batch."""

    node: ClockNode
    parent: int
    parent_size: int
    parent_ids: List[int]  # the parent's children, in spec order
    b_ids: List[int]  # the buffer's children, in spec order
    b_pos: int  # the buffer's slot in ``parent_ids``


@dataclass(frozen=True)
class _ParentNet:
    """One distinct parent-net spec of a batch: the parent's child spec
    with the moved buffer's pin displaced and resized."""

    buf: int  # row in ``_Batch.buffers``
    new_size: int  # the moved buffer's size after the move
    dx: float
    dy: float
    pin_cap: float  # the moved buffer's pin cap after the move


@dataclass(frozen=True)
class _OwnNet:
    """One distinct own-net spec: the moved buffer's child spec, driven
    from its displaced location."""

    buf: int
    dx: float
    dy: float
    #: Slot of the resized child in the spec (-1: none) and its new pin cap.
    rc_pos: int = -1
    rc_cap: float = 0.0
    #: The resized child, if it drives a net of its own (else ``None``),
    #: with its new size.
    child: Optional[int] = None
    child_size: Optional[int] = None


@dataclass
class _Batch:
    """The kernel moves of one batch in struct-of-lists form.

    The tree is fixed within a batch, so a move's parent-net spec is
    fixed by (buffer, displacement, new size) and its own net's spec by
    (buffer, displacement, resized child, child size): each distinct
    spec is resolved once and the moves index it.  ``specs`` holds the
    distinct specs as rows (see :meth:`FeatureKernel.ensure_metrics`),
    the parent nets' and then the own nets', in first-use order, and
    ``fanout`` their child counts.
    """

    index: List[int] = field(default_factory=list)  # position in the input
    moves: List[Move] = field(default_factory=list)
    move_buf: List[int] = field(default_factory=list)
    move_pnet: List[int] = field(default_factory=list)
    move_bnet: List[int] = field(default_factory=list)
    size_after: List[int] = field(default_factory=list)
    buffers: List[_Buffer] = field(default_factory=list)
    parent_nets: List[_ParentNet] = field(default_factory=list)
    own_nets: List[_OwnNet] = field(default_factory=list)
    specs: Optional[np.ndarray] = None
    fanout: Optional[np.ndarray] = None


@dataclass(frozen=True)
class _Misses:
    """The plans of the specs a batch misses, compiled: plan
    ``3 * j + k`` is missed spec ``j`` under ``_ROUTE_MODELS[k]``."""

    programs: _Programs
    geo: np.ndarray  # (plans,) each plan's program
    fanout: np.ndarray  # (plans,)
    caps: np.ndarray  # every plan's pin caps, plan after plan in spec order
    wirelength: np.ndarray  # (plans,)
    capsum: np.ndarray  # (plans,) the pin caps' builtin sums


def _spec_row(driver: Point, spec: Sequence[Tuple[int, Point, float]]) -> List[float]:
    """A net spec as one row: driver x, y, then each child's id, x, y and
    pin cap."""
    return [
        driver.x,
        driver.y,
        *chain.from_iterable((cid, loc.x, loc.y, cap) for cid, loc, cap in spec),
    ]


def _padded_rows(rows: Sequence[List[float]], width: int) -> np.ndarray:
    """Ragged rows zero-padded to ``width`` columns, in one scatter."""
    out = np.zeros((len(rows), width))
    out[_flat_slots([len(row) for row in rows])] = list(chain.from_iterable(rows))
    return out


def _keys(rows: np.ndarray, lengths: np.ndarray) -> List[bytes]:
    """Each row's first ``lengths[i]`` values as bytes, -0.0 as +0.0.

    Bytes are equal exactly when the values are (ids are exact in
    float64, and NaN does not occur), and a bytes key hashes in C.
    """
    blob = (rows + 0.0).tobytes()
    stride = 8 * rows.shape[1]
    return [
        blob[at : at + 8 * n]
        for at, n in zip(range(0, len(blob), stride), lengths.tolist())
    ]


def _flat_slots(fanouts: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """(row, column) of every child when ragged rows are padded flat."""
    fan = np.asarray(fanouts, dtype=np.int64)
    rows = np.repeat(np.arange(fan.size), fan)
    starts = np.cumsum(fan) - fan
    return rows, np.arange(rows.size) - np.repeat(starts, fan)


class FeatureKernel:
    """Batched analytical move featurization over SoA numpy arrays."""

    def __init__(self, library: Library) -> None:
        self.library = library
        self._nldm = library.nldm
        self._corners = list(library.corners)
        #: Spec key -> the first row of its block of ``_wire_rows``, one
        #: row per ``_ROUTE_MODELS`` entry.
        self._wire_memo: Dict[bytes, int] = {}
        self._wire_rows = _WireRows(len(self._corners))
        #: Most rows the wire memo keeps after a batch (whole blocks).
        self.max_entries = 200_000
        #: (route model, geometry key) -> (route, wirelength).
        self._routes: Dict[Tuple[str, bytes], Tuple[RouteTree, float]] = {}
        self.timers = StageTimers(phase="features")
        self.stats: Dict[str, int] = {
            "batches": 0,
            "kernel_moves": 0,
            "fallback_moves": 0,
            "wire_hits": 0,
            "wire_misses": 0,
            "programs_compiled": 0,
            "route_hits": 0,
            "route_misses": 0,
            "rsmt_batches": 0,
            "trunk_batches": 0,
        }

    # ------------------------------------------------------------------
    # Lockstep moment engine over (corners x plans x nodes)
    # ------------------------------------------------------------------
    def _eval_programs(
        self, programs: _Programs, geo: np.ndarray, caps: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-child Elmore and D2M delays of plans given by geometry and
        pin caps (see :func:`_pad_programs`): two ``(corners, children)``
        arrays, plan after plan in spec order, bit-identical to the
        scalar moment recursions.

        Each array step applies one node's scalar operation across all
        plans and corners at once; a plan's own node sequence (forward
        insertion order for moments, reverse for subtree accumulations)
        is exactly the scalar engine's, so every float matches.
        """
        parent, valid, seg, code, tval, children = _pad_programs(
            programs, geo, caps
        )
        n_prog, max_n, max_t = code.shape
        n_corner = len(self._corners)
        res = self._nldm.res_per_um[:, None, None] * seg[None, :, :]
        # Node caps: each term column added in order, in place (a node's
        # sum starts at +0.0 and its terms are >= 0, so a masked-out
        # entry keeps the value ``+ 0.0`` would leave).
        cap = np.zeros((n_corner, n_prog, max_n))
        wirecap = np.empty_like(cap)
        cap_per_um = self._nldm.cap_per_um[:, None, None]
        for t in range(max_t):
            ct = code[:, :, t]
            vt = tval[:, :, t]
            np.multiply(cap_per_um, vt, out=wirecap)
            np.add(cap, wirecap, out=cap, where=ct == _TERM_WIRE)
            np.divide(wirecap, 2.0, out=wirecap)
            np.add(cap, wirecap, out=cap, where=ct == _TERM_HALF)
            np.add(cap, vt, out=cap, where=ct == _TERM_CONST)

        # Column index caches: nodes at step k, their parent columns.
        step_rows = [np.nonzero(valid[:, k])[0] for k in range(max_n)]

        down = cap.copy()
        for k in range(max_n - 1, 0, -1):
            rows = step_rows[k]
            if rows.size == 0:
                continue
            down[:, rows, parent[rows, k]] += down[:, rows, k]

        m1 = np.zeros_like(cap)
        for k in range(1, max_n):
            rows = step_rows[k]
            if rows.size == 0:
                continue
            pc = parent[rows, k]
            m1[:, rows, k] = m1[:, rows, pc] + res[:, rows, k] * down[:, rows, k]

        down_cm = cap * m1
        for k in range(max_n - 1, 0, -1):
            rows = step_rows[k]
            if rows.size == 0:
                continue
            down_cm[:, rows, parent[rows, k]] += down_cm[:, rows, k]

        m2 = np.zeros_like(cap)
        for k in range(1, max_n):
            rows = step_rows[k]
            if rows.size == 0:
                continue
            pc = parent[rows, k]
            m2[:, rows, k] = (
                m2[:, rows, pc] + res[:, rows, k] * down_cm[:, rows, k]
            )

        with np.errstate(invalid="ignore", divide="ignore"):
            raw = LN2 * m1 * m1 / np.sqrt(m2)
            d2m = np.where(
                (m2 <= 0.0) | (m1 <= 0.0), 0.0, np.minimum(raw, m1)
            )
        return m1[:, children[0], children[1]], d2m[:, children[0], children[1]]

    # ------------------------------------------------------------------
    # Wire-metric memo
    # ------------------------------------------------------------------
    def ensure_metrics(self, specs: np.ndarray, fanout: np.ndarray) -> np.ndarray:
        """The first wire-memo row of each net spec, in order.

        Row ``i`` of ``specs`` is a net's driver x, y, then each child's
        id, x, y and pin cap, for ``fanout[i]`` children, zero-padded.
        Its first ``2 + 4 * fanout[i]`` values, as bytes with -0.0 read
        as +0.0, are its key: one dict lookup per spec answers every
        route model, and the memo row of ``_ROUTE_MODELS[k]`` is the
        first row plus ``k``.  The counters count plans, one per spec
        and route model.  Every spec missing from the memo is evaluated
        in lockstep first, once however often the batch repeats it
        (:meth:`_evaluate`).  Nothing is evicted here:
        :meth:`_trim_wire_memo` runs after the batch has read its rows.
        """
        keys = _keys(specs, 2 + 4 * fanout)
        memo = self._wire_memo
        found = list(map(memo.get, keys))
        missing = [i for i, row in enumerate(found) if row is None]
        pending: Dict[bytes, int] = {}
        for i in missing:
            pending.setdefault(keys[i], i)
        n_route = len(_ROUTE_MODELS)
        self.stats["wire_hits"] += n_route * (len(found) - len(missing))
        self.stats["wire_misses"] += n_route * len(pending)
        if pending:
            at = list(pending.values())
            self._evaluate(specs[at], fanout[at], list(pending))
            for i in missing:
                found[i] = memo[keys[i]]
        return np.array(found, dtype=np.int64)

    def _plan(self, specs: np.ndarray, fanout: np.ndarray) -> _Misses:
        """Route and compile distinct missed specs (rows as in
        :meth:`ensure_metrics`) under every route model.

        Specs that differ only in child ids and pin caps share a
        geometry, keyed by the bytes of the driver's and the children's
        coordinates; each geometry is routed (:meth:`_route`) and
        compiles one program per route model (:func:`_compile_programs`)
        straight from the first spec's coordinates and the routes.
        """
        n_route = len(_ROUTE_MODELS)
        with self.timers.stage("kernel_route"):
            f_max = (specs.shape[1] - 2) // 4
            child_xy = (3 + 4 * np.arange(f_max))[:, None] + np.arange(2)
            xy = specs[:, np.concatenate([[0, 1], child_xy.ravel()])]
            geo_of: Dict[bytes, int] = {}
            spec_geo = [
                geo_of.setdefault(key, len(geo_of)) for key in _keys(xy, 2 + 2 * fanout)
            ]
            firsts = np.unique(spec_geo, return_index=True)[1]
            pins = [
                row[: 2 + 2 * f]
                for row, f in zip(xy[firsts].tolist(), fanout[firsts].tolist())
            ]
            routes = self._route(list(geo_of), pins, fanout.size)

        with self.timers.stage("kernel_compile"):
            programs = _compile_programs(
                [
                    (None, pins[g]) if model == "star" else (routes[model][g][0], None)
                    for g in range(len(pins))
                    for model in _ROUTE_MODELS
                ]
            )
            self.stats["programs_compiled"] += n_route * len(pins)
            # Wirelengths and pin-cap totals are the builtin sums the
            # per-move plans take.
            caps = specs[:, 5::4]
            valid = np.arange(f_max)[None, :] < fanout[:, None]
            spec_caps = caps[valid].tolist()
            star = np.abs(specs[:, :1] - specs[:, 3::4]) + np.abs(specs[:, 1:2] - specs[:, 4::4])
            star_len = star[valid].tolist()
            wirelength: List[float] = []
            capsum: List[float] = []
            at = 0
            for g, f in zip(spec_geo, fanout.tolist()):
                total = sum(spec_caps[at : at + f])
                for model in _ROUTE_MODELS:
                    capsum.append(total)
                    if model == "star":
                        wirelength.append(sum(star_len[at : at + f]))
                    else:
                        wirelength.append(routes[model][g][1])
                at += f
            geo = n_route * np.asarray(spec_geo, dtype=np.int64)[:, None] + np.arange(n_route)
            return _Misses(
                programs=programs,
                geo=geo.ravel(),
                fanout=np.repeat(fanout, n_route),
                caps=np.repeat(caps, n_route, axis=0)[np.repeat(valid, n_route, axis=0)],
                wirelength=np.array(wirelength, dtype=float),
                capsum=np.array(capsum, dtype=float),
            )

    def _route(
        self, geo_keys: List[bytes], pins: List[List[float]], n_specs: int
    ) -> Dict[str, List[Tuple[RouteTree, float]]]:
        """Each geometry's ``(route, wirelength)`` under rsmt and trunk.

        ``pins[g]`` is geometry ``g``'s driver x, y and child x, y, and
        ``n_specs`` the missed specs that share the geometries.  Routes
        come from the kernel's route memo, keyed by ``(route model,
        geometry key)``; every route it lacks is built by one
        :func:`~repro.route.rsmt.rsmt_batch` and one
        :func:`~repro.route.single_trunk.single_trunk_batch` call per
        batch.  Lookups count one per missed plan, so a geometry the
        batch routed already is a hit.
        """
        stats = self.stats
        routes: Dict[str, List[Tuple[RouteTree, float]]] = {}
        points: Dict[int, List[Point]] = {}  # one pin list per geometry, both routers
        for model, router in (("rsmt", rsmt_batch), ("trunk", single_trunk_batch)):
            found = [self._routes.get((model, key)) for key in geo_keys]
            missing = [g for g, routed in enumerate(found) if routed is None]
            stats["route_hits"] += n_specs - len(missing)
            stats["route_misses"] += len(missing)
            if missing:
                stats[f"{model}_batches"] += 1
                for g in missing:
                    if g not in points:
                        points[g] = [Point(x, y) for x, y in zip(pins[g][0::2], pins[g][1::2])]
                built = router([points[g] for g in missing])
                for g, route in zip(missing, built):
                    found[g] = (route, route.length)
                    if len(self._routes) >= MAX_CACHE_ENTRIES:
                        self._routes.pop(next(iter(self._routes)))
                    self._routes[(model, geo_keys[g])] = found[g]
            routes[model] = found
        return routes

    def _evaluate(self, specs: np.ndarray, fanout: np.ndarray, keys: List[bytes]) -> None:
        """Plan, evaluate and memoize the distinct missed specs ``specs``
        under ``keys``: each evaluated chunk of plans writes its rows
        with one slice per memo array, so each spec's rows form one
        block, in ``_ROUTE_MODELS`` order."""
        misses = self._plan(specs, fanout)
        with self.timers.stage("kernel_eval"):
            programs = misses.programs
            rows = self._wire_rows
            first = rows.rows
            n_plan = misses.geo.size
            rows.reserve(n_plan, misses.caps.size)
            cap_end = np.cumsum(misses.fanout)
            cap_start = cap_end - misses.fanout
            for lo in range(0, n_plan, _EVAL_CHUNK):
                hi = min(lo + _EVAL_CHUNK, n_plan)
                geo = misses.geo[lo:hi]
                elm, d2m = self._eval_programs(
                    programs, geo, misses.caps[cap_start[lo] : cap_end[hi - 1]]
                )
                wirelength = misses.wirelength[lo:hi]
                rows.append(
                    programs.fanout[geo],
                    np.stack([wirelength, programs.bbox_area[geo], programs.bbox_aspect[geo]]),
                    self._nldm.cap_per_um[:, None] * wirelength + misses.capsum[lo:hi],
                    elm,
                    d2m,
                )
            self._wire_memo.update(zip(keys, range(first, first + n_plan, len(_ROUTE_MODELS))))

    def _trim_wire_memo(self) -> None:
        """Evict the oldest row blocks beyond ``max_entries`` rows (FIFO)
        and compact the memo's arrays to the blocks kept, each still
        contiguous."""
        n_route = len(_ROUTE_MODELS)
        excess = len(self._wire_memo) - self.max_entries // n_route
        if excess > 0:
            keep = list(islice(self._wire_memo, excess, None))
            first = np.array([self._wire_memo[key] for key in keep], dtype=np.int64)
            self._wire_rows = self._wire_rows.take(
                (first[:, None] + np.arange(n_route)).ravel()
            )
            self._wire_memo = dict(zip(keep, range(0, n_route * len(keep), n_route)))

    # ------------------------------------------------------------------
    # Batched featurization
    # ------------------------------------------------------------------
    def compute_components_batch(
        self,
        tree: ClockTree,
        timings: Mapping[str, CornerTiming],
        moves: Sequence[Move],
    ) -> List[MoveComponents]:
        """Components for ``moves``, bit-identical to the per-move path.

        Surgery moves and moves touching sizes outside the stacked
        tables route through :func:`compute_move_components` (counted in
        ``stats['fallback_moves']``); everything else evaluates in
        batch.
        """
        lib = self.library
        self.stats["batches"] += 1
        out: List[Optional[MoveComponents]] = [None] * len(moves)
        with self.timers.stage("kernel_prep"):
            batch, fallback = self._prepare(tree, moves)
        if batch.moves:
            rows = self.ensure_metrics(batch.specs, batch.fanout)
            with self.timers.stage("kernel_assemble"):
                components = self._assemble(tree, timings, batch, rows)
            self._trim_wire_memo()
            for mi, comp in zip(batch.index, components):
                out[mi] = comp
            self.stats["kernel_moves"] += len(batch.moves)
        for mi in fallback:
            out[mi] = compute_move_components(tree, lib, timings, moves[mi])
        self.stats["fallback_moves"] += len(fallback)
        return out

    # ------------------------------------------------------------------
    def _prepare(
        self,
        tree: ClockTree,
        moves: Sequence[Move],
    ) -> Tuple[_Batch, List[int]]:
        """Scalar per-move setup: sizes, fallback routing, shared specs.

        Each distinct parent-net and own-net spec is recorded once; then
        all of them are built as rows at once: one gather of each
        buffer's unmodified spec row, and one scatter of the moved or
        resized pin (``x + dx`` is the add :meth:`Point.translated`
        makes).
        """
        lib = self.library
        size_pos = self._nldm.size_pos
        batch = _Batch()
        fallback: List[int] = []
        parent_rows: List[List[float]] = []  # per buffer: its parent's spec
        own_rows: List[List[float]] = []  # per buffer: its own spec
        buf_row: Dict[int, int] = {}
        pnet_of: Dict[tuple, int] = {}
        bnet_of: Dict[tuple, int] = {}
        for mi, move in enumerate(moves):
            if move.type is MoveType.SURGERY:
                fallback.append(mi)
                continue
            b = move.buffer
            row = buf_row.get(b)
            if row is None:
                row = buf_row[b] = len(batch.buffers)
                parent = tree.parent(b)
                parent_spec = _children_spec(tree, lib, parent)
                b_spec = _children_spec(tree, lib, b)
                parent_ids = [cid for cid, _, _ in parent_spec]
                node = tree.node(b)
                batch.buffers.append(
                    _Buffer(
                        node=node,
                        parent=parent,
                        parent_size=_driver_size(tree, lib, parent),
                        parent_ids=parent_ids,
                        b_ids=[cid for cid, _, _ in b_spec],
                        b_pos=parent_ids.index(b),
                    )
                )
                parent_rows.append(_spec_row(tree.node(parent).location, parent_spec))
                own_rows.append(_spec_row(node.location, b_spec))
            buf = batch.buffers[row]
            node = buf.node
            new_size = node.size
            if move.type is MoveType.SIZING_DISPLACE and move.size_step:
                new_size = lib.step_size(node.size, move.size_step)
            child = None
            child_size = None
            if move.type is MoveType.CHILD_SIZING and move.child is not None:
                child = move.child
                child_size = lib.step_size(
                    tree.node(child).size, move.child_size_step
                )
            if (
                buf.parent_size not in size_pos
                or new_size not in size_pos
                or (child_size is not None and child_size not in size_pos)
            ):
                fallback.append(mi)
                continue

            pkey = (b, move.dx, move.dy, new_size)
            p = pnet_of.get(pkey)
            if p is None:
                p = pnet_of[pkey] = len(batch.parent_nets)
                batch.parent_nets.append(
                    _ParentNet(
                        buf=row,
                        new_size=new_size,
                        dx=move.dx,
                        dy=move.dy,
                        pin_cap=lib.input_cap_ff(new_size),
                    )
                )
            bkey = (b, move.dx, move.dy, child, child_size)
            q = bnet_of.get(bkey)
            if q is None:
                sizing = {}
                if child is not None:
                    rc_pos = buf.b_ids.index(child)
                    sizing = dict(rc_pos=rc_pos, rc_cap=lib.input_cap_ff(child_size))
                    if tree.children(child):
                        sizing.update(child=child, child_size=child_size)
                q = bnet_of[bkey] = len(batch.own_nets)
                batch.own_nets.append(_OwnNet(buf=row, dx=move.dx, dy=move.dy, **sizing))
            batch.index.append(mi)
            batch.moves.append(move)
            batch.move_buf.append(row)
            batch.move_pnet.append(p)
            batch.move_bnet.append(q)
            batch.size_after.append(new_size or 0)
        if batch.moves:
            self._spec_rows(batch, parent_rows, own_rows)
        return batch, fallback

    @staticmethod
    def _spec_rows(
        batch: _Batch, parent_rows: List[List[float]], own_rows: List[List[float]]
    ) -> None:
        """Fill ``batch.specs`` and ``batch.fanout`` from each buffer's
        parent and own spec rows."""
        bufs = batch.buffers
        pnets, onets = batch.parent_nets, batch.own_nets
        n_p = len(pnets)
        fanout = np.array(
            [len(bufs[net.buf].parent_ids) for net in pnets]
            + [len(bufs[net.buf].b_ids) for net in onets],
            dtype=np.int64,
        )
        width = 2 + 4 * int(fanout.max())
        specs = np.empty((fanout.size, width))
        pbuf = [net.buf for net in pnets]
        specs[:n_p] = _padded_rows(parent_rows, width)[pbuf]
        specs[n_p:] = _padded_rows(own_rows, width)[[net.buf for net in onets]]
        shift = np.array([(net.dx, net.dy, net.pin_cap) for net in pnets])
        col = 3 + 4 * np.array([bufs[b].b_pos for b in pbuf], dtype=np.int64)
        p = np.arange(n_p)
        specs[p, col] += shift[:, 0]
        specs[p, col + 1] += shift[:, 1]
        specs[p, col + 2] = shift[:, 2]
        own = specs[n_p:]
        own[:, :2] += np.array([(net.dx, net.dy) for net in onets])
        resized = [(q, net.rc_pos, net.rc_cap) for q, net in enumerate(onets) if net.rc_pos >= 0]
        if resized:
            q, pos, cap = zip(*resized)
            own[list(q), 5 + 4 * np.array(pos, dtype=np.int64)] = cap
        batch.specs = specs
        batch.fanout = fanout

    # ------------------------------------------------------------------
    @staticmethod
    def _weighted_delta(
        new_vals: np.ndarray,
        old_vals: np.ndarray,
        weights: np.ndarray,
        valid: np.ndarray,
    ) -> np.ndarray:
        """Batched ``analytical._weighted_child_delta``.

        Masked column loop over the padded child axis: adding
        ``where(mask, contrib, 0.0)`` preserves each move's left-to-right
        accumulation order over its own (non-excluded) children, and
        ``+ 0.0`` is exact for the padded entries.
        """
        n_corner, n_move, fan = new_vals.shape
        total = np.zeros((n_corner, n_move))
        total_w = np.zeros(n_move)
        for k in range(fan):
            mask = valid[:, k]
            if not mask.any():
                continue
            contrib = weights[:, k] * (new_vals[:, :, k] - old_vals[:, :, k])
            total = total + np.where(mask[None, :], contrib, 0.0)
            total_w = total_w + np.where(mask, weights[:, k], 0.0)
        safe = np.where(total_w != 0.0, total_w, 1.0)
        return np.where(total_w[None, :] != 0.0, total / safe[None, :], 0.0)

    @staticmethod
    def _child_axis(
        tree: ClockTree,
        children: Sequence[List[int]],
        edge_delays: Sequence[Mapping[int, float]],
        width: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Padded per-driver child rows: sink weights (each child's
        subtree sink count, at least 1, as
        ``analytical._subtree_sink_weights`` takes it), baseline edge
        delays ``(corners, drivers, width)`` and the slot mask, each
        filled by one flat scatter."""
        rows, cols = _flat_slots([len(ids) for ids in children])
        flat_ids = list(chain.from_iterable(children))
        n = len(children)
        w = np.zeros((n, width))
        w[rows, cols] = [max(len(tree.subtree_sinks(cid)), 1) for cid in flat_ids]
        old = np.zeros((len(edge_delays), n, width))
        old[:, rows, cols] = [[ed.get(cid, 0.0) for cid in flat_ids] for ed in edge_delays]
        valid = np.zeros((n, width), dtype=bool)
        valid[rows, cols] = True
        return w, old, valid

    def _wire_arrays(
        self, rows: np.ndarray, width: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Padded ``(corners, nets, width)`` Elmore and D2M child delays
        and the ``(corners, nets)`` driver loads of the memo ``rows``,
        each gathered in one pass."""
        memo = self._wire_rows
        child, fan = memo.child_index(rows)
        at = _flat_slots(fan)
        n_corner = len(self._corners)
        elm = np.zeros((n_corner, rows.size, width))
        d2m = np.zeros((n_corner, rows.size, width))
        elm[:, at[0], at[1]] = memo.elm[:, child]
        d2m[:, at[0], at[1]] = memo.d2m[:, child]
        return elm, d2m, memo.load[:, rows]

    def _assemble(
        self,
        tree: ClockTree,
        timings: Mapping[str, CornerTiming],
        batch: _Batch,
        rows: np.ndarray,
    ) -> List[MoveComponents]:
        """Vectorized impact + feature assembly for the prepared moves.

        Parent-net quantities are evaluated once per parent-net entry,
        own-net wire deltas once per own-net entry; the per-move arrays
        gather them.  Gathering copies floats, so every value is the
        one the per-move evaluation computes.
        """
        lib = self.library
        corners = self._corners
        n_corner = len(corners)
        n_move = len(batch.moves)
        bufs = batch.buffers
        n_p = len(batch.parent_nets)
        parent_rows = rows[:n_p]
        own_rows = rows[n_p:]
        move_buf = np.asarray(batch.move_buf, dtype=np.int64)
        move_pnet = np.asarray(batch.move_pnet, dtype=np.int64)
        move_bnet = np.asarray(batch.move_bnet, dtype=np.int64)
        pbuf = np.array([net.buf for net in batch.parent_nets], dtype=np.int64)
        bbuf = np.array([net.buf for net in batch.own_nets], dtype=np.int64)

        # --- timing snapshot, one array per column ---------------------
        snaps = [timings[c.name] for c in corners]
        parents = [x.parent for x in bufs]
        moved = [x.node.id for x in bufs]
        source_slew = lib.source_slew_ps
        s_parent = np.array(
            [[t.input_slew.get(p, source_slew) for p in parents] for t in snaps]
        )
        dd_parent = np.array([[t.driver_delay[p] for p in parents] for t in snaps])
        dd_b = np.array([[t.driver_delay.get(b, 0.0) for b in moved] for t in snaps])
        ed_b = np.array([[t.edge_delay.get(b, 0.0) for b in moved] for t in snaps])

        # --- padded per-child weight / baseline-delay rows -------------
        max_fp = max(max(len(x.parent_ids) for x in bufs), 1)
        max_fb = max(max(len(x.b_ids) for x in bufs), 1)
        edge_delays = [t.edge_delay for t in snaps]
        w_par, old_par, valid_par = self._child_axis(
            tree, [x.parent_ids for x in bufs], edge_delays, max_fp
        )
        valid_par[np.arange(len(bufs)), [x.b_pos for x in bufs]] = False
        w_b, old_b, valid_b = self._child_axis(
            tree, [x.b_ids for x in bufs], edge_delays, max_fb
        )
        w_par, old_par, valid_par = w_par[pbuf], old_par[:, pbuf], valid_par[pbuf]
        w_b, old_b, valid_b = w_b[bbuf], old_b[:, bbuf], valid_b[bbuf]

        size_pos = self._nldm.size_pos
        b_pos = np.array([bufs[i].b_pos for i in pbuf.tolist()], dtype=np.int64)
        si_parent = np.broadcast_to(
            np.array([size_pos[x.parent_size] for x in bufs], dtype=np.int64)[pbuf],
            (n_corner, n_p),
        )
        si_b = np.broadcast_to(
            np.array(
                [size_pos[net.new_size] for net in batch.parent_nets], dtype=np.int64
            )[move_pnet],
            (n_corner, n_move),
        )
        ci_p = np.broadcast_to(np.arange(n_corner)[:, None], (n_corner, n_p))
        ci_move = np.broadcast_to(np.arange(n_corner)[:, None], (n_corner, n_move))
        p_rows = np.arange(n_p)
        s_parent_p = s_parent[:, pbuf]
        dd_parent_p = dd_parent[:, pbuf]
        ed_b_p = ed_b[:, pbuf]
        dd_b_move = dd_b[:, move_buf]

        sizing = np.array([net.child is not None for net in batch.own_nets])
        sub = np.flatnonzero(sizing[move_bnet])
        if sub.size:
            sub_net = move_bnet[sub]
            nets = [batch.own_nets[q] for q in sub_net.tolist()]
            rc_pos = np.array([net.rc_pos for net in nets], dtype=np.int64)
            # The resized child's sink-weight share of the buffer's net:
            # integer weights, so the sum is exact and the one division
            # rounds as the per-move path's int division does.
            share = w_b[sub_net, rc_pos] / np.maximum(w_b[sub_net].sum(axis=1), 1.0)
            si_child = np.broadcast_to(
                np.array([size_pos[net.child_size] for net in nets], dtype=np.int64),
                (n_corner, sub.size),
            )
            ci_sub = np.broadcast_to(
                np.arange(n_corner)[:, None], (n_corner, sub.size)
            )
            load_child = np.array(
                [[t.driver_load.get(net.child, 0.0) for net in nets] for t in snaps]
            )
            dd_child = np.array(
                [[t.driver_delay.get(net.child, 0.0) for net in nets] for t in snaps]
            )

        # --- per route model: gate rounds + per-metric deltas ---------
        pair = self._nldm.pair
        per_variant: Dict[Tuple[str, str], Tuple[np.ndarray, ...]] = {}
        for k, r in enumerate(_ROUTE_MODELS):
            rows_par = parent_rows + k
            rows_b = own_rows + k
            elm_par, d2m_par, tl_par = self._wire_arrays(rows_par, max_fp)
            elm_bn, d2m_bn, tl_b = self._wire_arrays(rows_b, max_fb)
            elm_to_b = elm_par[:, p_rows, b_pos]
            d2m_to_b = d2m_par[:, p_rows, b_pos]

            pair_parent, slew_parent = pair(
                ci_p, si_parent, *quantize_gate_arrays(s_parent_p, tl_par)
            )
            step = LN9 * elm_to_b
            slew_at_b = np.sqrt(slew_parent * slew_parent + step * step)
            tl_b_move = tl_b[:, move_bnet]
            pair_b, slew_b = pair(
                ci_move,
                si_b,
                *quantize_gate_arrays(slew_at_b[:, move_pnet], tl_b_move),
            )

            d_child_pair = np.zeros((n_corner, n_move))
            if sub.size:
                cstep = LN9 * elm_bn[:, sub_net, rc_pos]
                child_slew = np.sqrt(
                    slew_b[:, sub] * slew_b[:, sub] + cstep * cstep
                )
                pair_child, _ = pair(
                    ci_sub, si_child, *quantize_gate_arrays(child_slew, load_child)
                )
                d_child_pair[:, sub] = share[None, :] * (pair_child - dd_child)

            d_parent_pair = pair_parent - dd_parent_p
            d_b_pair = pair_b - dd_b_move
            wires = {"elmore": (elm_par, elm_bn, elm_to_b), "d2m": (d2m_par, d2m_bn, d2m_to_b)}
            for metric, (par, own, to_b) in wires.items():
                d_wire_to_b = (to_b - ed_b_p)[:, move_pnet]
                d_b_wire = self._weighted_delta(own, old_b, w_b, valid_b)[:, move_bnet]
                old_sib = self._weighted_delta(par, old_par, w_par, valid_par)
                per_variant[(r, metric)] = (
                    d_parent_pair[:, move_pnet]
                    + d_wire_to_b
                    + d_b_pair
                    + d_b_wire
                    + d_child_pair,
                    d_wire_to_b + d_b_wire,
                    d_parent_pair + old_sib,
                )

        # The feature rows describe the nets of the rsmt + d2m reference.
        k_ref = _ROUTE_MODELS.index(ESTIMATOR_VARIANTS[1][0])
        slews = np.array(
            [[t.input_slew.get(b, 0.0) for b in moved] for t in snaps]
        )
        return self._build_components(
            batch, per_variant, own_rows + k_ref, parent_rows + k_ref, slews
        )

    def _build_components(
        self,
        batch: _Batch,
        per_variant: Dict[Tuple[str, str], Tuple[np.ndarray, ...]],
        own_ref: np.ndarray,
        parent_ref: np.ndarray,
        slews: np.ndarray,
    ) -> List[MoveComponents]:
        """Per-move MoveComponents over batch-wide arrays.

        ``per_variant[v]`` holds variant ``v``'s ``(corners, moves)``
        subtree and wire-only deltas and its ``(corners, parent nets)``
        old-sibling deltas; ``slews`` is the ``(corners, buffers)``
        input slew.  The base rows form one ``(moves, features)``
        matrix, the :data:`ESTIMATOR_VARIANTS` subtree and wire-only
        deltas one ``(moves, corners, 4)`` array each, the slews one
        ``(moves, corners)`` array and the side-effect deltas one
        ``(moves, 2, corners)`` array (a kernel move has no new
        siblings); each component holds read-only row views of them.
        """
        n_corner = len(self._corners)
        moves = batch.moves
        own_of = np.asarray(batch.move_bnet, dtype=np.int64)
        parent_of = np.asarray(batch.move_pnet, dtype=np.int64)

        memo = self._wire_rows
        own_fanout = memo.fanout[own_ref].astype(float)[own_of]
        own_wl, own_area, own_aspect = memo.shape[:, own_ref][:, own_of]
        parent_fanout = memo.fanout[parent_ref].astype(float)[parent_of]
        parent_wl, parent_area, parent_aspect = memo.shape[:, parent_ref][:, parent_of]
        size_after = np.asarray(batch.size_after, dtype=np.int64)
        onehot = {
            MoveType.SIZING_DISPLACE: (1.0, 0.0, 0.0),
            MoveType.CHILD_SIZING: (0.0, 1.0, 0.0),
            MoveType.SURGERY: (0.0, 0.0, 1.0),
        }
        type_cols = np.array([onehot[m.type] for m in moves]).reshape(-1, 3)
        zeros = np.zeros(len(moves))
        base = np.column_stack(
            [
                *([zeros] * N_ESTIMATE_COLS),
                own_fanout,
                own_area / 1000.0,
                own_aspect,
                own_wl,
                parent_fanout,
                parent_area / 1000.0,
                parent_aspect,
                parent_wl,
                zeros,  # input_slew_ps, scattered per corner
                size_after.astype(float),
                1.0 / np.maximum(size_after, 1),
                type_cols,
                np.array([float(m.size_step) for m in moves]),
                np.array([float(m.child_size_step) for m in moves]),
                np.array([abs(m.dx) + abs(m.dy) for m in moves]),
            ]
        )
        estimates = np.empty((len(moves), n_corner, N_ESTIMATE_COLS))
        wire_only = np.empty_like(estimates)
        for j, variant in enumerate(ESTIMATOR_VARIANTS):
            estimates[:, :, j] = per_variant[variant][0].T
            wire_only[:, :, j] = per_variant[variant][1].T
        input_slew = slews.T[batch.move_buf]
        side = np.zeros((len(moves), 2, n_corner))
        side[:, 0] = per_variant[SIDE_EFFECT_VARIANT][2].T[parent_of]
        for array in (base, estimates, wire_only, input_slew, side):
            array.flags.writeable = False
        return [
            MoveComponents(
                move=move,
                base_row=base[i],
                estimates=estimates[i],
                wire_only=wire_only[i],
                input_slew=input_slew[i],
                side=side[i],
            )
            for i, move in enumerate(moves)
        ]
