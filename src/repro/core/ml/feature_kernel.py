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

* **geometry templates** — the RC construction
  (:func:`~repro.route.rc_net.star_rc_tree` /
  :func:`~repro.route.rc_net.route_rc_tree`) of each net geometry (route
  model, driver location, child locations) of a batch is replayed once
  into flat arrays: parent slot per node, per-node segment length
  (resistance = ``res_per_um * len`` per corner), and an ordered list of
  capacitance terms (wire half/full pi-caps as lengths, pin loads as
  constants).  Plans that share a geometry — the sizing variants of one
  displacement — differ only in pin caps, which each plan scatters into
  its template's constant-term slots;
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
* **wire-metric memo** — per-plan child Elmore/D2M vectors and total
  loads are slew- and size-independent, so they cache under the plan's
  value key and survive across local-opt epochs; the wirelength, fanout
  and bounding box come from the template.  The nominal-corner
  ``{child: delay}`` maps of a :class:`NetEstimate` are built only when
  an impact is requested (analytical predictors, the figure benches);
* **side-effect rows** — each component's ``side`` row, the star
  variant's old- and new-sibling deltas that the move scorer reads, is a
  view of one ``(moves, 2, corners)`` batch array, so ranking with a
  learned predictor builds no per-move impact object.

Bit-compatibility contract
--------------------------
Same as the STA/ECO kernels: every array operation reproduces the
scalar reference's float operations in the same order, so components
from :meth:`FeatureKernel.compute_components_batch` equal
:func:`~repro.core.ml.features.compute_move_components` bit for bit
(``tests/test_feature_kernel.py`` holds both to 1e-9 and the local-opt
trajectory to byte identity).  Sequential sums use
``0.0 + x == x`` / masked ``+ 0.0`` accumulation; ``np.sqrt`` /
``np.minimum`` / ``np.rint`` match their ``math``/builtin scalar
counterparts bitwise on these inputs.

Moves the array path cannot express — tree surgery (changes both
drivers' child sets) and drive sizes outside the stacked tables — take
the per-move :func:`~repro.core.ml.features.compute_move_components`
inside a batch; it is the only path for those inputs, and the test
oracle for every other move.  A library whose NLDM tables cannot be
stacked raises the stack's :class:`ValueError` at construction; there
is no wholesale scalar fallback.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ml.analytical import (
    ESTIMATE_SEGMENT_UM,
    AnalyticalCache,
    MemoKey,
    MoveImpact,
    NetEstimate,
    _children_spec,
    _driver_size,
    _NetPlan,
)
from repro.core.ml.features import (
    ESTIMATOR_VARIANTS,
    N_ESTIMATE_COLS,
    SIDE_EFFECT_VARIANT,
    MoveComponents,
    compute_move_components,
)
from repro.core.moves import Move, MoveType
from repro.geometry import BBox, Point, path_length
from repro.netlist.tree import ClockNode, ClockTree
from repro.obs.metrics import StageTimers
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


@dataclass(frozen=True)
class _Template:
    """One net geometry's RC construction, replayed as flat arrays.

    A geometry is a route model, a driver location and the child
    locations; plans that share it differ only in pin caps, the one
    per-plan input: child ``k``'s cap is the constant term at
    ``(child_slot[k], cap_term[k])``, which holds 0.0 here.
    """

    n_nodes: int
    parent: np.ndarray  # (n,) parent slot, -1 for the root
    seg: np.ndarray  # (n,) pi-piece length (res = res_per_um * seg)
    term_code: np.ndarray  # (n, T) term codes, 0 = absent
    term_val: np.ndarray  # (n, T) term payloads (lengths or constants)
    child_slot: np.ndarray  # (fanout,) RC slot per plan child, spec order
    cap_term: np.ndarray  # (fanout,) term column of each child's pin cap
    wirelength_um: float
    fanout: int
    bbox_area_um2: float
    bbox_aspect: float


@dataclass(frozen=True)
class _WireMetrics:
    """Slew/size-independent per-plan wire artifacts, all corners."""

    elm: np.ndarray  # (corners, fanout) per-child Elmore (ps)
    d2m: np.ndarray  # (corners, fanout) per-child D2M (ps)
    total_load: np.ndarray  # (corners,) driver load (fF)
    wirelength_um: float
    fanout: int
    bbox_area_um2: float
    bbox_aspect: float
    child_ids: Tuple[int, ...]  # the plan's children, in ``elm``/``d2m`` order


@dataclass(frozen=True)
class _Buffer:
    """A moved buffer's fixed context within one batch."""

    node: ClockNode
    parent: int
    parent_size: int
    parent_loc: Point
    parent_spec: List[Tuple[int, Point, float]]  # unmodified child specs
    b_spec: List[Tuple[int, Point, float]]
    b_pos: int  # the buffer's slot in ``parent_spec``


@dataclass(frozen=True)
class _ParentNet:
    """One distinct parent-net spec of a batch."""

    buf: int  # row in ``_Batch.buffers``
    new_size: int  # the moved buffer's size after the move
    spec: int  # row in ``_Batch.plans``


@dataclass(frozen=True)
class _OwnNet:
    """One distinct own-net spec (the moved buffer's net)."""

    buf: int
    spec: int  # row in ``_Batch.plans``
    #: Resized child that drives a net of its own (else ``None``), with
    #: its new size, its slot in the spec and its sink-weight share.
    child: Optional[int] = None
    child_size: Optional[int] = None
    rc_pos: int = 0
    share: float = 0.0


@dataclass
class _Batch:
    """The kernel moves of one batch in struct-of-lists form.

    The tree is fixed within a batch, so a move's parent-net spec is
    fixed by (buffer, displacement, new size) and its own net's spec by
    (buffer, displacement, resized child, child size): each distinct
    spec is resolved once and the moves index it.  ``plans`` holds each
    spec's plans, one per ``_ROUTE_MODELS`` entry, in first-use order.
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
    plans: List[Tuple[_NetPlan, ...]] = field(default_factory=list)


def _flat_slots(fanouts: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """(row, column) of every child when ragged rows are padded flat."""
    fan = np.asarray(fanouts, dtype=np.int64)
    rows = np.repeat(np.arange(fan.size), fan)
    starts = np.cumsum(fan) - fan
    return rows, np.arange(rows.size) - np.repeat(starts, fan)


#: Impact variants a component publishes, in the reference's order.
_VARIANTS: Tuple[Tuple[str, str], ...] = tuple(
    (r, m) for r in _ROUTE_MODELS for m in ("elmore", "d2m")
)


@dataclass(frozen=True)
class _NominalNets:
    """One role's nets of a batch under one route model, nominal corner
    (row ``nom`` of the wire metrics)."""

    metrics: Sequence[_WireMetrics]
    pair: List[float]
    out_slew: List[float]
    total_load: List[float]
    nom: int

    def estimate(self, j: int) -> NetEstimate:
        """Net ``j``'s :class:`NetEstimate`, its per-child nominal wire
        maps built on this request."""
        m = self.metrics[j]
        wire = {
            "elmore": dict(zip(m.child_ids, m.elm[self.nom].tolist())),
            "d2m": dict(zip(m.child_ids, m.d2m[self.nom].tolist())),
        }
        return NetEstimate(
            pair_delay_ps=self.pair[j],
            out_slew_ps=self.out_slew[j],
            wire_delay_ps=wire,
            wire_elmore_ps=wire["elmore"],
            total_load_ff=self.total_load[j],
            wirelength_um=m.wirelength_um,
            fanout=m.fanout,
            bbox_area_um2=m.bbox_area_um2,
            bbox_aspect=m.bbox_aspect,
        )


class _BatchImpacts:
    """A batch's impact arrays, from which its moves build MoveImpacts.

    Per variant: the ``(n_move, corners)`` subtree and wire-only deltas
    and the ``(n_parent_nets, corners)`` old-sibling deltas.  Per route
    model: the nominal own nets (one per move) and parent nets (one per
    parent-net entry, built once and shared).
    """

    def __init__(
        self,
        names: Sequence[str],
        move_pnet: List[int],
        deltas: Dict[Tuple[str, str], Tuple[np.ndarray, np.ndarray, np.ndarray]],
        own: Dict[str, _NominalNets],
        parent: Dict[str, _NominalNets],
    ) -> None:
        self._names = names
        self._move_pnet = move_pnet
        self._deltas = deltas
        self._own = own
        self._parent = parent
        self._parent_est: Dict[Tuple[str, int], NetEstimate] = {}

    def impact(self, i: int, variant: Tuple[str, str]) -> MoveImpact:
        subtree, wire_only, old_siblings = self._deltas[variant]
        route = variant[0]
        p = self._move_pnet[i]
        parent_est = self._parent_est.get((route, p))
        if parent_est is None:
            parent_est = self._parent[route].estimate(p)
            self._parent_est[(route, p)] = parent_est
        names = self._names
        return MoveImpact(
            subtree=dict(zip(names, subtree[i].tolist())),
            old_siblings=dict(zip(names, old_siblings[p].tolist())),
            new_siblings=dict.fromkeys(names, 0.0),
            net_after=self._own[route].estimate(i),
            parent_net=parent_est,
            subtree_wire_only=dict(zip(names, wire_only[i].tolist())),
        )


class _LazyImpacts(Mapping):
    """Read-only ``{variant: MoveImpact}`` of one kernel move.

    An analytical predictor reads one variant per move, its own; the
    scorer reads the component's ``side`` row and a learned ranking
    reads no impact at all.  So each MoveImpact is built from the batch
    arrays on first access and kept.  Equal, as a mapping, to the dict
    :func:`compute_move_components` builds.
    """

    __slots__ = ("_batch", "_i", "_built")

    def __init__(self, batch: _BatchImpacts, i: int) -> None:
        self._batch = batch
        self._i = i
        self._built: Dict[Tuple[str, str], MoveImpact] = {}

    def __getitem__(self, variant: Tuple[str, str]) -> MoveImpact:
        impact = self._built.get(variant)
        if impact is None:
            impact = self._batch.impact(self._i, variant)
            self._built[variant] = impact
        return impact

    def __iter__(self):
        return iter(_VARIANTS)

    def __len__(self) -> int:
        return len(_VARIANTS)


class FeatureKernel:
    """Batched analytical move featurization over SoA numpy arrays."""

    def __init__(self, library: Library) -> None:
        self.library = library
        self._nldm = library.nldm
        self._corners = list(library.corners)
        self._nom = self._nldm.corner_row[library.corners.nominal.name]
        self._wire_memo: Dict[MemoKey, _WireMetrics] = {}
        self.max_entries = 200_000
        self.timers = StageTimers(phase="features")
        self.stats: Dict[str, int] = {
            "batches": 0,
            "kernel_moves": 0,
            "fallback_moves": 0,
            "wire_hits": 0,
            "wire_misses": 0,
            "programs_compiled": 0,
        }

    # ------------------------------------------------------------------
    # Template compilation: replay the RC builders into flat arrays
    # ------------------------------------------------------------------
    def _compile_template(self, plan: _NetPlan) -> _Template:
        """Replay the RC builder of ``plan``'s geometry, pin caps left 0.0.

        Nodes take slots in the builders' insertion order: the root, then
        per routed edge its pi-pieces, near end first (see
        ``route.rc_net._add_wire_path``).  Star nets route each child
        from the driver in spec order; rsmt/trunk nets walk the route
        depth-first from the driver pin 0, where child ``k`` is pin
        ``k + 1``.  A node's terms keep the builders' order too: its own
        piece cap, its pin cap, then the near-end half caps of the
        edges leaving it.
        """
        parent: List[int] = [-1]
        seg: List[float] = [0.0]
        terms: List[List[Tuple[int, float]]] = [[]]

        def add_wire(start: int, length: float) -> int:
            """Append one routed edge below slot ``start``; its far slot."""
            if length <= 0.0:
                parent.append(start)
                seg.append(0.0)
                terms.append([])
                return len(parent) - 1
            pieces = max(1, math.ceil(length / ESTIMATE_SEGMENT_UM))
            piece_len = length / pieces
            terms[start].append((_TERM_HALF, piece_len))
            prev = start
            for _ in range(pieces - 1):
                parent.append(prev)
                seg.append(piece_len)
                terms.append([(_TERM_WIRE, piece_len)])
                prev = len(parent) - 1
            parent.append(prev)
            seg.append(piece_len)
            terms.append([(_TERM_HALF, piece_len)])
            return len(parent) - 1

        fanout = len(plan.children)
        pin_slot: List[int] = [0] * fanout
        pin_term: List[int] = [0] * fanout

        def add_pin(k: int, slot: int) -> None:
            pin_slot[k] = slot
            pin_term[k] = len(terms[slot])
            terms[slot].append((_TERM_CONST, 0.0))

        if plan.route_model == "star":
            for k, (_, loc, _) in enumerate(plan.children):
                add_pin(k, add_wire(0, path_length([plan.driver_loc, loc])))
        else:
            route = plan.route
            points = route.points
            adj = route.adjacency()
            slot_of = {0: 0}
            stack = [0]
            while stack:
                cur = stack.pop()
                for nxt in adj[cur]:
                    if nxt in slot_of:
                        continue
                    slot_of[nxt] = add_wire(
                        slot_of[cur], points[cur].manhattan(points[nxt])
                    )
                    if 0 < nxt <= fanout:
                        add_pin(nxt - 1, slot_of[nxt])
                    stack.append(nxt)

        n = len(parent)
        width = max(max(len(t) for t in terms), 1)
        term_code = np.zeros((n, width), dtype=np.int8)
        term_val = np.zeros((n, width))
        for slot, tlist in enumerate(terms):
            for t, (code, val) in enumerate(tlist):
                term_code[slot, t] = code
                term_val[slot, t] = val
        bbox = BBox.of_points(
            [plan.driver_loc] + [loc for _, loc, _ in plan.children]
        )
        self.stats["programs_compiled"] += 1
        return _Template(
            n_nodes=n,
            parent=np.asarray(parent, dtype=np.int64),
            seg=np.asarray(seg),
            term_code=term_code,
            term_val=term_val,
            child_slot=np.asarray(pin_slot, dtype=np.int64),
            cap_term=np.asarray(pin_term, dtype=np.int64),
            wirelength_um=plan.wirelength_um,
            fanout=fanout,
            bbox_area_um2=bbox.area,
            bbox_aspect=bbox.aspect_ratio,
        )

    # ------------------------------------------------------------------
    # Lockstep moment engine over (corners x plans x nodes)
    # ------------------------------------------------------------------
    @staticmethod
    def _pad_programs(
        templates: Sequence[_Template], caps: Sequence[Sequence[float]]
    ) -> Tuple[np.ndarray, ...]:
        """Padded program arrays of plans given as (template, pin caps).

        Each distinct template is padded once; the plans gather its rows
        and scatter their caps into its constant-term slots.  Returns
        ``(parent, valid, seg, code, tval)``, each ``(plans, nodes[,
        terms])``, and the ``(rows, slots)`` of every plan child in
        spec order.
        """
        row_of: Dict[int, int] = {}
        distinct: List[_Template] = []
        tix = []
        for t in templates:
            row = row_of.get(id(t))
            if row is None:
                row = row_of[id(t)] = len(distinct)
                distinct.append(t)
            tix.append(row)
        n_tpl = len(distinct)
        max_n = max(t.n_nodes for t in distinct)
        max_t = max(t.term_code.shape[1] for t in distinct)
        max_f = max(max(t.fanout for t in distinct), 1)
        parent = np.zeros((n_tpl, max_n), dtype=np.int64)
        valid = np.zeros((n_tpl, max_n), dtype=bool)
        seg = np.zeros((n_tpl, max_n))
        code = np.zeros((n_tpl, max_n, max_t), dtype=np.int8)
        tval = np.zeros((n_tpl, max_n, max_t))
        child = np.zeros((n_tpl, max_f), dtype=np.int64)
        cap_term = np.zeros((n_tpl, max_f), dtype=np.int64)
        for i, t in enumerate(distinct):
            n, nt, f = t.n_nodes, t.term_code.shape[1], t.fanout
            parent[i, :n] = t.parent
            valid[i, :n] = True
            seg[i, :n] = t.seg
            code[i, :n, :nt] = t.term_code
            tval[i, :n, :nt] = t.term_val
            child[i, :f] = t.child_slot
            cap_term[i, :f] = t.cap_term
        tix = np.asarray(tix, dtype=np.int64)
        rows, cols = _flat_slots([t.fanout for t in templates])
        tpl_rows = tix[rows]
        slots = child[tpl_rows, cols]
        tval = tval[tix]
        tval[rows, slots, cap_term[tpl_rows, cols]] = [
            c for plan_caps in caps for c in plan_caps
        ]
        return parent[tix], valid[tix], seg[tix], code[tix], tval, (rows, slots)

    def _eval_programs(
        self, templates: Sequence[_Template], caps: Sequence[Sequence[float]]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-child (Elmore, D2M) arrays, one ``(corners, fanout)`` pair
        per plan (a template and its pin caps), bit-identical to the
        scalar moment recursions.

        Each array step applies one node's scalar operation across all
        plans and corners at once; a plan's own node sequence (forward
        insertion order for moments, reverse for subtree accumulations)
        is exactly the scalar engine's, so every float matches.
        """
        parent, valid, seg, code, tval, children = self._pad_programs(
            templates, caps
        )
        n_prog, max_n, max_t = code.shape
        n_corner = len(self._corners)
        res = self._nldm.res_per_um[:, None, None] * seg[None, :, :]
        cap = np.zeros((n_corner, n_prog, max_n))
        for t in range(max_t):
            ct = code[:, :, t][None, :, :]
            vt = tval[:, :, t][None, :, :]
            wirecap = self._nldm.cap_per_um[:, None, None] * vt
            term = np.where(ct == _TERM_WIRE, wirecap, 0.0)
            term = np.where(ct == _TERM_HALF, wirecap / 2.0, term)
            term = np.where(
                ct == _TERM_CONST, np.broadcast_to(vt, term.shape), term
            )
            cap = cap + term

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

        cuts = np.cumsum([t.fanout for t in templates])[:-1]
        return list(
            zip(
                np.split(m1[:, children[0], children[1]], cuts, axis=1),
                np.split(d2m[:, children[0], children[1]], cuts, axis=1),
            )
        )

    # ------------------------------------------------------------------
    # Wire-metric memo
    # ------------------------------------------------------------------
    def ensure_metrics(self, plans: Sequence[_NetPlan]) -> List[_WireMetrics]:
        """Wire metrics of ``plans``, in order.

        Every plan missing from the memo is evaluated in lockstep first,
        from its geometry's template and its own pin caps; each geometry
        of the batch compiles once.  Nothing is evicted here:
        :meth:`_trim_wire_memo` runs after the batch has read its
        metrics.
        """
        keys = [plan.key for plan in plans]
        found = [self._wire_memo.get(key) for key in keys]
        pending: Dict[MemoKey, _NetPlan] = {}
        for key, plan, metrics in zip(keys, plans, found):
            if metrics is not None:
                self.stats["wire_hits"] += 1
            elif key not in pending:
                self.stats["wire_misses"] += 1
                pending[key] = plan
        if not pending:
            return found
        items = list(pending.items())
        with self.timers.stage("kernel_compile"):
            compiled: Dict[MemoKey, _Template] = {}
            templates = []
            for _, plan in items:
                template = compiled.get(plan.geometry)
                if template is None:
                    template = compiled[plan.geometry] = self._compile_template(plan)
                templates.append(template)
        with self.timers.stage("kernel_eval"):
            for lo in range(0, len(items), _EVAL_CHUNK):
                chunk = items[lo : lo + _EVAL_CHUNK]
                chunk_templates = templates[lo : lo + _EVAL_CHUNK]
                caps = [[c for _, _, c in plan.children] for _, plan in chunk]
                results = self._eval_programs(chunk_templates, caps)
                wirelength = np.array([t.wirelength_um for t in chunk_templates])
                capsum = np.array([sum(plan_caps) for plan_caps in caps], dtype=float)
                total_load = self._nldm.cap_per_um[:, None] * wirelength + capsum
                for j, ((key, plan), t, (elm, d2m)) in enumerate(
                    zip(chunk, chunk_templates, results)
                ):
                    self._wire_memo[key] = _WireMetrics(
                        elm=elm,
                        d2m=d2m,
                        total_load=total_load[:, j],
                        wirelength_um=t.wirelength_um,
                        fanout=t.fanout,
                        bbox_area_um2=t.bbox_area_um2,
                        bbox_aspect=t.bbox_aspect,
                        child_ids=tuple(cid for cid, _, _ in plan.children),
                    )
        return [
            metrics if metrics is not None else self._wire_memo[key]
            for key, metrics in zip(keys, found)
        ]

    def _trim_wire_memo(self) -> None:
        """Evict the oldest wire metrics beyond ``max_entries`` (FIFO)."""
        excess = len(self._wire_memo) - self.max_entries
        if excess > 0:
            for key in list(islice(self._wire_memo, excess)):
                del self._wire_memo[key]

    # ------------------------------------------------------------------
    # Batched featurization
    # ------------------------------------------------------------------
    def compute_components_batch(
        self,
        tree: ClockTree,
        timings: Mapping[str, CornerTiming],
        moves: Sequence[Move],
        cache: AnalyticalCache,
    ) -> List[MoveComponents]:
        """Components for ``moves``, bit-identical to the scalar path.

        Surgery moves and moves touching sizes outside the stacked
        tables route through :func:`compute_move_components` (counted in
        ``stats['fallback_moves']``); everything else evaluates in
        batch.  ``cache`` is the pipeline's shared
        :class:`AnalyticalCache` — plans, routes and sink weights flow
        through the same memos as the per-move path.
        """
        lib = self.library
        self.stats["batches"] += 1
        out: List[Optional[MoveComponents]] = [None] * len(moves)
        with self.timers.stage("kernel_prep"):
            batch, fallback = self._prepare(tree, moves, cache)
        if batch.moves:
            nets = (*batch.parent_nets, *batch.own_nets)
            metrics = self.ensure_metrics(
                [plan for net in nets for plan in batch.plans[net.spec]]
            )
            with self.timers.stage("kernel_assemble"):
                components = self._assemble(tree, timings, batch, metrics, cache)
            self._trim_wire_memo()
            for mi, comp in zip(batch.index, components):
                out[mi] = comp
            self.stats["kernel_moves"] += len(batch.moves)
        for mi in fallback:
            out[mi] = compute_move_components(
                tree, lib, timings, moves[mi], cache
            )
        self.stats["fallback_moves"] += len(fallback)
        return out

    # ------------------------------------------------------------------
    def _prepare(
        self,
        tree: ClockTree,
        moves: Sequence[Move],
        cache: AnalyticalCache,
    ) -> Tuple[_Batch, List[int]]:
        """Scalar per-move setup: sizes, fallback routing, shared specs.

        Each distinct parent-net and own-net spec is built once (from
        the buffer's unmodified child specs, with the one moved or
        resized pin replaced); then all of them are planned under every
        route model in one :meth:`AnalyticalCache.plan_nets` call.
        """
        lib = self.library
        size_pos = self._nldm.size_pos
        batch = _Batch()
        fallback: List[int] = []
        specs: List[Tuple[Point, List[Tuple[int, Point, float]]]] = []
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
                batch.buffers.append(
                    _Buffer(
                        node=tree.node(b),
                        parent=parent,
                        parent_size=_driver_size(tree, lib, parent),
                        parent_loc=tree.node(parent).location,
                        parent_spec=parent_spec,
                        b_spec=_children_spec(tree, lib, b),
                        b_pos=[cid for cid, _, _ in parent_spec].index(b),
                    )
                )
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
                new_loc = node.location.translated(move.dx, move.dy)
                spec = list(buf.parent_spec)
                spec[buf.b_pos] = (b, new_loc, lib.input_cap_ff(new_size))
                p = pnet_of[pkey] = len(batch.parent_nets)
                batch.parent_nets.append(
                    _ParentNet(buf=row, new_size=new_size, spec=len(specs))
                )
                specs.append((buf.parent_loc, spec))
            bkey = (b, move.dx, move.dy, child, child_size)
            q = bnet_of.get(bkey)
            if q is None:
                new_loc = node.location.translated(move.dx, move.dy)
                spec = buf.b_spec
                sizing = {}
                if child is not None:
                    rc_pos = [cid for cid, _, _ in spec].index(child)
                    spec = list(spec)
                    spec[rc_pos] = (
                        child,
                        spec[rc_pos][1],
                        lib.input_cap_ff(child_size),
                    )
                    if tree.children(child):
                        weights = cache.sink_weights(tree, b)
                        sizing = dict(
                            child=child,
                            child_size=child_size,
                            rc_pos=rc_pos,
                            share=weights.get(child, 1)
                            / max(sum(weights.values()), 1),
                        )
                q = bnet_of[bkey] = len(batch.own_nets)
                batch.own_nets.append(_OwnNet(buf=row, spec=len(specs), **sizing))
                specs.append((new_loc, spec))
            size_after = node.size or 0
            if move.type is MoveType.SIZING_DISPLACE and move.size_step:
                size_after = lib.step_size(size_after, move.size_step)
            batch.index.append(mi)
            batch.moves.append(move)
            batch.move_buf.append(row)
            batch.move_pnet.append(p)
            batch.move_bnet.append(q)
            batch.size_after.append(size_after)
        batch.plans = cache.plan_nets(specs, _ROUTE_MODELS)
        return batch, fallback

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

    def _child_axis(
        self,
        tree: ClockTree,
        cache: AnalyticalCache,
        drivers: Sequence[int],
        specs: Sequence[List[Tuple[int, Point, float]]],
        edge_delays: Sequence[Mapping[int, float]],
        width: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Padded per-driver child rows: sink weights, baseline edge
        delays ``(corners, drivers, width)`` and the slot mask, each
        filled by one flat scatter."""
        rows, cols = _flat_slots([len(spec) for spec in specs])
        flat_ids = [cid for spec in specs for cid, _, _ in spec]
        flat_w: List[int] = []
        for driver, spec in zip(drivers, specs):
            weights = cache.sink_weights(tree, driver)
            flat_w.extend(weights[cid] for cid, _, _ in spec)
        n = len(specs)
        w = np.zeros((n, width))
        w[rows, cols] = flat_w
        old = np.zeros((len(edge_delays), n, width))
        old[:, rows, cols] = [[ed.get(cid, 0.0) for cid in flat_ids] for ed in edge_delays]
        valid = np.zeros((n, width), dtype=bool)
        valid[rows, cols] = True
        return w, old, valid

    def _wire_arrays(
        self, metrics: Sequence[_WireMetrics], width: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Padded ``(corners, nets, width)`` Elmore and D2M child delays
        and the ``(corners, nets)`` driver loads of ``metrics``."""
        n_corner = len(self._corners)
        rows, cols = _flat_slots([m.fanout for m in metrics])
        elm = np.zeros((n_corner, len(metrics), width))
        d2m = np.zeros((n_corner, len(metrics), width))
        elm[:, rows, cols] = np.concatenate([m.elm for m in metrics], axis=1)
        d2m[:, rows, cols] = np.concatenate([m.d2m for m in metrics], axis=1)
        total_load = np.stack([m.total_load for m in metrics], axis=1)
        return elm, d2m, total_load

    def _assemble(
        self,
        tree: ClockTree,
        timings: Mapping[str, CornerTiming],
        batch: _Batch,
        metrics: List[_WireMetrics],
        cache: AnalyticalCache,
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
        n_route = len(_ROUTE_MODELS)
        parent_metrics = metrics[: n_p * n_route]
        own_metrics = metrics[n_p * n_route :]
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
        max_fp = max(max(len(x.parent_spec) for x in bufs), 1)
        max_fb = max(max(len(x.b_spec) for x in bufs), 1)
        edge_delays = [t.edge_delay for t in snaps]
        w_par, old_par, valid_par = self._child_axis(
            tree, cache, parents, [x.parent_spec for x in bufs], edge_delays, max_fp
        )
        valid_par[np.arange(len(bufs)), [x.b_pos for x in bufs]] = False
        w_b, old_b, valid_b = self._child_axis(
            tree, cache, moved, [x.b_spec for x in bufs], edge_delays, max_fb
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
            share = np.array([net.share for net in nets])
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
        nom = self._nom
        pair = self._nldm.pair
        per_variant: Dict[Tuple[str, str], Tuple[np.ndarray, ...]] = {}
        own_nets: Dict[str, _NominalNets] = {}
        parent_nets: Dict[str, _NominalNets] = {}
        for k, r in enumerate(_ROUTE_MODELS):
            met_par = parent_metrics[k::n_route]
            met_b = own_metrics[k::n_route]
            elm_par, d2m_par, tl_par = self._wire_arrays(met_par, max_fp)
            elm_bn, d2m_bn, tl_b = self._wire_arrays(met_b, max_fb)
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
            own_nets[r] = _NominalNets(
                metrics=[met_b[q] for q in batch.move_bnet],
                pair=pair_b[nom].tolist(),
                out_slew=slew_b[nom].tolist(),
                total_load=tl_b_move[nom].tolist(),
                nom=nom,
            )
            parent_nets[r] = _NominalNets(
                metrics=met_par,
                pair=pair_parent[nom].tolist(),
                out_slew=slew_parent[nom].tolist(),
                total_load=tl_par[nom].tolist(),
                nom=nom,
            )

        # The feature rows describe the nets of the rsmt + d2m reference.
        k_ref = _ROUTE_MODELS.index(ESTIMATOR_VARIANTS[1][0])
        slews = np.array(
            [[t.input_slew.get(b, 0.0) for b in moved] for t in snaps]
        )
        return self._build_components(
            batch,
            per_variant,
            own_nets,
            parent_nets,
            own_metrics[k_ref::n_route],
            parent_metrics[k_ref::n_route],
            slews,
        )

    def _build_components(
        self,
        batch: _Batch,
        per_variant: Dict[Tuple[str, str], Tuple[np.ndarray, ...]],
        own_nets: Dict[str, _NominalNets],
        parent_nets: Dict[str, _NominalNets],
        own_ref: Sequence[_WireMetrics],
        parent_ref: Sequence[_WireMetrics],
        slews: np.ndarray,
    ) -> List[MoveComponents]:
        """Per-move MoveComponents over batch-wide matrices.

        The base rows form one ``(n_move, n_features)`` matrix, the
        estimates one ``(n_move, 4)`` matrix per corner and the
        side-effect deltas one ``(n_move, 2, corners)`` array (a kernel
        move has no new siblings); each component holds read-only row
        views of them.
        """
        names = [c.name for c in self._corners]
        moves = batch.moves
        own_of = np.asarray(batch.move_bnet, dtype=np.int64)
        parent_of = np.asarray(batch.move_pnet, dtype=np.int64)

        def column(values, index):
            return np.asarray(values, dtype=float)[index]

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
                column([m.fanout for m in own_ref], own_of),
                column([m.bbox_area_um2 for m in own_ref], own_of) / 1000.0,
                column([m.bbox_aspect for m in own_ref], own_of),
                column([m.wirelength_um for m in own_ref], own_of),
                column([m.fanout for m in parent_ref], parent_of),
                column([m.bbox_area_um2 for m in parent_ref], parent_of) / 1000.0,
                column([m.bbox_aspect for m in parent_ref], parent_of),
                column([m.wirelength_um for m in parent_ref], parent_of),
                zeros,  # input_slew_ps, scattered per corner
                size_after.astype(float),
                1.0 / np.maximum(size_after, 1),
                type_cols,
                np.array([float(m.size_step) for m in moves]),
                np.array([float(m.child_size_step) for m in moves]),
                np.array([abs(m.dx) + abs(m.dy) for m in moves]),
            ]
        )
        base.flags.writeable = False
        estimates = []
        for c in range(len(names)):
            block = np.stack(
                [per_variant[v][0][c] for v in ESTIMATOR_VARIANTS], axis=1
            )
            block.flags.writeable = False
            estimates.append(block)

        deltas = {
            key: tuple(np.ascontiguousarray(a.T) for a in arrays)
            for key, arrays in per_variant.items()
        }
        side = np.zeros((len(moves), 2, len(names)))
        side[:, 0] = deltas[SIDE_EFFECT_VARIANT][2][parent_of]
        side.flags.writeable = False
        impacts = _BatchImpacts(names, batch.move_pnet, deltas, own_nets, parent_nets)
        slew_rows = slews.T.tolist()
        return [
            MoveComponents(
                move=move,
                impacts=_LazyImpacts(impacts, i),
                base_row=base[i],
                estimates={name: block[i] for name, block in zip(names, estimates)},
                input_slew=dict(zip(names, slew_rows[buf])),
                side=side[i],
            )
            for i, (move, buf) in enumerate(zip(moves, batch.move_buf))
        ]
