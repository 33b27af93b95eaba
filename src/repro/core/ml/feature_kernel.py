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

* **plan programs** — each net plan's RC construction
  (:func:`~repro.route.rc_net.star_rc_tree` /
  :func:`~repro.route.rc_net.route_rc_tree`) is replayed once into flat
  arrays: parent slot per node, per-node segment length (resistance =
  ``res_per_um * len`` per corner), and an ordered list of capacitance
  terms (wire half/full pi-caps as lengths, pin loads as constants);
* **lockstep moment engine** — downstream caps, first moments, the
  D2M second-moment recursion and the Elmore forward pass run over all
  (plans x corners) at once, one vectorized gather/scatter per node
  step, preserving each net's per-node operation order exactly;
* **batched NLDM gate rounds** — driver pairs evaluate through one
  stacked ``(corners, sizes, slews, loads)`` table with the same
  quantize -> clamp -> ``searchsorted`` -> four-corner-blend sequence as
  :func:`repro.sta.gate.inverter_pair_timing` via
  ``repro.core.ml.analytical._pair_timing``;
* **wire-metric memo** — per-plan child Elmore/D2M vectors and total
  loads are slew- and size-independent, so they cache under the plan's
  value key and survive across local-opt epochs.

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
oracle for every other move.  Libraries whose cells do not share one
characterization grid raise :class:`FeatureKernelUnsupported` at
construction; there is no wholesale scalar fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.ml.analytical import (
    ESTIMATE_SEGMENT_UM,
    AnalyticalCache,
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
from repro.geometry import BBox, path_length
from repro.netlist.tree import ClockTree
from repro.obs.metrics import StageTimers
from repro.sta.d2m import LN2
from repro.sta.gate import GATE_LOAD_QUANTUM_FF, GATE_SLEW_QUANTUM_PS
from repro.sta.slew import LN9
from repro.sta.timer import CornerTiming
from repro.tech.library import Library


class FeatureKernelUnsupported(Exception):
    """The library cannot be compiled into stacked NLDM tables."""


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
class _NetProgram:
    """One net plan's RC construction, replayed as flat arrays."""

    n_nodes: int
    parent: np.ndarray  # (n,) parent slot, -1 for the root
    seg: np.ndarray  # (n,) pi-piece length (res = res_per_um * seg)
    term_code: np.ndarray  # (n, T) term codes, 0 = absent
    term_val: np.ndarray  # (n, T) term payloads (lengths or constants)
    child_slot: np.ndarray  # (fanout,) RC slot per plan child, spec order


@dataclass(frozen=True)
class _WireMetrics:
    """Slew/size-independent per-plan wire artifacts, all corners."""

    child_ids: Tuple[int, ...]
    elm: np.ndarray  # (corners, fanout) per-child Elmore (ps)
    d2m: np.ndarray  # (corners, fanout) per-child D2M (ps)
    total_load: np.ndarray  # (corners,) driver load (fF)
    wirelength_um: float
    fanout: int
    bbox_area_um2: float
    bbox_aspect: float


class FeatureKernel:
    """Batched analytical move featurization over SoA numpy arrays."""

    def __init__(
        self, library: Library, segment_um: float = ESTIMATE_SEGMENT_UM
    ) -> None:
        self.library = library
        self.segment_um = segment_um
        self._stack_tables()
        corners = list(library.corners)
        self._corners = corners
        self._res = np.array([library.wire(c).res_per_um for c in corners])
        self._capu = np.array([library.wire(c).cap_per_um for c in corners])
        self._wire_memo: Dict[tuple, _WireMetrics] = {}
        self.max_entries = 200_000
        self.timers = StageTimers(phase="features")
        self.stats: Dict[str, int] = {
            "batches": 0,
            "kernel_moves": 0,
            "fallback_moves": 0,
            "wire_hits": 0,
            "wire_misses": 0,
            "plans_compiled": 0,
            "gate_evals": 0,
        }

    # ------------------------------------------------------------------
    # Library compilation (mirrors sta.kernel.TimingKernel._stack_tables)
    # ------------------------------------------------------------------
    def _stack_tables(self) -> None:
        lib = self.library
        sizes = tuple(lib.sizes)
        if not sizes:
            raise FeatureKernelUnsupported("library has no drive sizes")
        if lib.source_drive_size not in sizes:
            raise FeatureKernelUnsupported("source drive size outside size list")
        corners = list(lib.corners)
        ref = lib.cell(sizes[0], corners[0])
        sax = ref.delay_table.slew_grid
        lax = ref.delay_table.load_grid
        if sax.size < 2 or lax.size < 2:
            raise FeatureKernelUnsupported("NLDM axes too small to batch")
        delay_vals = np.empty((len(corners), len(sizes), sax.size, lax.size))
        slew_vals = np.empty_like(delay_vals)
        icap = np.empty((len(corners), len(sizes)))
        for ci, corner in enumerate(corners):
            for si, size in enumerate(sizes):
                cell = lib.cell(size, corner)
                for table in (cell.delay_table, cell.slew_table):
                    if not (
                        np.array_equal(table.slew_grid, sax)
                        and np.array_equal(table.load_grid, lax)
                    ):
                        raise FeatureKernelUnsupported(
                            "cells do not share one characterization grid"
                        )
                delay_vals[ci, si] = cell.delay_table.value_grid
                slew_vals[ci, si] = cell.slew_table.value_grid
                icap[ci, si] = cell.input_cap_ff
        self._corner_row = {c.name: i for i, c in enumerate(corners)}
        self._size_pos = {size: i for i, size in enumerate(sizes)}
        self._sax = sax
        self._lax = lax
        self._delay_vals = delay_vals
        self._slew_vals = slew_vals
        self._icap = icap

    # ------------------------------------------------------------------
    # Batched NLDM evaluation (bit-identical to NLDMTable.lookup)
    # ------------------------------------------------------------------
    def _lookup(
        self,
        values: np.ndarray,
        ci: np.ndarray,
        si: np.ndarray,
        slew: np.ndarray,
        load: np.ndarray,
    ) -> np.ndarray:
        sax, lax = self._sax, self._lax
        s = np.clip(slew, sax[0], sax[-1])
        c = np.clip(load, lax[0], lax[-1])
        i = np.searchsorted(sax, s, side="right") - 1
        i = np.clip(i, 0, sax.size - 2)
        j = np.searchsorted(lax, c, side="right") - 1
        j = np.clip(j, 0, lax.size - 2)
        u = (s - sax[i]) / (sax[i + 1] - sax[i])
        t = (c - lax[j]) / (lax[j + 1] - lax[j])
        v00 = values[ci, si, i, j]
        v01 = values[ci, si, i, j + 1]
        v10 = values[ci, si, i + 1, j]
        v11 = values[ci, si, i + 1, j + 1]
        return (
            v00 * (1 - u) * (1 - t)
            + v01 * (1 - u) * t
            + v10 * u * (1 - t)
            + v11 * u * t
        )

    def _pair_batch(
        self,
        ci: np.ndarray,
        si: np.ndarray,
        slew_ps: np.ndarray,
        load_ff: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Quantized inverter-pair (delay, output slew), elementwise.

        Mirrors ``analytical._pair_timing``: snap (slew, load) to the
        gate grid (``np.rint`` == banker's ``round``), then the four
        NLDM lookups with the raw input-pin cap on the first stage.
        """
        slew_q = np.rint(slew_ps / GATE_SLEW_QUANTUM_PS) * GATE_SLEW_QUANTUM_PS
        load_q = np.rint(load_ff / GATE_LOAD_QUANTUM_FF) * GATE_LOAD_QUANTUM_FF
        icap = self._icap[ci, si]
        d1 = self._lookup(self._delay_vals, ci, si, slew_q, icap)
        s1 = self._lookup(self._slew_vals, ci, si, slew_q, icap)
        d2 = self._lookup(self._delay_vals, ci, si, s1, load_q)
        s2 = self._lookup(self._slew_vals, ci, si, s1, load_q)
        self.stats["gate_evals"] += int(np.size(d1))
        return d1 + d2, s2

    # ------------------------------------------------------------------
    # Plan compilation: replay the RC builders into flat arrays
    # ------------------------------------------------------------------
    def _compile_plan(self, plan: _NetPlan) -> _NetProgram:
        segment_um = self.segment_um
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
            pieces = max(1, int(np.ceil(length / segment_um)))
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
        self.stats["plans_compiled"] += 1
        return _NetProgram(
            n_nodes=n,
            parent=np.asarray(parent, dtype=np.int64),
            seg=np.asarray(seg),
            term_code=term_code,
            term_val=term_val,
            child_slot=child_slot,
        )

    # ------------------------------------------------------------------
    # Lockstep moment engine over (corners x plans x nodes)
    # ------------------------------------------------------------------
    def _eval_programs(
        self, programs: Sequence[_NetProgram]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-child (Elmore, D2M) arrays, one ``(corners, fanout)`` pair
        per program, bit-identical to the scalar moment recursions.

        Each array step applies one node's scalar operation across all
        plans and corners at once; a plan's own node sequence (forward
        insertion order for moments, reverse for subtree accumulations)
        is exactly the scalar engine's, so every float matches.
        """
        n_prog = len(programs)
        n_corner = len(self._corners)
        max_n = max(p.n_nodes for p in programs)
        max_t = max(p.term_code.shape[1] for p in programs)
        parent = np.zeros((n_prog, max_n), dtype=np.int64)
        valid = np.zeros((n_prog, max_n), dtype=bool)
        seg = np.zeros((n_prog, max_n))
        code = np.zeros((n_prog, max_n, max_t), dtype=np.int8)
        tval = np.zeros((n_prog, max_n, max_t))
        for i, p in enumerate(programs):
            n, t = p.n_nodes, p.term_code.shape[1]
            parent[i, :n] = p.parent
            valid[i, :n] = True
            seg[i, :n] = p.seg
            code[i, :n, :t] = p.term_code
            tval[i, :n, :t] = p.term_val

        res = self._res[:, None, None] * seg[None, :, :]
        cap = np.zeros((n_corner, n_prog, max_n))
        for t in range(max_t):
            ct = code[:, :, t][None, :, :]
            vt = tval[:, :, t][None, :, :]
            wirecap = self._capu[:, None, None] * vt
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

        out: List[Tuple[np.ndarray, np.ndarray]] = []
        for i, p in enumerate(programs):
            slots = p.child_slot
            out.append((m1[:, i, slots], d2m[:, i, slots]))
        return out

    # ------------------------------------------------------------------
    # Wire-metric memo
    # ------------------------------------------------------------------
    @staticmethod
    def _plan_key(plan: _NetPlan) -> tuple:
        return (plan.route_model, plan.driver_loc, plan.children)

    def ensure_metrics(self, plans: Sequence[_NetPlan]) -> None:
        """Compile + lockstep-evaluate every plan missing from the memo.

        Nothing is evicted here: the batch reads its plans back through
        :meth:`metrics_for`, so :meth:`_trim_wire_memo` runs after it.
        """
        pending: List[Tuple[tuple, _NetPlan]] = []
        seen = set()
        for plan in plans:
            key = self._plan_key(plan)
            if key in self._wire_memo:
                self.stats["wire_hits"] += 1
                continue
            if key in seen:
                continue
            seen.add(key)
            self.stats["wire_misses"] += 1
            pending.append((key, plan))
        if not pending:
            return
        with self.timers.stage("kernel_compile"):
            programs = [self._compile_plan(plan) for _, plan in pending]
        with self.timers.stage("kernel_eval"):
            for lo in range(0, len(pending), _EVAL_CHUNK):
                chunk = pending[lo : lo + _EVAL_CHUNK]
                results = self._eval_programs(
                    programs[lo : lo + _EVAL_CHUNK]
                )
                for (key, plan), (elm, d2m) in zip(chunk, results):
                    capsum = sum(c for _, _, c in plan.children)
                    total_load = self._capu * plan.wirelength_um + capsum
                    points = [plan.driver_loc] + [
                        loc for _, loc, _ in plan.children
                    ]
                    bbox = BBox.of_points(points)
                    self._wire_memo[key] = _WireMetrics(
                        child_ids=tuple(cid for cid, _, _ in plan.children),
                        elm=elm,
                        d2m=d2m,
                        total_load=total_load,
                        wirelength_um=plan.wirelength_um,
                        fanout=len(plan.children),
                        bbox_area_um2=bbox.area,
                        bbox_aspect=bbox.aspect_ratio,
                    )

    def metrics_for(self, plan: _NetPlan) -> _WireMetrics:
        return self._wire_memo[self._plan_key(plan)]

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
            prep, fallback = self._prepare(tree, timings, moves, cache)
        if prep:
            plans = [
                plans_by_model[r]
                for entry in prep
                for plans_by_model in (entry["parent_plans"], entry["b_plans"])
                for r in _ROUTE_MODELS
            ]
            self.ensure_metrics(plans)
            with self.timers.stage("kernel_assemble"):
                components = self._assemble(tree, timings, prep, cache)
            self._trim_wire_memo()
            for entry, comp in zip(prep, components):
                out[entry["index"]] = comp
            self.stats["kernel_moves"] += len(prep)
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
        timings: Mapping[str, CornerTiming],
        moves: Sequence[Move],
        cache: AnalyticalCache,
    ) -> Tuple[List[dict], List[int]]:
        """Scalar per-move setup: specs, plans, sizes, fallback routing."""
        lib = self.library
        prep: List[dict] = []
        fallback: List[int] = []
        for mi, move in enumerate(moves):
            if move.type is MoveType.SURGERY:
                fallback.append(mi)
                continue
            b = move.buffer
            parent = tree.parent(b)
            node = tree.node(b)
            new_loc = node.location.translated(move.dx, move.dy)
            new_size = node.size
            if move.type is MoveType.SIZING_DISPLACE and move.size_step:
                new_size = lib.step_size(node.size, move.size_step)
            new_pin = lib.input_cap_ff(new_size)

            child_overrides = {}
            resized_child = None
            child_new_size = None
            if move.type is MoveType.CHILD_SIZING and move.child is not None:
                resized_child = move.child
                child_new_size = lib.step_size(
                    tree.node(resized_child).size, move.child_size_step
                )
                child_overrides[resized_child] = (
                    tree.node(resized_child).location,
                    lib.input_cap_ff(child_new_size),
                )
            parent_size = _driver_size(tree, lib, parent)
            if (
                parent_size not in self._size_pos
                or new_size not in self._size_pos
                or (
                    child_new_size is not None
                    and child_new_size not in self._size_pos
                )
            ):
                fallback.append(mi)
                continue

            parent_spec = _children_spec(
                tree, lib, parent, overrides={b: (new_loc, new_pin)}
            )
            b_spec = _children_spec(tree, lib, b, overrides=child_overrides)
            parent_loc = tree.node(parent).location
            parent_plans = {
                r: cache.plan_net(parent_loc, parent_spec, r)
                for r in _ROUTE_MODELS
            }
            b_plans = {
                r: cache.plan_net(new_loc, b_spec, r) for r in _ROUTE_MODELS
            }
            b_pos = next(
                i for i, (cid, _, _) in enumerate(parent_spec) if cid == b
            )
            size_after = node.size or 0
            if move.type is MoveType.SIZING_DISPLACE and move.size_step:
                size_after = lib.step_size(size_after, move.size_step)
            child_sizing_active = resized_child is not None and bool(
                tree.children(resized_child)
            )
            rc_pos = None
            share = 0.0
            if child_sizing_active:
                rc_pos = next(
                    i
                    for i, (cid, _, _) in enumerate(b_spec)
                    if cid == resized_child
                )
                weights = cache.sink_weights(tree, b)
                share = weights.get(resized_child, 1) / max(
                    sum(weights.values()), 1
                )
            prep.append(
                {
                    "index": mi,
                    "move": move,
                    "b": b,
                    "parent": parent,
                    "parent_size": parent_size,
                    "new_size": new_size,
                    "child_new_size": child_new_size,
                    "size_after": size_after,
                    "resized_child": resized_child,
                    "child_sizing_active": child_sizing_active,
                    "rc_pos": rc_pos,
                    "share": share,
                    "parent_spec": parent_spec,
                    "b_spec": b_spec,
                    "parent_plans": parent_plans,
                    "b_plans": b_plans,
                    "b_pos": b_pos,
                }
            )
        return prep, fallback

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

    def _assemble(
        self,
        tree: ClockTree,
        timings: Mapping[str, CornerTiming],
        prep: List[dict],
        cache: AnalyticalCache,
    ) -> List[MoveComponents]:
        """Vectorized impact + feature assembly for the prepared moves."""
        lib = self.library
        corners = self._corners
        n_corner = len(corners)
        n_move = len(prep)
        nominal_name = lib.corners.nominal.name
        nom = self._corner_row[nominal_name]

        # --- model-independent per-(corner, move) snapshot gathers ----
        s_parent = np.empty((n_corner, n_move))
        dd_parent = np.empty((n_corner, n_move))
        dd_b = np.empty((n_corner, n_move))
        ed_b = np.empty((n_corner, n_move))
        source_slew = lib.source_slew_ps
        for c, corner in enumerate(corners):
            timing = timings[corner.name]
            in_slew = timing.input_slew
            drv_delay = timing.driver_delay
            edge_delay = timing.edge_delay
            for i, e in enumerate(prep):
                s_parent[c, i] = in_slew.get(e["parent"], source_slew)
                dd_parent[c, i] = drv_delay[e["parent"]]
                dd_b[c, i] = drv_delay.get(e["b"], 0.0)
                ed_b[c, i] = edge_delay.get(e["b"], 0.0)

        # --- padded per-child weight / baseline-delay arrays ----------
        max_fp = max((len(e["parent_spec"]) for e in prep), default=1)
        max_fb = max((len(e["b_spec"]) for e in prep), default=1)
        max_fp = max(max_fp, 1)
        max_fb = max(max_fb, 1)
        w_par = np.zeros((n_move, max_fp))
        valid_par = np.zeros((n_move, max_fp), dtype=bool)
        w_b = np.zeros((n_move, max_fb))
        valid_b = np.zeros((n_move, max_fb), dtype=bool)
        old_par = np.zeros((n_corner, n_move, max_fp))
        old_b = np.zeros((n_corner, n_move, max_fb))
        edge_delays = [timings[c.name].edge_delay for c in corners]
        for i, e in enumerate(prep):
            pw = cache.sink_weights(tree, e["parent"])
            for k, (cid, _, _) in enumerate(e["parent_spec"]):
                w_par[i, k] = pw[cid]
                valid_par[i, k] = cid != e["b"]
                for c in range(n_corner):
                    old_par[c, i, k] = edge_delays[c].get(cid, 0.0)
            bw = cache.sink_weights(tree, e["b"])
            for k, (cid, _, _) in enumerate(e["b_spec"]):
                w_b[i, k] = bw[cid]
                valid_b[i, k] = True
                for c in range(n_corner):
                    old_b[c, i, k] = edge_delays[c].get(cid, 0.0)

        size_parent = np.array(
            [self._size_pos[e["parent_size"]] for e in prep], dtype=np.int64
        )
        size_b = np.array(
            [self._size_pos[e["new_size"]] for e in prep], dtype=np.int64
        )
        b_pos = np.array([e["b_pos"] for e in prep], dtype=np.int64)
        rows = np.arange(n_move)
        ci_grid = np.broadcast_to(
            np.arange(n_corner)[:, None], (n_corner, n_move)
        )
        si_parent = np.broadcast_to(size_parent[None, :], (n_corner, n_move))
        si_b = np.broadcast_to(size_b[None, :], (n_corner, n_move))

        sub = [i for i, e in enumerate(prep) if e["child_sizing_active"]]
        if sub:
            sub_idx = np.asarray(sub, dtype=np.int64)
            rc_pos = np.array([prep[i]["rc_pos"] for i in sub], dtype=np.int64)
            share = np.array([prep[i]["share"] for i in sub])
            si_child = np.broadcast_to(
                np.array(
                    [self._size_pos[prep[i]["child_new_size"]] for i in sub],
                    dtype=np.int64,
                )[None, :],
                (n_corner, len(sub)),
            )
            ci_sub = np.broadcast_to(
                np.arange(n_corner)[:, None], (n_corner, len(sub))
            )
            load_child = np.empty((n_corner, len(sub)))
            dd_child = np.empty((n_corner, len(sub)))
            for c, corner in enumerate(corners):
                timing = timings[corner.name]
                for j, i in enumerate(sub):
                    rc = prep[i]["resized_child"]
                    load_child[c, j] = timing.driver_load.get(rc, 0.0)
                    dd_child[c, j] = timing.driver_delay.get(rc, 0.0)

        # --- per route model: gate rounds + per-metric deltas ---------
        per_variant: Dict[Tuple[str, str], Dict[str, np.ndarray]] = {}
        nominal_nets: Dict[str, Tuple[list, list]] = {}
        for r in _ROUTE_MODELS:
            elm_par = np.zeros((n_corner, n_move, max_fp))
            d2m_par = np.zeros((n_corner, n_move, max_fp))
            elm_bn = np.zeros((n_corner, n_move, max_fb))
            d2m_bn = np.zeros((n_corner, n_move, max_fb))
            tl_par = np.empty((n_corner, n_move))
            tl_b = np.empty((n_corner, n_move))
            met_par: List[_WireMetrics] = []
            met_b: List[_WireMetrics] = []
            for i, e in enumerate(prep):
                mp = self.metrics_for(e["parent_plans"][r])
                mb = self.metrics_for(e["b_plans"][r])
                met_par.append(mp)
                met_b.append(mb)
                fp, fb = mp.fanout, mb.fanout
                if fp:
                    elm_par[:, i, :fp] = mp.elm
                    d2m_par[:, i, :fp] = mp.d2m
                if fb:
                    elm_bn[:, i, :fb] = mb.elm
                    d2m_bn[:, i, :fb] = mb.d2m
                tl_par[:, i] = mp.total_load
                tl_b[:, i] = mb.total_load

            elm_to_b = elm_par[:, rows, b_pos]
            d2m_to_b = d2m_par[:, rows, b_pos]

            pair_parent, slew_parent = self._pair_batch(
                ci_grid, si_parent, s_parent, tl_par
            )
            step = LN9 * elm_to_b
            slew_at_b = np.sqrt(slew_parent * slew_parent + step * step)
            pair_b, slew_b = self._pair_batch(ci_grid, si_b, slew_at_b, tl_b)

            d_child_pair = np.zeros((n_corner, n_move))
            if sub:
                elm_b_rc = elm_bn[:, sub_idx, :][
                    :, np.arange(len(sub)), rc_pos
                ]
                cstep = LN9 * elm_b_rc
                child_slew = np.sqrt(
                    slew_b[:, sub_idx] * slew_b[:, sub_idx] + cstep * cstep
                )
                pair_child, _ = self._pair_batch(
                    ci_sub, si_child, child_slew, load_child
                )
                d_child_pair[:, sub_idx] = share[None, :] * (
                    pair_child - dd_child
                )

            d_parent_pair = pair_parent - dd_parent
            d_b_pair = pair_b - dd_b
            old_sib_delta = {
                "elmore": self._weighted_delta(
                    elm_par, old_par, w_par, valid_par
                ),
                "d2m": self._weighted_delta(d2m_par, old_par, w_par, valid_par),
            }
            b_wire_delta = {
                "elmore": self._weighted_delta(elm_bn, old_b, w_b, valid_b),
                "d2m": self._weighted_delta(d2m_bn, old_b, w_b, valid_b),
            }
            to_b = {"elmore": elm_to_b, "d2m": d2m_to_b}
            for metric in ("elmore", "d2m"):
                d_wire_to_b = to_b[metric] - ed_b
                d_b_wire = b_wire_delta[metric]
                per_variant[(r, metric)] = {
                    "subtree": d_parent_pair
                    + d_wire_to_b
                    + d_b_pair
                    + d_b_wire
                    + d_child_pair,
                    "wire_only": d_wire_to_b + d_b_wire,
                    "old_siblings": d_parent_pair + old_sib_delta[metric],
                }
            nominal_nets[r] = (
                self._nominal_estimates(
                    met_b, elm_bn, d2m_bn, pair_b, slew_b, tl_b, nom
                ),
                self._nominal_estimates(
                    met_par,
                    elm_par,
                    d2m_par,
                    pair_parent,
                    slew_parent,
                    tl_par,
                    nom,
                ),
            )

        return self._build_components(
            timings, prep, per_variant, nominal_nets
        )

    @staticmethod
    def _nominal_estimates(
        metrics: List[_WireMetrics],
        elm: np.ndarray,
        d2m: np.ndarray,
        pair: np.ndarray,
        out_slew: np.ndarray,
        total_load: np.ndarray,
        nom: int,
    ) -> List[NetEstimate]:
        """Nominal-corner :class:`NetEstimate` objects for one net role."""
        elm_l = elm[nom].tolist()
        d2m_l = d2m[nom].tolist()
        pair_l = pair[nom].tolist()
        slew_l = out_slew[nom].tolist()
        load_l = total_load[nom].tolist()
        out: List[NetEstimate] = []
        for i, m in enumerate(metrics):
            ids = m.child_ids
            elm_map = {cid: elm_l[i][k] for k, cid in enumerate(ids)}
            d2m_map = {cid: d2m_l[i][k] for k, cid in enumerate(ids)}
            out.append(
                NetEstimate(
                    pair_delay_ps=pair_l[i],
                    out_slew_ps=slew_l[i],
                    wire_delay_ps={"elmore": elm_map, "d2m": d2m_map},
                    wire_elmore_ps=dict(elm_map),
                    total_load_ff=load_l[i],
                    wirelength_um=m.wirelength_um,
                    fanout=m.fanout,
                    bbox_area_um2=m.bbox_area_um2,
                    bbox_aspect=m.bbox_aspect,
                )
            )
        return out

    def _build_components(
        self,
        timings: Mapping[str, CornerTiming],
        prep: List[dict],
        per_variant: Dict[Tuple[str, str], Dict[str, np.ndarray]],
        nominal_nets: Dict[str, Tuple[list, list]],
    ) -> List[MoveComponents]:
        """Scatter the variant arrays into per-move MoveComponents."""
        lib = self.library
        corner_names = [c.name for c in self._corners]
        n_corner = len(corner_names)
        variant_lists = {
            key: {
                name: [arrs[name][c].tolist() for c in range(n_corner)]
                for name in ("subtree", "wire_only", "old_siblings")
            }
            for key, arrs in per_variant.items()
        }
        zero_by_corner = {name: 0.0 for name in corner_names}
        components: List[MoveComponents] = []
        for i, e in enumerate(prep):
            move = e["move"]
            impacts: Dict[Tuple[str, str], MoveImpact] = {}
            for r in _ROUTE_MODELS:
                b_est = nominal_nets[r][0][i]
                parent_est = nominal_nets[r][1][i]
                for metric in ("elmore", "d2m"):
                    lists = variant_lists[(r, metric)]
                    impacts[(r, metric)] = MoveImpact(
                        subtree={
                            name: lists["subtree"][c][i]
                            for c, name in enumerate(corner_names)
                        },
                        old_siblings={
                            name: lists["old_siblings"][c][i]
                            for c, name in enumerate(corner_names)
                        },
                        new_siblings=dict(zero_by_corner),
                        net_after=b_est,
                        parent_net=parent_est,
                        subtree_wire_only={
                            name: lists["wire_only"][c][i]
                            for c, name in enumerate(corner_names)
                        },
                    )
            reference = impacts[ESTIMATOR_VARIANTS[1]]  # rsmt + d2m
            net = reference.net_after
            parent_net = reference.parent_net or net
            size_after = e["size_after"]
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
            estimates: Dict[str, np.ndarray] = {}
            input_slew: Dict[str, float] = {}
            for c, name in enumerate(corner_names):
                estimates[name] = np.asarray(
                    [
                        variant_lists[variant]["subtree"][c][i]
                        for variant in ESTIMATOR_VARIANTS
                    ],
                    dtype=float,
                )
                input_slew[name] = float(
                    timings[name].input_slew.get(move.buffer, 0.0)
                )
            components.append(
                MoveComponents(
                    move=move,
                    impacts=impacts,
                    base_row=base_row,
                    estimates=estimates,
                    input_slew=input_slew,
                )
            )
        return components
