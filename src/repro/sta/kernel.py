"""Array-backed batched timing kernel: SoA/CSR compilation + propagation.

The scalar timing engines (:mod:`repro.sta.timer`,
:mod:`repro.sta.incremental`) walk the tree one node at a time, one
corner at a time, over ``Dict[int, float]`` state.  This module compiles
a :class:`~repro.netlist.tree.ClockTree` into struct-of-arrays form and
propagates arrivals, slews, driver delays and D2M/Elmore edge metrics
level-by-level as numpy operations batched across **all corners at
once** (corner as the leading axis):

* **CSR child adjacency** — one ``child_ptr``/``child_idx`` pair over
  nodes in BFS (topological) order, so each depth level's drivers and
  edges occupy contiguous ranges;
* **compile-time per-edge metrics** — one Python sweep gathers every
  driver row's routed lengths (congestion factor included) and pin caps
  in CSR order, and one all-corner
  :func:`~repro.route.rc_net.straight_wire_moments` pass gives every
  edge's Elmore/D2M wire delay and squared PERI step slew (star branches
  are electrically independent, so each edge's values equal the
  star-net RC tree's bit for bit); each driver's load is the
  left-to-right sum of its edges' wire-plus-pin terms;
* **vectorized NLDM evaluation** — the library's
  :class:`~repro.tech.cells.NLDMStack` (:attr:`Library.nldm`, stacked
  once and shared with the feature and ECO kernels) runs the inverter
  pair's four bilinear lookups (clamp, ``searchsorted``, the
  four-corner blend) on whole driver batches;
* **vectorized PERI slew degradation** and the signoff gate correction
  (``math.tanh`` evaluated once per unique quantized argument of a
  batch, because ``numpy.tanh`` and ``math.tanh`` differ in the last
  ulp).

Bit-compatibility contract
--------------------------
The kernel is a *performance* transform, not a remodel: every array
operation reproduces the scalar engines' float operations in the same
order (IEEE-754 elementwise ops are identical scalar or vectorized), so
kernel results match the scalar reference engines (the test oracles)
**bit for bit** — the differential suite (``tests/test_kernel.py``)
holds the two to 1e-9 ps and the local-opt trajectory to byte
identity, and observed
disagreement is exactly 0.  Where a numpy ufunc is *not* bit-identical
to the ``math`` module (``tanh``, ``hypot``), the kernel either
gathers the scalar function over the unique arguments or the scalar
reference was rewritten in the vectorizable form (see
:func:`repro.sta.slew.peri_slew`).

Incremental use
---------------
:meth:`CompiledTree.retime` replays the incremental engine's
dirty-frontier walk with per-corner boolean masks: re-evaluated rows
come from :meth:`CompiledTree.build_overrides` (every dirty row in one
pass of the same row evaluator a compile uses; the compiled arrays are
never mutated by a preview, which is what keeps the
apply→preview→undo→rebase round-trip free), cascade-vs-rigid-shift
decisions are made per corner exactly as the scalar engine makes them,
and committed moves either patch rows in place (displace/resize) or
trigger a full recompile (surgery).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry import BBox
from repro.netlist.tree import ClockTree
from repro.route.congestion import routed_length_factor
from repro.route.rc_net import DEFAULT_SEGMENT_UM, straight_wire_moments
from repro.sta.gate import quantize_gate_arrays
from repro.sta.signoff import (
    LOAD_GAIN,
    LOAD_SCALE_FF,
    MAX_SIZE,
    REFERENCE_SIZE,
    SLEW_GAIN,
    SLEW_SCALE_PS,
)
from repro.sta.skew import ArrayMap, PairPositions
from repro.sta.slew import LN9
from repro.sta.timer import CornerTiming
from repro.tech.cells import _exact_tanh
from repro.tech.corners import Corner
from repro.tech.library import Library


class KernelUnsupported(Exception):
    """The tree cannot be compiled: a drive size outside the library."""


class KernelStale(Exception):
    """The compiled arrays no longer describe the tree (recompile needed)."""


@dataclass
class KernelState:
    """All-corner propagation state: ``(corners, nodes)`` float arrays.

    ``edge_delay``/``edge_elmore`` are indexed by *child node* (the
    incoming edge), mirroring the scalar engines' per-child dicts.
    ``driver_valid`` marks nodes currently carrying driver artifacts
    (non-sinks with fanout); a driver that loses its whole fanout in a
    surgery is invalidated, exactly as the scalar engine pops its
    artifacts.
    """

    arrival: np.ndarray
    input_slew: np.ndarray
    driver_delay: np.ndarray
    driver_load: np.ndarray
    driver_out_slew: np.ndarray
    edge_delay: np.ndarray
    edge_elmore: np.ndarray
    driver_valid: np.ndarray

    def copy(self) -> "KernelState":
        return KernelState(
            arrival=self.arrival.copy(),
            input_slew=self.input_slew.copy(),
            driver_delay=self.driver_delay.copy(),
            driver_load=self.driver_load.copy(),
            driver_out_slew=self.driver_out_slew.copy(),
            edge_delay=self.edge_delay.copy(),
            edge_elmore=self.edge_elmore.copy(),
            driver_valid=self.driver_valid.copy(),
        )


@dataclass
class _Row:
    """One driver's recompiled geometry (a preview override or patch)."""

    child_pos: np.ndarray
    child_ids: Tuple[int, ...]
    size_idx: int
    load: np.ndarray
    wdelay: np.ndarray
    elmore: np.ndarray
    step_sq: np.ndarray


class TimingKernel:
    """Library-level compiled context: the library's NLDM stack plus memos.

    One instance per (library, wire metric); it owns the
    scalar memos shared across compiles (routed-length factors and pin
    caps).  The NLDM tables are :attr:`Library.nldm`, shared with the
    feature and ECO kernels; a library it cannot stack raises its
    :class:`ValueError`.
    """

    def __init__(self, library: Library, wire_metric: str = "d2m") -> None:
        if wire_metric not in ("d2m", "elmore"):
            raise ValueError("wire_metric must be 'd2m' or 'elmore'")
        self._library = library
        self._wire_metric = wire_metric
        self._nldm = library.nldm
        self._factor_memo: Dict[Tuple, float] = {}
        self._pin_cap_memo: Dict[int, float] = {}
        # Per-size signoff factors, computed with math.sqrt so the
        # vectorized correction multiplies the exact scalar constants.
        sizes = self._nldm.sizes
        self._sqrt_ref = np.array(
            [math.sqrt(REFERENCE_SIZE / size) for size in sizes]
        )
        self._size_frac = np.array([size / MAX_SIZE for size in sizes])

    @property
    def library(self) -> Library:
        return self._library

    @property
    def wire_metric(self) -> str:
        return self._wire_metric

    # ------------------------------------------------------------------
    # Scalar memos (bit-identical to the reference helpers)
    # ------------------------------------------------------------------
    def _edge_factor(self, fanout, bbox_area, start, end) -> float:
        key = (fanout, bbox_area, start, end)
        factor = self._factor_memo.get(key)
        if factor is None:
            if len(self._factor_memo) >= 1 << 20:
                self._factor_memo.clear()
            factor = routed_length_factor(fanout, bbox_area, start, end)
            self._factor_memo[key] = factor
        return factor

    def _pin_cap(self, size: int) -> float:
        cap = self._pin_cap_memo.get(size)
        if cap is None:
            cap = self._library.input_cap_ff(size)
            self._pin_cap_memo[size] = cap
        return cap

    @staticmethod
    def _tanh(x: np.ndarray) -> np.ndarray:
        # numpy.tanh disagrees with math.tanh in the last ulp; the scalar
        # engines use math.tanh, evaluated once per unique argument.
        return _exact_tanh(x.ravel()).reshape(x.shape)

    # ------------------------------------------------------------------
    # Batched gate evaluation
    # ------------------------------------------------------------------
    def gate_batch(
        self,
        corner_rows: np.ndarray,
        size_idx: np.ndarray,
        input_slew: np.ndarray,
        load: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Signoff-corrected inverter-pair (delay, output slew) batches.

        ``input_slew``/``load`` are ``(corners, drivers)``; quantization,
        the stack's four-lookup pair and the signoff correction all
        follow the scalar sequence in
        :func:`repro.sta.gate.inverter_pair_timing` and
        :func:`repro.sta.signoff.signoff_gate_factor`.
        """
        gate_slew, gate_load = quantize_gate_arrays(input_slew, load)
        delay, out_slew = self._nldm.pair(
            corner_rows[:, None], size_idx[None, :], gate_slew, gate_load
        )
        correction = (
            1.0
            + (LOAD_GAIN * self._tanh(gate_load / LOAD_SCALE_FF))
            * self._sqrt_ref[size_idx][None, :]
            - (SLEW_GAIN * self._tanh(gate_slew / SLEW_SCALE_PS))
            * self._size_frac[size_idx][None, :]
        )
        return delay * correction, out_slew

    # ------------------------------------------------------------------
    # Tree compilation
    # ------------------------------------------------------------------
    def compile(
        self, tree: ClockTree, corners: Optional[Sequence[Corner]] = None
    ) -> "CompiledTree":
        """Compile ``tree`` into SoA/CSR arrays for ``corners`` (default all)."""
        return CompiledTree(self, tree, corners)


class CompiledTree:
    """SoA/CSR form of one tree state, for a fixed corner subset."""

    def __init__(
        self,
        kernel: TimingKernel,
        tree: ClockTree,
        corners: Optional[Sequence[Corner]] = None,
    ) -> None:
        self._kernel = kernel
        lib = kernel._library
        self.corners: Tuple[Corner, ...] = tuple(
            corners if corners is not None else lib.corners
        )
        self.corner_rows = np.array(
            [kernel._nldm.corner_row[c.name] for c in self.corners], dtype=np.int64
        )
        self.corner_pos = {c.name: k for k, c in enumerate(self.corners)}
        self.C = len(self.corners)

        order, fanouts = tree.bfs_structure()
        n = len(order)
        self.n = n
        self.ids: List[int] = order
        self.index: Dict[int, int] = {nid: i for i, nid in enumerate(order)}
        self.root_pos = 0

        fanout = np.empty(n, dtype=np.int64)
        depth = np.empty(n, dtype=np.int64)
        size_idx = np.full(n, -1, dtype=np.int64)
        child_ptr = np.empty(n + 1, dtype=np.int64)
        child_ptr[0] = 0
        child_idx_parts: List[np.ndarray] = []
        depth[0] = 0
        nodes = [tree.node(nid) for nid in order]
        self.is_sink = np.fromiter((node.is_sink for node in nodes), bool, n)
        index = self.index
        for i, kids in enumerate(fanouts):
            fanout[i] = len(kids)
            child_ptr[i + 1] = child_ptr[i] + len(kids)
            if kids:
                positions = np.fromiter(
                    (index[c] for c in kids), dtype=np.int64, count=len(kids)
                )
                child_idx_parts.append(positions)
                depth[positions] = depth[i] + 1
        self.fanout = fanout
        self.depth = depth
        self.child_ptr = child_ptr
        self.child_idx = (
            np.concatenate(child_idx_parts)
            if child_idx_parts
            else np.empty(0, dtype=np.int64)
        )
        self.has_edge = np.ones(n, dtype=bool)
        self.has_edge[self.root_pos] = False

        drivers: List[int] = []
        for i, node in enumerate(nodes):
            if node.is_sink or not fanout[i]:
                continue
            size = lib.source_drive_size if node.is_source else node.size
            pos = kernel._nldm.size_pos.get(size)
            if pos is None:
                raise KernelUnsupported(f"drive size {size} not in library")
            size_idx[i] = pos
            drivers.append(i)
        # Sinks have no fanout, so the drivers' edges, in BFS order, are
        # the CSR edge list.
        load, self.edge_wdelay, self.edge_elmore, self.edge_step_sq = (
            self._eval_rows(tree, [(nodes[i], fanouts[i]) for i in drivers])
        )
        self.load = np.zeros((self.C, n))
        self.load[:, drivers] = load
        self.size_idx = size_idx
        self.levels = self._build_levels()
        self._pair_positions: Optional[PairPositions] = None

    def _build_levels(self) -> List[Tuple[np.ndarray, int, int, np.ndarray]]:
        """Level partitions: BFS order is sorted by depth, so each depth's
        nodes — and therefore its CSR edge block — are contiguous."""
        fanout, depth, child_ptr = self.fanout, self.depth, self.child_ptr
        levels: List[Tuple[np.ndarray, int, int, np.ndarray]] = []
        bounds = np.searchsorted(depth, np.arange(depth[-1] + 2))
        for d in range(int(depth[-1]) + 1):
            a, b = int(bounds[d]), int(bounds[d + 1])
            drivers = a + np.nonzero(fanout[a:b] > 0)[0]
            if drivers.size == 0:
                continue
            rep = np.repeat(np.arange(drivers.size), fanout[drivers])
            levels.append((drivers, int(child_ptr[a]), int(child_ptr[b]), rep))
        return levels

    # ------------------------------------------------------------------
    # Row evaluation (compiles and overrides alike)
    # ------------------------------------------------------------------
    def _eval_rows(
        self, tree: ClockTree, rows: Sequence[Tuple[object, Sequence[int]]]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-corner (load, wire delay, Elmore, step²) of driver rows.

        ``rows`` holds ``(driver node, children)`` pairs; the returned
        load is ``(corners, rows)`` and the edge arrays are ``(corners,
        edges)`` with each row's edges consecutive, in row order.  One
        Python sweep gathers every edge's routed length and pin cap from
        the memoized helpers the reference engine uses; one all-corner
        :func:`~repro.route.rc_net.straight_wire_moments` pass gives
        every edge's Elmore and D2M, bit-identical to the reference's RC
        trees; each load adds its row's
        ``cap_per_um * length + pin_cap`` terms left to right, as the
        reference does, over a zero-padded column per fanout position.
        """
        kernel = self._kernel
        lib = kernel._library
        edge_factor = kernel._edge_factor
        sink_cap = lib.sink_cap_ff
        lengths: List[float] = []
        pin_caps: List[float] = []
        fanouts: List[int] = []
        for node, children in rows:
            child_nodes = [tree.node(c) for c in children]
            loc = node.location
            bbox_area = BBox.of_points([loc] + [c.location for c in child_nodes]).area
            fanout = len(children)
            fanouts.append(fanout)
            for child, child_node in zip(children, child_nodes):
                factor = edge_factor(fanout, bbox_area, loc, child_node.location)
                lengths.append(tree.edge_length(child) * factor)
                pin_caps.append(
                    sink_cap if child_node.is_sink else kernel._pin_cap(child_node.size)
                )
        length = np.asarray(lengths, dtype=float)
        pin_cap = np.asarray(pin_caps, dtype=float)
        stack = kernel._nldm
        rows = self.corner_rows
        elmore, d2m = straight_wire_moments(
            stack.res_per_um[rows], stack.cap_per_um[rows], length, pin_cap,
            DEFAULT_SEGMENT_UM,
        )
        wdelay = d2m if kernel._wire_metric == "d2m" else elmore.copy()
        step = LN9 * elmore
        terms = stack.cap_per_um[rows][:, None] * length + pin_cap
        counts = np.asarray(fanouts, dtype=np.int64)
        starts = np.cumsum(counts) - counts
        C = self.C
        padded = np.zeros((C, counts.size, int(counts.max()) if counts.size else 0))
        owner = np.repeat(np.arange(counts.size), counts)
        padded[:, owner, np.arange(length.size) - starts[owner]] = terms
        load = np.zeros((C, counts.size))
        for j in range(padded.shape[2]):
            load += padded[:, :, j]
        return load, wdelay, elmore, step * step

    # ------------------------------------------------------------------
    # Full propagation
    # ------------------------------------------------------------------
    def propagate(self) -> KernelState:
        """Root-to-leaves propagation over all compiled corners at once."""
        C, n = self.C, self.n
        state = KernelState(
            arrival=np.zeros((C, n)),
            input_slew=np.zeros((C, n)),
            driver_delay=np.zeros((C, n)),
            driver_load=self.load.copy(),
            driver_out_slew=np.zeros((C, n)),
            edge_delay=np.zeros((C, n)),
            edge_elmore=np.zeros((C, n)),
            driver_valid=self.fanout > 0,
        )
        state.input_slew[:, self.root_pos] = self._kernel._library.source_slew_ps
        kernel = self._kernel
        for drivers, e0, e1, rep in self.levels:
            delay, out_slew = kernel.gate_batch(
                self.corner_rows,
                self.size_idx[drivers],
                state.input_slew[:, drivers],
                self.load[:, drivers],
            )
            state.driver_delay[:, drivers] = delay
            state.driver_out_slew[:, drivers] = out_slew
            out_time = state.arrival[:, drivers] + delay
            children = self.child_idx[e0:e1]
            state.arrival[:, children] = (
                out_time[:, rep] + self.edge_wdelay[:, e0:e1]
            )
            os = out_slew[:, rep]
            state.input_slew[:, children] = np.sqrt(
                os * os + self.edge_step_sq[:, e0:e1]
            )
            state.edge_delay[:, children] = self.edge_wdelay[:, e0:e1]
            state.edge_elmore[:, children] = self.edge_elmore[:, e0:e1]
        return state

    # ------------------------------------------------------------------
    # Incremental re-propagation
    # ------------------------------------------------------------------
    def build_overrides(
        self, tree: ClockTree, dirty: Iterable[int]
    ) -> Tuple[Dict[int, Optional[_Row]], List[Tuple[int, int]]]:
        """Row overrides plus ``(depth, position)`` seeds for ``dirty``.

        Every dirty driver's row is recompiled against the (mutated)
        ``tree`` in one :meth:`_eval_rows` pass; a driver with no fanout
        maps to ``None`` (the scalar engine pops its artifacts).  Raises
        :class:`KernelStale` when a row references nodes or sizes the
        compiled arrays do not know — callers fall back to a full
        recompile.
        """
        overrides: Dict[int, Optional[_Row]] = {}
        seeds: List[Tuple[int, int]] = []
        pending = []
        lib = self._kernel._library
        for nid in dirty:
            if nid not in tree:
                continue
            pos = self.index.get(nid)
            if pos is None:
                raise KernelStale(f"unknown dirty node {nid}")
            node = tree.node(nid)
            if node.is_sink:
                continue
            seeds.append((tree.depth(nid), pos))
            overrides[pos] = None
            children = tree.children(nid)
            if not children:
                continue
            positions = []
            for child in children:
                child_pos = self.index.get(child)
                if child_pos is None:
                    raise KernelStale(f"unknown child {child}")
                positions.append(child_pos)
            size = lib.source_drive_size if node.is_source else node.size
            size_pos = self._kernel._nldm.size_pos.get(size)
            if size_pos is None:
                raise KernelStale(f"drive size {size} not in library")
            pending.append((pos, node, children, positions, size_pos))
        if pending:
            load, wdelay, elmore, step_sq = self._eval_rows(
                tree, [(node, children) for _, node, children, _, _ in pending]
            )
            e0 = 0
            for r, (pos, _, children, positions, size_pos) in enumerate(pending):
                e1 = e0 + len(children)
                overrides[pos] = _Row(
                    child_pos=np.asarray(positions, dtype=np.int64),
                    child_ids=tuple(children),
                    size_idx=size_pos,
                    load=load[:, r],
                    wdelay=wdelay[:, e0:e1],
                    elmore=elmore[:, e0:e1],
                    step_sq=step_sq[:, e0:e1],
                )
                e0 = e1
        return overrides, seeds

    def retime(
        self,
        tree: ClockTree,
        state: KernelState,
        overrides: Dict[int, Optional[_Row]],
        seeds: Sequence[Tuple[int, int]],
        stats: Optional[Dict[str, int]] = None,
        touched: Optional[Tuple[set, set]] = None,
    ) -> KernelState:
        """Dirty-frontier re-propagation with per-corner decision masks.

        Mirrors ``IncrementalTimer._retime_state`` corner by corner: a
        node is processed only at corners where it is scheduled, a
        changed child slew cascades at exactly the corners it changed,
        and a clean subtree's arrivals shift rigidly by that corner's
        delta.  Compiled arrays are read-only here; dirty rows come from
        ``overrides``.
        """
        st = state.copy()
        C = self.C
        sched: Dict[int, np.ndarray] = {}
        active: Dict[int, Set[int]] = {}

        def schedule(pos: int, depth: int, mask: np.ndarray) -> None:
            m = sched.get(pos)
            if m is None:
                m = np.zeros(C, dtype=bool)
                sched[pos] = m
                active.setdefault(depth, set()).add(pos)
            m |= mask

        all_corners = np.ones(C, dtype=bool)
        for depth, pos in seeds:
            schedule(pos, depth, all_corners)

        ids = self.ids
        while active:
            depth = min(active)
            batch = sorted(active.pop(depth))
            evals: List[int] = []
            for pos in batch:
                if pos in overrides and overrides[pos] is None:
                    # A driver that lost its whole fanout (surgery): the
                    # golden analysis carries no artifacts for it.
                    st.driver_valid[pos] = False
                    if touched is not None:
                        touched[0].add(ids[pos])
                    continue
                evals.append(pos)
            if not evals:
                continue

            size_idx = np.empty(len(evals), dtype=np.int64)
            loads = np.empty((C, len(evals)))
            for k, pos in enumerate(evals):
                row = overrides.get(pos)
                if row is not None:
                    size_idx[k] = row.size_idx
                    loads[:, k] = row.load
                else:
                    size_idx[k] = self.size_idx[pos]
                    loads[:, k] = self.load[:, pos]
            delay, out_slew = self._kernel.gate_batch(
                self.corner_rows, size_idx, st.input_slew[:, evals], loads
            )

            for k, pos in enumerate(evals):
                mask = sched[pos]
                row = overrides.get(pos)
                if row is not None:
                    children = row.child_pos
                    child_ids = row.child_ids
                    wdelay, elmore = row.wdelay, row.elmore
                    step_sq, load = row.step_sq, row.load
                else:
                    e0, e1 = int(self.child_ptr[pos]), int(self.child_ptr[pos + 1])
                    children = self.child_idx[e0:e1]
                    child_ids = tuple(ids[c] for c in children)
                    wdelay = self.edge_wdelay[:, e0:e1]
                    elmore = self.edge_elmore[:, e0:e1]
                    step_sq = self.edge_step_sq[:, e0:e1]
                    load = self.load[:, pos]
                if touched is not None:
                    touched[0].add(ids[pos])
                    touched[0].update(child_ids)

                mcol = mask[:, None]
                st.driver_delay[:, pos] = np.where(
                    mask, delay[:, k], st.driver_delay[:, pos]
                )
                st.driver_load[:, pos] = np.where(
                    mask, load, st.driver_load[:, pos]
                )
                st.driver_out_slew[:, pos] = np.where(
                    mask, out_slew[:, k], st.driver_out_slew[:, pos]
                )
                st.driver_valid[pos] = True

                out_time = st.arrival[:, pos] + delay[:, k]
                new_arr = out_time[:, None] + wdelay
                osl = out_slew[:, k][:, None]
                new_slew = np.sqrt(osl * osl + step_sq)
                old_arr = st.arrival[:, children]
                old_slew = st.input_slew[:, children]
                st.arrival[:, children] = np.where(mcol, new_arr, old_arr)
                st.input_slew[:, children] = np.where(mcol, new_slew, old_slew)
                st.edge_delay[:, children] = np.where(
                    mcol, wdelay, st.edge_delay[:, children]
                )
                st.edge_elmore[:, children] = np.where(
                    mcol, elmore, st.edge_elmore[:, children]
                )
                slew_changed = mcol & (new_slew != old_slew)
                if touched is not None:
                    arr_changed = (mcol & (new_arr != old_arr)).any(axis=0)
                    for j in np.nonzero(arr_changed)[0]:
                        touched[1].add(child_ids[j])

                for j in range(len(child_ids)):
                    child_pos = int(children[j])
                    if child_pos in overrides:
                        child_drives = overrides[child_pos] is not None
                    else:
                        child_drives = bool(self.fanout[child_pos])
                    if not child_drives:
                        continue
                    already = sched.get(child_pos)
                    cascade = mask & slew_changed[:, j]
                    shiftable = mask & ~slew_changed[:, j]
                    if already is not None:
                        shiftable = shiftable & ~already
                    if cascade.any():
                        schedule(child_pos, depth + 1, cascade)
                    if shiftable.any():
                        deltas = new_arr[:, j] - old_arr[:, j]
                        do_shift = shiftable & (deltas != 0.0)
                        if do_shift.any():
                            # Clean subtree: arrivals shift rigidly at
                            # exactly the corners whose delta is nonzero.
                            if stats is not None:
                                stats["subtree_shifts"] += int(do_shift.sum())
                            sub_ids = tree.subtree_ids(child_ids[j])
                            sub_pos = [
                                self.index[s] for s in sub_ids if s != child_ids[j]
                            ]
                            if sub_pos:
                                rows = np.nonzero(do_shift)[0]
                                st.arrival[
                                    np.ix_(rows, np.asarray(sub_pos))
                                ] += deltas[do_shift][:, None]
                            if touched is not None:
                                touched[1].update(sub_ids)
        return st

    # ------------------------------------------------------------------
    # Committing overrides
    # ------------------------------------------------------------------
    def apply_rows(self, overrides: Dict[int, Optional[_Row]]) -> bool:
        """Patch committed rows into the compiled arrays in place.

        Only possible when no row changed shape (same children in the
        same order — displacements and resizes).  Returns ``False`` when
        any row is structural; the caller recompiles instead.
        """
        for pos, row in overrides.items():
            if row is None:
                return False
            e0, e1 = int(self.child_ptr[pos]), int(self.child_ptr[pos + 1])
            if e1 - e0 != row.child_pos.size or not np.array_equal(
                self.child_idx[e0:e1], row.child_pos
            ):
                return False
        for pos, row in overrides.items():
            e0, e1 = int(self.child_ptr[pos]), int(self.child_ptr[pos + 1])
            self.edge_wdelay[:, e0:e1] = row.wdelay
            self.edge_elmore[:, e0:e1] = row.elmore
            self.edge_step_sq[:, e0:e1] = row.step_sq
            self.load[:, pos] = row.load
            self.size_idx[pos] = row.size_idx
        return True

    def remap_state(
        self, old: "CompiledTree", state: KernelState
    ) -> KernelState:
        """Permute ``state`` (indexed by ``old``'s order) to this order."""
        perm = np.fromiter(
            (old.index[nid] for nid in self.ids), dtype=np.int64, count=self.n
        )
        return KernelState(
            arrival=state.arrival[:, perm],
            input_slew=state.input_slew[:, perm],
            driver_delay=state.driver_delay[:, perm],
            driver_load=state.driver_load[:, perm],
            driver_out_slew=state.driver_out_slew[:, perm],
            edge_delay=state.edge_delay[:, perm],
            edge_elmore=state.edge_elmore[:, perm],
            driver_valid=state.driver_valid[perm],
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def corner_timing(self, state: KernelState, name: str) -> CornerTiming:
        """Dict-shaped :class:`CornerTiming` view of one corner's state."""
        k = self.corner_pos[name]
        ids, index = self.ids, self.index
        return CornerTiming(
            corner=self.corners[k],
            arrival=ArrayMap(ids, index, state.arrival[k]),
            input_slew=ArrayMap(ids, index, state.input_slew[k]),
            driver_delay=ArrayMap(
                ids, index, state.driver_delay[k], state.driver_valid
            ),
            driver_load=ArrayMap(
                ids, index, state.driver_load[k], state.driver_valid
            ),
            driver_out_slew=ArrayMap(
                ids, index, state.driver_out_slew[k], state.driver_valid
            ),
            edge_delay=ArrayMap(ids, index, state.edge_delay[k], self.has_edge),
            edge_elmore=ArrayMap(
                ids, index, state.edge_elmore[k], self.has_edge
            ),
        )

    def pair_positions(self, pairs: Sequence[Tuple[int, int]]) -> PairPositions:
        """Where ``pairs``' sinks sit in this tree's node order, for
        :meth:`~repro.sta.skew.SkewAnalysis.from_arrivals` on a state's
        arrival rows; kept for the last pair list asked for.  A surgery
        recompiles the tree, and the new tree derives them afresh."""
        pairs = tuple(pairs)
        positions = self._pair_positions
        if positions is None or positions.pairs != pairs:
            positions = self._pair_positions = PairPositions.build(pairs, self.index)
        return positions

    def sink_latencies(self, state: KernelState) -> Dict[str, ArrayMap]:
        """``{corner: {sink: arrival}}`` in compiled corner order: read-only
        views of ``state``'s arrival rows, keyed by the sinks in node
        order."""
        return {
            corner.name: ArrayMap(self.ids, self.index, state.arrival[k], self.is_sink)
            for k, corner in enumerate(self.corners)
        }
