"""The global linear program (paper Equations (4)-(11)).

Decision variables
------------------
* ``delta+_{j,k}, delta-_{j,k} >= 0`` — positive/negative parts of the
  delay change of arc ``s_j`` at corner ``c_k`` (the paper's footnote 2).
* ``V_p >= 0`` — worst normalized skew variation of sink pair ``p``.

Objective (Eq. (4)): minimize ``sum |delta|`` subject to an upper bound
``U`` on ``sum_p V_p`` (Eq. (5)).  A pre-pass minimizes ``sum_p V_p``
itself to locate the smallest feasible ``U``; :func:`sweep_upper_bound`
then walks ``U`` upward, since looser bounds need fewer/smaller ECOs and
may realize better *actual* results (Section 4.1).

Constraints
-----------
* Eq. (6): ``V_p`` dominates the normalized variation at every corner pair.
* Eq. (7): no local-skew degradation at any corner (per pair).
* Eq. (8): no skew-variation degradation versus the nominal corner.
* Eq. (9): per-sink maximum latency.
* Eq. (10): per-arc delay-change window (achievable buffering .. beta * D).
* Eq. (11): cross-corner delay-ratio window from the characterized LUTs
  (Figure 2), evaluated at each arc's nominal delay density.

The matrix is assembled sparse (COO) and solved with scipy's HiGHS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.netlist.arcs import Arc, extract_arcs, path_arc_indices
from repro.netlist.tree import ClockTree
from repro.obs.merge import merge_worker_events
from repro.obs.trace import active as active_tracer
from repro.sta.skew import pair_skew
from repro.sta.timer import CornerTiming, GoldenTimer
from repro.tech.ratio_bounds import RatioBounds
from repro.tech.stage_lut import StageDelayLUT

#: Paper's beta: upper bound on arc delay as a multiple of the original.
DEFAULT_BETA = 1.2

#: Allowed growth of the per-corner maximum latency (Constraint (9) slack).
DEFAULT_LATENCY_MARGIN = 1.05


@dataclass(frozen=True)
class LPModelData:
    """Everything the LP needs, measured once from the current tree."""

    arcs: List[Arc]
    corner_names: Tuple[str, ...]
    arc_delay: np.ndarray  # (n_arcs, n_corners) measured D_j^k
    arc_dmin: np.ndarray  # (n_arcs, n_corners) minimal achievable delay
    arc_density: np.ndarray  # (n_arcs,) nominal delay per um
    pair_coeffs: List[Dict[int, float]]  # per pair: arc index -> +-1
    pair_skew0: np.ndarray  # (n_pairs, n_corners) baseline skews
    sink_path: Dict[int, Tuple[int, ...]]
    sink_latency0: Dict[str, Dict[int, float]]
    alphas: Dict[str, float]
    pairs: List[Tuple[int, int]]


@dataclass(frozen=True)
class LPSolution:
    """One solved LP instance."""

    status: str
    objective_abs_delta: float
    achieved_variation_bound: float
    delta: np.ndarray  # (n_arcs, n_corners) requested delay changes
    pair_variation: np.ndarray  # (n_pairs,)

    @property
    def feasible(self) -> bool:
        return self.status == "optimal"

    def nonzero_arcs(self, threshold_ps: float = 0.5) -> List[int]:
        """Arc indices the ECO flow should touch."""
        return [
            j
            for j in range(self.delta.shape[0])
            if float(np.max(np.abs(self.delta[j]))) > threshold_ps
        ]


def _min_delay_per_um(
    luts: Mapping[str, StageDelayLUT], corner_name: str, sizes: Sequence[int]
) -> float:
    """Minimum achievable stage delay per unit wirelength at one corner."""
    lut = luts[corner_name]
    rows = [lut.sizes.index(size) for size in sizes]
    return float(np.min(lut.uniform[rows] / np.asarray(lut.wl_axis)))


def build_model_data(
    tree: ClockTree,
    timer: GoldenTimer,
    pairs: Sequence[Tuple[int, int]],
    alphas: Mapping[str, float],
    stage_luts: Mapping[str, StageDelayLUT],
    timings: Optional[Dict[str, CornerTiming]] = None,
) -> LPModelData:
    """Measure the tree and assemble the LP inputs.

    Pass ``timings`` (e.g. from the incremental engine's
    ``corner_timings``) to reuse an analysis already in hand; otherwise
    the golden ``timer`` measures the tree here.
    """
    library = timer.library
    corners = library.corners
    corner_names = tuple(c.name for c in corners)
    arcs = extract_arcs(tree)
    sinks = tree.sinks()

    if timings is None:
        timings = timer.analyze_all_corners(tree)

    n_arcs = len(arcs)
    arc_delay = np.zeros((n_arcs, len(corner_names)))
    arc_dmin = np.zeros_like(arc_delay)
    arc_density = np.zeros(n_arcs)

    mdpu = {
        name: _min_delay_per_um(stage_luts, name, library.sizes)
        for name in corner_names
    }

    nominal_name = corners.nominal.name
    for j, arc in enumerate(arcs):
        start_loc = tree.node(arc.start).location
        end_loc = tree.node(arc.end).location
        direct = max(start_loc.manhattan(end_loc), 1.0)
        route_len = max(sum(tree.edge_length(e) for e in arc.edges), 1.0)
        for k, name in enumerate(corner_names):
            timing = timings[name]
            arc_delay[j, k] = timing.arrival[arc.end] - timing.arrival[arc.start]
            driver = timing.driver_delay.get(arc.start, 0.0)
            arc_dmin[j, k] = driver + mdpu[name] * direct
        arc_density[j] = arc_delay[j, corner_names.index(nominal_name)] / route_len

    sink_path = path_arc_indices(tree, arcs, sinks)
    pair_coeffs: List[Dict[int, float]] = []
    pair_skew0 = np.zeros((len(pairs), len(corner_names)))
    latencies = {
        name: {s: timings[name].arrival[s] for s in sinks} for name in corner_names
    }
    for p, (launch, capture) in enumerate(pairs):
        coeff: Dict[int, float] = {}
        for arc_idx in sink_path[launch]:
            coeff[arc_idx] = coeff.get(arc_idx, 0.0) + 1.0
        for arc_idx in sink_path[capture]:
            coeff[arc_idx] = coeff.get(arc_idx, 0.0) - 1.0
        pair_coeffs.append({a: c for a, c in coeff.items() if c != 0.0})
        for k, name in enumerate(corner_names):
            pair_skew0[p, k] = pair_skew(latencies[name], (launch, capture))

    return LPModelData(
        arcs=arcs,
        corner_names=corner_names,
        arc_delay=arc_delay,
        arc_dmin=arc_dmin,
        arc_density=arc_density,
        pair_coeffs=pair_coeffs,
        pair_skew0=pair_skew0,
        sink_path=sink_path,
        sink_latency0=latencies,
        alphas=dict(alphas),
        pairs=list(pairs),
    )


class GlobalSkewLP:
    """Assembles and solves the Eq. (4)-(11) LP over one measured tree."""

    def __init__(
        self,
        data: LPModelData,
        ratio_bounds: Mapping[Tuple[str, str], RatioBounds],
        beta: float = DEFAULT_BETA,
        latency_margin: float = DEFAULT_LATENCY_MARGIN,
    ) -> None:
        self._d = data
        self._ratio_bounds = ratio_bounds
        self._beta = beta
        self._latency_margin = latency_margin
        self._n_arcs = len(data.arcs)
        self._n_corners = len(data.corner_names)
        self._n_pairs = len(data.pairs)
        # Variable layout: [dplus (A*K), dminus (A*K), V (P)]
        self._n_delta = self._n_arcs * self._n_corners
        self._n_vars = 2 * self._n_delta + self._n_pairs
        self._optimizable = self._realizable_arcs()
        # Assembly caches: the constraint system is a pure function of
        # the (frozen) model data except for the Eq. (5) row, so the U
        # sweep reuses one assembled base matrix and appends that row.
        self._base_system: Optional[Tuple[sparse.csr_matrix, np.ndarray]] = None
        self._u_row: Optional[sparse.csr_matrix] = None
        self._bounds_cache: Optional[List[Tuple[float, Optional[float]]]] = None

    #: Relative slack when testing whether an arc's measured cross-corner
    #: ratio sits on the inverter-pair LUT manifold.  Measured ratios
    #: drift off the characterization cloud through net-context effects
    #: (router overhead, shared-driver loading, slew environment) even
    #: when a rebuild would land squarely on the manifold, so the test
    #: must tolerate that drift; only genuinely off-manifold arcs (e.g.
    #: wire-only sink stubs at BEOL-only ratios) should freeze.
    REALIZABLE_SLACK = 0.06

    def _realizable_arcs(self) -> np.ndarray:
        """Arcs whose current cross-corner ratios lie near the envelopes.

        An arc far outside the inverter-pair LUT manifold (e.g. a
        wire-only sink stub) cannot be retargeted by the ECO without
        jumping onto the manifold — a large uncontrolled change — so the
        LP must leave it alone (its deltas are frozen at zero).  This is
        the honest reading of Constraint (11): it restricts *changes*,
        and arcs it cannot describe are not changed.
        """
        d = self._d
        ok = np.ones(self._n_arcs, dtype=bool)
        for j in range(self._n_arcs):
            density = d.arc_density[j]
            for k in range(self._n_corners):
                for k2 in range(k + 1, self._n_corners):
                    bound = self._ratio_bounds.get(
                        (d.corner_names[k], d.corner_names[k2])
                    )
                    if bound is None or d.arc_delay[j, k2] <= 1e-9:
                        continue
                    current = d.arc_delay[j, k] / d.arc_delay[j, k2]
                    if not bound.contains(
                        density, current, slack=self.REALIZABLE_SLACK * current
                    ):
                        ok[j] = False
        return ok

    @property
    def optimizable_arc_count(self) -> int:
        """Number of arcs the LP is allowed to retarget."""
        return int(np.sum(self._optimizable))

    # -- variable indexing -------------------------------------------------
    def _ip(self, j: int, k: int) -> int:
        return j * self._n_corners + k

    def _im(self, j: int, k: int) -> int:
        return self._n_delta + j * self._n_corners + k

    def _iv(self, p: int) -> int:
        return 2 * self._n_delta + p

    # -- assembly ----------------------------------------------------------
    def _bounds(self) -> List[Tuple[float, Optional[float]]]:
        """Variable bounds implementing Eq. (10) (computed once)."""
        if self._bounds_cache is not None:
            return self._bounds_cache
        d = self._d
        bounds: List[Tuple[float, Optional[float]]] = [(0.0, 0.0)] * self._n_vars
        for j in range(self._n_arcs):
            if not self._optimizable[j]:
                continue  # frozen arcs keep (0, 0) bounds
            for k in range(self._n_corners):
                up = max(0.0, (self._beta - 1.0) * d.arc_delay[j, k])
                down = max(0.0, d.arc_delay[j, k] - d.arc_dmin[j, k])
                bounds[self._ip(j, k)] = (0.0, up)
                bounds[self._im(j, k)] = (0.0, down)
        for p in range(self._n_pairs):
            bounds[self._iv(p)] = (0.0, None)
        self._bounds_cache = bounds
        return bounds

    def _add_delta_row(
        self,
        rows: List[int],
        cols: List[int],
        vals: List[float],
        row: int,
        j: int,
        k: int,
        coeff: float,
    ) -> None:
        """Append ``coeff * delta_{j,k}`` (= dplus - dminus) to a row."""
        rows.append(row)
        cols.append(self._ip(j, k))
        vals.append(coeff)
        rows.append(row)
        cols.append(self._im(j, k))
        vals.append(-coeff)

    def _assemble(
        self, upper_bound: Optional[float]
    ) -> Tuple[sparse.csr_matrix, np.ndarray]:
        """Constraint system for one solve.

        The Eq. (6)-(11) base system is assembled once and cached; each
        sweep point only appends the single Eq. (5) row (``sum V <= U``)
        — the one part of the system that depends on ``upper_bound``.
        """
        base_matrix, base_rhs = self._assemble_base()
        if upper_bound is None:
            return base_matrix, base_rhs
        if self._u_row is None:
            u_cols = [self._iv(p) for p in range(self._n_pairs)]
            self._u_row = sparse.coo_matrix(
                (
                    np.ones(self._n_pairs),
                    (np.zeros(self._n_pairs, dtype=int), u_cols),
                ),
                shape=(1, self._n_vars),
            ).tocsr()
        matrix = sparse.vstack([base_matrix, self._u_row], format="csr")
        return matrix, np.append(base_rhs, upper_bound)

    def _assemble_base(self) -> Tuple[sparse.csr_matrix, np.ndarray]:
        if self._base_system is not None:
            return self._base_system
        d = self._d
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        rhs: List[float] = []
        row = 0

        alphas = [d.alphas[name] for name in d.corner_names]

        # Eq. (6): V_p >= +-(a_k skew_k - a_k' skew_k') for all corner pairs.
        for p, coeff in enumerate(d.pair_coeffs):
            for k in range(self._n_corners):
                for k2 in range(k + 1, self._n_corners):
                    base = alphas[k] * d.pair_skew0[p, k] - alphas[k2] * d.pair_skew0[p, k2]
                    for sign in (+1.0, -1.0):
                        for arc_idx, c in coeff.items():
                            self._add_delta_row(
                                rows, cols, vals, row, arc_idx, k, sign * alphas[k] * c
                            )
                            self._add_delta_row(
                                rows, cols, vals, row, arc_idx, k2, -sign * alphas[k2] * c
                            )
                        rows.append(row)
                        cols.append(self._iv(p))
                        vals.append(-1.0)
                        rhs.append(-sign * base)
                        row += 1

        # Eq. (7): |skew_new^k| <= |skew0^k| per pair and corner.
        for p, coeff in enumerate(d.pair_coeffs):
            for k in range(self._n_corners):
                mag = abs(d.pair_skew0[p, k])
                for sign in (+1.0, -1.0):
                    for arc_idx, c in coeff.items():
                        self._add_delta_row(rows, cols, vals, row, arc_idx, k, sign * c)
                    rhs.append(mag - sign * d.pair_skew0[p, k])
                    row += 1

        # Eq. (8): variation vs nominal must not degrade, per pair/corner.
        k0 = 0  # nominal corner is first by construction
        for p, coeff in enumerate(d.pair_coeffs):
            for k in range(1, self._n_corners):
                base = alphas[k] * d.pair_skew0[p, k] - alphas[k0] * d.pair_skew0[p, k0]
                mag = abs(base)
                for sign in (+1.0, -1.0):
                    for arc_idx, c in coeff.items():
                        self._add_delta_row(
                            rows, cols, vals, row, arc_idx, k, sign * alphas[k] * c
                        )
                        self._add_delta_row(
                            rows, cols, vals, row, arc_idx, k0, -sign * alphas[k0] * c
                        )
                    rhs.append(mag - sign * base)
                    row += 1

        # Eq. (9): per-sink maximum latency.
        for name_idx, name in enumerate(d.corner_names):
            lat0 = d.sink_latency0[name]
            dmax = max(lat0.values()) * self._latency_margin
            for sink, path in d.sink_path.items():
                for arc_idx in path:
                    self._add_delta_row(rows, cols, vals, row, arc_idx, name_idx, 1.0)
                rhs.append(dmax - lat0[sink])
                row += 1

        # Eq. (11): cross-corner ratio windows per optimizable arc.
        for j in range(self._n_arcs):
            if not self._optimizable[j]:
                continue
            density = d.arc_density[j]
            for k in range(self._n_corners):
                for k2 in range(k + 1, self._n_corners):
                    bound = self._ratio_bounds.get(
                        (d.corner_names[k], d.corner_names[k2])
                    )
                    if bound is None:
                        continue
                    wmax = bound.upper(density)
                    wmin = bound.lower(density)
                    # Keep delta = 0 feasible against fit slack: the arc's
                    # current ratio passed the realizability check, so at
                    # most a ~2% widening is ever applied here.
                    if d.arc_delay[j, k2] > 1e-9:
                        current = d.arc_delay[j, k] / d.arc_delay[j, k2]
                        wmax = max(wmax, current * 1.001)
                        wmin = min(wmin, current * 0.999)
                    # D_k + delta_k - wmax (D_k2 + delta_k2) <= 0
                    self._add_delta_row(rows, cols, vals, row, j, k, 1.0)
                    self._add_delta_row(rows, cols, vals, row, j, k2, -wmax)
                    rhs.append(wmax * d.arc_delay[j, k2] - d.arc_delay[j, k])
                    row += 1
                    # wmin (D_k2 + delta_k2) - (D_k + delta_k) <= 0
                    self._add_delta_row(rows, cols, vals, row, j, k, -1.0)
                    self._add_delta_row(rows, cols, vals, row, j, k2, wmin)
                    rhs.append(d.arc_delay[j, k] - wmin * d.arc_delay[j, k2])
                    row += 1

        matrix = sparse.coo_matrix(
            (vals, (rows, cols)), shape=(row, self._n_vars)
        ).tocsr()
        self._base_system = (matrix, np.asarray(rhs))
        return self._base_system

    # -- solves ------------------------------------------------------------
    def _solve(
        self, cost: np.ndarray, upper_bound: Optional[float]
    ) -> LPSolution:
        matrix, rhs = self._assemble(upper_bound)
        result = linprog(
            cost,
            A_ub=matrix,
            b_ub=rhs,
            bounds=self._bounds(),
            method="highs",
        )
        if not result.success:
            return LPSolution(
                status=result.message,
                objective_abs_delta=float("inf"),
                achieved_variation_bound=float("inf"),
                delta=np.zeros((self._n_arcs, self._n_corners)),
                pair_variation=np.zeros(self._n_pairs),
            )
        x = result.x
        delta = np.zeros((self._n_arcs, self._n_corners))
        for j in range(self._n_arcs):
            for k in range(self._n_corners):
                delta[j, k] = x[self._ip(j, k)] - x[self._im(j, k)]
        variations = np.asarray([x[self._iv(p)] for p in range(self._n_pairs)])
        abs_delta = float(np.sum(np.abs(delta)))
        return LPSolution(
            status="optimal",
            objective_abs_delta=abs_delta,
            achieved_variation_bound=float(np.sum(variations)),
            delta=delta,
            pair_variation=variations,
        )

    def minimize_variation(self) -> LPSolution:
        """Pre-pass: minimize ``sum_p V_p`` to find the smallest feasible U."""
        cost = np.zeros(self._n_vars)
        cost[2 * self._n_delta :] = 1.0
        with active_tracer().span("lp_base", phase="lp"):
            return self._solve(cost, upper_bound=None)

    def minimize_changes(self, upper_bound: float) -> LPSolution:
        """Eq. (4): minimize total |delta| subject to ``sum V <= U``.

        The span is opened here (not at the sweep call site) so pooled
        sweeps trace the solve in the worker lane that ran it.
        """
        cost = np.zeros(self._n_vars)
        cost[: 2 * self._n_delta] = 1.0
        with active_tracer().span("lp_solve", phase="lp") as span:
            solution = self._solve(cost, upper_bound=upper_bound)
            span.set(feasible=solution.feasible)
        return solution


def sweep_upper_bound(
    lp: GlobalSkewLP,
    sweep_factors: Sequence[float] = (1.0, 1.05, 1.1, 1.2),
    pool=None,
) -> List[Tuple[float, LPSolution]]:
    """The paper's U-sweep: solve Eq. (4) at several bounds above U_min.

    Returns ``(U, solution)`` tuples in sweep order; the ECO flow tries
    each and keeps the best *actual* result.  With a worker ``pool`` the
    per-bound ``minimize_changes`` solves run concurrently (HiGHS is
    deterministic, so remote solves match local ones); a crashed
    worker's bound is re-solved locally.
    """
    tracer = active_tracer()
    with tracer.span("lp_sweep", phase="lp") as sweep_span:
        base = lp.minimize_variation()
        if not base.feasible:
            return []
        u_min = base.achieved_variation_bound
        bounds = [u_min * factor + 1e-6 for factor in sweep_factors]
        out: List[Tuple[float, LPSolution]] = []
        if pool is not None and pool.size > 1 and len(bounds) > 1:
            payloads = [(lp, bound) for bound in bounds]
            solutions = pool.call("repro.parallel.sweep:solve_bound", payloads)
            for index, (bound, sol) in enumerate(zip(bounds, solutions)):
                obs = pool.last_call_obs[index]
                if obs is not None:
                    # The worker's ``lp_solve`` span lands under this
                    # ``lp_sweep`` span, where the serial path opens it.
                    merge_worker_events(tracer, obs[1], obs[0])
                if sol is None:  # worker crash: solve here instead
                    sol = lp.minimize_changes(bound)
                if sol.feasible:
                    out.append((bound, sol))
            sweep_span.set(points=len(out))
            return out
        for bound in bounds:
            sol = lp.minimize_changes(bound)
            if sol.feasible:
                out.append((bound, sol))
        sweep_span.set(points=len(out))
    return out
