"""Algorithm 2: the iterative local optimization flow.

Each iteration:

1. enumerate candidate moves (Table 2) and featurize them against the
   current golden timing snapshot through the candidate pipeline
   (cross-iteration move cache + array feature kernel);
2. predict each move's per-corner delta-latency with the trained model
   (one ``(moves, corners)`` matrix) and translate it into a predicted
   reduction of the sum of skew variations over the affected sink pairs
   (:func:`batched_variation_reductions`, one array pass per move group,
   bit-identical to the per-move scorer in ``tests/oracles.py``);
3. trial the top-``R`` moves in place via the incremental timing engine
   (apply → re-time the dirty cone → undo; no clone, no full re-time)
   and assess them at golden accuracy — paper Line 4 (the Eq. (1)–(3)
   verdict is computed from the engine's arrival rows);
4. commit the best actually-improving move (that also keeps local skew
   non-degraded); otherwise try the next ``R`` moves;
5. stop when no candidate shows predicted reduction, the batch budget is
   exhausted, or the iteration cap is reached.

A full :class:`IterationRecord` trace is kept for the paper's Figure 8
(objective vs iteration, colored by move type) including the
random-move baseline used in that figure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ml.features import MoveComponents
from repro.core.ml.pipeline import CandidatePipeline
from repro.core.ml.training import DeltaLatencyPredictor
from repro.core.moves import Move, MoveType, enumerate_moves
from repro.core.objective import SkewVariationProblem
from repro.netlist.tree import ClockTree
from repro.obs.metrics import GCWatch, StageTimers, emit_stats, minor_faults
from repro.obs.trace import active as active_tracer
from repro.sta.timer import TimingResult


@dataclass(frozen=True)
class LocalOptConfig:
    """Tuning of the Algorithm-2 loop."""

    top_r: int = 5  # the paper's R
    max_iterations: int = 40
    max_batches_per_iteration: int = 4
    min_predicted_reduction_ps: float = 0.25
    buffers_per_iteration: Optional[int] = None  # None = all buffers
    surgery_window_um: float = 50.0
    local_skew_tolerance_ps: float = 0.5
    #: ``workers > 1`` fans the top-``R`` trial verification out to a
    #: persistent process pool (:mod:`repro.parallel`): each worker holds
    #: a delta-synced tree + timer replica and golden-verifies whole
    #: candidates as they are handed out.
    #: The reduce is deterministic, so the committed-move trajectory is
    #: bit-identical to the serial one.  ``workers == 1`` runs today's
    #: serial path exactly.  ``"auto"`` resolves against the CPUs
    #: actually available to this process and degrades to serial when a
    #: pool cannot win (effective CPUs < 2).
    workers: object = 1
    #: Unread; kept because the frozen end-to-end benchmark still passes it.
    pool_backend: str = "pipe"


@dataclass(frozen=True)
class IterationRecord:
    """One committed (or failed) iteration for the Figure-8 trace."""

    iteration: int
    move: Optional[Move]
    move_type: Optional[MoveType]
    predicted_reduction_ps: float
    actual_reduction_ps: float
    objective_after_ps: float
    candidates_evaluated: int
    elapsed_s: float


@dataclass
class LocalOptResult:
    """Outcome of a local optimization run.

    ``stats`` carries the run's observability payload: per-stage wall
    clock (``stage``), candidate-pipeline cache counters (``pipeline``),
    incremental-engine counters (``engine``), the cyclic garbage
    collections during the run, per generation, with their total pause
    (``gc``), and the minor page faults of this process during the run
    (``minor_faults``, where :mod:`resource` exists; pool workers are
    not counted) — what ``benchmarks/test_bench_localopt_perf.py``
    dumps to ``BENCH_localopt.json``.
    """

    tree: ClockTree
    history: List[IterationRecord]
    initial_objective_ps: float
    final_objective_ps: float
    stats: Optional[Dict[str, object]] = None

    @property
    def total_reduction_ps(self) -> float:
        return self.initial_objective_ps - self.final_objective_ps


class LocalOptimizer:
    """Iterative predictor-guided local optimization (Algorithm 2)."""

    def __init__(
        self,
        problem: SkewVariationProblem,
        predictor: DeltaLatencyPredictor,
        config: LocalOptConfig = LocalOptConfig(),
    ) -> None:
        self._problem = problem
        self._predictor = predictor
        self._config = config

    # ------------------------------------------------------------------
    def run(self, tree: Optional[ClockTree] = None) -> LocalOptResult:
        """Optimize ``tree`` (default: the design's tree); returns a copy."""
        cfg = self._config
        problem = self._problem
        current = (tree or problem.design.tree).clone()
        result = problem.evaluate(current)
        history: List[IterationRecord] = []
        initial = result.total_variation
        timers = StageTimers(phase="local")
        tracer = active_tracer()
        pipeline = CandidatePipeline(problem.design.library)
        from repro.parallel.pool import resolve_workers

        workers, workers_note = resolve_workers(cfg.workers)
        verifier = None
        if workers > 1:
            from repro.parallel.verify import ParallelVerifier

            # The replica spec snapshots the run's *starting* tree; the
            # main engine attaches to the same tree below, so replicas
            # and main evolve through identical float operations.
            verifier = ParallelVerifier(
                problem,
                current,
                workers,
                local_skew_tolerance_ps=cfg.local_skew_tolerance_ps,
            )

        gc_watch = GCWatch()
        gc_watch.install()
        faults_before = minor_faults()
        try:
            with tracer.span("local_opt", phase="local") as run_span:
                for iteration in range(cfg.max_iterations):
                    started = time.perf_counter()
                    with tracer.span("iteration", phase="local"):
                        ranked = self._rank_moves(
                            current, result, pipeline, timers
                        )
                        if not ranked:
                            break
                        committed = False
                        evaluated = 0
                        batches = 0
                        for start in range(0, len(ranked), cfg.top_r):
                            if batches >= cfg.max_batches_per_iteration:
                                break
                            batches += 1
                            batch = ranked[start : start + cfg.top_r]
                            with timers.stage("trial"):
                                verdicts = self._verify_batch(
                                    verifier, current, result, batch
                                )
                                evaluated += len(batch)
                            best = self._pick_best(verdicts, result)
                            if best is not None:
                                trial_tv, _degraded, predicted, features = best
                                actual_red = result.total_variation - trial_tv
                                with timers.stage("commit"):
                                    result = problem.commit_move(
                                        current, features.move
                                    )
                                    if verifier is not None:
                                        verifier.record_commit(features.move)
                                    self._invalidate_pipeline(
                                        pipeline, features.move
                                    )
                                history.append(
                                    IterationRecord(
                                        iteration=iteration,
                                        move=features.move,
                                        move_type=features.move.type,
                                        predicted_reduction_ps=predicted,
                                        actual_reduction_ps=actual_red,
                                        objective_after_ps=result.total_variation,
                                        candidates_evaluated=evaluated,
                                        elapsed_s=time.perf_counter() - started,
                                    )
                                )
                                committed = True
                                break
                        if not committed:
                            break
                    # Per-iteration objective time series (renders as a
                    # Perfetto counter track).
                    tracer.metric(
                        "local_opt.objective_ps",
                        round(result.total_variation, 6),
                        kind="gauge",
                    )
                run_span.set(
                    iterations=len(history),
                    reduction_ps=round(initial - result.total_variation, 6),
                )
        finally:
            gc_watch.remove()
            if verifier is not None:
                verifier.close()

        # Every part is a fresh copy, so ``stats`` never aliases the
        # live engine, pipeline or pool counters.
        stats: Dict[str, object] = {
            "stage": timers.as_dict(),
            "pipeline": pipeline.cache_stats(),
            "engine": dict(problem.engine().stats),
            "parallel": verifier.stats_dict() if verifier is not None else None,
            "workers": {
                "requested": cfg.workers,
                "effective": workers,
                "note": workers_note,
            },
            "gc": gc_watch.as_dict(),
        }
        if faults_before is not None:
            stats["minor_faults"] = minor_faults() - faults_before
        emit_stats(tracer, stats, "local_opt")
        return LocalOptResult(
            tree=current,
            history=history,
            initial_objective_ps=initial,
            final_objective_ps=result.total_variation,
            stats=stats,
        )

    def _invalidate_pipeline(
        self, pipeline: CandidatePipeline, move: Move
    ) -> None:
        """Drop cached featurizations the committed ``move`` stales.

        The incremental engine records exactly which nodes the commit
        re-timed (``last_touched``); surgery additionally changes subtree
        membership, which flushes the move cache wholesale.
        """
        touched = self._problem.engine().last_touched
        if touched is None:
            pipeline.flush()
            return
        pipeline.invalidate(
            touched_local=touched[0],
            touched_arrival=touched[1],
            structural=move.type is MoveType.SURGERY,
        )

    # ------------------------------------------------------------------
    def _verify_batch(
        self, verifier, current: ClockTree, result: TimingResult, batch
    ) -> List[Tuple[float, bool, float, MoveComponents]]:
        """Golden-verify one ranked batch, serially or via the pool.

        Returns ``(total_variation, degraded, predicted, features)``
        verdicts in batch order.  The parallel path ships the batch to
        the delta-synced worker replicas; both paths compute the same
        floats, so the subsequent pick is identical.
        """
        problem = self._problem
        if verifier is not None:
            raw = verifier.verify_batch(
                current, [features.move for _, features in batch]
            )
            return [
                (tv, degraded, predicted, features)
                for (tv, degraded), (predicted, features) in zip(raw, batch)
            ]
        verdicts = []
        # The serial loop opens the same ``verify`` span the pool workers
        # open in their own lanes, so traced runs produce the same span
        # tree regardless of worker count.
        with active_tracer().span("verify", phase="local") as span:
            for predicted, features in batch:
                # Trial in place: the incremental engine re-times only the
                # move's dirty cone, then the move is undone.
                trial_result = problem.evaluate_move(current, features.move)
                verdicts.append(
                    (
                        trial_result.total_variation,
                        trial_result.skews.degraded_local_skew(
                            problem.baseline.skews,
                            tol_ps=self._config.local_skew_tolerance_ps,
                        ),
                        predicted,
                        features,
                    )
                )
            span.set(tasks=len(batch))
        return verdicts

    def _pick_best(self, verdicts, current: TimingResult):
        """Best actually-improving, non-degrading verdict (or None)."""
        best = None
        best_red = 1e-9
        for verdict in verdicts:
            trial_tv, degraded = verdict[0], verdict[1]
            reduction = current.total_variation - trial_tv
            if reduction <= best_red:
                continue
            if degraded:
                continue
            best = verdict
            best_red = reduction
        return best

    # ------------------------------------------------------------------
    def _select_buffers(
        self, tree: ClockTree, result: TimingResult
    ) -> Optional[List[int]]:
        """Buffers to enumerate this iteration.

        When capped, buffers are ranked by the total pair variation of
        the sink pairs their subtree touches — the moves most likely to
        matter (the uncapped default matches the paper).
        """
        cap = self._config.buffers_per_iteration
        if cap is None:
            return None
        variation_by_sink: Dict[int, float] = {}
        for (a, b), v in result.skews.pair_variation.items():
            variation_by_sink[a] = variation_by_sink.get(a, 0.0) + v
            variation_by_sink[b] = variation_by_sink.get(b, 0.0) + v
        scored: List[Tuple[float, int]] = []
        for nid in tree.buffers():
            score = sum(
                variation_by_sink.get(s, 0.0) for s in tree.subtree_sinks(nid)
            )
            scored.append((score, nid))
        scored.sort(reverse=True)
        return [nid for _, nid in scored[:cap]]

    def _rank_moves(
        self,
        tree: ClockTree,
        result: TimingResult,
        pipeline: CandidatePipeline,
        timers: StageTimers,
    ) -> List[Tuple[float, MoveComponents]]:
        """Featurize, predict, and rank all candidate moves.

        Featurization goes through the pipeline's incremental component
        cache and vectorized assembly, inference consumes the per-corner
        matrices in one call per model and hands back one ``(moves,
        corners)`` matrix, and scoring runs one array pass per move
        group.  Ranking is a stable sort on the predicted reduction.
        """
        cfg = self._config
        problem = self._problem
        library = problem.design.library
        buffers = self._select_buffers(tree, result)
        with timers.stage("enumerate"):
            moves = enumerate_moves(
                tree,
                library,
                buffers=buffers,
                surgery_window_um=cfg.surgery_window_um,
            )
        if not moves:
            return []
        with timers.stage("featurize"):
            batch = pipeline.featurize(tree, result.per_corner, moves)
        features = batch.components
        with timers.stage("predict"):
            predictions = self._predictor.predict_matrix(batch)
        with timers.stage("score"):
            reductions = np.asarray(
                batched_variation_reductions(
                    problem, tree, result, features, predictions
                ),
                dtype=float,
            )
            # Filter, then a stable sort on the negated reduction: the
            # order of Python's stable ``sort(key=-reduction)``.
            keep = np.flatnonzero(reductions > cfg.min_predicted_reduction_ps)
            order = keep[np.argsort(-reductions[keep], kind="stable")]
            values = reductions.tolist()
            return [(values[i], features[i]) for i in order.tolist()]


def batched_variation_reductions(
    problem: SkewVariationProblem,
    tree: ClockTree,
    result: TimingResult,
    features: Sequence[MoveComponents],
    predictions: np.ndarray,
) -> np.ndarray:
    """Predicted objective reduction (ps) of each move in ``features``.

    ``predictions`` is the ``(n_moves, n_corners)`` matrix of
    :meth:`DeltaLatencyPredictor.predict_matrix`, columns in
    ``library.corners`` order.  A move's predicted delta shifts its
    buffer's subtree sinks; its ``side`` row shifts the other sinks
    under its old parent (old siblings) and, for surgery, under its new
    parent (new siblings).  The reduction is the drop in the summed
    Eq. (2) variations of the pairs those sinks touch.

    The touched pairs depend only on (buffer, surgery, new parent), so
    moves are grouped by that key and each group is scored as one
    ``(moves, corners, pairs)`` array.  Every row is ``==`` to the
    per-move scalar scorer (``tests/oracles.py::
    predicted_variation_reduction``).  The adjusted skews and the
    ``alpha``-scaled skews are the same elementwise operations.  Eq.
    (2)'s max over corner pairs of ``|x_i - x_j|`` is read as ``max(x)
    - min(x)``: rounding is monotone and odd, so for finite inputs the
    rounded difference of the extremes is the largest rounded pairwise
    difference, bit for bit.  The running Eq. (3) delta sum is an
    ``np.add.accumulate`` along the pair axis, the scorer's ``+=`` loop.
    """
    corners = problem.design.library.corners
    names = [c.name for c in corners]
    n_corner = len(names)
    alpha = np.array([problem.alphas[name] for name in names])
    out = np.zeros(len(features))
    groups: Dict[Tuple, List[int]] = {}
    for i, feats in enumerate(features):
        move = feats.move
        key = (move.buffer, move.type is MoveType.SURGERY, move.new_parent)
        groups.setdefault(key, []).append(i)
    if not groups:
        return out

    pairs = problem.pairs
    pair_a = np.array([p[0] for p in pairs], dtype=np.int64)
    pair_b = np.array([p[1] for p in pairs], dtype=np.int64)
    latencies = [result.latencies[name] for name in names]
    lat_a_all = np.array([[lat[p[0]] for p in pairs] for lat in latencies])
    lat_b_all = np.array([[lat[p[1]] for p in pairs] for lat in latencies])
    pair_variation = result.skews.pair_variation
    current_all = np.array([pair_variation[p] for p in pairs])
    corner_rows = np.arange(n_corner)[:, None]
    # (moves, corners, 2): each move's old- and new-sibling deltas.
    side = np.concatenate([feats.side for feats in features])
    side = side.reshape(-1, 2, n_corner).transpose(0, 2, 1)

    for (buffer, surgery, new_parent), members in groups.items():
        # Sink classes in the scalar scorer's priority order: 0 moved
        # subtree, 1 old siblings, 2 new siblings, 3 unaffected.  Lower
        # classes are written last, so they win where the sets overlap.
        cls = np.full(tree.next_id, 3, dtype=np.int64)
        if surgery and new_parent is not None:
            cls[tree.subtree_sinks(new_parent)] = 2
        old_parent = tree.parent(buffer)
        if old_parent is not None:
            cls[tree.subtree_sinks(old_parent)] = 1
        cls[tree.subtree_sinks(buffer)] = 0
        cls_a_all = cls[pair_a]
        cls_b_all = cls[pair_b]
        hit = np.flatnonzero((cls_a_all != 3) | (cls_b_all != 3))
        if hit.size == 0:
            continue
        cls_a = cls_a_all[hit]
        cls_b = cls_b_all[hit]
        dval = np.zeros((len(members), n_corner, 4))
        dval[:, :, 0] = predictions[members]
        dval[:, :, 1:3] = side[members]
        skew = (lat_a_all[:, hit] + dval[:, corner_rows, cls_a]) - (
            lat_b_all[:, hit] + dval[:, corner_rows, cls_b]
        )
        # Eq. (2): the largest |x_i - x_j| over corner pairs of the
        # alpha-scaled skews is max(x) - min(x) (abs only makes a zero
        # +0.0, as the pairwise form does).
        skew *= alpha[:, None]
        new_v = np.abs(skew.max(axis=1) - skew.min(axis=1))
        total_delta = np.add.accumulate(new_v - current_all[hit], axis=1)
        out[members] = -total_delta[:, -1]
    return out


def random_move_baseline(
    problem: SkewVariationProblem,
    tree: ClockTree,
    iterations: int,
    seed: int = 99,
) -> List[float]:
    """Figure 8's random-move reference: commit random improving moves.

    At each step a random candidate move is applied; it is kept only if
    the golden objective improves (no prediction involved).  Returns the
    objective trace (one value per step, starting at the initial value).
    """
    rng = np.random.default_rng(seed)
    current = tree.clone()
    result = problem.evaluate(current)
    trace = [result.total_variation]
    library = problem.design.library
    for _ in range(iterations):
        moves = enumerate_moves(current, library)
        if not moves:
            break
        move = moves[int(rng.integers(len(moves)))]
        trial_result = problem.evaluate_move(current, move)
        if trial_result.total_variation < result.total_variation:
            result = problem.commit_move(current, move)
        trace.append(result.total_variation)
    return trace
