"""Worker-side replica state for the parallel verification engine.

A :class:`Replica` is everything one pool worker needs to golden-verify
candidate moves on its own: a private clock tree rebuilt from serialized
state (:mod:`repro.netlist.serialize` preserves ids, fanout order,
enumeration order and the id-allocation counter — see
``tests/test_serialize.py``), a private :class:`IncrementalTimer`, and
the frozen baseline artifacts (pairs, alphas, baseline skews) the
verification decision consumes.

Bit-identity contract
---------------------
The main process attaches its engine to the run's starting tree (a full
propagation) and advances it once per committed move.  A replica
compiles and propagates a bit-identical copy of the same starting tree
and replays the *same* committed-move stream through the *same*
``advance`` path, so its per-corner states evolve through the same float
operations and stay bit-identical to the main process's.  A candidate
verified here therefore returns exactly the floats the serial loop would
have computed — which is what lets the parallel reduce pick the same
winner, bit for bit.  A respawned worker is no exception: it starts from
the run's starting tree too and replays the whole stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Sequence, Tuple

from repro.core.moves import Move, apply_move_undoable, undo_move
from repro.eco.legalize import Legalizer
from repro.netlist.serialize import tree_from_dict, tree_to_dict
from repro.netlist.tree import ClockTree
from repro.sta.incremental import IncrementalTimer
from repro.sta.skew import SkewAnalysis
from repro.sta.timer import TimingResult
from repro.tech.library import Library


@dataclass(frozen=True)
class ReplicaSpec:
    """Everything needed to build a worker replica, in picklable form.

    ``tree_payload`` is the run's starting tree; a replica built from
    the spec replays every committed move after it.
    """

    tree_payload: Dict[str, Any]
    library: Library
    legalizer: Legalizer
    pairs: Tuple[Tuple[int, int], ...]
    alphas: Dict[str, float]
    baseline_skews: SkewAnalysis
    wire_metric: str = "d2m"
    local_skew_tolerance_ps: float = 0.5


@dataclass(frozen=True)
class VerifyOutcome:
    """One candidate's verification result, as sent back to the pool."""

    index: int
    total_variation: float
    degraded: bool
    eval_s: float = 0.0


class Replica:
    """A long-lived tree + timer replica that stays in sync via deltas.

    The engine attaches to the spec's tree with one compile and a full
    propagation; replay starts at the first committed move.
    """

    def __init__(self, spec: ReplicaSpec) -> None:
        self.spec = spec
        self.tree = tree_from_dict(spec.tree_payload)
        self.engine = IncrementalTimer(spec.library, wire_metric=spec.wire_metric)
        self.engine.ensure(self.tree)
        #: Number of committed moves replayed so far.
        self.applied = 0

    # ------------------------------------------------------------------
    def sync(self, deltas: Sequence[Move], first_index: int) -> None:
        """Replay the committed-move stream ``deltas`` onto the replica.

        ``first_index`` is the global index of ``deltas[0]``; moves this
        replica already applied are skipped, so redelivery after a pool
        rebuild is harmless.
        """
        for offset, move in enumerate(deltas):
            index = first_index + offset
            if index < self.applied:
                continue
            if index > self.applied:
                raise ValueError(
                    f"delta stream gap: replica at {self.applied}, "
                    f"received index {index}"
                )
            undo = apply_move_undoable(
                self.tree, self.spec.legalizer, self.spec.library, move
            )
            self.engine.advance(
                self.tree, undo.dirty, self.spec.pairs, alphas=self.spec.alphas
            )
            self.applied += 1

    # ------------------------------------------------------------------
    def verify(self, index: int, move: Move) -> VerifyOutcome:
        """Golden-verify one candidate move at all corners."""
        started = time.perf_counter()
        undo = apply_move_undoable(
            self.tree, self.spec.legalizer, self.spec.library, move
        )
        try:
            result = self.engine.preview(
                self.tree, undo.dirty, self.spec.pairs, alphas=self.spec.alphas
            )
        finally:
            undo_move(self.tree, undo)
            self.engine.rebase(self.tree)
        return VerifyOutcome(
            index=index,
            total_variation=result.total_variation,
            degraded=result.skews.degraded_local_skew(
                self.spec.baseline_skews,
                tol_ps=self.spec.local_skew_tolerance_ps,
            ),
            eval_s=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    def evaluate(self) -> TimingResult:
        """Full timing of the replica's current state (test support)."""
        return self.engine.time_tree(
            self.tree, self.spec.pairs, alphas=self.spec.alphas
        )


def publish_replica_arena(
    problem, tree: ClockTree, local_skew_tolerance_ps: float = 0.5
) -> ReplicaSpec:
    """A verify pool's start state: a :class:`SkewVariationProblem` run's
    starting ``tree`` and frozen baseline artifacts.

    The name is historical (the start state once went into a
    shared-memory arena); it stays because ``e2ebench/layers.py`` wraps
    this function by name.
    """
    return ReplicaSpec(
        tree_payload=tree_to_dict(tree),
        library=problem.design.library,
        legalizer=problem.design.legalizer,
        pairs=tuple(problem.pairs),
        alphas=dict(problem.alphas),
        baseline_skews=problem.baseline.skews,
        wire_metric=problem.timer.wire_metric,
        local_skew_tolerance_ps=local_skew_tolerance_ps,
    )
