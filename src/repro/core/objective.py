"""The Skew Variation Reduction Problem (paper Section 3).

Given a routed clock tree, minimize the sum over all sequentially adjacent
sink pairs of the maximum normalized skew variation across all corner
pairs — without degrading local skew at any corner, per-corner-pair skew
variation versus nominal, or maximum latency.

:class:`SkewVariationProblem` freezes the baseline state (latencies,
normalization factors, local skews) so that every later evaluation is on
the *same* scale, which is how the paper reports its normalized results
(Table 5's ``[norm]`` column).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.design import Design
from repro.netlist.tree import ClockTree
from repro.sta.incremental import IncrementalTimer
from repro.sta.timer import CornerTiming, GoldenTimer, TimingResult


@dataclass
class SkewVariationProblem:
    """A frozen optimization instance: design + timer + baseline snapshot.

    Two timing engines serve every evaluation need:

    * ``timer`` — the :class:`GoldenTimer` oracle.  It defines the
      baseline and remains the arbiter of "actual" values (use
      :meth:`evaluate_golden` to consult it directly).
    * :meth:`engine` — an :class:`IncrementalTimer` producing the same
      numbers (differential-tested to 1e-9 ps) with compiled-array state
      and dirty-frontier re-propagation.  :meth:`evaluate`,
      :meth:`evaluate_move` and :meth:`commit_move` route through it, so
      candidate-move trials no longer clone and re-time the whole tree.
    """

    design: Design
    timer: GoldenTimer
    baseline: TimingResult

    @staticmethod
    def create(design: Design, timer: Optional[GoldenTimer] = None) -> "SkewVariationProblem":
        """Time the design's current tree and freeze it as the baseline."""
        timer = timer or GoldenTimer(design.library)
        baseline = timer.time_tree(design.tree, design.pairs)
        return SkewVariationProblem(design=design, timer=timer, baseline=baseline)

    @property
    def alphas(self) -> Dict[str, float]:
        """Baseline normalization factors (fixed for the whole optimization)."""
        return self.baseline.skews.alphas

    @property
    def pairs(self) -> List[Tuple[int, int]]:
        return self.design.pairs

    def engine(self) -> IncrementalTimer:
        """The shared incremental timing engine (created on first use)."""
        engine = self.__dict__.get("_engine")
        if engine is None:
            engine = IncrementalTimer(
                self.design.library, wire_metric=self.timer.wire_metric
            )
            self.__dict__["_engine"] = engine
        return engine

    def evaluate(self, tree: ClockTree) -> TimingResult:
        """Time ``tree`` against the baseline normalization.

        Served by the incremental engine (one compiled full propagation —
        numerically the golden result; see ``tests/test_incremental_timer``).
        """
        return self.engine().time_tree(tree, self.design.pairs, alphas=self.alphas)

    def evaluate_golden(self, tree: ClockTree) -> TimingResult:
        """Time ``tree`` with the golden oracle (no caching)."""
        return self.timer.time_tree(tree, self.design.pairs, alphas=self.alphas)

    def corner_timings(self, tree: ClockTree) -> Dict[str, CornerTiming]:
        """Per-corner timing artifacts of ``tree`` (incremental engine)."""
        return self.engine().corner_timings(tree)

    def evaluate_move(self, tree: ClockTree, move) -> TimingResult:
        """Trial-evaluate one local move on ``tree`` without cloning.

        Applies the move in place, re-times only its dirty cone, then
        undoes it bit-exactly: ``tree`` is unchanged on return, and the
        engine keeps its attached state for the next candidate.
        """
        from repro.core.moves import apply_move_undoable, undo_move

        engine = self.engine()
        engine.ensure(tree)
        undo = apply_move_undoable(
            tree, self.design.legalizer, self.design.library, move
        )
        try:
            return engine.preview(
                tree, undo.dirty, self.design.pairs, alphas=self.alphas
            )
        finally:
            undo_move(tree, undo)
            engine.rebase(tree)

    def commit_move(self, tree: ClockTree, move) -> TimingResult:
        """Apply ``move`` to ``tree`` for good and return its timing."""
        from repro.core.moves import apply_move_undoable

        engine = self.engine()
        engine.ensure(tree)
        undo = apply_move_undoable(
            tree, self.design.legalizer, self.design.library, move
        )
        return engine.advance(
            tree, undo.dirty, self.design.pairs, alphas=self.alphas
        )

    def objective(self, tree: ClockTree) -> float:
        """Sum of skew variations of ``tree`` (ps, baseline-normalized)."""
        return self.evaluate(tree).total_variation

    def accepts(self, candidate: TimingResult, tol_ps: float = 0.5) -> bool:
        """Check the paper's non-degradation side constraints.

        A candidate state is acceptable only if its local skew does not
        degrade at any corner relative to the baseline (Constraint (7)'s
        intent, checked against golden results).
        """
        return not candidate.skews.degraded_local_skew(
            self.baseline.skews, tol_ps=tol_ps
        )

    def reduction_percent(self, candidate: TimingResult) -> float:
        """Percent reduction of the objective vs baseline (+ = better)."""
        base = self.baseline.total_variation
        if base <= 0.0:
            return 0.0
        return 100.0 * (base - candidate.total_variation) / base
