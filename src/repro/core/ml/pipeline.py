"""Incremental batched candidate-ranking pipeline (Algorithm 2, steps 1-2).

:class:`CandidatePipeline` owns the two cache layers that make repeated
featurization scale with the committed move's dirty cone instead of the
tree:

* an :class:`~repro.core.ml.analytical.AnalyticalCache` memoizing route
  plans and per-corner net evaluations under value keys (geometry +
  sizes + slews, the same signature scheme as ``sta/incremental.py``);
* a move-level :class:`~repro.core.ml.features.MoveComponents` cache
  with explicit dependency tracking: each cached move records the node
  ids whose *local* timing state (input slew, driver delay/load, edge
  delays — see :func:`move_dependencies`) and whose *arrival* it read.
  After a commit, :meth:`invalidate` drops exactly the moves touching
  the re-timed frontier; tree surgery changes subtree membership (sink
  weights), so structural commits flush the move cache entirely.

Cache misses featurize in one batch through the array-backed
:class:`~repro.core.ml.feature_kernel.FeatureKernel`; the per-move
:func:`~repro.core.ml.features.compute_move_components` is its test
oracle.  Feature assembly across the surviving + recomputed components
is vectorized: one ``(n_moves, n_features)`` numpy matrix per corner
(:meth:`FeatureBatch.assemble`), the input of
:meth:`~repro.core.ml.training.DeltaLatencyPredictor.predict_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.core.ml.analytical import AnalyticalCache
from repro.core.ml.feature_kernel import FeatureKernel
from repro.core.ml.features import MoveComponents, assemble_feature_matrix
from repro.core.moves import Move, MoveType
from repro.netlist.tree import ClockTree
from repro.sta.timer import CornerTiming
from repro.tech.library import Library

#: Cached moves at which :meth:`CandidatePipeline.featurize` flushes the
#: move cache (a memory bound; the flow's move sets stay far below it).
MAX_CACHED_MOVES = 200_000


def move_dependencies(
    tree: ClockTree, move: Move
) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """Node ids whose timing state a move's featurization reads.

    Returns ``(local, arrival)``.  *Local* state is a node's input slew,
    driver delay/load and incoming-edge delay (what the estimators diff
    against); displacement moves read the buffer, its parent and both
    fanout lists, surgery moves the buffer plus both drivers and their
    fanout lists.  Only surgery moves read *arrival* times (of the new
    parent and the buffer).
    """
    b = move.buffer
    if move.type is MoveType.SURGERY:
        old_parent = tree.parent(b)
        new_parent = move.new_parent
        local: Set[int] = {old_parent, new_parent, b}
        local.update(tree.children(old_parent))
        local.update(tree.children(new_parent))
        local.discard(None)
        return frozenset(local), frozenset((new_parent, b))
    parent = tree.parent(b)
    local = {parent, b}
    local.update(tree.children(parent))
    local.update(tree.children(b))
    local.discard(None)
    return frozenset(local), frozenset()


@dataclass
class FeatureBatch:
    """Featurization of one candidate batch.

    ``matrices[corner]`` is the ``(n_moves, n_features)`` design matrix;
    row ``i`` belongs to ``components[i]`` (ordered as the input moves).
    """

    components: List[MoveComponents]
    matrices: Dict[str, np.ndarray]

    @classmethod
    def assemble(
        cls, components: Sequence[MoveComponents], corner_names: Sequence[str]
    ) -> "FeatureBatch":
        """The batch of already-computed ``components``, in their order."""
        components = list(components)
        return cls(
            components=components,
            matrices={
                name: assemble_feature_matrix(components, name)
                for name in corner_names
            },
        )

    def __len__(self) -> int:
        return len(self.components)


class CandidatePipeline:
    """Cross-iteration cache + vectorized assembly for move featurization.

    A library whose cells do not share one characterization grid raises
    :class:`~repro.core.ml.feature_kernel.FeatureKernelUnsupported` here.
    """

    def __init__(self, library: Library) -> None:
        self.library = library
        self.analytical = AnalyticalCache()
        self.kernel = FeatureKernel(library)
        self._components: Dict[Move, MoveComponents] = {}
        self._deps: Dict[Move, Tuple[FrozenSet[int], FrozenSet[int]]] = {}
        self._by_local: Dict[int, Set[Move]] = {}
        self._by_arrival: Dict[int, Set[Move]] = {}
        self.stats: Dict[str, int] = {
            "move_hits": 0,
            "move_misses": 0,
            "invalidated": 0,
            "flushes": 0,
        }

    # ------------------------------------------------------------------
    def featurize(
        self,
        tree: ClockTree,
        timings: Mapping[str, CornerTiming],
        moves: Sequence[Move],
    ) -> FeatureBatch:
        """Components + per-corner design matrices for ``moves``.

        Cached components are reused verbatim; misses are recomputed in
        one kernel batch through the shared analytical cache and
        registered against their dependency nodes for later
        :meth:`invalidate` calls.
        """
        components: List[MoveComponents | None] = []
        miss_at: List[int] = []
        miss_moves: List[Move] = []
        for move in moves:
            comp = self._components.get(move)
            if comp is None:
                self.stats["move_misses"] += 1
                miss_at.append(len(components))
                miss_moves.append(move)
            else:
                self.stats["move_hits"] += 1
            components.append(comp)
        if miss_moves:
            fresh = self.kernel.compute_components_batch(
                tree, timings, miss_moves, self.analytical
            )
            for slot, move, comp in zip(miss_at, miss_moves, fresh):
                components[slot] = comp
                self._remember(tree, move, comp)
        return FeatureBatch.assemble(
            components, [corner.name for corner in self.library.corners]
        )

    # ------------------------------------------------------------------
    def invalidate(
        self,
        touched_local: Iterable[int] = (),
        touched_arrival: Iterable[int] = (),
        structural: bool = False,
    ) -> int:
        """Drop cached moves whose inputs a committed move changed.

        ``touched_local`` — nodes whose input slew, driver delay/load or
        incoming-edge delay changed (re-evaluated drivers plus their
        children); ``touched_arrival`` — nodes whose arrival shifted.
        ``structural`` — connectivity changed (surgery): sink weights
        are stale for arbitrary moves, so the whole move cache flushes.
        Returns the number of entries dropped.
        """
        if structural:
            count = len(self._components)
            self.flush()
            return count
        doomed: Set[Move] = set()
        for nid in touched_local:
            bucket = self._by_local.get(nid)
            if bucket:
                doomed.update(bucket)
        for nid in touched_arrival:
            bucket = self._by_arrival.get(nid)
            if bucket:
                doomed.update(bucket)
        for move in doomed:
            self._evict(move)
        self.stats["invalidated"] += len(doomed)
        return len(doomed)

    def flush(self) -> None:
        """Forget every cached move (analytical value-cache survives)."""
        self.stats["flushes"] += 1
        self._components.clear()
        self._deps.clear()
        self._by_local.clear()
        self._by_arrival.clear()

    # ------------------------------------------------------------------
    def _remember(self, tree: ClockTree, move: Move, comp: MoveComponents) -> None:
        if len(self._components) >= MAX_CACHED_MOVES:
            self.flush()
        deps_local, deps_arrival = move_dependencies(tree, move)
        self._components[move] = comp
        self._deps[move] = (deps_local, deps_arrival)
        for nid in deps_local:
            self._by_local.setdefault(nid, set()).add(move)
        for nid in deps_arrival:
            self._by_arrival.setdefault(nid, set()).add(move)

    def _evict(self, move: Move) -> None:
        self._components.pop(move, None)
        deps_local, deps_arrival = self._deps.pop(move, (frozenset(), frozenset()))
        for nid in deps_local:
            bucket = self._by_local.get(nid)
            if bucket is not None:
                bucket.discard(move)
        for nid in deps_arrival:
            bucket = self._by_arrival.get(nid)
            if bucket is not None:
                bucket.discard(move)

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, object]:
        """Merged move-level + analytical + kernel counters (JSON-friendly)."""
        out: Dict[str, object] = dict(self.stats)
        out.update(self.analytical.stats)
        out.update(self.analytical.hit_rates())
        out["cached_moves"] = len(self._components)
        out["kernel"] = dict(self.kernel.stats)
        out["kernel_seconds"] = {
            name: round(secs, 6)
            for name, secs in self.kernel.timers.seconds.items()
        }
        return out
