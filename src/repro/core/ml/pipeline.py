"""Incremental batched candidate-ranking pipeline (Algorithm 2, steps 1-2).

:class:`CandidatePipeline` owns one cache layer, which makes repeated
featurization scale with the committed move's dirty cone instead of the
tree: a move-level :class:`~repro.core.ml.features.MoveComponents` cache
with explicit dependency tracking.  The node ids whose *local* timing
state (input slew, driver delay/load, edge delays — see
:func:`move_dependencies`) and whose *arrival* a move reads depend only
on its buffer (and, for surgery, its new parent), so cached moves are
grouped by that dependency set, and each set is registered once against
its nodes.  After a commit, :meth:`invalidate` drops exactly the moves
touching the re-timed frontier, a whole group at a time; tree surgery
changes subtree membership (sink weights), so structural commits flush
the move cache entirely.

Cache misses featurize in one batch through the array-backed
:class:`~repro.core.ml.feature_kernel.FeatureKernel`, which keeps its
own spec-keyed wire and route memos; the per-move
:func:`~repro.core.ml.features.compute_move_components` is its test
oracle and runs uncached.  Feature assembly across the surviving +
recomputed components is vectorized: one ``(n_moves, n_features)``
numpy matrix per corner (:meth:`FeatureBatch.assemble`), the input of
:meth:`~repro.core.ml.training.DeltaLatencyPredictor.predict_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set, Tuple

import numpy as np

from repro.core.ml.feature_kernel import FeatureKernel
from repro.core.ml.features import (
    FEATURE_NAMES,
    N_ESTIMATE_COLS,
    SLEW_COL,
    MoveComponents,
)
from repro.core.moves import Move, MoveType
from repro.netlist.tree import ClockTree
from repro.sta.timer import CornerTiming
from repro.tech.library import Library

#: Cached moves at which :meth:`CandidatePipeline.featurize` flushes the
#: move cache (a memory bound; the flow's move sets stay far below it).
MAX_CACHED_MOVES = 200_000

#: A move's ``(local, arrival)`` dependency node sets.
_Deps = Tuple[FrozenSet[int], FrozenSet[int]]


def dependency_key(move: Move) -> Tuple[int, ...]:
    """What a move's :func:`move_dependencies` depend on, besides the tree:
    its buffer, and for surgery also its new parent."""
    if move.type is MoveType.SURGERY:
        return (move.buffer, move.new_parent)
    return (move.buffer,)


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
        """The batch of already-computed ``components``, in their order.

        ``corner_names`` must be the library's corner names in library
        order: a component carries no corner names, and row ``k`` of its
        ``estimates`` and ``input_slew`` belongs to the library's corner
        ``k``.  The base rows, estimates and slews are stacked once;
        each corner's matrix is a copy of the base rows with that
        corner's columns filled in.
        """
        components = list(components)
        if not components:
            return cls([], {name: np.empty((0, len(FEATURE_NAMES))) for name in corner_names})
        base = np.array([c.base_row for c in components])
        estimates = np.array([c.estimates for c in components])
        slews = np.array([c.input_slew for c in components])
        matrices: Dict[str, np.ndarray] = {}
        for k, name in enumerate(corner_names):
            matrix = base.copy()
            matrix[:, :N_ESTIMATE_COLS] = estimates[:, k]
            matrix[:, SLEW_COL] = slews[:, k]
            matrices[name] = matrix
        return cls(components=components, matrices=matrices)

    def __len__(self) -> int:
        return len(self.components)


class CandidatePipeline:
    """Cross-iteration cache + vectorized assembly for move featurization.

    A library whose NLDM tables cannot be stacked
    (:attr:`~repro.tech.library.Library.nldm`) raises that
    :class:`ValueError` here.
    """

    def __init__(self, library: Library) -> None:
        self.library = library
        self.kernel = FeatureKernel(library)
        self._components: Dict[Move, MoveComponents] = {}
        #: Cached moves per ``(local, arrival)`` dependency set, and the
        #: dependency sets registered against each node.
        self._groups: Dict[_Deps, Set[Move]] = {}
        self._by_local: Dict[int, Set[_Deps]] = {}
        self._by_arrival: Dict[int, Set[_Deps]] = {}
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
        one kernel batch and registered, by dependency set, for later
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
            fresh = self.kernel.compute_components_batch(tree, timings, miss_moves)
            for slot, comp in zip(miss_at, fresh):
                components[slot] = comp
            self._remember(tree, miss_moves, fresh)
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
        doomed: Set[_Deps] = set()
        for nid in touched_local:
            bucket = self._by_local.get(nid)
            if bucket:
                doomed.update(bucket)
        for nid in touched_arrival:
            bucket = self._by_arrival.get(nid)
            if bucket:
                doomed.update(bucket)
        count = 0
        for deps in doomed:
            count += self._evict(deps)
        self.stats["invalidated"] += count
        return count

    def flush(self) -> None:
        """Forget every cached move (the kernel's value-keyed memos survive)."""
        self.stats["flushes"] += 1
        self._components.clear()
        self._groups.clear()
        self._by_local.clear()
        self._by_arrival.clear()

    # ------------------------------------------------------------------
    def _remember(
        self,
        tree: ClockTree,
        moves: Sequence[Move],
        components: Sequence[MoveComponents],
    ) -> None:
        """Cache fresh components under their moves' dependency sets.

        The tree is fixed within a batch, so moves that share a
        :func:`dependency_key` share their dependency set: it is
        computed once per key, and registered against its nodes once.
        """
        deps_of: Dict[Tuple[int, ...], _Deps] = {}
        for move, comp in zip(moves, components):
            if len(self._components) >= MAX_CACHED_MOVES:
                self.flush()
            key = dependency_key(move)
            deps = deps_of.get(key)
            if deps is None:
                deps = deps_of[key] = move_dependencies(tree, move)
            self._components[move] = comp
            group = self._groups.get(deps)
            if group is None:
                group = self._groups[deps] = set()
                for nid in deps[0]:
                    self._by_local.setdefault(nid, set()).add(deps)
                for nid in deps[1]:
                    self._by_arrival.setdefault(nid, set()).add(deps)
            group.add(move)

    def _evict(self, deps: _Deps) -> int:
        """Drop every cached move of one dependency set; returns how many."""
        group = self._groups.pop(deps)
        for move in group:
            del self._components[move]
        for nid in deps[0]:
            self._by_local[nid].discard(deps)
        for nid in deps[1]:
            self._by_arrival[nid].discard(deps)
        return len(group)

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, object]:
        """Merged move-level + kernel counters (JSON-friendly).

        The kernel's route counters are listed at the top level too, and
        the route memo's hit rate (0..1; 0.0 without traffic) beside
        them.
        """
        out: Dict[str, object] = dict(self.stats)
        for key in ("route_hits", "route_misses", "rsmt_batches", "trunk_batches"):
            out[key] = self.kernel.stats[key]
        total = out["route_hits"] + out["route_misses"]
        out["route_hit_rate"] = round(out["route_hits"] / total, 4) if total else 0.0
        out["cached_moves"] = len(self._components)
        out["kernel"] = dict(self.kernel.stats)
        out["kernel_seconds"] = {
            name: round(secs, 6)
            for name, secs in self.kernel.timers.seconds.items()
        }
        return out
