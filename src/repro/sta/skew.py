"""Skew and skew-variation arithmetic (paper Equations (1)-(3)).

Given per-corner sink latencies, :class:`SkewAnalysis` computes:

* per-pair, per-corner skew ``skew_{i,i'}^{ck}`` (launch minus capture
  latency),
* normalization factors ``alpha_k`` that bring each corner's skews to the
  nominal corner's scale,
* the normalized skew variation ``v_{i,i'}^{ck,ck'} =
  |alpha_k skew^{ck} - alpha_k' skew^{ck'}|`` per corner pair (Eq. (1)),
* the per-pair worst variation ``V_{i,i'}`` across corner pairs (Eq. (2)),
* and the optimization objective: the sum of ``V_{i,i'}`` over all
  sequentially adjacent sink pairs (Eq. (3) / Section 3).

The arithmetic runs on a ``(corners, columns)`` arrival block through
pair-position arrays (:class:`PairPositions`): the incremental engine
hands over its kernel state's arrival rows as they are, and
:meth:`SkewAnalysis.from_latencies` gathers the same block from
``{corner: {sink: latency}}`` dicts.  Every value equals the scalar
per-pair loop's (``tests/oracles.py::reference_skew_analysis``) bit for
bit: the operations are elementwise, Eq. (2)'s max is an
``np.maximum`` chain in ``corners.pairs()`` order, and the alphas' sums
and Eq. (3)'s total are Python's builtin ``sum`` over the same floats in
the same order (its rounding differs between Python versions, so every
side must call it).
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.tech.corners import CornerSet

#: A launch/capture sink pair, by sink node id.
SinkPair = Tuple[int, int]


def pair_skew(
    latency: Mapping[int, float], pair: SinkPair
) -> float:
    """Skew of ``pair`` = launch latency minus capture latency (ps)."""
    launch, capture = pair
    return latency[launch] - latency[capture]


class ArrayMap(MappingABC):
    """Read-only dict-shaped view over one row of an array.

    ``ids`` are the keys in iteration order and ``index`` maps a key to
    its position in ``row``; lookups, ``.get``, iteration, ``len`` and
    equality behave like a ``dict`` of the same items.  ``mask``
    restricts the key set to the ids whose position it marks.  Timing
    artifacts (:class:`~repro.sta.timer.CornerTiming` of the array
    kernel) and skew analyses are read through it.
    """

    __slots__ = ("_ids", "_index", "_row", "_mask")

    def __init__(
        self,
        ids: Sequence,
        index: Mapping,
        row: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        self._ids = ids
        self._index = index
        self._row = row
        self._mask = mask

    def __getitem__(self, key) -> float:
        i = self._index.get(key)
        if i is None or (self._mask is not None and not self._mask[i]):
            raise KeyError(key)
        return float(self._row[i])

    def __iter__(self):
        if self._mask is None:
            return iter(self._ids)
        mask = self._mask
        return (key for k, key in enumerate(self._ids) if mask[k])

    def __len__(self) -> int:
        if self._mask is None:
            return len(self._ids)
        return int(np.count_nonzero(self._mask))


@dataclass(frozen=True)
class PairPositions:
    """Where each sink pair's latencies sit in an arrival block.

    ``launch[r]`` and ``capture[r]`` are the block columns of row ``r``
    of ``pairs``.  ``keys`` are the distinct pairs in first-occurrence
    order and ``slot`` maps each to its first row; ``distinct`` lists
    those rows when ``pairs`` repeats a pair (Eq. (3) counts a pair
    once) and is ``None`` otherwise.
    """

    pairs: Tuple[SinkPair, ...]
    keys: Tuple[SinkPair, ...]
    launch: np.ndarray
    capture: np.ndarray
    slot: Dict[SinkPair, int]
    distinct: Optional[np.ndarray]

    @staticmethod
    def build(pairs: Sequence[SinkPair], column: Mapping[int, int]) -> "PairPositions":
        """Positions of ``pairs`` in a block whose sink ``s`` is column
        ``column[s]`` (a compiled tree's ``index``, for instance)."""
        pairs = tuple(pairs)
        slot: Dict[SinkPair, int] = {}
        for row, pair in enumerate(pairs):
            slot.setdefault(pair, row)
        launch = np.fromiter((column[a] for a, _ in pairs), np.int64, len(pairs))
        capture = np.fromiter((column[b] for _, b in pairs), np.int64, len(pairs))
        keys, distinct = pairs, None
        if len(slot) != len(pairs):
            keys = tuple(slot)
            distinct = np.fromiter(slot.values(), np.int64, len(slot))
        return PairPositions(pairs, keys, launch, capture, slot, distinct)


@dataclass(frozen=True)
class SkewAnalysis:
    """A full skew-variation snapshot of one timing state.

    The three mappings are read-only.

    Attributes
    ----------
    alphas:
        Normalization factor per corner name, in corner order.
    pair_variation:
        ``V_{i,i'}`` per sink pair (Eq. (2)), in pair order.
    total_variation:
        Sum of ``pair_variation`` values — the paper's objective (ps).
    local_skew:
        Per-corner local skew: max |skew| over the analyzed pairs (ps),
        in corner order.  (Local, not global: only launch/capture pairs
        with a datapath.)
    """

    alphas: Mapping[str, float]
    pair_variation: Mapping[SinkPair, float]
    total_variation: float
    local_skew: Mapping[str, float]

    @staticmethod
    def from_arrivals(
        arrival: np.ndarray,
        positions: PairPositions,
        corners: CornerSet,
        alphas: Optional[Mapping[str, float]] = None,
    ) -> "SkewAnalysis":
        """Analyze a ``(corners, columns)`` arrival block (rows in
        ``corners`` order) at the pair ``positions``.

        When ``alphas`` is omitted they are derived from these arrivals;
        pass the *original tree's* factors when comparing an optimized
        tree against its baseline, so both are measured on the same scale.
        """
        names = [c.name for c in corners]
        corner_index = {name: k for k, name in enumerate(names)}
        skew = arrival[:, positions.launch] - arrival[:, positions.capture]
        magnitude = np.abs(skew)
        if alphas is None:
            # alpha_k = sum |skew^{c0}| / sum |skew^{ck}| (see Table 1);
            # the nominal corner and zero-skew corners keep 1.0.
            totals = [sum(row, 0.0) for row in magnitude.tolist()]
            base = totals[0]
            alpha = np.ones(len(names))
            if base > 0.0:
                for k in range(1, len(names)):
                    if totals[k] > 0.0:
                        alpha[k] = base / totals[k]
        else:
            alpha = np.array([alphas[name] for name in names], dtype=float)
        # Eq. (1) per corner pair, Eq. (2) as a max chain in
        # corners.pairs() order.
        variation = None
        for i, j in combinations(range(len(names)), 2):
            v = np.abs(alpha[i] * skew[i] - alpha[j] * skew[j])
            variation = v if variation is None else np.maximum(variation, v)
        if variation is None:  # one corner: nothing varies
            variation = np.zeros(skew.shape[1])
        counted = variation if positions.distinct is None else variation[positions.distinct]
        local = magnitude.max(axis=1) if skew.shape[1] else np.zeros(len(names))
        return SkewAnalysis(
            alphas=ArrayMap(names, corner_index, alpha),
            pair_variation=ArrayMap(positions.keys, positions.slot, variation),
            total_variation=sum(counted.tolist(), 0.0),
            local_skew=ArrayMap(names, corner_index, local),
        )

    @staticmethod
    def from_latencies(
        latencies: Mapping[str, Mapping[int, float]],
        pairs: Sequence[SinkPair],
        corners: CornerSet,
        alphas: Optional[Mapping[str, float]] = None,
    ) -> "SkewAnalysis":
        """Analyze a latency map ``corner name -> sink id -> latency (ps)``.

        Gathers the pairs' sinks into an arrival block and runs
        :meth:`from_arrivals` on it.
        """
        column: Dict[int, int] = {}
        for pair in pairs:
            for sink in pair:
                column.setdefault(sink, len(column))
        block = np.array(
            [[latencies[c.name][s] for s in column] for c in corners], dtype=float
        ).reshape(len(corners), len(column))
        return SkewAnalysis.from_arrivals(
            block, PairPositions.build(pairs, column), corners, alphas
        )

    def degraded_local_skew(self, other: "SkewAnalysis", tol_ps: float = 0.5) -> bool:
        """True if this state's local skew is worse than ``other`` anywhere."""
        return any(
            self.local_skew[name] > other.local_skew.get(name, float("inf")) + tol_ps
            for name in self.local_skew
        )
