"""Artificial-testcase datasets for model training (paper Section 4.2).

The paper trains per-corner delta-latency models on *artificial clock
trees* that resemble real designs: fanout 1-5 for internal buffers (20-40
for last-stage buffers), fanout bounding boxes of 1000-8000 um^2 with
aspect ratio 0.5-1, fanout cells placed randomly inside.  It generates
150 testcases and ~450 moves per testcase; both counts are configurable
here so tests run in seconds while benches can scale up.

Each sample pairs the move's feature vector with the *golden* per-corner
delta-latency (mean latency change over the sinks under the moved
buffer), obtained by actually applying the move to a clone and re-timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ml.features import MoveComponents
from repro.core.ml.pipeline import CandidatePipeline, FeatureBatch
from repro.core.moves import Move, enumerate_moves
from repro.eco.legalize import Legalizer
from repro.geometry import BBox, Point
from repro.netlist.tree import ClockTree
from repro.sta.timer import CornerTiming, GoldenTimer
from repro.tech.library import Library


@dataclass
class ArtificialCase:
    """One artificial training tree with a designated target buffer."""

    tree: ClockTree
    target_buffer: int
    region: BBox
    legalizer: Legalizer


@dataclass
class MoveSample:
    """One (features, golden target) training sample."""

    features: MoveComponents
    target: Dict[str, float]  # corner name -> golden subtree delta (ps), library order


def generate_case(
    library: Library, rng: np.random.Generator, last_stage: bool = False
) -> ArtificialCase:
    """Build one artificial tree per the paper's parameter ranges.

    The training context mirrors the situations real-tree moves face:

    * fanout bounding boxes of 1000-8000 um^2 with aspect 0.5-1 and
      randomly placed fanout cells (the paper's ranges);
    * internal-buffer cases with 1-5 buffer children (each driving a few
      sinks) and last-stage cases with 6-40 sinks (covering both the
      paper's 20-40 range and the smaller leaf clusters real CTS emits);
    * a *nearby same-level neighbour* buffer under the same driver, so
      type-III (tree surgery) moves exist in the training distribution
      and driver-load coupling is real.
    """
    # The paper samples bounding boxes of 1000-8000 um^2 "typically seen
    # in clock trees in SoC application processors"; our scaled testcase
    # generators produce leaf clusters up to ~26000 um^2, so the training
    # range covers that — the principle (train across the parameter
    # ranges the designs exhibit) is the paper's.
    area = float(rng.uniform(1000.0, 26000.0))
    aspect = float(rng.uniform(0.5, 1.0))
    width = math.sqrt(area / aspect)
    height = area / width
    margin = 260.0
    region = BBox(0.0, 0.0, width + 2 * margin, height + 2 * margin)
    box = BBox(margin, margin, margin + width, margin + height)

    tree = ClockTree()
    source = tree.add_source(Point(2.0, 2.0))
    center = box.center

    # Feeder chain with realistic repeater spacing: real CTS keeps
    # buffer-to-buffer spans under ~180 um, which is what keeps slews in
    # the 15-45 ps regime the target buffer must be trained in.  A single
    # long unrepeated feeder would put training in a slew regime real
    # trees never visit.
    feeder = source
    position = Point(2.0, 2.0)
    span = float(rng.uniform(120.0, 170.0))
    while position.manhattan(center) > span * 1.4:
        fraction = span / position.manhattan(center)
        position = Point(
            position.x + (center.x - position.x) * fraction,
            position.y + (center.y - position.y) * fraction,
        )
        feeder = tree.add_buffer(feeder, position, int(rng.choice([16, 32])))

    target_size = int(rng.choice(library.sizes[1:-1]))
    target = tree.add_buffer(feeder, center, target_size)

    def random_in_box() -> Point:
        return Point(
            float(rng.uniform(box.xlo, box.xhi)),
            float(rng.uniform(box.ylo, box.yhi)),
        )

    if last_stage:
        fanout = int(rng.integers(6, 41))
        for _ in range(fanout):
            tree.add_sink(target, random_in_box())
    else:
        fanout = int(rng.integers(1, 6))
        for _ in range(fanout):
            loc = random_in_box()
            child = tree.add_buffer(target, loc, int(rng.choice([4, 8, 16])))
            for _ in range(int(rng.integers(2, 9))):
                sink_loc = Point(
                    float(rng.uniform(max(box.xlo, loc.x - 50), min(box.xhi, loc.x + 50))),
                    float(rng.uniform(max(box.ylo, loc.y - 50), min(box.yhi, loc.y + 50))),
                )
                tree.add_sink(child, sink_loc)

    # Same-level neighbours close to the target: they load the shared
    # driver like a real branch buffer's siblings do, and the nearby one
    # acts as a type-III surgery destination.
    for _ in range(int(rng.integers(1, 4))):
        neighbour = tree.add_buffer(
            feeder,
            center.translated(
                float(rng.uniform(-45.0, 45.0)), float(rng.uniform(-45.0, 45.0))
            ),
            int(rng.choice([4, 8, 16])),
        )
        for _ in range(int(rng.integers(2, 7))):
            tree.add_sink(neighbour, random_in_box())

    tree.validate()
    return ArtificialCase(
        tree=tree,
        target_buffer=target,
        region=region,
        legalizer=Legalizer(region=region, pitch_um=2.5),
    )


def golden_subtree_delta(
    timer: GoldenTimer,
    tree: ClockTree,
    legalizer: Legalizer,
    move: Move,
    before: Dict[str, CornerTiming],
) -> Dict[str, float]:
    """Apply ``move`` to a clone and measure the golden delta-latency.

    Returns the mean latency change over the sinks of the moved buffer's
    subtree, per corner.  The clone is timed once for every corner: each
    corner's row of an all-corner propagation equals that corner's own
    propagation bit for bit, because every kernel operation is
    elementwise along the corner axis.
    """
    from repro.core.moves import apply_move

    trial = tree.clone()
    apply_move(trial, legalizer, timer.library, move)
    sinks = trial.subtree_sinks(move.buffer)
    after = timer.analyze_all_corners(trial)
    out: Dict[str, float] = {}
    for corner in timer.library.corners:
        name = corner.name
        deltas = [after[name].arrival[s] - before[name].arrival[s] for s in sinks]
        out[name] = float(np.mean(deltas)) if deltas else 0.0
    return out


def generate_tree_case(
    library: Library, rng: np.random.Generator
) -> ArtificialCase:
    """An artificial *tree* testcase: a CTS run over random clustered sinks.

    The paper's training testcases are "clock trees that resemble real
    designs"; the closest realization is to synthesize a small tree with
    the same CTS recipe the designs use, so buffer contexts (branch
    drivers with several children, repeatered spans, balanced leaf
    clusters) match what the deployed predictor will see.
    """
    from repro.cts.synthesis import CTSConfig, synthesize_tree

    edge = float(rng.uniform(300.0, 520.0))
    region = BBox(0.0, 0.0, edge, edge)
    clusters = int(rng.integers(3, 6))
    sinks: List[Point] = []
    used = set()
    for _ in range(clusters):
        cx = float(rng.uniform(70.0, edge - 70.0))
        cy = float(rng.uniform(70.0, edge - 70.0))
        for _ in range(int(rng.integers(5, 12))):
            key = (
                round(cx + float(rng.uniform(-55, 55)), 1),
                round(cy + float(rng.uniform(-55, 55)), 1),
            )
            if key in used or not region.contains(Point(*key)):
                continue
            used.add(key)
            sinks.append(Point(*key))
    legalizer = Legalizer(region=region, pitch_um=2.5)
    tree = synthesize_tree(
        Point(edge / 2.0, 0.0),
        sinks,
        library,
        region,
        legalizer,
        CTSConfig(leaf_fanout=8, leaf_radius_um=80.0, balance_rounds=1),
    )
    buffers = tree.buffers()
    target = int(buffers[int(rng.integers(len(buffers)))])
    return ArtificialCase(
        tree=tree, target_buffer=target, region=region, legalizer=legalizer
    )


def generate_dataset(
    library: Library,
    n_cases: int = 40,
    moves_per_case: int = 24,
    seed: int = 2015,
    last_stage_fraction: float = 0.25,
    tree_case_fraction: float = 0.5,
    timer: Optional[GoldenTimer] = None,
) -> List[MoveSample]:
    """Generate a full training dataset (cases x sampled moves).

    A ``tree_case_fraction`` of the cases are CTS-synthesized artificial
    trees (moves sampled across all their buffers); the rest are the
    paper-style single-target bounding-box cases, a
    ``last_stage_fraction`` of which use last-stage (sink-heavy) fanout.

    Each case's sampled moves featurize in one kernel batch through a
    :class:`CandidatePipeline`.  A fresh pipeline per case keeps its move
    cache, which is keyed by move and not by tree, from serving one
    case's components to another's moves.
    """
    rng = np.random.default_rng(seed)
    timer = timer or GoldenTimer(library)
    samples: List[MoveSample] = []
    for case_idx in range(n_cases):
        if rng.random() < tree_case_fraction:
            case = generate_tree_case(library, rng)
            moveable = list(case.tree.buffers())
        else:
            last_stage = rng.random() < last_stage_fraction
            case = generate_case(library, rng, last_stage=last_stage)
            moveable = [case.target_buffer]
        timings = timer.analyze_all_corners(case.tree)
        moves = enumerate_moves(case.tree, library, buffers=moveable)
        if not moves:
            continue
        count = min(moves_per_case, len(moves))
        chosen = rng.choice(len(moves), size=count, replace=False)
        picked = [moves[int(move_idx)] for move_idx in chosen]
        pipeline = CandidatePipeline(library)
        batch = pipeline.featurize(case.tree, timings, picked)
        for move, features in zip(picked, batch.components):
            target = golden_subtree_delta(
                timer, case.tree, case.legalizer, move, timings
            )
            samples.append(MoveSample(features=features, target=target))
    return samples


def dataset_arrays(
    samples: Sequence[MoveSample], corner_name: str
) -> Tuple[np.ndarray, np.ndarray]:
    """(X, y) arrays for one corner's model.

    The samples' ``target`` keys name the corners of their features'
    arrays, in library order.
    """
    names = list(samples[0].target) if samples else [corner_name]
    batch = FeatureBatch.assemble([s.features for s in samples], names)
    y = np.asarray([s.target[corner_name] for s in samples])
    return batch.matrices[corner_name], y
