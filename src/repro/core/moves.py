"""Candidate local moves (paper Table 2).

Three move types, enumerated per clock buffer:

* **Type I** — displace the buffer by 10 um in one of the 8 compass
  directions, combined with a one-step up or down resize of the buffer
  itself (8 x 2 = 16 candidates).
* **Type II** — the same 8 x 2 displacement grid, but the one-step resize
  applies to one of the buffer's child buffers (16 candidates).
* **Type III** — tree surgery: reassign the buffer to a different driver
  at the same buffer level whose location falls within a 50 um x 50 um
  bounding box around the current driver.

With a populated neighbourhood this yields ~45 candidates per buffer,
matching the paper's Figure 6 setup (114 buffers x 45 moves).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.eco.legalize import Legalizer
from repro.eco.operators import apply_displacement, apply_sizing, apply_tree_surgery
from repro.geometry import COMPASS_DIRECTIONS, Point, compass_offset
from repro.netlist.tree import ClockTree
from repro.tech.library import Library

#: Displacement distance of type-I/II moves (um), from Table 2.
DISPLACE_UM = 10.0

#: Tree-surgery driver search window edge (um), from Table 2.
SURGERY_WINDOW_UM = 50.0


class MoveType(enum.Enum):
    """Table-2 move classes."""

    SIZING_DISPLACE = "I"
    CHILD_SIZING = "II"
    SURGERY = "III"


@dataclass(frozen=True)
class Move:
    """One candidate local move on ``buffer``."""

    type: MoveType
    buffer: int
    dx: float = 0.0
    dy: float = 0.0
    size_step: int = 0
    child: Optional[int] = None
    child_size_step: int = 0
    new_parent: Optional[int] = None

    def describe(self) -> str:
        if self.type is MoveType.SURGERY:
            return f"III: reassign {self.buffer} -> driver {self.new_parent}"
        if self.type is MoveType.CHILD_SIZING:
            return (
                f"II: move {self.buffer} by ({self.dx:+.0f},{self.dy:+.0f}), "
                f"size child {self.child} {self.child_size_step:+d}"
            )
        return (
            f"I: move {self.buffer} by ({self.dx:+.0f},{self.dy:+.0f}), "
            f"size {self.size_step:+d}"
        )




def _pick_child_buffer(tree: ClockTree, buffer: int) -> Optional[int]:
    """The child buffer with the largest subtree (deterministic tiebreak)."""
    candidates = [
        c for c in tree.children(buffer) if tree.node(c).is_buffer
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda c: (len(tree.subtree_sinks(c)), -c))


class SurgeryIndex:
    """Grid-bucket spatial index over a tree's buffer locations.

    Buckets every buffer into square cells of ``cell_um`` (the surgery
    window edge), so a window query inspects at most the 3x3 cell block
    around the window instead of every buffer — the O(buffers²) scan of
    per-buffer surgery enumeration becomes O(buffers x window-occupancy).
    The index is a pure *superset* filter: callers still apply the exact
    window/level/subtree predicates to every returned id, so results are
    identical to the full scan (candidate order is normalized by the
    final sort either way).

    Build once per enumeration pass; the index does not track tree
    mutations.
    """

    def __init__(self, tree: ClockTree, cell_um: float = SURGERY_WINDOW_UM) -> None:
        if cell_um <= 0.0:
            raise ValueError("cell size must be positive")
        self._cell = cell_um
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for nid in tree.buffers():
            loc = tree.node(nid).location
            key = (
                math.floor(loc.x / cell_um),
                math.floor(loc.y / cell_um),
            )
            buckets.setdefault(key, []).append(nid)
        self._buckets = buckets

    def near(self, center: Point, half_um: float) -> Iterable[int]:
        """Buffer ids from every cell overlapping the window (superset)."""
        cell = self._cell
        x0 = math.floor((center.x - half_um) / cell)
        x1 = math.floor((center.x + half_um) / cell)
        y0 = math.floor((center.y - half_um) / cell)
        y1 = math.floor((center.y + half_um) / cell)
        buckets = self._buckets
        for gx in range(x0, x1 + 1):
            for gy in range(y0, y1 + 1):
                bucket = buckets.get((gx, gy))
                if bucket:
                    yield from bucket


def surgery_candidates(
    tree: ClockTree,
    buffer: int,
    window_um: float = SURGERY_WINDOW_UM,
    index: Optional[SurgeryIndex] = None,
) -> List[int]:
    """Alternative same-level drivers for ``buffer`` within the window.

    With ``index`` (a :class:`SurgeryIndex` built on the same tree
    state), only buffers from the window's grid cells are screened; the
    result is identical to the full scan.
    """
    parent = tree.parent(buffer)
    if parent is None:
        return []
    level = tree.buffer_level(parent)
    center = tree.node(parent).location
    half = window_um / 2.0
    subtree = set(tree.subtree_ids(buffer))
    candidates: Iterable[int] = (
        index.near(center, half) if index is not None else tree.buffers()
    )
    out: List[int] = []
    for nid in candidates:
        if nid == parent or nid in subtree:
            continue
        loc = tree.node(nid).location
        if abs(loc.x - center.x) > half or abs(loc.y - center.y) > half:
            continue
        if tree.buffer_level(nid) != level:
            continue
        out.append(nid)
    return sorted(out)


def enumerate_moves(
    tree: ClockTree,
    library: Library,
    buffers: Optional[Sequence[int]] = None,
    displace_um: float = DISPLACE_UM,
    surgery_window_um: float = SURGERY_WINDOW_UM,
) -> List[Move]:
    """All Table-2 candidate moves for ``buffers`` (default: every buffer)."""
    moves: List[Move] = []
    targets = sorted(buffers) if buffers is not None else sorted(tree.buffers())
    surgery_index = SurgeryIndex(tree, cell_um=surgery_window_um)
    # The steps that change a size (are not clamped at a library end),
    # asked once per size, and the displacements, once per call.
    steps_of: Dict[int, Tuple[int, ...]] = {}

    def sizeable_steps(size: int) -> Tuple[int, ...]:
        steps = steps_of.get(size)
        if steps is None:
            steps = steps_of[size] = tuple(
                step for step in (+1, -1) if library.step_size(size, step) != size
            )
        return steps

    offsets = [compass_offset(direction, displace_um) for direction, _ in COMPASS_DIRECTIONS]
    for nid in targets:
        node = tree.node(nid)
        if not node.is_buffer:
            continue
        child = _pick_child_buffer(tree, nid)
        own_steps = sizeable_steps(node.size)
        child_steps = sizeable_steps(tree.node(child).size) if child is not None else ()
        for dx, dy in offsets:
            for step in (+1, -1):
                if step in own_steps:
                    moves.append(
                        Move(
                            type=MoveType.SIZING_DISPLACE,
                            buffer=nid,
                            dx=dx,
                            dy=dy,
                            size_step=step,
                        )
                    )
                if step in child_steps:
                    moves.append(
                        Move(
                            type=MoveType.CHILD_SIZING,
                            buffer=nid,
                            dx=dx,
                            dy=dy,
                            child=child,
                            child_size_step=step,
                        )
                    )
        for new_parent in surgery_candidates(
            tree, nid, surgery_window_um, index=surgery_index
        ):
            moves.append(
                Move(type=MoveType.SURGERY, buffer=nid, new_parent=new_parent)
            )
    return moves


def apply_move(
    tree: ClockTree, legalizer: Legalizer, library: Library, move: Move
) -> None:
    """Apply ``move`` to ``tree`` in place (clone first for trials)."""
    if move.type is MoveType.SURGERY:
        apply_tree_surgery(tree, move.buffer, move.new_parent)
        return
    apply_displacement(tree, legalizer, move.buffer, move.dx, move.dy)
    if move.type is MoveType.SIZING_DISPLACE and move.size_step:
        new_size = library.step_size(tree.node(move.buffer).size, move.size_step)
        apply_sizing(tree, move.buffer, new_size)
    elif move.type is MoveType.CHILD_SIZING and move.child is not None:
        new_size = library.step_size(
            tree.node(move.child).size, move.child_size_step
        )
        apply_sizing(tree, move.child, new_size)


@dataclass(frozen=True)
class MoveUndo:
    """Inverse of one applied move, plus its dirty timing frontier.

    ``dirty`` names the drivers whose net *geometry or cell bindings*
    changed: the incremental timer re-propagates outward from exactly
    this set (slew-driven cascades follow automatically).  The restore
    fields capture pre-move state verbatim, so :func:`undo_move` puts
    every float back bit-exactly — which is what lets the incremental
    timer keep its attached state across a preview round-trip.
    """

    move: Move
    dirty: FrozenSet[int]
    restore_location: Optional[Tuple[int, Point]] = None
    restore_vias: Tuple[Tuple[int, Tuple[Point, ...]], ...] = ()
    restore_sizes: Tuple[Tuple[int, int], ...] = ()
    restore_parent: Optional[Tuple[int, int, int, Tuple[Point, ...]]] = None


def apply_move_undoable(
    tree: ClockTree, legalizer: Legalizer, library: Library, move: Move
) -> MoveUndo:
    """Apply ``move`` in place and return the exact inverse.

    Unlike the clone-per-trial pattern, this enables O(move-cone) trial
    evaluation: apply, let the incremental timer re-time the dirty
    frontier, then :func:`undo_move`.
    """
    buffer = move.buffer
    if move.type is MoveType.SURGERY:
        old_parent = tree.parent(buffer)
        old_index = tree.children(old_parent).index(buffer)
        old_via = tree.node(buffer).via
        apply_tree_surgery(tree, buffer, move.new_parent)
        return MoveUndo(
            move=move,
            dirty=frozenset((old_parent, move.new_parent)),
            restore_parent=(buffer, old_parent, old_index, old_via),
        )

    node = tree.node(buffer)
    parent = tree.parent(buffer)
    old_location = node.location
    vias = [(buffer, node.via)]
    vias += [(child, tree.node(child).via) for child in tree.children(buffer)]
    sizes: List[Tuple[int, int]] = []
    dirty = {parent, buffer}

    apply_displacement(tree, legalizer, buffer, move.dx, move.dy)
    if move.type is MoveType.SIZING_DISPLACE and move.size_step:
        sizes.append((buffer, node.size))
        apply_sizing(tree, buffer, library.step_size(node.size, move.size_step))
    elif move.type is MoveType.CHILD_SIZING and move.child is not None:
        child_node = tree.node(move.child)
        sizes.append((move.child, child_node.size))
        apply_sizing(
            tree,
            move.child,
            library.step_size(child_node.size, move.child_size_step),
        )
        dirty.add(move.child)
    return MoveUndo(
        move=move,
        dirty=frozenset(dirty),
        restore_location=(buffer, old_location),
        restore_vias=tuple(vias),
        restore_sizes=tuple(sizes),
    )


def undo_move(tree: ClockTree, undo: MoveUndo) -> None:
    """Revert an :func:`apply_move_undoable` application bit-exactly."""
    if undo.restore_parent is not None:
        nid, old_parent, index, via = undo.restore_parent
        tree.reassign_parent(nid, old_parent, index=index)
        tree.set_edge_via(nid, via)
        return
    for nid, size in undo.restore_sizes:
        tree.resize_buffer(nid, size)
    if undo.restore_location is not None:
        nid, location = undo.restore_location
        tree.move_node(nid, location)
    for child, via in undo.restore_vias:
        tree.set_edge_via(child, via)
