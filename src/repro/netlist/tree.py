"""The clock tree netlist.

A :class:`ClockTree` is a rooted tree of placed nodes:

* one **source** (the clock root driver),
* **buffer** nodes — each models one *inverter pair* of a given drive size
  (the paper constructs clock trees from inverter pairs; a pair is
  non-inverting, so tree polarity is uniform),
* **sink** nodes — flip-flop clock pins (leaves).

Every edge ``parent -> child`` is an independently routed two-pin
connection; its geometry is the Manhattan polyline through optional ``via``
points stored on the child (used for U-shape detours).  Multi-fanout
drivers therefore present a star-topology RC load; see DESIGN.md for why
this substitution is behaviour-preserving.

The class exposes exactly the mutation set the paper's optimizers need:
move, resize, reassign driver (tree surgery), insert/remove buffers, and
edge detour assignment — each with validation.
"""

from __future__ import annotations

import copy
import enum
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.geometry import Point, path_length


class NodeKind(enum.Enum):
    """Role of a node in the clock tree."""

    SOURCE = "source"
    BUFFER = "buffer"
    SINK = "sink"


@dataclass
class ClockNode:
    """One placed clock-tree node.

    ``size`` is the inverter-pair drive strength for buffers and ``None``
    otherwise.  ``via`` holds the intermediate routing points of the edge
    from this node's parent to this node (empty = direct L-route, whose
    length equals the Manhattan distance).
    """

    id: int
    kind: NodeKind
    location: Point
    size: Optional[int] = None
    via: Tuple[Point, ...] = ()

    @property
    def is_buffer(self) -> bool:
        return self.kind is NodeKind.BUFFER

    @property
    def is_sink(self) -> bool:
        return self.kind is NodeKind.SINK

    @property
    def is_source(self) -> bool:
        return self.kind is NodeKind.SOURCE


class ClockTree:
    """Mutable clock-tree container with integrity checking."""

    def __init__(self) -> None:
        self._nodes: Dict[int, ClockNode] = {}
        self._parent: Dict[int, Optional[int]] = {}
        self._children: Dict[int, List[int]] = {}
        self._root: Optional[int] = None
        self._next_id = 0
        self._revision = 0
        self._structure_revision = 0
        self._subtree_cache: Dict[int, List[int]] = {}
        self._subtree_sink_cache: Dict[int, List[int]] = {}

    @property
    def next_id(self) -> int:
        """The id the next allocated node will receive.

        Part of the replication contract: after buffer removals the id
        space has holes, so a replica rebuilt from serialized state must
        restore this counter (not re-derive ``max(id) + 1``) for its
        future allocations to match the original tree's.
        """
        return self._next_id

    @property
    def revision(self) -> int:
        """Monotone mutation counter.

        Bumped by every mutating operation, so incremental consumers (the
        incremental timer's attached state) can cheaply detect that a tree
        changed behind their back and fall back to a full re-analysis.
        """
        return self._revision

    @property
    def structure_revision(self) -> int:
        """Monotone counter of *connectivity* mutations only.

        Displacements, resizes and via edits bump :attr:`revision` but not
        this counter; adding/removing nodes and tree surgery bump both.
        Consumers whose caches depend only on parent/child structure
        (subtree membership, sink counts) key on this value.
        """
        return self._structure_revision

    def _touch(self) -> None:
        self._revision += 1

    def _touch_structure(self) -> None:
        self._revision += 1
        self._structure_revision += 1
        self._subtree_cache.clear()
        self._subtree_sink_cache.clear()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _allocate(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def add_source(self, location: Point) -> int:
        """Create the clock source; must be called exactly once, first."""
        if self._root is not None:
            raise ValueError("tree already has a source")
        nid = self._allocate()
        self._nodes[nid] = ClockNode(nid, NodeKind.SOURCE, location)
        self._parent[nid] = None
        self._children[nid] = []
        self._root = nid
        self._touch_structure()
        return nid

    def add_buffer(self, parent: int, location: Point, size: int) -> int:
        """Add an inverter-pair buffer of drive ``size`` below ``parent``."""
        self._require(parent)
        if self._nodes[parent].is_sink:
            raise ValueError("cannot drive from a sink")
        nid = self._allocate()
        self._nodes[nid] = ClockNode(nid, NodeKind.BUFFER, location, size=size)
        self._parent[nid] = parent
        self._children[nid] = []
        self._children[parent].append(nid)
        self._touch_structure()
        return nid

    def add_sink(self, parent: int, location: Point) -> int:
        """Add a flip-flop sink below ``parent``."""
        self._require(parent)
        if self._nodes[parent].is_sink:
            raise ValueError("cannot drive from a sink")
        nid = self._allocate()
        self._nodes[nid] = ClockNode(nid, NodeKind.SINK, location)
        self._parent[nid] = parent
        self._children[nid] = []
        self._children[parent].append(nid)
        self._touch_structure()
        return nid

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def root(self) -> int:
        if self._root is None:
            raise ValueError("tree has no source")
        return self._root

    def _require(self, nid: int) -> None:
        if nid not in self._nodes:
            raise KeyError(f"no node {nid}")

    def node(self, nid: int) -> ClockNode:
        self._require(nid)
        return self._nodes[nid]

    def parent(self, nid: int) -> Optional[int]:
        self._require(nid)
        return self._parent[nid]

    def children(self, nid: int) -> Tuple[int, ...]:
        self._require(nid)
        return tuple(self._children[nid])

    def __contains__(self, nid: int) -> bool:
        return nid in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Iterator[ClockNode]:
        return iter(list(self._nodes.values()))

    def node_ids(self) -> List[int]:
        return list(self._nodes)

    def sinks(self) -> List[int]:
        return [n.id for n in self._nodes.values() if n.is_sink]

    def buffers(self) -> List[int]:
        return [n.id for n in self._nodes.values() if n.is_buffer]

    def drivers(self) -> List[int]:
        """Nodes that drive a net: the source plus every buffer with fanout."""
        return [
            n.id
            for n in self._nodes.values()
            if not n.is_sink and self._children[n.id]
        ]

    def path_to_root(self, nid: int) -> List[int]:
        """Node ids from ``nid`` up to and including the root."""
        self._require(nid)
        path = [nid]
        cur = self._parent[nid]
        while cur is not None:
            path.append(cur)
            cur = self._parent[cur]
        return path

    def buffer_level(self, nid: int) -> int:
        """Number of buffers on the path from the root to ``nid`` (inclusive)."""
        return sum(1 for n in self.path_to_root(nid) if self._nodes[n].is_buffer)

    def subtree_ids(self, nid: int) -> List[int]:
        """All node ids in the subtree rooted at ``nid`` (pre-order).

        Memoized until the next connectivity mutation (see
        :attr:`structure_revision`); treat the returned list as read-only.
        """
        cached = self._subtree_cache.get(nid)
        if cached is not None:
            return cached
        self._require(nid)
        out: List[int] = []
        stack = [nid]
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(reversed(self._children[cur]))
        self._subtree_cache[nid] = out
        return out

    def subtree_sinks(self, nid: int) -> List[int]:
        """Sink ids within the subtree rooted at ``nid`` (memoized; read-only)."""
        cached = self._subtree_sink_cache.get(nid)
        if cached is not None:
            return cached
        out = [i for i in self.subtree_ids(nid) if self._nodes[i].is_sink]
        self._subtree_sink_cache[nid] = out
        return out

    def topological_order(self) -> List[int]:
        """Root-first order (BFS)."""
        order: List[int] = []
        queue = deque((self.root,))
        while queue:
            nid = queue.popleft()
            order.append(nid)
            queue.extend(self._children[nid])
        return order

    def bfs_structure(self) -> Tuple[List[int], List[Tuple[int, ...]]]:
        """BFS order plus each node's children, in one pass.

        Equivalent to pairing :meth:`topological_order` with a
        :meth:`children` call per node, minus the per-call validation —
        the bulk structure accessor the batched timing kernel's CSR
        compiler consumes.  BFS order is sorted by depth, which is what
        makes the kernel's per-level node and edge ranges contiguous.
        """
        order: List[int] = []
        fanouts: List[Tuple[int, ...]] = []
        queue = deque((self.root,))
        children = self._children
        while queue:
            nid = queue.popleft()
            kids = children[nid]
            order.append(nid)
            fanouts.append(tuple(kids))
            queue.extend(kids)
        return order, fanouts

    def depth(self, nid: int) -> int:
        """Number of edges from the root to ``nid``."""
        self._require(nid)
        depth = 0
        cur = self._parent[nid]
        while cur is not None:
            depth += 1
            cur = self._parent[cur]
        return depth

    # ------------------------------------------------------------------
    # Edge geometry
    # ------------------------------------------------------------------
    def edge_polyline(self, child: int) -> List[Point]:
        """Routing polyline of the edge into ``child`` (parent -> child)."""
        parent = self._parent[child]
        if parent is None:
            raise ValueError("the root has no incoming edge")
        node = self._nodes[child]
        return [self._nodes[parent].location, *node.via, node.location]

    def edge_length(self, child: int) -> float:
        """Routed Manhattan length (um) of the edge into ``child``."""
        return path_length(self.edge_polyline(child))

    def set_edge_via(self, child: int, via: Sequence[Point]) -> None:
        """Replace the routing via points of the edge into ``child``."""
        if self._parent[child] is None:
            raise ValueError("the root has no incoming edge")
        self._nodes[child].via = tuple(via)
        self._touch()

    def clear_edge_via(self, child: int) -> None:
        """Restore a direct route for the edge into ``child``."""
        self.set_edge_via(child, ())

    def total_wirelength(self) -> float:
        """Sum of routed edge lengths (um)."""
        return sum(
            self.edge_length(nid)
            for nid in self._nodes
            if self._parent[nid] is not None
        )

    # ------------------------------------------------------------------
    # Mutations used by the optimizers
    # ------------------------------------------------------------------
    def move_node(self, nid: int, location: Point) -> None:
        """Displace a buffer (sinks and the source are fixed by placement)."""
        node = self.node(nid)
        if not node.is_buffer:
            raise ValueError("only buffers may be displaced")
        node.location = location
        self._touch()

    def resize_buffer(self, nid: int, size: int) -> None:
        """Change a buffer's inverter-pair drive size."""
        node = self.node(nid)
        if not node.is_buffer:
            raise ValueError(f"node {nid} is not a buffer")
        node.size = size
        self._touch()

    def reassign_parent(
        self, nid: int, new_parent: int, index: Optional[int] = None
    ) -> None:
        """Tree surgery: detach ``nid`` from its driver and attach elsewhere.

        Rejects reassignments that would create a cycle (new parent inside
        the moved subtree) or drive from a sink.  ``index`` positions the
        node inside the new parent's fanout list (default: append); undo
        paths use it to restore the original child ordering exactly.
        """
        self._require(nid)
        self._require(new_parent)
        if self._parent[nid] is None:
            raise ValueError("cannot reassign the source")
        if self._nodes[new_parent].is_sink:
            raise ValueError("cannot drive from a sink")
        if new_parent in self.subtree_ids(nid):
            raise ValueError("reassignment would create a cycle")
        old_parent = self._parent[nid]
        if old_parent == new_parent:
            return
        self._children[old_parent].remove(nid)
        if index is None:
            self._children[new_parent].append(nid)
        else:
            self._children[new_parent].insert(index, nid)
        self._parent[nid] = new_parent
        self._nodes[nid].via = ()
        self._touch_structure()

    def insert_buffer_on_edge(self, child: int, location: Point, size: int) -> int:
        """Insert a buffer between ``child`` and its current parent.

        The new buffer takes over ``child``'s incoming edge; both resulting
        edges start as direct routes.
        """
        parent = self._parent[child]
        if parent is None:
            raise ValueError("the root has no incoming edge")
        nid = self._allocate()
        self._nodes[nid] = ClockNode(nid, NodeKind.BUFFER, location, size=size)
        self._children[nid] = [child]
        self._parent[nid] = parent
        idx = self._children[parent].index(child)
        self._children[parent][idx] = nid
        self._parent[child] = nid
        self._nodes[child].via = ()
        self._touch_structure()
        return nid

    def remove_buffer(self, nid: int) -> None:
        """Splice a buffer out; its children are adopted by its parent."""
        node = self.node(nid)
        if not node.is_buffer:
            raise ValueError(f"node {nid} is not a buffer")
        parent = self._parent[nid]
        idx = self._children[parent].index(nid)
        kids = self._children[nid]
        self._children[parent][idx : idx + 1] = kids
        for kid in kids:
            self._parent[kid] = parent
            self._nodes[kid].via = ()
        del self._children[nid]
        del self._parent[nid]
        del self._nodes[nid]
        self._touch_structure()

    @staticmethod
    def restore(
        entries: Sequence[Tuple[int, NodeKind, Point, Optional[int], Tuple[Point, ...], Optional[int]]],
        next_id: Optional[int] = None,
    ) -> "ClockTree":
        """Rebuild a tree from ``(id, kind, location, size, via, parent)`` rows.

        Rows must be topologically ordered (source first, parents before
        children) and ids may be arbitrary non-negative integers — they
        are preserved exactly, which is what serialization needs.  Pass
        ``next_id`` to restore the allocation counter as well (it may
        exceed ``max(id) + 1`` when nodes were removed); without it the
        counter is re-derived from the ids present.  The result is
        validated before being returned.
        """
        tree = ClockTree()
        for nid, kind, location, size, via, parent in entries:
            if nid in tree._nodes:
                raise ValueError(f"duplicate node id {nid}")
            if kind is NodeKind.SOURCE:
                if tree._root is not None:
                    raise ValueError("multiple sources in restore data")
                tree._root = nid
                tree._parent[nid] = None
            else:
                if parent not in tree._nodes:
                    raise ValueError(
                        f"node {nid} appears before its parent {parent}"
                    )
                tree._parent[nid] = parent
                tree._children[parent].append(nid)
            tree._nodes[nid] = ClockNode(
                nid, kind, location, size=size, via=tuple(via)
            )
            tree._children[nid] = []
            tree._next_id = max(tree._next_id, nid + 1)
        if next_id is not None:
            if next_id < tree._next_id:
                raise ValueError(
                    f"next_id {next_id} collides with existing node ids"
                )
            tree._next_id = next_id
        tree.validate()
        return tree

    def set_enumeration_order(self, order: Sequence[int]) -> None:
        """Reorder internal node enumeration to ``order``.

        :meth:`nodes`, :meth:`node_ids`, :meth:`sinks`, :meth:`buffers`
        and :meth:`drivers` yield nodes in insertion order, which float
        summations over nodes (e.g. wirelength) and tiebreaks inherit.
        Deserialization stores nodes in topological order, so replicas
        call this to restore the original enumeration exactly.
        """
        if sorted(order) != sorted(self._nodes):
            raise ValueError("order is not a permutation of the node ids")
        self._nodes = {nid: self._nodes[nid] for nid in order}

    def clone(self) -> "ClockTree":
        """Deep copy preserving node ids (for trial moves)."""
        other = ClockTree.__new__(ClockTree)
        other._nodes = {nid: copy.copy(n) for nid, n in self._nodes.items()}
        other._parent = dict(self._parent)
        other._children = {nid: list(kids) for nid, kids in self._children.items()}
        other._root = self._root
        other._next_id = self._next_id
        other._revision = self._revision
        other._structure_revision = self._structure_revision
        other._subtree_cache = {}
        other._subtree_sink_cache = {}
        return other

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` on any structural inconsistency."""
        if self._root is None:
            raise ValueError("tree has no source")
        seen = set()
        stack = [self._root]
        while stack:
            nid = stack.pop()
            if nid in seen:
                raise ValueError(f"cycle through node {nid}")
            seen.add(nid)
            for kid in self._children[nid]:
                if self._parent[kid] != nid:
                    raise ValueError(f"parent pointer mismatch at {kid}")
                stack.append(kid)
        if len(seen) != len(self._nodes):
            raise ValueError(
                f"{len(self._nodes) - len(seen)} node(s) unreachable from the source"
            )
        for node in self._nodes.values():
            if node.is_sink and self._children[node.id]:
                raise ValueError(f"sink {node.id} has fanout")
            if node.is_buffer and node.size is None:
                raise ValueError(f"buffer {node.id} has no size")
