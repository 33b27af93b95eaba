"""Elmore (first-moment) delay metric on RC trees.

Elmore delay at node *i* is ``sum_k R(path(root, i) ^ path(root, k)) * C_k``,
computed with the classic two-pass linear-time algorithm: accumulate
downstream capacitance leaves-first, then accumulate delay root-first.
Elmore is a provable upper bound on the 50% step-response delay of an RC
tree, which several tests exploit as an invariant.

Like D2M, per-edge Elmore values are slew-independent compile-time
constants to the array kernel (:mod:`repro.sta.kernel`): a compile
evaluates every edge's straight wire at every corner in one
:func:`repro.route.rc_net.straight_wire_moments` pass, whose
padded cumulative sums add this recursion's terms in its order, so the
kernel's wire delays and the RC-tree values here are the same floats,
not merely close.
"""

from __future__ import annotations

from typing import Dict, Hashable

from repro.rc import RCTree


def elmore_delays(tree: RCTree) -> Dict[Hashable, float]:
    """Elmore delay (ps) from the root to every node of ``tree``."""
    down = tree.downstream_caps()
    delays: Dict[Hashable, float] = {}
    for name in tree.nodes_topological():
        node = tree.node(name)
        if node.parent is None:
            delays[name] = 0.0
        else:
            delays[name] = delays[node.parent] + node.res_kohm * down[name]
    return delays


def elmore_delay_to(tree: RCTree, sink: Hashable) -> float:
    """Elmore delay (ps) from root to one ``sink`` node."""
    return elmore_delays(tree)[sink]
