"""D2M two-moment delay metric (Alpert, Devgan, Kashyap — ISPD 2000).

D2M estimates the 50% delay of an RC tree node from the first two moments
of its impulse response:

    D2M = ln(2) * m1^2 / sqrt(m2)

where ``m1`` is the Elmore delay and ``m2`` the (positive-signed) second
moment.  D2M is typically much closer to SPICE than Elmore for far sinks
and never exceeds the Elmore bound on RC trees.  The moments are computed
with the standard linear-time recursion:

    m1_i = sum_k R_common(i, k) * C_k
    m2_i = sum_k R_common(i, k) * C_k * m1_k

Per-edge D2M values are slew-independent, so the array kernel
(:mod:`repro.sta.kernel`) evaluates them once at tree-compile time, all
edges and corners of a compile in one
:func:`repro.route.rc_net.straight_wire_moments` pass; that pass
reproduces these recursions' float
operations in order, which keeps the kernel's wire delays bit-identical
to this implementation (``tests/test_rc_net.py``, ``tests/test_kernel.py``).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Tuple

from repro.rc import RCTree

LN2 = math.log(2.0)


def response_moments(
    tree: RCTree,
) -> Tuple[Dict[Hashable, float], Dict[Hashable, float]]:
    """First and second impulse-response moments (|m1|, |m2|) per node.

    Both are returned positive (the true signed moments alternate sign; the
    D2M formula uses magnitudes).
    """
    down_c: Dict[Hashable, float] = {}
    m1: Dict[Hashable, float] = {}

    caps = {name: tree.node(name).cap_ff for name in tree.nodes_topological()}
    down_c = tree.downstream_caps()

    for name in tree.nodes_topological():
        node = tree.node(name)
        if node.parent is None:
            m1[name] = 0.0
        else:
            m1[name] = m1[node.parent] + node.res_kohm * down_c[name]

    # Downstream first-moment-weighted capacitance: sum_{k in subtree} C_k m1_k.
    down_cm: Dict[Hashable, float] = {
        name: caps[name] * m1[name] for name in tree.nodes_topological()
    }
    for name in tree.nodes_reverse_topological():
        parent = tree.node(name).parent
        if parent is not None:
            down_cm[parent] += down_cm[name]

    m2: Dict[Hashable, float] = {}
    for name in tree.nodes_topological():
        node = tree.node(name)
        if node.parent is None:
            m2[name] = 0.0
        else:
            m2[name] = m2[node.parent] + node.res_kohm * down_cm[name]
    return m1, m2


def d2m_delays(tree: RCTree) -> Dict[Hashable, float]:
    """D2M delay (ps) from root to every node.

    Nodes with a vanishing second moment (e.g. the root itself) get zero
    delay.  The result is clamped to never exceed Elmore (numerically D2M
    stays below it on trees, but the clamp guards float corner cases).
    """
    m1, m2 = response_moments(tree)
    delays: Dict[Hashable, float] = {}
    for name, first in m1.items():
        second = m2[name]
        if second <= 0.0 or first <= 0.0:
            delays[name] = 0.0
        else:
            delays[name] = min(LN2 * first * first / math.sqrt(second), first)
    return delays

