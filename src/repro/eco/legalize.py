"""Grid-based placement legalization.

Buffers must land on legal sites: a uniform site grid inside the
floorplan region, minus sites already occupied by other clock cells (a
simplified stand-in for standard-cell row legalization at ~60% placement
utilization).  Legalization returns the nearest free site in Manhattan
distance, searched in expanding diamond rings — deterministic, so golden
results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set, Tuple

import numpy as np

from repro.geometry import BBox, Point
from repro.netlist.tree import ClockTree


@dataclass(frozen=True)
class Legalizer:
    """Snap-to-site legalizer for one floorplan region.

    ``pitch_um`` is the site pitch in both axes.  The legalizer is
    stateless with respect to the tree: occupancy is derived from the tree
    passed to :meth:`legalize`, so cloned trial trees legalize consistently
    without bookkeeping.
    """

    region: BBox
    pitch_um: float = 5.0
    max_rings: int = 60

    def snap(self, point: Point) -> Point:
        """Nearest site to ``point`` ignoring occupancy (still in-region)."""
        clamped = self.region.clamp(point)
        x = round((clamped.x - self.region.xlo) / self.pitch_um) * self.pitch_um
        y = round((clamped.y - self.region.ylo) / self.pitch_um) * self.pitch_um
        return self.region.clamp(Point(self.region.xlo + x, self.region.ylo + y))

    def _site_key(self, point: Point) -> Tuple[int, int]:
        return (
            int(round((point.x - self.region.xlo) / self.pitch_um)),
            int(round((point.y - self.region.ylo) / self.pitch_um)),
        )

    def legalize(
        self, tree: ClockTree, nid: int, desired: Point
    ) -> Point:
        """Nearest free site to ``desired`` for node ``nid``.

        Every other node's site key comes from one array pass over the
        tree's locations (``np.rint`` rounds half to even, as ``round``
        does).  The snapped target is returned when no other node holds
        its site; otherwise expanding diamond rings around it are
        searched against the same keys.  Raises ``RuntimeError`` if no
        free site exists within ``max_rings`` rings (which would mean a
        pathologically congested region).
        """
        locations = [node.location for node in tree.nodes() if node.id != nid]
        site_x = np.fromiter((p.x for p in locations), float, len(locations))
        site_y = np.fromiter((p.y for p in locations), float, len(locations))
        site_x -= self.region.xlo
        site_x /= self.pitch_um
        np.rint(site_x, out=site_x)
        site_y -= self.region.ylo
        site_y /= self.pitch_um
        np.rint(site_y, out=site_y)
        base = self.snap(desired)
        bx, by = self._site_key(base)
        if not ((site_x == bx) & (site_y == by)).any():
            return base

        occupied: Set[Tuple[int, int]] = set(
            zip(site_x.astype(np.int64).tolist(), site_y.astype(np.int64).tolist())
        )
        for ring in range(1, self.max_rings + 1):
            candidates = []
            for dx in range(-ring, ring + 1):
                dy_mag = ring - abs(dx)
                for dy in (dy_mag, -dy_mag) if dy_mag else (0,):
                    candidates.append((bx + dx, by + dy))
            # Deterministic order: prefer sites closest to the desired point.
            for cx, cy in sorted(candidates):
                point = Point(
                    self.region.xlo + cx * self.pitch_um,
                    self.region.ylo + cy * self.pitch_um,
                )
                if not self.region.contains(point):
                    continue
                if (cx, cy) not in occupied:
                    return point
        raise RuntimeError(
            f"no free site within {self.max_rings} rings of {desired}"
        )
