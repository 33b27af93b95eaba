"""Planar geometry primitives for placement and routing.

All coordinates are in micrometres (um).  Clock routing in this library is
rectilinear, so the Manhattan metric is the distance of record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple


@dataclass(frozen=True, order=True)
class Point:
    """An immutable 2-D point in um."""

    x: float
    y: float

    def manhattan(self, other: "Point") -> float:
        """Manhattan (L1) distance to ``other`` in um."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def euclidean(self, other: "Point") -> float:
        """Euclidean (L2) distance to ``other`` in um."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a new point displaced by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def midpoint(self, other: "Point") -> "Point":
        """Return the midpoint between this point and ``other``."""
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)


#: The eight compass displacement directions used by local moves (Table 2).
COMPASS_DIRECTIONS: Tuple[Tuple[str, Tuple[float, float]], ...] = (
    ("N", (0.0, 1.0)),
    ("S", (0.0, -1.0)),
    ("E", (1.0, 0.0)),
    ("W", (-1.0, 0.0)),
    ("NE", (1.0, 1.0)),
    ("NW", (-1.0, 1.0)),
    ("SE", (1.0, -1.0)),
    ("SW", (-1.0, -1.0)),
)


def compass_offset(direction: str, distance: float) -> Tuple[float, float]:
    """Return the ``(dx, dy)`` offset for a compass ``direction``.

    Diagonal directions move ``distance`` along each axis, matching the
    "displace by 10um" convention of the paper's Table 2 move set.
    """
    for name, (ux, uy) in COMPASS_DIRECTIONS:
        if name == direction:
            return (ux * distance, uy * distance)
    raise ValueError(f"unknown compass direction: {direction!r}")


@dataclass(frozen=True)
class BBox:
    """An axis-aligned bounding box."""

    xlo: float
    ylo: float
    xhi: float
    yhi: float

    def __post_init__(self) -> None:
        if self.xhi < self.xlo or self.yhi < self.ylo:
            raise ValueError(
                f"malformed bbox: ({self.xlo}, {self.ylo}) .. ({self.xhi}, {self.yhi})"
            )

    @property
    def width(self) -> float:
        return self.xhi - self.xlo

    @property
    def height(self) -> float:
        return self.yhi - self.ylo

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.xlo + self.xhi) / 2.0, (self.ylo + self.yhi) / 2.0)

    @property
    def half_perimeter(self) -> float:
        """Half-perimeter wirelength (HPWL) of the box."""
        return self.width + self.height

    @property
    def aspect_ratio(self) -> float:
        """min(w, h) / max(w, h); 1.0 for squares, 0 for degenerate boxes.

        A degenerate box (zero width and height) has aspect ratio 1.0 by
        convention so that single-point nets behave like tiny squares.
        """
        lo = min(self.width, self.height)
        hi = max(self.width, self.height)
        if hi == 0.0:
            return 1.0
        return lo / hi

    def contains(self, point: Point, tol: float = 0.0) -> bool:
        """True if ``point`` lies inside the box (inclusive, with ``tol`` slack)."""
        return (
            self.xlo - tol <= point.x <= self.xhi + tol
            and self.ylo - tol <= point.y <= self.yhi + tol
        )

    def inflated(self, margin: float) -> "BBox":
        """Return a copy grown by ``margin`` on every side."""
        return BBox(
            self.xlo - margin, self.ylo - margin, self.xhi + margin, self.yhi + margin
        )

    def clamp(self, point: Point) -> Point:
        """Return ``point`` clamped into the box."""
        return Point(
            min(max(point.x, self.xlo), self.xhi),
            min(max(point.y, self.ylo), self.yhi),
        )

    @staticmethod
    def of_points(points: Iterable[Point]) -> "BBox":
        """Bounding box of a non-empty point collection."""
        pts = list(points)
        if not pts:
            raise ValueError("cannot bound an empty point set")
        return BBox(
            min(p.x for p in pts),
            min(p.y for p in pts),
            max(p.x for p in pts),
            max(p.y for p in pts),
        )


def hpwl(points: Sequence[Point]) -> float:
    """Half-perimeter wirelength of a point set (0 for <2 points)."""
    if len(points) < 2:
        return 0.0
    return BBox.of_points(points).half_perimeter


def path_length(points: Sequence[Point]) -> float:
    """Total Manhattan length of a polyline through ``points``."""
    return sum(a.manhattan(b) for a, b in zip(points, points[1:]))


def interpolate_along(points: Sequence[Point], fraction: float) -> Point:
    """Return the point a ``fraction`` of the way along a rectilinear polyline.

    ``fraction`` is clamped to [0, 1].  Interpolation is by Manhattan arc
    length; each segment is walked x-first then y (the order does not affect
    the distance walked, only degenerate tie cases).
    """
    if not points:
        raise ValueError("empty polyline")
    if len(points) == 1:
        return points[0]
    fraction = min(max(fraction, 0.0), 1.0)
    total = path_length(points)
    if total == 0.0:
        return points[0]
    target = fraction * total
    walked = 0.0
    for a, b in zip(points, points[1:]):
        seg = a.manhattan(b)
        if walked + seg >= target or (a, b) == (points[-2], points[-1]):
            remain = target - walked
            dx = b.x - a.x
            dy = b.y - a.y
            step_x = min(abs(dx), remain)
            remain_after_x = remain - step_x
            x = a.x + math.copysign(step_x, dx) if dx else a.x
            y = a.y + math.copysign(min(abs(dy), remain_after_x), dy) if dy else a.y
            return Point(x, y)
        walked += seg
    return points[-1]


def uniform_points_between(
    start: Point, end: Point, count: int, via: Sequence[Point] = ()
) -> list:
    """Place ``count`` points uniformly along the polyline start..via..end.

    The returned points exclude the endpoints and are spaced at equal arc
    length, matching the paper's "uniformly place inverter pairs" ECO rule.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    poly = [start, *via, end]
    return [
        interpolate_along(poly, (i + 1) / (count + 1)) for i in range(count)
    ]
