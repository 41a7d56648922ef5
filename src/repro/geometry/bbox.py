"""Axis-aligned minimum bounding rectangles (MBRs).

R-tree nodes, route segments and transition endpoints are all summarised by
:class:`BoundingBox` instances.  The class offers the distance predicates used
by the best-first traversals (``min_dist``) and the containment tests used by
the half-plane pruning machinery (corner enumeration).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence, Tuple


class BoundingBox:
    """An axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``.

    The box is closed (its boundary belongs to the box).  Degenerate boxes
    (single points) are valid and common — every leaf entry of the R-tree is a
    degenerate box.
    """

    __slots__ = ("min_x", "min_y", "max_x", "max_y")

    def __init__(self, min_x: float, min_y: float, max_x: float, max_y: float):
        if min_x > max_x or min_y > max_y:
            raise ValueError(
                f"invalid bounding box: ({min_x}, {min_y}, {max_x}, {max_y})"
            )
        self.min_x = float(min_x)
        self.min_y = float(min_y)
        self.max_x = float(max_x)
        self.max_y = float(max_y)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_point(cls, point: Sequence[float]) -> "BoundingBox":
        """Degenerate box covering a single point."""
        return cls(point[0], point[1], point[0], point[1])

    @classmethod
    def from_points(cls, points: Iterable[Sequence[float]]) -> "BoundingBox":
        """Smallest box covering every point in ``points``.

        Raises
        ------
        ValueError
            If ``points`` is empty.
        """
        min_x = math.inf
        min_y = math.inf
        max_x = -math.inf
        max_y = -math.inf
        for p in points:
            x, y = p[0], p[1]
            if x < min_x:
                min_x = x
            if x > max_x:
                max_x = x
            if y < min_y:
                min_y = y
            if y > max_y:
                max_y = y
        if min_x is math.inf:
            raise ValueError("BoundingBox.from_points() requires at least one point")
        return cls(min_x, min_y, max_x, max_y)

    @classmethod
    def union_all(cls, boxes: Iterable["BoundingBox"]) -> "BoundingBox":
        """Smallest box covering every box in ``boxes``."""
        min_x = math.inf
        min_y = math.inf
        max_x = -math.inf
        max_y = -math.inf
        for b in boxes:
            if b.min_x < min_x:
                min_x = b.min_x
            if b.min_y < min_y:
                min_y = b.min_y
            if b.max_x > max_x:
                max_x = b.max_x
            if b.max_y > max_y:
                max_y = b.max_y
        if min_x is math.inf:
            raise ValueError("BoundingBox.union_all() requires at least one box")
        return cls(min_x, min_y, max_x, max_y)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def perimeter(self) -> float:
        return 2.0 * (self.width + self.height)

    @property
    def center(self) -> Tuple[float, float]:
        return ((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def corners(self) -> Iterator[Tuple[float, float]]:
        """Yield the four corners of the box (degenerate corners repeat)."""
        yield (self.min_x, self.min_y)
        yield (self.min_x, self.max_y)
        yield (self.max_x, self.min_y)
        yield (self.max_x, self.max_y)

    def is_point(self) -> bool:
        """True when the box degenerates to a single point."""
        return self.min_x == self.max_x and self.min_y == self.max_y

    # ------------------------------------------------------------------
    # Set operations and predicates
    # ------------------------------------------------------------------
    def union(self, other: "BoundingBox") -> "BoundingBox":
        """Smallest box covering both boxes."""
        return BoundingBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def enlargement(self, other: "BoundingBox") -> float:
        """Area increase needed to cover ``other`` (R-tree insertion metric)."""
        return self.union(other).area - self.area

    def contains_point(self, point: Sequence[float]) -> bool:
        """True when ``point`` lies inside (or on the boundary of) the box."""
        return (
            self.min_x <= point[0] <= self.max_x
            and self.min_y <= point[1] <= self.max_y
        )

    def contains_box(self, other: "BoundingBox") -> bool:
        """True when ``other`` lies entirely inside this box."""
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def min_dist(self, point: Sequence[float]) -> float:
        """Minimum Euclidean distance from ``point`` to this box.

        Zero when the point lies inside the box.  This is the classical
        ``MinDist`` lower bound used for best-first R-tree traversal.
        """
        dx = 0.0
        dy = 0.0
        x, y = point[0], point[1]
        if x < self.min_x:
            dx = self.min_x - x
        elif x > self.max_x:
            dx = x - self.max_x
        if y < self.min_y:
            dy = self.min_y - y
        elif y > self.max_y:
            dy = y - self.max_y
        return math.hypot(dx, dy)

    def min_dist_sq(self, point: Sequence[float]) -> float:
        """Squared ``MinDist``; avoids the sqrt when only comparing.

        Squared distances are exact elementary-float expressions, so the
        scalar and vectorized execution backends compute bitwise-identical
        values and make identical pruning/verification decisions.
        """
        dx = 0.0
        dy = 0.0
        x, y = point[0], point[1]
        if x < self.min_x:
            dx = self.min_x - x
        elif x > self.max_x:
            dx = x - self.max_x
        if y < self.min_y:
            dy = self.min_y - y
        elif y > self.max_y:
            dy = y - self.max_y
        return dx * dx + dy * dy

    def max_dist(self, point: Sequence[float]) -> float:
        """Maximum Euclidean distance from ``point`` to this box."""
        x, y = point[0], point[1]
        dx = max(abs(x - self.min_x), abs(x - self.max_x))
        dy = max(abs(y - self.min_y), abs(y - self.max_y))
        return math.hypot(dx, dy)

    def max_dist_sq(self, point: Sequence[float]) -> float:
        """Squared maximum distance from ``point`` to this box."""
        x, y = point[0], point[1]
        dx = max(abs(x - self.min_x), abs(x - self.max_x))
        dy = max(abs(y - self.min_y), abs(y - self.max_y))
        return dx * dx + dy * dy

    def min_dist_to_query(self, query_points: Iterable[Sequence[float]]) -> float:
        """``MinDist(Q, c)`` of Equation 3: minimum over all query points."""
        best = math.inf
        for q in query_points:
            d = self.min_dist(q)
            if d < best:
                best = d
        return best

    def min_dist_sq_to_query(
        self, query_points: Iterable[Sequence[float]]
    ) -> float:
        """Squared ``MinDist(Q, c)``: minimum squared distance over the query."""
        best = math.inf
        for q in query_points:
            d = self.min_dist_sq(q)
            if d < best:
                best = d
        return best

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.min_x, self.min_y, self.max_x, self.max_y)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoundingBox):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return (
            f"BoundingBox({self.min_x!r}, {self.min_y!r}, "
            f"{self.max_x!r}, {self.max_y!r})"
        )
