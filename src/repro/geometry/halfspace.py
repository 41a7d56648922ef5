"""Perpendicular-bisector half-plane pruning (Section 4.1.1 of the paper).

Given a query point ``q`` and a filtering route point ``r``, the perpendicular
bisector ``⊥(q, r)`` splits the plane into two half-planes: ``H_{r:q}`` (the
set of points strictly closer to ``r`` than to ``q``) and ``H_{q:r}``.  A
transition point inside ``H_{r:q}`` can never take ``q`` as its nearest
neighbour relative to ``r``.

The *filtering space* of a route point ``r`` with respect to a multi-point
query ``Q`` is the intersection ``H_{r:Q} = ∩_{q∈Q} H_{r:q}`` (Definition 6).
A transition point (or a whole R-tree node) located inside ``H_{r:Q}`` is
closer to ``r`` — and therefore to ``r``'s route — than to *every* point of
the query, so the query cannot be its nearest route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import squared_euclidean


@dataclass(frozen=True)
class HalfPlane:
    """The open half-plane ``{p : a*p.x + b*p.y > c}``.

    Constructed so that it contains the points strictly closer to a
    *filtering* point than to a *query* point (see
    :func:`bisector_halfplane`).
    """

    a: float
    b: float
    c: float

    def contains_point(self, point: Sequence[float]) -> bool:
        """True when ``point`` lies strictly inside the half-plane."""
        return self.a * point[0] + self.b * point[1] > self.c

    def contains_bbox(self, box: BoundingBox) -> bool:
        """True when the whole box lies strictly inside the half-plane.

        Because the half-plane is convex it suffices to check the corner of
        the box that minimises ``a*x + b*y``.
        """
        x = box.min_x if self.a >= 0 else box.max_x
        y = box.min_y if self.b >= 0 else box.max_y
        return self.a * x + self.b * y > self.c


def bisector_halfplane(
    query_point: Sequence[float], filter_point: Sequence[float]
) -> HalfPlane:
    """Half-plane ``H_{r:q}`` of points strictly closer to ``filter_point``.

    ``dist(p, r) < dist(p, q)`` expands to the linear inequality
    ``2(r-q)·p > |r|² - |q|²`` which is what the returned
    :class:`HalfPlane` encodes.

    Parameters
    ----------
    query_point:
        The query point ``q``.
    filter_point:
        The filtering route point ``r``.
    """
    qx, qy = query_point[0], query_point[1]
    rx, ry = filter_point[0], filter_point[1]
    a = 2.0 * (rx - qx)
    b = 2.0 * (ry - qy)
    c = (rx * rx + ry * ry) - (qx * qx + qy * qy)
    return HalfPlane(a, b, c)


def point_closer_to(
    point: Sequence[float],
    filter_point: Sequence[float],
    query_point: Sequence[float],
) -> bool:
    """True when ``point`` is strictly closer to ``filter_point`` than to ``query_point``."""
    return squared_euclidean(point, filter_point) < squared_euclidean(
        point, query_point
    )


def bbox_inside_halfplane(
    box: BoundingBox,
    filter_point: Sequence[float],
    query_point: Sequence[float],
) -> bool:
    """True when every point of ``box`` is strictly closer to ``filter_point``.

    Equivalent to ``box ⊂ H_{r:q}``; used to prune whole R-tree nodes.
    """
    return bisector_halfplane(query_point, filter_point).contains_bbox(box)


def filtering_space_contains_point(
    point: Sequence[float],
    filter_point: Sequence[float],
    query_points: Iterable[Sequence[float]],
) -> bool:
    """True when ``point`` lies inside the filtering space ``H_{r:Q}``.

    That is, ``point`` is strictly closer to ``filter_point`` than to *every*
    query point (Definition 6).
    """
    d_filter = squared_euclidean(point, filter_point)
    for q in query_points:
        if d_filter >= squared_euclidean(point, q):
            return False
    return True


def filtering_space_contains_bbox(
    box: BoundingBox,
    filter_point: Sequence[float],
    query_points: Iterable[Sequence[float]],
) -> bool:
    """True when the whole ``box`` lies inside the filtering space ``H_{r:Q}``.

    Every point of ``box`` must be strictly closer to ``filter_point`` than to
    every query point; since each ``H_{r:q}`` is convex, checking the
    worst-case corner per half-plane is exact.
    """
    for q in query_points:
        if not bisector_halfplane(q, filter_point).contains_bbox(box):
            return False
    return True
