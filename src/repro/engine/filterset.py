"""The filtering set ``S_filter`` (Section 4.2.1) with packed array views.

The execution engine owns it because the vectorized kernels consume its
packed representation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.geometry import kernels


class PackedFilterSet:
    """Array view of a :class:`FilterSet`, aligned with the crossover order.

    Attributes
    ----------
    points:
        Filter-point coordinates packed via :func:`repro.geometry.kernels
        .pack_points`, row ``i`` corresponding to the ``i``-th entry of
        ``FilterSet.points_by_crossover()``.
    crossovers:
        The crossover route set of each row, in the same order.
    route_rows:
        For each route id, the rows belonging to it (what the per-route
        Voronoi test consumes).
    """

    __slots__ = ("points", "crossovers", "route_rows")

    def __init__(
        self,
        points,
        crossovers: List[FrozenSet[int]],
        route_rows: Dict[int, List[int]],
    ):
        self.points = points
        self.crossovers = crossovers
        self.route_rows = route_rows

    def __len__(self) -> int:
        return len(self.crossovers)


class FilterSet:
    """The filtering set ``S_filter`` (Section 4.2.1).

    Two views are maintained, mirroring the paper's ``S_filter.P`` and
    ``S_filter.R``:

    * ``points`` — filter points sorted by decreasing crossover degree
      ``|C(r)|`` so that points shared by many routes are tried first;
    * ``routes`` — for each route id, the filter points belonging to it,
      which is what the Voronoi per-route pruning consumes.

    A third, lazily rebuilt view — :meth:`packed` — exposes the same data as
    packed coordinate arrays for the vectorized geometry kernels.
    """

    def __init__(self) -> None:
        self._points: List[Tuple[Tuple[float, float], FrozenSet[int]]] = []
        self._routes: Dict[int, List[Tuple[float, float]]] = {}
        self._seen: Set[Tuple[float, float]] = set()
        self._sorted = True
        self._packed: Optional[PackedFilterSet] = None
        #: Monotonic counter bumped whenever a point is actually added.  The
        #: block-expansion filter traversal uses it to skip re-testing a node
        #: whose push-time test already ran against the current set — the
        #: ``is_filtered`` predicate is monotone in the set, so an unchanged
        #: generation cannot flip an earlier "not filtered" verdict.
        self.generation = 0

    def add(self, point: Sequence[float], crossover_routes: FrozenSet[int]) -> None:
        """Add a filter point with its crossover route set ``C(r)``."""
        key = (float(point[0]), float(point[1]))
        if key in self._seen:
            return
        self._seen.add(key)
        self._points.append((key, crossover_routes))
        self._sorted = False
        self._packed = None
        self.generation += 1
        for route_id in crossover_routes:
            self._routes.setdefault(route_id, []).append(key)

    def points_by_crossover(
        self,
    ) -> List[Tuple[Tuple[float, float], FrozenSet[int]]]:
        """Filter points in decreasing order of ``|C(r)|``.

        Returns
        -------
        list of ((x, y), crossover_routes)
            Points shared by many routes come first, so the pruning
            predicates reach ``k`` dominating routes as early as possible.
        """
        if not self._sorted:
            self._points.sort(key=lambda item: -len(item[1]))
            self._sorted = True
        return self._points

    def packed(self) -> PackedFilterSet:
        """Packed array view aligned with :meth:`points_by_crossover`."""
        if self._packed is None:
            ordered = self.points_by_crossover()
            points = kernels.pack_points([point for point, _ in ordered])
            crossovers = [crossover for _, crossover in ordered]
            route_rows: Dict[int, List[int]] = {}
            for row, (_, crossover) in enumerate(ordered):
                for route_id in crossover:
                    route_rows.setdefault(route_id, []).append(row)
            self._packed = PackedFilterSet(points, crossovers, route_rows)
        return self._packed

    @property
    def route_ids(self) -> Set[int]:
        """Route ids represented in the filtering set (``S_filter.R`` keys)."""
        return set(self._routes)

    def route_points(self, route_id: int) -> List[Tuple[float, float]]:
        """Filter points belonging to ``route_id``."""
        return self._routes.get(route_id, [])

    def __len__(self) -> int:
        return len(self._points)

    def __repr__(self) -> str:
        return f"FilterSet(points={len(self._points)}, routes={len(self._routes)})"
