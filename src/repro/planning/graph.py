"""The bus-network weighted graph ``G`` (Definition 9)."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.geometry.point import Point, euclidean
from repro.model.dataset import RouteDataset
from repro.model.route import Route


class BusNetwork:
    """Weighted graph of bus stops.

    Vertices are identified by integer ids and carry a planar position.
    Edges are undirected (buses run both ways on the same street in the
    paper's formulation) and weighted by Euclidean distance between their
    endpoints unless an explicit weight is supplied.

    The network is typically built from a :class:`~repro.model.dataset.RouteDataset`
    with :meth:`from_routes`: every distinct stop location becomes a vertex
    and every pair of consecutive stops of a route becomes an edge.
    """

    def __init__(self) -> None:
        self._positions: Dict[int, Point] = {}
        self._adjacency: Dict[int, Dict[int, float]] = {}
        self._vertex_by_location: Dict[Tuple[float, float], int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, vertex_id: int, position: Sequence[float]) -> None:
        """Add a vertex; raises if the id already exists."""
        if vertex_id in self._positions:
            raise ValueError(f"duplicate vertex id {vertex_id}")
        point = Point(float(position[0]), float(position[1]))
        self._positions[vertex_id] = point
        self._adjacency[vertex_id] = {}
        self._vertex_by_location[(point.x, point.y)] = vertex_id

    def add_edge(
        self, u: int, v: int, weight: Optional[float] = None
    ) -> None:
        """Add an undirected edge; the weight defaults to Euclidean distance.

        Adding the same edge twice keeps the smaller weight (parallel street
        segments collapse to the cheaper one).
        """
        if u == v:
            raise ValueError("self-loops are not allowed in the bus network")
        if u not in self._positions or v not in self._positions:
            raise KeyError(f"both endpoints must be vertices: {u}, {v}")
        if weight is None:
            weight = euclidean(self._positions[u], self._positions[v])
        # ``not >=`` also rejects NaN, which no later parallel edge could
        # replace (``weight < nan`` is False).
        if not weight >= 0:
            raise ValueError("edge weights must be non-negative")
        current = self._adjacency[u].get(v)
        if current is None or weight < current:
            self._adjacency[u][v] = weight
            self._adjacency[v][u] = weight

    @classmethod
    def from_routes(cls, routes: RouteDataset | Iterable[Route]) -> "BusNetwork":
        """Build the network from bus routes.

        Stops at identical coordinates are merged into a single vertex, which
        is how crossover points arise (Definition 7).
        """
        network = cls()
        next_id = 0
        for route in routes:
            previous_vertex: Optional[int] = None
            for point in route.points:
                key = (float(point[0]), float(point[1]))
                vertex = network._vertex_by_location.get(key)
                if vertex is None:
                    vertex = next_id
                    network.add_vertex(vertex, key)
                    next_id += 1
                if previous_vertex is not None and previous_vertex != vertex:
                    network.add_edge(previous_vertex, vertex)
                previous_vertex = vertex
        return network

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __contains__(self, vertex_id: int) -> bool:
        return vertex_id in self._positions

    def __len__(self) -> int:
        return len(self._positions)

    @property
    def vertex_count(self) -> int:
        """``|G.V|``."""
        return len(self._positions)

    @property
    def edge_count(self) -> int:
        """``|G.E|`` counting each undirected edge once."""
        return sum(len(neigh) for neigh in self._adjacency.values()) // 2

    def vertices(self) -> Iterator[int]:
        """Iterate over vertex ids."""
        return iter(self._positions)

    def position(self, vertex_id: int) -> Point:
        """Planar position of a vertex."""
        return self._positions[vertex_id]

    def vertex_at(self, position: Sequence[float]) -> Optional[int]:
        """Vertex id at an exact location, or None."""
        return self._vertex_by_location.get(
            (float(position[0]), float(position[1]))
        )

    def neighbors(self, vertex_id: int) -> Iterator[int]:
        """Adjacent vertices."""
        return iter(self._adjacency[vertex_id])

    def degree(self, vertex_id: int) -> int:
        return len(self._adjacency[vertex_id])

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of the edge ``(u, v)``; raises KeyError if absent."""
        return self._adjacency[u][v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adjacency.get(u, {})

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate undirected edges once as ``(u, v, weight)`` with ``u < v``."""
        for u, neighbours in self._adjacency.items():
            for v, weight in neighbours.items():
                if u < v:
                    yield u, v, weight

    # ------------------------------------------------------------------
    # Route helpers
    # ------------------------------------------------------------------
    def path_distance(self, vertices: Sequence[int]) -> float:
        """Travel distance ``ψ(R)`` of a vertex path (Equation 6).

        Uses edge weights when consecutive vertices are adjacent and falls
        back to Euclidean distance otherwise (useful for evaluating routes
        imported from outside the network).
        """
        total = 0.0
        for u, v in zip(vertices, vertices[1:]):
            weight = self._adjacency.get(u, {}).get(v)
            if weight is None:
                weight = euclidean(self._positions[u], self._positions[v])
            total += weight
        return total

    def path_points(self, vertices: Sequence[int]) -> List[Tuple[float, float]]:
        """Planar points of a vertex path (for issuing RkNNT queries)."""
        return [tuple(self._positions[v]) for v in vertices]

    def path_to_route(self, route_id: int, vertices: Sequence[int]) -> Route:
        """Materialise a vertex path as a :class:`~repro.model.route.Route`."""
        return Route(route_id, self.path_points(vertices))

    def nearest_vertex(self, point: Sequence[float]) -> int:
        """Vertex closest to an arbitrary point (linear scan).

        Convenience for examples that plan a route between two raw GPS
        coordinates rather than known stop ids.
        """
        if not self._positions:
            raise ValueError("the network has no vertices")
        return min(
            self._positions,
            key=lambda vid: euclidean(self._positions[vid], point),
        )

    def __repr__(self) -> str:
        return f"BusNetwork(vertices={self.vertex_count}, edges={self.edge_count})"
