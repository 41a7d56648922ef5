"""Synthetic bus networks standing in for the NYC / LA GTFS datasets.

The generator builds a city in three steps:

1. **Street graph** — a jittered grid of candidate stops over a rectangular
   area, with edges between neighbouring stops (4-neighbourhood plus a few
   diagonals) so that realistic detours exist.
2. **Bus routes** — each route connects two far-apart stops; the route
   follows a perturbed shortest path through the street graph obtained by
   routing via one or two random intermediate waypoints, which produces the
   detour-ratio distribution the paper reports in Figure 6 (mostly between
   1 and 2).
3. **Bus network graph** — the union of the generated routes, as in the
   paper's Definition 9 (vertices are stops used by at least one route).

All randomness flows through a single :class:`random.Random` instance seeded
by the caller, so datasets are reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.model.dataset import RouteDataset
from repro.model.route import Route
from repro.planning.graph import BusNetwork
from repro.planning.shortest_path import shortest_path


@dataclass
class SyntheticCity:
    """A generated city: its street graph, bus routes and bus network."""

    #: The underlying street graph the routes were drawn on.
    street_graph: BusNetwork
    #: The generated bus routes ``DR``.
    routes: RouteDataset
    #: The bus-network graph ``G`` induced by the routes.
    network: BusNetwork
    #: Name of the preset / configuration that produced the city.
    name: str = "synthetic"

    @property
    def bounds(self) -> Tuple[float, float, float, float]:
        """(min_x, min_y, max_x, max_y) of the route dataset."""
        box = self.routes.bbox
        return (box.min_x, box.min_y, box.max_x, box.max_y)


class CityGenerator:
    """Generates synthetic cities with bus routes.

    Parameters
    ----------
    width, height:
        Size of the city rectangle (kilometres; 1 unit = 1 km throughout the
        library).
    grid_spacing:
        Approximate distance between neighbouring candidate stops.
    jitter:
        Random displacement applied to each grid stop, as a fraction of the
        grid spacing.
    diagonal_probability:
        Probability of adding each diagonal street segment; diagonals create
        shortcut opportunities and thus non-trivial detour ratios.
    seed:
        Seed of the internal random generator.
    """

    def __init__(
        self,
        width: float = 30.0,
        height: float = 30.0,
        grid_spacing: float = 1.0,
        jitter: float = 0.25,
        diagonal_probability: float = 0.3,
        seed: int = 0,
    ):
        if width <= 0 or height <= 0 or grid_spacing <= 0:
            raise ValueError("width, height and grid_spacing must be positive")
        self.width = width
        self.height = height
        self.grid_spacing = grid_spacing
        self.jitter = jitter
        self.diagonal_probability = diagonal_probability
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------
    # Street graph
    # ------------------------------------------------------------------
    def generate_street_graph(self) -> BusNetwork:
        """Jittered grid of stops with 4-neighbour streets plus some diagonals."""
        graph = BusNetwork()
        columns = max(2, int(self.width / self.grid_spacing) + 1)
        rows = max(2, int(self.height / self.grid_spacing) + 1)
        index: Dict[Tuple[int, int], int] = {}
        vertex_id = 0
        for row in range(rows):
            for column in range(columns):
                x = column * self.grid_spacing + self.rng.uniform(
                    -self.jitter, self.jitter
                ) * self.grid_spacing
                y = row * self.grid_spacing + self.rng.uniform(
                    -self.jitter, self.jitter
                ) * self.grid_spacing
                graph.add_vertex(vertex_id, (x, y))
                index[(row, column)] = vertex_id
                vertex_id += 1
        for row in range(rows):
            for column in range(columns):
                vertex = index[(row, column)]
                if column + 1 < columns:
                    graph.add_edge(vertex, index[(row, column + 1)])
                if row + 1 < rows:
                    graph.add_edge(vertex, index[(row + 1, column)])
                if (
                    row + 1 < rows
                    and column + 1 < columns
                    and self.rng.random() < self.diagonal_probability
                ):
                    graph.add_edge(vertex, index[(row + 1, column + 1)])
                if (
                    row + 1 < rows
                    and column >= 1
                    and self.rng.random() < self.diagonal_probability
                ):
                    graph.add_edge(vertex, index[(row + 1, column - 1)])
        return graph

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _route_path(
        self,
        graph: BusNetwork,
        start: int,
        end: int,
        waypoints: int,
    ) -> Optional[List[int]]:
        """Path from start to end via random waypoints (introduces detours)."""
        anchors = [start]
        vertices = list(graph.vertices())
        for _ in range(waypoints):
            anchors.append(self.rng.choice(vertices))
        anchors.append(end)

        path: List[int] = []
        for u, v in zip(anchors, anchors[1:]):
            distance, segment = shortest_path(graph, u, v)
            if not segment:
                return None
            if path:
                segment = segment[1:]
            path.extend(segment)
        # Remove loops introduced by the waypoints (keep the first visit).
        seen: Dict[int, int] = {}
        cleaned: List[int] = []
        for vertex in path:
            if vertex in seen:
                cleaned = cleaned[: seen[vertex] + 1]
                seen = {v: i for i, v in enumerate(cleaned)}
                continue
            seen[vertex] = len(cleaned)
            cleaned.append(vertex)
        if len(cleaned) < 2:
            return None
        return cleaned

    def generate_routes(
        self,
        graph: BusNetwork,
        route_count: int,
        min_straight_distance: Optional[float] = None,
        max_detour_waypoints: int = 2,
    ) -> RouteDataset:
        """Generate ``route_count`` bus routes over the street graph.

        Each route connects two stops whose straight-line distance is at
        least ``min_straight_distance`` (default: a third of the city
        diagonal) via zero, one or two random waypoints.
        """
        if route_count <= 0:
            raise ValueError("route_count must be positive")
        if min_straight_distance is None:
            min_straight_distance = math.hypot(self.width, self.height) / 3.0
        vertices = list(graph.vertices())
        routes = RouteDataset()
        attempts = 0
        max_attempts = route_count * 50
        while len(routes) < route_count and attempts < max_attempts:
            attempts += 1
            start, end = self.rng.sample(vertices, 2)
            start_pos = graph.position(start)
            end_pos = graph.position(end)
            if (
                math.hypot(end_pos.x - start_pos.x, end_pos.y - start_pos.y)
                < min_straight_distance
            ):
                continue
            waypoints = self.rng.randint(0, max_detour_waypoints)
            path = self._route_path(graph, start, end, waypoints)
            if path is None or len(path) < 3:
                continue
            points = graph.path_points(path)
            routes.add(Route(len(routes), points, name=f"bus-{len(routes)}"))
        if len(routes) < route_count:
            raise RuntimeError(
                "could not generate the requested number of routes; "
                "increase the city size or lower min_straight_distance"
            )
        return routes

    # ------------------------------------------------------------------
    # Full city
    # ------------------------------------------------------------------
    def generate(self, route_count: int, name: str = "synthetic") -> SyntheticCity:
        """Generate a full synthetic city with ``route_count`` bus routes."""
        street_graph = self.generate_street_graph()
        routes = self.generate_routes(street_graph, route_count)
        network = BusNetwork.from_routes(routes)
        return SyntheticCity(
            street_graph=street_graph, routes=routes, network=network, name=name
        )
