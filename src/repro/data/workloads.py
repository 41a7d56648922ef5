"""Query workloads and city presets used by the experiments.

Two things live here:

* :func:`make_city` / :data:`CITY_PRESETS` — scaled-down stand-ins for the
  paper's LA and NYC datasets (see DESIGN.md for the substitution argument).
  The presets keep the *relative* properties of the two cities: NYC has more
  routes and more transitions than LA over a similarly sized area.
* :class:`QueryWorkload` — the paper's two query generators:

  1. synthetic query routes built by appending points with a bounded rotation
     angle (≤ 90°) and a fixed interval ``I`` so the route "will not zigzag";
  2. planning queries: start/end vertex pairs with a prescribed straight-line
     distance ``ψ(se)`` and threshold ratio ``τ/ψ(se)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.data.checkins import TransitionGenerator
from repro.data.synthetic import CityGenerator, SyntheticCity
from repro.geometry.point import euclidean
from repro.model.dataset import RouteDataset, TransitionDataset


@dataclass(frozen=True)
class CityPreset:
    """Configuration of a scaled-down city standing in for a real dataset."""

    name: str
    width: float
    height: float
    grid_spacing: float
    route_count: int
    transition_count: int
    seed: int


#: Scaled-down stand-ins for the paper's datasets (Table 2 / Table 3).  The
#: paper's LA has 1,208 routes and 109,036 transitions; NYC has 2,022 routes
#: and 195,833 transitions.  The presets keep NYC ≈ 1.7× LA in both counts at
#: roughly 1/20 of the size so the full benchmark suite runs on a laptop.
CITY_PRESETS: Dict[str, CityPreset] = {
    "la": CityPreset(
        name="la",
        width=30.0,
        height=24.0,
        grid_spacing=1.2,
        route_count=60,
        transition_count=5000,
        seed=7,
    ),
    "nyc": CityPreset(
        name="nyc",
        width=26.0,
        height=26.0,
        grid_spacing=1.0,
        route_count=100,
        transition_count=9000,
        seed=11,
    ),
    # A deliberately tiny preset for unit tests and the quickstart example.
    "mini": CityPreset(
        name="mini",
        width=10.0,
        height=10.0,
        grid_spacing=1.5,
        route_count=12,
        transition_count=400,
        seed=3,
    ),
}


def make_city(
    preset: str = "la",
    scale: float = 1.0,
    seed: Optional[int] = None,
) -> Tuple[SyntheticCity, TransitionDataset]:
    """Build a synthetic city and its transition set from a preset.

    Parameters
    ----------
    preset:
        One of ``"la"``, ``"nyc"`` or ``"mini"``.
    scale:
        Multiplier applied to the preset's route and transition counts
        (e.g. ``scale=2`` doubles both).  The spatial extent is unchanged.
    seed:
        Override the preset's seed.
    """
    if preset not in CITY_PRESETS:
        raise ValueError(
            f"unknown preset {preset!r}; expected one of {sorted(CITY_PRESETS)}"
        )
    if scale <= 0:
        raise ValueError("scale must be positive")
    config = CITY_PRESETS[preset]
    seed = config.seed if seed is None else seed
    generator = CityGenerator(
        width=config.width,
        height=config.height,
        grid_spacing=config.grid_spacing,
        seed=seed,
    )
    city = generator.generate(
        max(2, int(round(config.route_count * scale))), name=config.name
    )
    transitions = TransitionGenerator(city.routes, seed=seed + 1).generate(
        max(1, int(round(config.transition_count * scale)))
    )
    return city, transitions


class QueryWorkload:
    """Generates the query sets used throughout the evaluation section.

    Parameters
    ----------
    city:
        The city whose routes anchor the queries.
    seed:
        Seed of the internal random generator.
    """

    def __init__(self, city: SyntheticCity, seed: int = 0):
        self.city = city
        self.rng = random.Random(seed)
        self._route_points: List[Tuple[float, float]] = [
            (p.x, p.y) for route in city.routes for p in route.points
        ]

    # ------------------------------------------------------------------
    # RkNNT query routes (Section 7.2, "Queries")
    # ------------------------------------------------------------------
    def random_query_route(
        self,
        length: int,
        interval: float,
        max_turn_degrees: float = 90.0,
    ) -> List[Tuple[float, float]]:
        """A synthetic query route of ``length`` points.

        The first point is drawn from the existing route points; each
        subsequent point extends the route by ``interval`` map units with a
        heading change of at most ``max_turn_degrees`` (the paper uses 90° so
        the query "will not zigzag").
        """
        if length < 1:
            raise ValueError("length must be at least 1")
        if interval <= 0:
            raise ValueError("interval must be positive")
        start = self.rng.choice(self._route_points)
        points = [start]
        heading = self.rng.uniform(0.0, 2.0 * math.pi)
        max_turn = math.radians(max_turn_degrees)
        for _ in range(length - 1):
            heading += self.rng.uniform(-max_turn / 2.0, max_turn / 2.0)
            previous = points[-1]
            points.append(
                (
                    previous[0] + interval * math.cos(heading),
                    previous[1] + interval * math.sin(heading),
                )
            )
        return points

    def query_routes(
        self,
        count: int,
        length: int,
        interval: float,
        max_turn_degrees: float = 90.0,
    ) -> List[List[Tuple[float, float]]]:
        """``count`` independent synthetic query routes."""
        return [
            self.random_query_route(length, interval, max_turn_degrees)
            for _ in range(count)
        ]

    def clustered_query_routes(
        self,
        count: int,
        length: int,
        interval: float,
        clusters: int = 4,
        spread: float = 0.35,
        heading_jitter_degrees: float = 30.0,
    ) -> List[List[Tuple[float, float]]]:
        """``count`` query routes grouped into spatial clusters.

        Models spatially clustered batch workloads: ``clusters`` cluster
        centres are drawn from the existing route points, and each query
        starts at a Gaussian perturbation (``spread`` map units) of its
        cluster's centre.  All queries of a cluster share a base heading with
        at most ``heading_jitter_degrees`` of per-query jitter, so routes in
        a cluster stay close along their whole length.
        Queries are assigned to clusters round-robin, so any prefix of the
        returned list covers every cluster.
        """
        if count < 1:
            raise ValueError("count must be at least 1")
        if clusters < 1:
            raise ValueError("clusters must be at least 1")
        centres = [
            self.rng.choice(self._route_points)
            for _ in range(min(clusters, count))
        ]
        base_headings = [
            self.rng.uniform(0.0, 2.0 * math.pi) for _ in centres
        ]
        jitter = math.radians(heading_jitter_degrees)
        max_step_turn = jitter / max(1, length - 1) if length > 1 else 0.0
        routes: List[List[Tuple[float, float]]] = []
        for index in range(count):
            which = index % len(centres)
            cx, cy = centres[which]
            start = (
                self.rng.gauss(cx, spread),
                self.rng.gauss(cy, spread),
            )
            heading = base_headings[which] + self.rng.uniform(-jitter, jitter)
            points = [start]
            for _ in range(length - 1):
                heading += self.rng.uniform(-max_step_turn, max_step_turn)
                previous = points[-1]
                points.append(
                    (
                        previous[0] + interval * math.cos(heading),
                        previous[1] + interval * math.sin(heading),
                    )
                )
            routes.append(points)
        return routes

    def existing_route_queries(
        self, count: Optional[int] = None
    ) -> List[int]:
        """Ids of existing routes to use as "real route queries" (Figure 16).

        Returns all route ids (shuffled) or a random sample of ``count``.
        """
        route_ids = list(self.city.routes.route_ids)
        self.rng.shuffle(route_ids)
        if count is not None:
            route_ids = route_ids[:count]
        return route_ids

    # ------------------------------------------------------------------
    # Planning queries (Section 7.3, "Queries")
    # ------------------------------------------------------------------
    def planning_query(
        self,
        straight_distance: float,
        tolerance: float = 0.25,
        max_attempts: int = 2000,
    ) -> Tuple[int, int]:
        """A (start, end) vertex pair with ``ψ(se) ≈ straight_distance``.

        Raises ``RuntimeError`` when no pair within ``tolerance`` (relative)
        can be found, which signals that the requested distance exceeds the
        city size.
        """
        vertices = list(self.city.network.vertices())
        if len(vertices) < 2:
            raise ValueError("the bus network has fewer than two vertices")
        low = straight_distance * (1.0 - tolerance)
        high = straight_distance * (1.0 + tolerance)
        for _ in range(max_attempts):
            start, end = self.rng.sample(vertices, 2)
            d = euclidean(
                self.city.network.position(start), self.city.network.position(end)
            )
            if low <= d <= high:
                return start, end
        raise RuntimeError(
            f"could not find a vertex pair with straight-line distance "
            f"≈ {straight_distance} (city too small?)"
        )

    def planning_queries(
        self,
        count: int,
        straight_distance: float,
        tolerance: float = 0.25,
    ) -> List[Tuple[int, int]]:
        """``count`` independent planning queries with the same ``ψ(se)``."""
        return [
            self.planning_query(straight_distance, tolerance=tolerance)
            for _ in range(count)
        ]
