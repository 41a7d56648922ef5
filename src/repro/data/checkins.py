"""Synthetic passenger transitions standing in for Foursquare check-ins.

The paper builds its transition sets by splitting users' check-in
trajectories into consecutive origin/destination pairs.  The generator below
reproduces the two structural properties the RkNNT algorithms care about:

* transitions are spatially correlated with the bus network (people check in
  near stops and popular corridors), modelled by sampling endpoints as
  Gaussian displacements around randomly chosen route stops;
* a fraction of transitions is background noise spread uniformly over the
  city, modelling trips not served by any route.

The generator can also emit multi-point trajectories and split them with
:func:`repro.model.dataset.split_trajectory_into_transitions`, mirroring the
paper's data cleaning step, and supports streaming generation of very large
synthetic sets (the paper's NYC-Synthetic has 10M transitions).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

from repro.model.dataset import (
    TransitionDataset,
    split_trajectory_into_transitions,
)
from repro.model.route import Route
from repro.model.dataset import RouteDataset
from repro.model.transition import Transition


class TransitionGenerator:
    """Generates passenger transitions correlated with a set of bus routes.

    Parameters
    ----------
    routes:
        The bus routes that anchor the transition distribution.
    walk_radius:
        Standard deviation (in map units) of the Gaussian displacement of a
        transition endpoint from its anchoring stop — how far passengers are
        willing to walk.
    noise_fraction:
        Fraction of transitions whose endpoints are uniform over the city
        bounding box instead of anchored to a route.
    same_route_probability:
        Probability that both endpoints of a transition are anchored to the
        *same* route (a trip directly served by one bus line).
    seed:
        Seed of the internal random generator.
    """

    def __init__(
        self,
        routes: RouteDataset,
        walk_radius: float = 0.4,
        noise_fraction: float = 0.1,
        same_route_probability: float = 0.6,
        seed: int = 0,
    ):
        if len(routes) == 0:
            raise ValueError("the route dataset must not be empty")
        if not 0.0 <= noise_fraction <= 1.0:
            raise ValueError("noise_fraction must lie in [0, 1]")
        if not 0.0 <= same_route_probability <= 1.0:
            raise ValueError("same_route_probability must lie in [0, 1]")
        self.routes = routes
        self.walk_radius = walk_radius
        self.noise_fraction = noise_fraction
        self.same_route_probability = same_route_probability
        self.rng = random.Random(seed)
        self._route_list: List[Route] = list(routes)
        box = routes.bbox
        self._bounds = (box.min_x, box.min_y, box.max_x, box.max_y)

    # ------------------------------------------------------------------
    # Point sampling
    # ------------------------------------------------------------------
    def _near_stop(self, route: Route) -> Tuple[float, float]:
        stop = self.rng.choice(route.points)
        return (
            stop.x + self.rng.gauss(0.0, self.walk_radius),
            stop.y + self.rng.gauss(0.0, self.walk_radius),
        )

    def _uniform_point(self) -> Tuple[float, float]:
        min_x, min_y, max_x, max_y = self._bounds
        return (
            self.rng.uniform(min_x, max_x),
            self.rng.uniform(min_y, max_y),
        )

    def _sample_pair(self) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        if self.rng.random() < self.noise_fraction:
            return self._uniform_point(), self._uniform_point()
        origin_route = self.rng.choice(self._route_list)
        if self.rng.random() < self.same_route_probability:
            destination_route = origin_route
        else:
            destination_route = self.rng.choice(self._route_list)
        return self._near_stop(origin_route), self._near_stop(destination_route)

    # ------------------------------------------------------------------
    # Transition generation
    # ------------------------------------------------------------------
    def iter_transitions(
        self, count: int, start_id: int = 0, timestamps: bool = False
    ) -> Iterator[Transition]:
        """Stream ``count`` transitions without materialising them in a dataset.

        Useful for the large synthetic experiments (Figure 13) where millions
        of transitions would not fit comfortably in a plain list of objects.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        for offset in range(count):
            origin, destination = self._sample_pair()
            timestamp = float(offset) if timestamps else None
            yield Transition(start_id + offset, origin, destination, timestamp=timestamp)

    def generate(
        self, count: int, start_id: int = 0, timestamps: bool = False
    ) -> TransitionDataset:
        """Generate a :class:`~repro.model.dataset.TransitionDataset` of ``count`` rows."""
        return TransitionDataset(
            self.iter_transitions(count, start_id=start_id, timestamps=timestamps)
        )

    # ------------------------------------------------------------------
    # Trajectory generation (mirrors the Foursquare cleaning step)
    # ------------------------------------------------------------------
    def generate_trajectory(self, length: int) -> List[Tuple[float, float]]:
        """A multi-point check-in trajectory anchored to one or two routes."""
        if length < 2:
            raise ValueError("a trajectory needs at least 2 points")
        anchor_route = self.rng.choice(self._route_list)
        points = []
        for _ in range(length):
            if self.rng.random() < self.noise_fraction:
                points.append(self._uniform_point())
            else:
                points.append(self._near_stop(anchor_route))
        return points

    def generate_from_trajectories(
        self,
        trajectory_count: int,
        min_length: int = 2,
        max_length: int = 6,
        start_id: int = 0,
    ) -> TransitionDataset:
        """Generate transitions by splitting synthetic check-in trajectories.

        A trajectory of ``n`` points yields ``n - 1`` transitions, exactly as
        in the paper's preparation of the Foursquare data.
        """
        if min_length < 2 or max_length < min_length:
            raise ValueError("need 2 <= min_length <= max_length")
        dataset = TransitionDataset()
        next_id = start_id
        for _ in range(trajectory_count):
            length = self.rng.randint(min_length, max_length)
            trajectory = self.generate_trajectory(length)
            for transition in split_trajectory_into_transitions(
                trajectory, start_id=next_id
            ):
                dataset.add(transition)
                next_id += 1
        return dataset
