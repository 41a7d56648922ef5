"""Bus advertisement recommendation (Section 1, application 2 of the paper).

The paper's sketch: an RkNNT query for a route locates the passengers who
would take it; combining those passengers' interest profiles (e.g. from a
social network) lets an operator choose the advertisements that will reach
the most interested riders on that route.

This module implements that pipeline:

1. run an RkNNT query for the target route to obtain its prospective riders,
2. look up each rider's interest tags in a profile table,
3. greedily select a bounded number of advertisements maximising the number
   of distinct riders interested in at least one selected ad (weighted
   maximum coverage, the standard greedy (1 - 1/e) approximation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set

from repro.core.rknnt import RkNNTProcessor, VORONOI
from repro.core.semantics import EXISTS, Semantics
from repro.model.route import Route


@dataclass(frozen=True)
class Advertisement:
    """An advertisement with the interest tags it appeals to."""

    ad_id: str
    interests: FrozenSet[str]
    #: Revenue (or any other value) earned per reached passenger.
    value_per_passenger: float = 1.0

    def appeals_to(self, passenger_interests: Iterable[str]) -> bool:
        """True when the ad shares at least one interest with the passenger."""
        return not self.interests.isdisjoint(passenger_interests)


@dataclass
class AdPlacement:
    """One selected advertisement and the passengers it reaches."""

    advertisement: Advertisement
    reached_transition_ids: FrozenSet[int]

    @property
    def reach(self) -> int:
        return len(self.reached_transition_ids)

    @property
    def value(self) -> float:
        return self.reach * self.advertisement.value_per_passenger


class AdvertisingRecommender:
    """Chooses the advertisements with the largest influence on a route.

    Parameters
    ----------
    processor:
        RkNNT processor over the current route and transition datasets.
    profiles:
        Map from transition id to the interest tags of the passenger who made
        that transition.  Transitions without a profile are treated as having
        no interests (no ad can reach them).
    k:
        ``k`` of the underlying RkNNT queries.
    """

    def __init__(
        self,
        processor: RkNNTProcessor,
        profiles: Mapping[int, Iterable[str]],
        k: int = 10,
    ):
        if k <= 0:
            raise ValueError("k must be positive")
        self.processor = processor
        self.profiles: Dict[int, FrozenSet[str]] = {
            transition_id: frozenset(interests)
            for transition_id, interests in profiles.items()
        }
        self.k = k

    # ------------------------------------------------------------------
    # Audience
    # ------------------------------------------------------------------
    def audience(
        self,
        route: Route | Sequence[Sequence[float]],
        semantics: Semantics | str = EXISTS,
    ) -> FrozenSet[int]:
        """Prospective riders of ``route``: its RkNNT set."""
        result = self.processor.query(
            route, self.k, method=VORONOI, semantics=semantics
        )
        return result.transition_ids

    def audience_interests(self, audience: Iterable[int]) -> Dict[str, int]:
        """Histogram of interest tags over an audience."""
        histogram: Dict[str, int] = {}
        for transition_id in audience:
            for interest in self.profiles.get(transition_id, ()):  # type: ignore[arg-type]
                histogram[interest] = histogram.get(interest, 0) + 1
        return histogram

    # ------------------------------------------------------------------
    # Ad selection
    # ------------------------------------------------------------------
    def recommend(
        self,
        route: Route | Sequence[Sequence[float]],
        advertisements: Sequence[Advertisement],
        max_ads: int = 3,
        semantics: Semantics | str = EXISTS,
    ) -> List[AdPlacement]:
        """Greedy maximum-coverage selection of at most ``max_ads`` ads.

        Each greedy round picks the advertisement adding the largest
        *marginal* value (newly reached passengers × value per passenger);
        selection stops early when no remaining ad reaches a new passenger.
        """
        if max_ads <= 0:
            raise ValueError("max_ads must be positive")
        audience = self.audience(route, semantics=semantics)
        reach_by_ad: Dict[str, Set[int]] = {}
        for advertisement in advertisements:
            reach_by_ad[advertisement.ad_id] = {
                transition_id
                for transition_id in audience
                if advertisement.appeals_to(self.profiles.get(transition_id, frozenset()))
            }

        selected: List[AdPlacement] = []
        covered: Set[int] = set()
        remaining = list(advertisements)
        while remaining and len(selected) < max_ads:
            best_ad = None
            best_gain = 0.0
            best_new: Set[int] = set()
            for advertisement in remaining:
                new = reach_by_ad[advertisement.ad_id] - covered
                gain = len(new) * advertisement.value_per_passenger
                if gain > best_gain:
                    best_ad = advertisement
                    best_gain = gain
                    best_new = new
            if best_ad is None:
                break
            selected.append(
                AdPlacement(
                    advertisement=best_ad,
                    reached_transition_ids=frozenset(reach_by_ad[best_ad.ad_id]),
                )
            )
            covered |= best_new
            remaining = [ad for ad in remaining if ad.ad_id != best_ad.ad_id]
        return selected

    def coverage(self, placements: Sequence[AdPlacement]) -> FrozenSet[int]:
        """Distinct passengers reached by a set of placements."""
        covered: Set[int] = set()
        for placement in placements:
            covered |= placement.reached_transition_ids
        return frozenset(covered)
