"""Tests for the point → k-nearest-routes primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baseline import knn_of_point_bruteforce
from repro.core.knn import (
    count_routes_within,
    k_nearest_routes,
    point_takes_query_as_knn,
    query_distance,
)
from repro.index.route_index import RouteIndex
from repro.model.dataset import RouteDataset
from repro.model.route import Route

coord = st.floats(min_value=-20, max_value=20, allow_nan=False, allow_infinity=False)


class TestQueryDistance:
    def test_minimum_over_query_points(self):
        assert query_distance((0, 0), [(3, 4), (1, 0)]) == pytest.approx(1.0)

    def test_single_point(self):
        assert query_distance((0, 0), [(0, 2)]) == pytest.approx(2.0)


class TestKNearestRoutes:
    def test_toy_ranking(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        ranked = k_nearest_routes(index, (1.0, 0.5), 4)
        ids = [route_id for _, route_id in ranked]
        # Route 0 (y=0) is nearest, then route 3 and 1, route 2 is farthest.
        assert ids[0] == 0
        assert ids[-1] == 2
        distances = [d for d, _ in ranked]
        assert distances == sorted(distances)

    def test_matches_bruteforce(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        for point in [(1, 1), (4, 3), (7, 7), (-2, 5), (4.0, 2.0)]:
            for k in (1, 2, 3, 4):
                fast = k_nearest_routes(index, point, k)
                slow = knn_of_point_bruteforce(toy_routes, point, k)
                assert [r for _, r in fast] == [r for _, r in slow]
                for (fd, _), (sd, _) in zip(fast, slow):
                    assert fd == pytest.approx(sd)

    def test_k_larger_than_route_count(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        assert len(k_nearest_routes(index, (0, 0), 10)) == len(toy_routes)

    def test_invalid_k(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        with pytest.raises(ValueError):
            k_nearest_routes(index, (0, 0), 0)
        with pytest.raises(ValueError):
            knn_of_point_bruteforce(toy_routes, (0, 0), 0)

    @settings(max_examples=30, deadline=None)
    @given(px=coord, py=coord, k=st.integers(min_value=1, max_value=4))
    def test_property_matches_bruteforce_on_mini_city(
        self, mini_city, px, py, k
    ):
        index = RouteIndex(mini_city.routes, max_entries=8)
        fast = k_nearest_routes(index, (px, py), k)
        slow = knn_of_point_bruteforce(mini_city.routes, (px, py), k)
        assert [d for d, _ in fast] == pytest.approx([d for d, _ in slow])


class TestCountRoutesWithin:
    def test_counts_strictly_closer_routes(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        point = (1.0, 0.5)
        # Point-route distances (minimum over route *points*):
        # route 0 ≈ 1.118, route 3 ≈ 3.04, route 1 ≈ 3.64, route 2 ≈ 7.57.
        assert count_routes_within(index, point, 1.0) == 0
        assert count_routes_within(index, point, 1.2) == 1
        assert count_routes_within(index, point, 3.5) == 2
        assert count_routes_within(index, point, 4.0) == 3
        assert count_routes_within(index, point, 100.0) == 4

    def test_threshold_is_exclusive(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        # Point exactly 2.0 away from route 0.
        assert count_routes_within(index, (0.0, 2.0), 2.0) in (0, 1)
        # The point is also exactly on route 3's point (4,2)?  No: x=0.
        # Distance to route 3 is 4.0, so only routes strictly closer than 2.0
        # count; route 0 is at exactly 2.0 -> excluded.
        assert count_routes_within(index, (0.0, 2.0), 2.0) == 0

    def test_stop_at_early_exit(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        count = count_routes_within(index, (4.0, 2.0), 100.0, stop_at=2)
        assert count >= 2

    def test_exclude_route_ids(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        point = (1.0, 0.5)
        assert count_routes_within(index, point, 1.2, exclude_route_ids={0}) == 0

    def test_empty_index(self):
        index = RouteIndex(RouteDataset())
        assert count_routes_within(index, (0, 0), 10.0) == 0

    @settings(max_examples=30, deadline=None)
    @given(px=coord, py=coord, threshold=st.floats(min_value=0.1, max_value=15))
    def test_property_matches_bruteforce(self, px, py, threshold):
        # The dataset is rebuilt per example (cheap) rather than taken from a
        # function-scoped fixture, which hypothesis would not reset.
        routes = RouteDataset(
            [
                Route(0, [(0.0, 0.0), (2.0, 0.0), (4.0, 0.0), (6.0, 0.0), (8.0, 0.0)]),
                Route(1, [(0.0, 4.0), (2.0, 4.0), (4.0, 4.0), (6.0, 4.0), (8.0, 4.0)]),
                Route(2, [(0.0, 8.0), (2.0, 8.0), (4.0, 8.0), (6.0, 8.0), (8.0, 8.0)]),
                Route(3, [(4.0, 0.0), (4.0, 2.0), (4.0, 4.0)]),
            ]
        )
        index = RouteIndex(routes, max_entries=4)
        expected = sum(
            1 for route in routes if route.distance_to_point((px, py)) < threshold
        )
        assert count_routes_within(index, (px, py), threshold) == expected


class TestPointTakesQueryAsKnn:
    def test_near_query_wins(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        query = [(2.0, 2.0), (6.0, 2.0)]  # between routes 0 and 1, away from 3
        # A point right next to a query point takes the query as nearest.
        assert point_takes_query_as_knn(index, (2.0, 1.9), query, 1)

    def test_far_point_loses_for_small_k(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        query = [(0.0, 20.0), (8.0, 20.0)]  # far above every transition
        assert not point_takes_query_as_knn(index, (4.0, 0.0), query, 1)
        # All four routes are strictly closer, so the query only qualifies
        # once k exceeds the route count.
        assert not point_takes_query_as_knn(index, (4.0, 0.0), query, 4)
        assert point_takes_query_as_knn(index, (4.0, 0.0), query, 5)
