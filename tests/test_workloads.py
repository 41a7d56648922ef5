"""Tests for the city presets and the query workload generators."""

import math

import pytest

from repro.data.workloads import CITY_PRESETS, QueryWorkload, make_city
from repro.geometry.point import euclidean


class TestPresets:
    def test_known_presets(self):
        assert {"la", "nyc", "mini"} <= set(CITY_PRESETS)

    def test_nyc_larger_than_la(self):
        # The paper's relative dataset sizes must be preserved.
        assert CITY_PRESETS["nyc"].route_count > CITY_PRESETS["la"].route_count
        assert (
            CITY_PRESETS["nyc"].transition_count > CITY_PRESETS["la"].transition_count
        )

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            make_city("tokyo")

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            make_city("mini", scale=0.0)

    def test_make_city_counts(self):
        city, transitions = make_city("mini")
        assert len(city.routes) == CITY_PRESETS["mini"].route_count
        assert len(transitions) == CITY_PRESETS["mini"].transition_count

    def test_scale_multiplies_counts(self):
        city, transitions = make_city("mini", scale=0.5)
        assert len(city.routes) == round(CITY_PRESETS["mini"].route_count * 0.5)
        assert len(transitions) == round(
            CITY_PRESETS["mini"].transition_count * 0.5
        )

    def test_reproducible(self):
        first_city, first_transitions = make_city("mini")
        second_city, second_transitions = make_city("mini")
        assert [r.points for r in first_city.routes] == [
            r.points for r in second_city.routes
        ]
        assert [t.origin for t in first_transitions] == [
            t.origin for t in second_transitions
        ]


class TestQueryRoutes:
    def test_length_and_interval(self, mini_city):
        workload = QueryWorkload(mini_city, seed=0)
        query = workload.random_query_route(6, 1.5)
        assert len(query) == 6
        for first, second in zip(query, query[1:]):
            assert euclidean(first, second) == pytest.approx(1.5)

    def test_single_point_query(self, mini_city):
        workload = QueryWorkload(mini_city, seed=0)
        assert len(workload.random_query_route(1, 2.0)) == 1

    def test_bounded_turn_angle(self, mini_city):
        workload = QueryWorkload(mini_city, seed=1)
        query = workload.random_query_route(8, 1.0, max_turn_degrees=90.0)
        headings = [
            math.atan2(b[1] - a[1], b[0] - a[0]) for a, b in zip(query, query[1:])
        ]
        for first, second in zip(headings, headings[1:]):
            turn = abs(math.degrees(second - first))
            turn = min(turn, 360.0 - turn)
            assert turn <= 45.0 + 1e-6  # half of the 90° budget per step

    def test_invalid_arguments(self, mini_city):
        workload = QueryWorkload(mini_city, seed=0)
        with pytest.raises(ValueError):
            workload.random_query_route(0, 1.0)
        with pytest.raises(ValueError):
            workload.random_query_route(3, 0.0)

    def test_batch_generation(self, mini_city):
        workload = QueryWorkload(mini_city, seed=0)
        queries = workload.query_routes(7, 4, 1.0)
        assert len(queries) == 7
        assert all(len(q) == 4 for q in queries)

    def test_starts_on_existing_route_point(self, mini_city):
        workload = QueryWorkload(mini_city, seed=2)
        route_points = {
            (p.x, p.y) for route in mini_city.routes for p in route.points
        }
        for query in workload.query_routes(5, 3, 1.0):
            assert tuple(query[0]) in route_points

    def test_existing_route_queries(self, mini_city):
        workload = QueryWorkload(mini_city, seed=3)
        all_ids = workload.existing_route_queries()
        assert sorted(all_ids) == sorted(mini_city.routes.route_ids)
        sample = workload.existing_route_queries(count=3)
        assert len(sample) == 3
        assert set(sample) <= set(mini_city.routes.route_ids)


class TestPlanningQueries:
    def test_straight_distance_respected(self, mini_city):
        workload = QueryWorkload(mini_city, seed=4)
        start, end = workload.planning_query(5.0, tolerance=0.4)
        distance = euclidean(
            mini_city.network.position(start), mini_city.network.position(end)
        )
        assert 3.0 <= distance <= 7.0

    def test_impossible_distance_raises(self, mini_city):
        workload = QueryWorkload(mini_city, seed=5)
        with pytest.raises(RuntimeError):
            workload.planning_query(1000.0, tolerance=0.01, max_attempts=50)

    def test_batch(self, mini_city):
        workload = QueryWorkload(mini_city, seed=6)
        queries = workload.planning_queries(4, 5.0, tolerance=0.5)
        assert len(queries) == 4
        assert all(start != end for start, end in queries)


class TestWorkloadGenerator:
    """``clustered_query_routes``: the clustered batch workload the batch
    throughput benchmark runs its traversal comparison on."""

    def test_clustered_routes_are_deterministic(self, mini_city):
        first = QueryWorkload(mini_city, seed=5).clustered_query_routes(
            8, length=3, interval=0.6
        )
        second = QueryWorkload(mini_city, seed=5).clustered_query_routes(
            8, length=3, interval=0.6
        )
        assert first == second
        different = QueryWorkload(mini_city, seed=6).clustered_query_routes(
            8, length=3, interval=0.6
        )
        assert first != different

    def test_clustered_routes_shape_and_interval(self, mini_city):
        routes = QueryWorkload(mini_city, seed=5).clustered_query_routes(
            6, length=4, interval=0.6, clusters=2
        )
        assert len(routes) == 6
        for route in routes:
            assert len(route) == 4
            for (x0, y0), (x1, y1) in zip(route, route[1:]):
                step = math.hypot(x1 - x0, y1 - y0)
                assert step == pytest.approx(0.6)

    def test_round_robin_covers_every_cluster(self, mini_city):
        workload = QueryWorkload(mini_city, seed=5)
        routes = workload.clustered_query_routes(
            9, length=2, interval=0.5, clusters=3, spread=0.05
        )
        # Queries i, i+3, i+6 share a cluster centre; any prefix of
        # length >= clusters touches all three centres.
        for offset in range(3):
            group = [routes[offset], routes[offset + 3], routes[offset + 6]]
            xs = [r[0][0] for r in group]
            assert max(xs) - min(xs) < 1.0
