"""Tests for the bus-network graph."""

import math

import pytest

from repro.model.dataset import RouteDataset
from repro.model.route import Route
from repro.planning.graph import BusNetwork


@pytest.fixture
def small_network():
    """A 2x3 grid-ish network with known weights."""
    network = BusNetwork()
    positions = {
        0: (0.0, 0.0),
        1: (1.0, 0.0),
        2: (2.0, 0.0),
        3: (0.0, 1.0),
        4: (1.0, 1.0),
        5: (2.0, 1.0),
    }
    for vertex, position in positions.items():
        network.add_vertex(vertex, position)
    for u, v in [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]:
        network.add_edge(u, v)
    return network


class TestConstruction:
    def test_vertex_bookkeeping(self, small_network):
        assert small_network.vertex_count == 6
        assert small_network.edge_count == 7
        assert len(small_network) == 6
        assert 0 in small_network
        assert 99 not in small_network

    def test_duplicate_vertex_raises(self, small_network):
        with pytest.raises(ValueError):
            small_network.add_vertex(0, (5.0, 5.0))

    def test_edge_requires_vertices(self, small_network):
        with pytest.raises(KeyError):
            small_network.add_edge(0, 99)

    def test_self_loop_rejected(self, small_network):
        with pytest.raises(ValueError):
            small_network.add_edge(0, 0)

    def test_negative_weight_rejected(self, small_network):
        with pytest.raises(ValueError):
            small_network.add_edge(0, 4, weight=-1.0)

    def test_nan_weight_rejected(self, small_network):
        # A NaN edge would pass a ``< 0`` check, and no later parallel edge
        # could replace it (``1.0 < nan`` is False).
        with pytest.raises(ValueError):
            small_network.add_edge(0, 4, weight=math.nan)
        assert not small_network.has_edge(0, 4)
        small_network.add_edge(0, 4, weight=1.0)
        assert small_network.edge_weight(0, 4) == 1.0
        assert small_network.path_distance([0, 4]) == 1.0

    def test_default_weight_is_euclidean(self, small_network):
        assert small_network.edge_weight(0, 1) == pytest.approx(1.0)
        assert small_network.edge_weight(1, 0) == pytest.approx(1.0)

    def test_parallel_edge_keeps_smaller_weight(self, small_network):
        small_network.add_edge(0, 1, weight=5.0)
        assert small_network.edge_weight(0, 1) == pytest.approx(1.0)
        small_network.add_edge(0, 1, weight=0.5)
        assert small_network.edge_weight(0, 1) == pytest.approx(0.5)

    def test_neighbors_and_degree(self, small_network):
        assert set(small_network.neighbors(1)) == {0, 2, 4}
        assert small_network.degree(1) == 3

    def test_edges_iteration_counts_each_once(self, small_network):
        edges = list(small_network.edges())
        assert len(edges) == small_network.edge_count
        assert all(u < v for u, v, _ in edges)


class TestFromRoutes:
    def test_shared_stops_become_one_vertex(self):
        routes = RouteDataset(
            [
                Route(0, [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]),
                Route(1, [(1.0, 0.0), (1.0, 1.0)]),
            ]
        )
        network = BusNetwork.from_routes(routes)
        assert network.vertex_count == 4
        assert network.edge_count == 3
        shared = network.vertex_at((1.0, 0.0))
        assert shared is not None
        assert set(network.neighbors(shared)) == {
            network.vertex_at((0.0, 0.0)),
            network.vertex_at((2.0, 0.0)),
            network.vertex_at((1.0, 1.0)),
        }

    def test_consecutive_duplicate_points_do_not_self_loop(self):
        routes = RouteDataset([Route(0, [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)])])
        network = BusNetwork.from_routes(routes)
        assert network.vertex_count == 2
        assert network.edge_count == 1

    def test_toy_routes_table2_statistics(self, toy_routes):
        network = BusNetwork.from_routes(toy_routes)
        # 18 points, two of which are shared crossover stops.
        assert network.vertex_count == 16
        assert network.edge_count >= 14


class TestPathHelpers:
    def test_path_distance_uses_edge_weights(self, small_network):
        assert small_network.path_distance([0, 1, 2]) == pytest.approx(2.0)

    def test_path_distance_falls_back_to_euclidean(self, small_network):
        # 0 -> 5 is not an edge; Euclidean distance is used.
        assert small_network.path_distance([0, 5]) == pytest.approx(math.hypot(2, 1))

    def test_path_points_and_route(self, small_network):
        points = small_network.path_points([0, 1, 4])
        assert points == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
        route = small_network.path_to_route(9, [0, 1, 4])
        assert route.route_id == 9
        assert len(route) == 3

    def test_nearest_vertex(self, small_network):
        assert small_network.nearest_vertex((1.9, 1.2)) == 5
        assert small_network.nearest_vertex((0.1, -0.2)) == 0

    def test_nearest_vertex_empty_network(self):
        with pytest.raises(ValueError):
            BusNetwork().nearest_vertex((0, 0))
