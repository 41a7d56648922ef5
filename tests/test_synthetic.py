"""Tests for the synthetic city generator."""

import pytest

from repro.data.synthetic import CityGenerator
from repro.planning.shortest_path import dijkstra


@pytest.fixture(scope="module")
def small_city():
    generator = CityGenerator(width=12.0, height=12.0, grid_spacing=1.5, seed=42)
    return generator.generate(10, name="testville")


class TestStreetGraph:
    def test_grid_dimensions(self):
        generator = CityGenerator(width=10.0, height=5.0, grid_spacing=1.0, seed=1)
        graph = generator.generate_street_graph()
        columns = int(10.0 / 1.0) + 1
        rows = int(5.0 / 1.0) + 1
        assert graph.vertex_count == rows * columns
        # At least the 4-neighbour lattice edges exist.
        assert graph.edge_count >= rows * (columns - 1) + columns * (rows - 1)

    def test_street_graph_is_connected(self):
        generator = CityGenerator(width=8.0, height=8.0, grid_spacing=1.0, seed=2)
        graph = generator.generate_street_graph()
        distances, _ = dijkstra(graph, next(iter(graph.vertices())))
        assert len(distances) == graph.vertex_count

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CityGenerator(width=0.0)
        with pytest.raises(ValueError):
            CityGenerator(grid_spacing=-1.0)


class TestRoutes:
    def test_requested_route_count(self, small_city):
        assert len(small_city.routes) == 10

    def test_routes_have_reasonable_length(self, small_city):
        for route in small_city.routes:
            assert len(route) >= 3
            assert route.travel_distance > 0.0

    def test_route_points_lie_on_street_graph(self, small_city):
        street_vertices = {
            tuple(small_city.street_graph.position(v))
            for v in small_city.street_graph.vertices()
        }
        for route in small_city.routes:
            for point in route.points:
                assert tuple(point) in street_vertices

    def test_routes_are_loopless(self, small_city):
        for route in small_city.routes:
            assert len(set((p.x, p.y) for p in route.points)) == len(route)

    def test_detour_ratios_match_figure6_shape(self, small_city):
        """Figure 6: the detour ratio should mostly stay below ~3."""
        ratios = small_city.routes.detour_ratios()
        assert all(r >= 1.0 - 1e-9 for r in ratios)
        assert sum(1 for r in ratios if r <= 3.0) >= 0.8 * len(ratios)

    def test_invalid_route_count(self, small_city):
        generator = CityGenerator(seed=3)
        graph = generator.generate_street_graph()
        with pytest.raises(ValueError):
            generator.generate_routes(graph, 0)

    def test_reproducibility(self):
        first = CityGenerator(width=10, height=10, grid_spacing=1.5, seed=7).generate(5)
        second = CityGenerator(width=10, height=10, grid_spacing=1.5, seed=7).generate(5)
        for a, b in zip(first.routes, second.routes):
            assert a.points == b.points

    def test_different_seeds_differ(self):
        first = CityGenerator(width=10, height=10, grid_spacing=1.5, seed=1).generate(5)
        second = CityGenerator(width=10, height=10, grid_spacing=1.5, seed=2).generate(5)
        assert any(a.points != b.points for a, b in zip(first.routes, second.routes))


class TestCityBundle:
    def test_network_built_from_routes(self, small_city):
        total_distinct_stops = len(
            {tuple(p) for route in small_city.routes for p in route.points}
        )
        assert small_city.network.vertex_count == total_distinct_stops

    def test_bounds_cover_routes(self, small_city):
        min_x, min_y, max_x, max_y = small_city.bounds
        for route in small_city.routes:
            for point in route.points:
                assert min_x <= point.x <= max_x
                assert min_y <= point.y <= max_y

    def test_name_recorded(self, small_city):
        assert small_city.name == "testville"
