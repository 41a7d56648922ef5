"""Tests for the RR-tree wrapper (RouteIndex)."""

import gc
import pickle

from repro.index.route_index import RouteIndex
from repro.model.dataset import RouteDataset
from repro.model.route import Route


class TestConstruction:
    def test_basic_properties(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        assert index.routes is toy_routes
        assert len(index.tree) == index.distinct_point_count()
        assert index.root is index.tree.root

    def test_empty_dataset(self):
        index = RouteIndex(RouteDataset())
        assert index.distinct_point_count() == 0
        assert index.root.bbox is None

    def test_exclude_route_ids(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4, exclude_route_ids={3})
        # Route 3's unique middle point (4, 2) is not indexed.
        assert index.crossover_routes((4.0, 2.0)) == frozenset()
        # Shared stops no longer mention route 3.
        assert index.crossover_routes((4.0, 0.0)) == {0}
        assert 3 not in index.routes_in_node(index.root)

    def test_route_points_lookup(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        assert index.route_points(3) == ((4.0, 0.0), (4.0, 2.0), (4.0, 4.0))


class TestDynamicUpdates:
    def test_add_route_new_points(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        before = index.distinct_point_count()
        new_route = Route(10, [(10.0, 10.0), (12.0, 10.0)])
        toy_routes.add(new_route)
        index.add_route(new_route)
        assert index.distinct_point_count() == before + 2
        assert index.crossover_routes((10.0, 10.0)) == {10}
        assert 10 in index.routes_in_node(index.root)

    def test_add_route_sharing_existing_stop(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        before = index.distinct_point_count()
        new_route = Route(11, [(4.0, 0.0), (9.0, -1.0)])
        toy_routes.add(new_route)
        index.add_route(new_route)
        # Only one brand-new location was added.
        assert index.distinct_point_count() == before + 1
        assert index.crossover_routes((4.0, 0.0)) == {0, 3, 11}

    def test_remove_route(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        route = toy_routes.get(3)
        index.remove_route(route)
        # Its exclusive point disappears; shared stops lose the id.
        assert index.crossover_routes((4.0, 2.0)) == frozenset()
        assert index.crossover_routes((4.0, 0.0)) == {0}
        assert 3 not in index.routes_in_node(index.root)

    def test_remove_then_add_round_trip(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        before = index.distinct_point_count()
        route = toy_routes.get(2)
        index.remove_route(route)
        assert index.distinct_point_count() == before - len(route)
        index.add_route(route)
        assert index.distinct_point_count() == before
        assert index.crossover_routes((0.0, 8.0)) == {2}

    def test_add_excluded_route_is_ignored(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4, exclude_route_ids={99})
        before = index.distinct_point_count()
        new_route = Route(99, [(50.0, 50.0), (51.0, 50.0)])
        index.add_route(new_route)
        assert index.distinct_point_count() == before


class TestQueriesAfterUpdates:
    def test_knn_reflects_added_route(self, toy_routes, toy_transitions):
        from repro.core.knn import k_nearest_routes

        index = RouteIndex(toy_routes, max_entries=4)
        far_point = (20.0, 20.0)
        before = k_nearest_routes(index, far_point, 1)
        new_route = Route(20, [(19.0, 20.0), (21.0, 20.0)])
        toy_routes.add(new_route)
        index.add_route(new_route)
        after = k_nearest_routes(index, far_point, 1)
        assert after[0][1] == 20
        assert after[0][0] < before[0][0]


def _grid_routes(count: int = 30, length: int = 40) -> RouteDataset:
    """``count`` parallel routes of ``length`` stops, each crossing the
    next at one shared stop: a few thousand containers to build, enough to
    set off several generation-0 collections when the collector runs."""
    return RouteDataset(
        Route(
            route_id,
            [(float(route_id), float(step)) for step in range(length - 1)]
            + [(float(route_id + 1), 0.0)],
        )
        for route_id in range(count)
    )


class TestPausedCollector:
    """Builds and decodes run with the cyclic collector paused."""

    def test_build_sets_off_no_collection(self, collections_during):
        routes = _grid_routes()
        index, collections = collections_during(lambda: RouteIndex(routes))
        assert collections == 0
        assert index.crossover_routes((1.0, 0.0)) == {0, 1}
        assert index.crossover_routes((30.0, 0.0)) == {29}

    def test_unpickle_decode_sets_off_no_collection(self, collections_during):
        # As for the TR-tree: the window covers ``__setstate__``, the step
        # an unpickle runs once the columns are loaded.
        index = RouteIndex(_grid_routes())
        state = pickle.loads(pickle.dumps(index.__getstate__()))
        clone = RouteIndex.__new__(RouteIndex)
        _, collections = collections_during(lambda: clone.__setstate__(state))
        assert collections == 0
        assert clone.distinct_point_count() == index.distinct_point_count()
        assert clone.routes_in_node(clone.root) == index.routes_in_node(index.root)

    def test_a_collector_the_caller_disabled_stays_disabled(self):
        routes = _grid_routes()
        gc.disable()
        try:
            clone = pickle.loads(pickle.dumps(RouteIndex(routes)))
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert clone.distinct_point_count() == len(routes) * 39 + 1
