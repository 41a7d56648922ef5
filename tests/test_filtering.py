"""Tests for the FilterSet and the filter-refine engine internals."""

import pytest

from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryExecutor
from repro.engine.filterset import FilterSet
from repro.geometry.bbox import BoundingBox
from repro.index.route_index import RouteIndex
from repro.index.transition_index import TransitionIndex
from repro.model.dataset import RouteDataset, TransitionDataset
from repro.model.route import Route
from repro.model.transition import Transition


class TestFilterSet:
    def test_add_and_views(self):
        fs = FilterSet()
        fs.add((0, 0), frozenset({1}))
        fs.add((1, 0), frozenset({1, 2}))
        fs.add((2, 0), frozenset({3}))
        assert len(fs) == 3
        assert fs.route_ids == {1, 2, 3}
        assert fs.route_points(1) == [(0.0, 0.0), (1.0, 0.0)]
        assert fs.route_points(99) == []

    def test_points_sorted_by_crossover_degree(self):
        fs = FilterSet()
        fs.add((0, 0), frozenset({1}))
        fs.add((1, 0), frozenset({1, 2, 3}))
        fs.add((2, 0), frozenset({4, 5}))
        degrees = [len(c) for _, c in fs.points_by_crossover()]
        assert degrees == sorted(degrees, reverse=True)

    def test_duplicate_points_ignored(self):
        fs = FilterSet()
        fs.add((0, 0), frozenset({1}))
        fs.add((0.0, 0.0), frozenset({2}))
        assert len(fs) == 1
        assert fs.route_ids == {1}


class TestEngineValidation:
    def test_invalid_k(self, toy_route_index, toy_transition_index):
        with pytest.raises(ValueError):
            QueryExecutor(
                ExecutionContext(toy_route_index, toy_transition_index), 0, backend="python"
            )

    def test_empty_query(self, toy_route_index, toy_transition_index):
        context = ExecutionContext(toy_route_index, toy_transition_index)
        engine = QueryExecutor(context, 1, backend="python")
        with pytest.raises(ValueError):
            engine.run([])


class TestIsFiltered:
    def _engine(self, toy_route_index, toy_transition_index, k, use_voronoi=False):
        return QueryExecutor(
            ExecutionContext(toy_route_index, toy_transition_index),
            k,
            use_voronoi=use_voronoi,
            backend="python",
        )

    def test_no_filter_points_never_filters(
        self, toy_route_index, toy_transition_index
    ):
        engine = self._engine(toy_route_index, toy_transition_index, 1)
        assert not engine.is_filtered(BoundingBox(0, 0, 1, 1), [(5, 5)])

    def test_far_node_filtered_after_filter_route_phase(
        self, toy_route_index, toy_transition_index
    ):
        # Query far above every route: every route is between the node near
        # y=0 and the query, so even k=1 filtering should prune it.
        query = [(0.0, 30.0), (8.0, 30.0)]
        engine = self._engine(toy_route_index, toy_transition_index, 1)
        engine.filter_routes(query)
        assert engine.stats.filter_points > 0
        node_near_route0 = BoundingBox(0.0, -0.5, 8.0, 0.5)
        assert engine.is_filtered(node_near_route0, query)

    def test_node_straddling_query_not_filtered(
        self, toy_route_index, toy_transition_index
    ):
        query = [(4.0, 2.0)]
        engine = self._engine(toy_route_index, toy_transition_index, 1)
        engine.filter_routes(query)
        node_on_query = BoundingBox(3.9, 1.9, 4.1, 2.1)
        assert not engine.is_filtered(node_on_query, query)

    def test_larger_k_filters_less(self, toy_route_index, toy_transition_index):
        query = [(0.0, 30.0), (8.0, 30.0)]
        node = BoundingBox(0.0, -0.5, 8.0, 0.5)
        engine_small_k = self._engine(toy_route_index, toy_transition_index, 1)
        engine_small_k.filter_routes(query)
        engine_large_k = self._engine(toy_route_index, toy_transition_index, 5)
        engine_large_k.filter_routes(query)
        assert engine_small_k.is_filtered(node, query)
        # With k above the number of routes nothing can ever be pruned.
        assert not engine_large_k.is_filtered(node, query)

    def test_voronoi_filters_at_least_as_much(
        self, toy_route_index, toy_transition_index
    ):
        query = [(0.0, 12.0), (4.0, 12.0), (8.0, 12.0)]
        plain = self._engine(toy_route_index, toy_transition_index, 2, use_voronoi=False)
        voronoi = self._engine(toy_route_index, toy_transition_index, 2, use_voronoi=True)
        plain.filter_routes(query)
        voronoi.filter_routes(query)
        probe_nodes = [
            BoundingBox(0.0, -0.5, 8.0, 0.5),
            BoundingBox(0.0, 3.5, 8.0, 4.5),
            BoundingBox(2.0, 0.0, 6.0, 4.0),
            BoundingBox(0.0, 9.0, 8.0, 10.0),
        ]
        for node in probe_nodes:
            if plain.is_filtered(node, query):
                assert voronoi.is_filtered(node, query)


class TestEngineExclusions:
    def test_excluded_route_cannot_filter(self):
        # One route only; if it is excluded no pruning evidence exists.
        routes = RouteDataset([Route(0, [(0.0, 0.0), (4.0, 0.0)])])
        transitions = TransitionDataset([Transition(0, (2.0, 0.1), (3.0, 0.2))])
        route_index = RouteIndex(routes, max_entries=4)
        transition_index = TransitionIndex(transitions, max_entries=4)
        query = [(0.0, 10.0), (4.0, 10.0)]

        including = QueryExecutor(
            ExecutionContext(route_index, transition_index), 1, backend="python"
        )
        confirmed_with_route = including.run(query)
        assert confirmed_with_route == {}  # route 0 wins everywhere

        excluded = QueryExecutor(
            ExecutionContext(route_index, transition_index),
            1,
            exclude_route_ids={0},
            backend="python",
        )
        confirmed_without_route = excluded.run(query)
        assert set(confirmed_without_route) == {0}

    def test_stats_are_populated(self, toy_route_index, toy_transition_index):
        context = ExecutionContext(toy_route_index, toy_transition_index)
        engine = QueryExecutor(context, 2, backend="python")
        engine.run([(4.0, 2.0), (6.0, 2.0)])
        stats = engine.stats
        assert stats.route_nodes_visited > 0
        assert stats.transition_nodes_visited > 0
        assert stats.filtering_seconds >= 0.0
        assert stats.verification_seconds >= 0.0
        assert stats.candidates >= stats.confirmed_points
