"""Tests for the per-vertex RkNNT pre-computation (Algorithm 5)."""

import math

import pytest

from repro.core.baseline import rknnt_bruteforce
from repro.core.rknnt import RkNNTProcessor
from repro.engine.executor import run_stages
from repro.engine.plan import KNN_RADIUS, METHODS, QueryPlan
from repro.geometry.kernels import numpy_available
from repro.model.dataset import RouteDataset, TransitionDataset
from repro.model.route import Route
from repro.model.transition import Transition
from repro.planning.graph import BusNetwork
from repro.planning.precompute import VertexRkNNTIndex
from repro.planning.shortest_path import dijkstra

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def oracle_tags(processor, position, k):
    """``RkNNT({position})`` of the brute-force oracle as endpoint tags."""
    oracle = rknnt_bruteforce(processor.routes, processor.transitions, [position], k)
    return frozenset(
        (transition_id, endpoint)
        for transition_id, endpoints in oracle.confirmed_endpoints.items()
        for endpoint in endpoints
    )


def assert_sweep_matches_oracle(routes, transitions, k, backend):
    """Build over every stop; each stop's set must equal the oracle's."""
    network = BusNetwork.from_routes(routes)
    processor = RkNNTProcessor(routes, transitions)
    index = VertexRkNNTIndex(network, processor, k=k)
    index.build(backend=backend)
    for vertex in network.vertices():
        position = tuple(network.position(vertex))
        assert index.vertex_endpoints(vertex) == oracle_tags(
            processor, position, k
        ), (vertex, position)
    return network, index


@pytest.fixture
def toy_setup(toy_routes, toy_transitions):
    network = BusNetwork.from_routes(toy_routes)
    processor = RkNNTProcessor(toy_routes, toy_transitions)
    return network, processor


class TestBuild:
    def test_report_counts_and_timings(self, toy_setup):
        network, processor = toy_setup
        index = VertexRkNNTIndex(network, processor, k=2)
        report = index.build()
        assert report.vertices == network.vertex_count
        assert report.k == 2
        assert report.rknnt_seconds >= 0.0
        assert report.shortest_path_seconds >= 0.0
        assert report.total_seconds == pytest.approx(
            report.rknnt_seconds + report.shortest_path_seconds
        )
        data = report.as_dict()
        assert data["vertices"] == network.vertex_count

    def test_vertex_sets_match_single_point_bruteforce(self, toy_setup, toy_routes, toy_transitions):
        network, processor = toy_setup
        index = VertexRkNNTIndex(network, processor, k=2)
        index.build()
        for vertex in network.vertices():
            position = tuple(network.position(vertex))
            oracle = rknnt_bruteforce(toy_routes, toy_transitions, [position], 2)
            tags = index.vertex_endpoints(vertex)
            exists_ids = VertexRkNNTIndex.exists_ids(tags)
            assert exists_ids == oracle.transition_ids

    def test_restricted_vertices(self, toy_setup):
        network, processor = toy_setup
        index = VertexRkNNTIndex(network, processor, k=1)
        some = list(network.vertices())[:3]
        report = index.build(vertices=some)
        assert report.vertices == 3

    def test_lazy_vertex_queries_after_build(self, toy_setup):
        network, processor = toy_setup
        index = VertexRkNNTIndex(network, processor, k=1)
        index.build(vertices=[])
        # Not pre-computed, still answerable (computed lazily and cached).
        vertex = next(iter(network.vertices()))
        first = index.vertex_endpoints(vertex)
        second = index.vertex_endpoints(vertex)
        assert first == second


class TestShortestMatrix:
    def test_shortest_distance_lookup(self, toy_setup):
        network, processor = toy_setup
        index = VertexRkNNTIndex(network, processor, k=1)
        index.build()
        u = network.vertex_at((0.0, 0.0))
        v = network.vertex_at((8.0, 0.0))
        assert index.shortest_distance(u, v) == pytest.approx(8.0)
        assert index.shortest_distance(u, u) == 0.0

    def test_unreachable_is_infinite(self, toy_setup):
        network, processor = toy_setup
        index = VertexRkNNTIndex(network, processor, k=1)
        index.build()
        u = network.vertex_at((0.0, 0.0))
        w = network.vertex_at((0.0, 8.0))  # route 2 is disconnected from route 0
        assert math.isinf(index.shortest_distance(u, w))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matrix_equals_dijkstra_exactly(self, toy_setup, backend):
        network, processor = toy_setup
        index = VertexRkNNTIndex(network, processor, k=1)
        index.build(vertices=[], backend=backend)
        for source in network.vertices():
            distances, _ = dijkstra(network, source)
            for target in network.vertices():
                expected = distances.get(target, math.inf)
                assert index.shortest_distance(source, target) == expected

    def test_unknown_source_is_infinite(self, toy_setup):
        network, processor = toy_setup
        index = VertexRkNNTIndex(network, processor, k=1)
        # build() not called: everything unknown.
        assert math.isinf(index.shortest_distance(0, 1))


class TestAggregation:
    def test_route_endpoints_union(self, toy_setup):
        network, processor = toy_setup
        index = VertexRkNNTIndex(network, processor, k=2)
        index.build()
        vertices = list(network.vertices())[:4]
        union = index.route_endpoints(vertices)
        manual = set()
        for vertex in vertices:
            manual.update(index.vertex_endpoints(vertex))
        assert union == frozenset(manual)

    def test_exists_and_forall_counts(self):
        tags = [(1, "o"), (1, "d"), (2, "o"), (3, "d")]
        assert VertexRkNNTIndex.exists_count(tags) == 3
        assert VertexRkNNTIndex.forall_count(tags) == 1
        assert VertexRkNNTIndex.exists_ids(tags) == {1, 2, 3}

    def test_counts_of_empty(self):
        assert VertexRkNNTIndex.exists_count([]) == 0
        assert VertexRkNNTIndex.forall_count([]) == 0
        assert VertexRkNNTIndex.exists_ids([]) == frozenset()


@pytest.mark.parametrize("backend", BACKENDS)
class TestRadiusSweepMatchesOracle:
    """The k-th-route radius sweep ≡ brute force, per stop, per backend."""

    def test_every_mini_city_stop(self, backend, mini_city, mini_transitions):
        assert_sweep_matches_oracle(mini_city.routes, mini_transitions, 3, backend)

    def test_fewer_routes_than_k_confirms_every_endpoint(
        self, backend, toy_routes, toy_transitions
    ):
        network, index = assert_sweep_matches_oracle(
            toy_routes, toy_transitions, len(toy_routes) + 1, backend
        )
        every = frozenset(
            (transition.transition_id, endpoint)
            for transition in toy_transitions
            for endpoint in ("o", "d")
        )
        for vertex in network.vertices():
            assert index.vertex_endpoints(vertex) == every

    def test_exact_tie_is_confirmed(self, backend):
        # (2, 0) is at squared distance 4 from both routes, so with k = 1
        # the query stop (4, 0) ties r_k² exactly: no route is strictly
        # closer, and the endpoint is confirmed.
        routes = RouteDataset(
            [Route(0, [(0.0, 0.0), (0.0, 1.0)]), Route(1, [(4.0, 0.0), (4.0, 1.0)])]
        )
        transitions = TransitionDataset([Transition(0, (2.0, 0.0), (9.0, 9.0))])
        network, index = assert_sweep_matches_oracle(routes, transitions, 1, backend)
        assert (0, "o") in index.vertex_endpoints(network.vertex_at((4.0, 0.0)))
        assert (0, "o") not in index.vertex_endpoints(network.vertex_at((0.0, 1.0)))

    def test_stop_coinciding_with_an_endpoint(self, backend, toy_routes):
        transitions = TransitionDataset(
            [
                Transition(0, (4.0, 4.0), (30.0, 30.0)),
                Transition(1, (1.0, 8.3), (8.0, 0.0)),
            ]
        )
        network, index = assert_sweep_matches_oracle(toy_routes, transitions, 1, backend)
        assert (0, "o") in index.vertex_endpoints(network.vertex_at((4.0, 4.0)))
        assert (1, "d") in index.vertex_endpoints(network.vertex_at((8.0, 0.0)))

    def test_duplicate_route_points(self, backend, toy_transitions):
        routes = RouteDataset(
            [
                Route(0, [(0.0, 0.0), (0.0, 0.0), (4.0, 0.0), (4.0, 0.0)]),
                Route(1, [(4.0, 0.0), (4.0, 4.0), (4.0, 4.0)]),
                Route(2, [(0.0, 4.0), (4.0, 4.0), (8.0, 4.0)]),
            ]
        )
        for k in (1, 2, 3):
            assert_sweep_matches_oracle(routes, toy_transitions, k, backend)

    def test_removed_route(self, backend, toy_routes, toy_transitions):
        network = BusNetwork.from_routes(toy_routes)
        processor = RkNNTProcessor(toy_routes, toy_transitions)
        VertexRkNNTIndex(network, processor, k=2).build(backend=backend)
        processor.remove_route(3)
        index = VertexRkNNTIndex(network, processor, k=2)
        index.build(backend=backend)
        for vertex in network.vertices():
            position = tuple(network.position(vertex))
            assert index.vertex_endpoints(vertex) == oracle_tags(processor, position, 2)

    def test_empty_transition_set(self, backend, toy_routes):
        network, index = assert_sweep_matches_oracle(
            toy_routes, TransitionDataset([]), 2, backend
        )
        assert all(not index.vertex_endpoints(v) for v in network.vertices())

    def test_subnormal_reproducer_follows_the_float_oracle(self, backend):
        # ROADMAP open item 1: R1's second point is closer in exact
        # arithmetic, but the float squared distances tie, and the float
        # oracle keeps T2 and T3.
        routes = RouteDataset(
            [
                Route(0, [(0.0, 0.0), (0.0, 0.0)]),
                Route(1, [(0.0, 0.0), (0.0, 1.5112441903382607e-232)]),
            ]
        )
        transitions = TransitionDataset(
            [
                Transition(0, (0.0, 0.0), (0.0, 0.0)),
                Transition(
                    2,
                    (8.098682749008287, 15.675971780695452),
                    (6.066254521578549, 9.531939083047117),
                ),
                Transition(
                    3,
                    (11.667640789100624, 18.162257703906704),
                    (10.093737116347805, 5.636756887994077),
                ),
            ]
        )
        network, index = assert_sweep_matches_oracle(routes, transitions, 1, backend)
        tags = index.vertex_endpoints(network.vertex_at((0.0, 0.0)))
        assert VertexRkNNTIndex.exists_ids(tags) == {0, 2, 3}

    def test_lazy_lookup_sees_added_transition(self, backend, toy_routes, toy_transitions):
        network = BusNetwork.from_routes(toy_routes)
        processor = RkNNTProcessor(toy_routes, toy_transitions)
        index = VertexRkNNTIndex(network, processor, k=1)
        index.build(vertices=[], backend=backend)
        first, second = network.vertex_at((0.0, 0.0)), network.vertex_at((8.0, 8.0))
        index.vertex_endpoints(first)  # builds the radius table
        processor.add_transition(Transition(6, (8.0, 8.2), (8.1, 7.9)))
        got = index.vertex_endpoints(second)
        assert {(6, "o"), (6, "d")} <= got
        assert got == oracle_tags(processor, (8.0, 8.0), 1)

    def test_lazy_lookup_sees_added_route(self, backend, toy_routes, toy_transitions):
        network = BusNetwork.from_routes(toy_routes)
        processor = RkNNTProcessor(toy_routes, toy_transitions)
        index = VertexRkNNTIndex(network, processor, k=1)
        index.build(vertices=[], backend=backend)
        first, second = network.vertex_at((0.0, 0.0)), network.vertex_at((8.0, 8.0))
        index.vertex_endpoints(first)  # builds the radius table
        assert (5, "o") in oracle_tags(processor, (8.0, 8.0), 1)
        # A route through transition 5 is now strictly closer to it.
        processor.add_route(Route(4, [(20.0, 20.0), (22.0, 21.0)]))
        got = index.vertex_endpoints(second)
        assert (5, "o") not in got
        assert got == oracle_tags(processor, (8.0, 8.0), 1)


class TestRadiusTable:
    def test_backends_agree_bitwise(self, mini_processor):
        if not numpy_available():
            pytest.skip("numpy backend unavailable")
        context = mini_processor.engine_context
        for k in (1, 3, 12, 13):
            python = context.knn_radii(k, "python")
            vectorized = context.knn_radii(k, "numpy")
            assert python.tags == vectorized.tags
            assert list(python.radii_sq) == vectorized.radii_sq.tolist()

    def test_tags_are_plain_tuples(self, mini_processor):
        context = mini_processor.engine_context
        table = context.knn_radii(3)
        tree_tags = [
            entry.payload for entry in context.transition_index.tree.entries()
        ]
        assert table.tags == tree_tags
        assert {type(tag) for tag in table.tags} == {tuple}

    def test_table_is_reused_until_a_version_changes(self, toy_processor):
        context = toy_processor.engine_context
        table = context.knn_radii(2)
        assert context.knn_radii(2) is table
        assert context.knn_radii(1) is not table
        toy_processor.add_transition(Transition(9, (1.0, 1.0), (2.0, 2.0)))
        assert context.knn_radii(2) is not table

    def test_clear_caches_drops_the_tables(self, toy_processor):
        context = toy_processor.engine_context
        table = context.knn_radii(2)
        context.clear_caches()
        assert not context._knn_radii
        assert context.knn_radii(2) is not table

    def test_strategy_is_internal_and_single_point_only(self, toy_processor):
        assert KNN_RADIUS not in METHODS
        with pytest.raises(ValueError):
            QueryPlan.for_method(KNN_RADIUS)
        with pytest.raises(ValueError):
            toy_processor.query([(4.0, 4.0)], 2, method=KNN_RADIUS)
        plan = QueryPlan(method=KNN_RADIUS, use_voronoi=False, decompose=False)
        context = toy_processor.engine_context
        with pytest.raises(ValueError):
            run_stages(context, [(4.0, 4.0)], 2, plan, exclude_route_ids=[0])
        with pytest.raises(ValueError):
            run_stages(context, [(4.0, 4.0), (0.0, 0.0)], 2, plan)
        confirmed, stats = run_stages(context, [(4.0, 4.0)], 2, plan)
        assert stats.candidates == 2 * len(toy_processor.transitions)
        assert stats.confirmed_points == sum(map(len, confirmed.values()))
