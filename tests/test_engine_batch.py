"""Differential tests of the unified execution engine and the batch API.

The contract under test, per method × semantics:

    query_batch(queries)  ≡  [query(q) for q in queries]  ≡  rknnt_bruteforce

where ``≡`` is *element-wise identity* of the confirmed endpoint maps (and
therefore of both the ∃ and ∀ answers).  Additionally: the scalar and numpy
backends agree, caches survive dynamic updates, the planning sweep (answered
from k-th-route radii) matches per-vertex scalar pipeline queries, and divide
& conquer statistics sum over sub-queries, a repeated point counting as one
sub-query that did no work.
"""

import pytest

from conftest import BACKENDS

from repro.core.baseline import rknnt_bruteforce
from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryExecutor
from repro.core.rknnt import DIVIDE_CONQUER, METHODS, RkNNTProcessor
from repro.data.workloads import QueryWorkload
from repro.model.transition import Transition
from repro.planning.precompute import VertexRkNNTIndex

K = 3
QUERY_COUNT = 6


@pytest.fixture(scope="module")
def batch_queries(mini_workload):
    # Short routes with a tight interval so answers are non-trivial, plus a
    # single-point query (divide & conquer degenerate case).
    queries = mini_workload.query_routes(QUERY_COUNT, length=4, interval=0.8)
    queries.append(queries[0][:1])
    return queries


class TestBatchEquivalence:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("semantics", ["exists", "forall"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_equals_single_equals_bruteforce(
        self, mini_city, mini_transitions, mini_processor, batch_queries,
        method, semantics, backend,
    ):
        singles = [
            mini_processor.query(q, K, method=method, semantics=semantics)
            for q in batch_queries
        ]
        batch = mini_processor.query_batch(
            batch_queries, K, method=method, semantics=semantics, backend=backend
        )
        assert len(batch) == len(singles)
        for query, single, batched in zip(batch_queries, singles, batch):
            assert batched.confirmed_endpoints == single.confirmed_endpoints
            assert batched.transition_ids == single.transition_ids
            oracle = rknnt_bruteforce(
                mini_city.routes, mini_transitions, query, K, semantics=semantics
            )
            assert batched.transition_ids == oracle.transition_ids
            assert batched.exists_ids() == oracle.exists_ids()
            assert batched.forall_ids() == oracle.forall_ids()

    @pytest.mark.parametrize("method", METHODS)
    def test_existing_route_queries_batch(self, mini_city, mini_processor, method):
        # Route objects as queries: the query route must exclude itself in
        # the batch path exactly as in the single path.
        routes = list(mini_city.routes)[:4]
        singles = [mini_processor.query(route, K, method=method) for route in routes]
        batch = mini_processor.query_batch(routes, K, method=method)
        for single, batched in zip(singles, batch):
            assert batched.confirmed_endpoints == single.confirmed_endpoints



class TestDynamicUpdates:
    def test_caches_invalidate_on_transition_updates(self, mini_city):
        city_routes = mini_city.routes
        from repro.data.checkins import TransitionGenerator

        transitions = TransitionGenerator(city_routes, seed=123).generate(150)
        processor = RkNNTProcessor(city_routes, transitions)
        query = [(2.0, 2.0), (3.0, 2.5), (4.0, 3.0)]

        before = processor.query_batch([query], K, method=DIVIDE_CONQUER)[0]
        oracle_before = rknnt_bruteforce(city_routes, transitions, query, K)
        assert before.transition_ids == oracle_before.transition_ids

        # Mutate the transition set; the engine context must notice.
        new_id = transitions.next_id()
        processor.add_transition(Transition(new_id, (2.1, 2.1), (3.9, 3.1)))
        removed_id = next(iter(sorted(transitions.transition_ids)))
        processor.remove_transition(removed_id)

        after = processor.query_batch([query], K, method=DIVIDE_CONQUER)[0]
        oracle_after = rknnt_bruteforce(city_routes, transitions, query, K)
        assert after.transition_ids == oracle_after.transition_ids
        assert after.transition_ids != before.transition_ids or (
            new_id not in oracle_after.transition_ids
            and removed_id not in oracle_before.transition_ids
        )

    def test_route_matrix_invalidates_on_route_updates(self, mini_city):
        from repro.data.checkins import TransitionGenerator
        from repro.model.route import Route

        transitions = TransitionGenerator(mini_city.routes, seed=5).generate(100)
        processor = RkNNTProcessor(mini_city.routes, transitions)
        query = [(1.0, 1.0), (2.0, 1.5)]
        processor.query_batch([query], K)  # builds the route matrix

        new_route = Route(
            mini_city.routes.next_id(), [(0.5, 0.5), (1.5, 1.2), (2.5, 1.8)]
        )
        processor.add_route(new_route)
        result = processor.query_batch([query], K)[0]
        oracle = rknnt_bruteforce(mini_city.routes, transitions, query, K)
        assert result.transition_ids == oracle.transition_ids
        processor.remove_route(new_route.route_id)


class TestPlanningBulkPath:
    def test_bulk_build_matches_scalar_per_vertex(self, mini_city, mini_processor):
        bulk = VertexRkNNTIndex(mini_city.network, mini_processor, k=K)
        bulk.build(backend="auto")

        scalar = VertexRkNNTIndex(mini_city.network, mini_processor, k=K)
        for vertex in mini_city.network.vertices():
            # Independent scalar engine, bypassing every shared cache.
            engine = QueryExecutor(
                ExecutionContext(
                    mini_processor.route_index, mini_processor.transition_index
                ),
                K,
                use_voronoi=True,
                backend="python",
            )
            confirmed = engine.run([tuple(mini_city.network.position(vertex))])
            expected = frozenset(
                (transition_id, endpoint)
                for transition_id, endpoints in confirmed.items()
                for endpoint in endpoints
            )
            assert bulk.vertex_endpoints(vertex) == expected


class TestDivideConquerStats:
    def test_subquery_stats_sum_into_parent(self, mini_processor, mini_workload):
        """Satellite fix: DC stats must be the sum over all sub-queries,
        not the counters of the last one."""
        query = mini_workload.random_query_route(length=5, interval=0.8)
        result = mini_processor.query(query, K, method=DIVIDE_CONQUER)

        totals = {
            "route_nodes_visited": 0,
            "transition_nodes_visited": 0,
            "filter_points": 0,
            "nodes_pruned": 0,
            "candidates": 0,
            "confirmed_points": 0,
        }
        for point in query:
            engine = QueryExecutor(
                ExecutionContext(
                    mini_processor.route_index, mini_processor.transition_index
                ),
                K,
                use_voronoi=True,
                backend="python",
            )
            engine.run([point])
            for field in totals:
                totals[field] += getattr(engine.stats, field)

        stats = result.stats
        assert stats.subqueries == len(query)
        for field, expected in totals.items():
            assert getattr(stats, field) == expected, field
        # Aggregated timings cover every sub-query, so they cannot be
        # smaller than any single phase observation would allow.
        assert stats.filtering_seconds > 0.0
        assert stats.verification_seconds >= 0.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_repeated_point_is_answered_once(
        self, mini_city, mini_transitions, mini_processor, backend
    ):
        """A repeated point adds one skipped sub-query and no work: answer
        and work counters equal those of the deduplicated query."""
        workload = QueryWorkload(mini_city, seed=5)
        distinct = workload.random_query_route(length=4, interval=0.8)
        assert len(set(distinct)) == len(distinct)
        repeated = [distinct[0], *distinct, distinct[2], distinct[0]]
        context = mini_processor.engine_context

        def run(query):
            before = (context.subquery_misses, context.subquery_hits)
            result = mini_processor.query(
                query, K, method=DIVIDE_CONQUER, backend=backend
            )
            after = (context.subquery_misses, context.subquery_hits)
            return result, (after[0] - before[0], after[1] - before[1])

        deduplicated, dedup_counts = run(distinct)
        result, counts = run(repeated)
        assert result.confirmed_endpoints == deduplicated.confirmed_endpoints
        oracle = rknnt_bruteforce(mini_city.routes, mini_transitions, repeated, K)
        assert result.confirmed_endpoints == oracle.confirmed_endpoints
        repeats = len(repeated) - len(distinct)
        assert dedup_counts == (len(distinct), 0)
        assert counts == (len(distinct), repeats)

        def work(stats):
            counters = stats.as_dict()
            for timing in ("filtering_seconds", "verification_seconds", "total_seconds"):
                del counters[timing]
            return counters

        assert work(result.stats) == {
            **work(deduplicated.stats),
            "subqueries": len(repeated),
        }
