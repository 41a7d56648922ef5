"""Warm execution-context caches never outlive the data they answered.

The divide & conquer sub-query memo is cleared wholesale whenever either
index's version moves.  These tests pin down

* that a warm memo is dropped after transition churn and after a route
  mutation, and the answers stay equal to the brute-force oracle; and
* that an interleaved churn script keeps every method exact against the
  oracle, serially and through fork and spawn worker pools whose caches
  were warmed once and never cleared.
"""

from __future__ import annotations

import multiprocessing
import random

import pytest

from repro.core.baseline import rknnt_bruteforce
from repro.core.rknnt import DIVIDE_CONQUER, METHODS, RkNNTProcessor
from repro.data.workloads import QueryWorkload, make_city
from repro.engine.parallel import ShardedExecutor
from repro.engine.plan import QueryPlan
from repro.model.dataset import RouteDataset, TransitionDataset
from repro.model.route import Route
from repro.model.transition import Transition

K = 3


@pytest.fixture
def world():
    rng = random.Random(4242)
    routes = RouteDataset(
        [
            Route(
                route_id,
                [
                    (rng.uniform(0, 10), rng.uniform(0, 10))
                    for _ in range(4)
                ],
            )
            for route_id in range(8)
        ]
    )
    transitions = TransitionDataset(
        [
            Transition(
                tid,
                (rng.uniform(0, 10), rng.uniform(0, 10)),
                (rng.uniform(0, 10), rng.uniform(0, 10)),
            )
            for tid in range(40)
        ]
    )
    return routes, transitions


@pytest.fixture
def queries():
    return [
        [(2.0, 2.0), (4.0, 4.0)],
        [(6.0, 3.0), (8.0, 8.0)],
        [(1.0, 9.0)],
    ]


def warm_cache(processor, queries):
    processor.query_batch(queries, K, method=DIVIDE_CONQUER)
    return processor.engine_context


def mutate_transitions(processor, inserts=6, deletes=6, seed=9):
    rng = random.Random(seed)
    next_id = processor.transitions.next_id()
    for _ in range(inserts):
        processor.add_transition(
            Transition(
                next_id,
                (rng.uniform(0, 10), rng.uniform(0, 10)),
                (rng.uniform(0, 10), rng.uniform(0, 10)),
            )
        )
        next_id += 1
    victims = list(processor.transitions.transition_ids)[:deletes]
    for victim in victims:
        processor.remove_transition(victim)


class TestMemoInvalidation:
    def test_transition_churn_clears_and_stays_exact(self, world, queries):
        routes, transitions = world
        processor = RkNNTProcessor(routes, transitions)
        context = warm_cache(processor, queries)
        assert len(context._subqueries) > 0

        mutate_transitions(processor)
        hits_before = context.subquery_hits
        results = processor.query_batch(queries, K, method=DIVIDE_CONQUER)

        # Every query point is distinct, so a cleared memo gives no hits.
        assert context.subquery_hits == hits_before
        for query, result in zip(queries, results):
            oracle = rknnt_bruteforce(routes, transitions, query, K)
            assert result.transition_ids == oracle.transition_ids
            assert result.confirmed_endpoints == oracle.confirmed_endpoints

    def test_route_mutation_still_clears(self, world, queries):
        routes, transitions = world
        processor = RkNNTProcessor(routes, transitions)
        context = warm_cache(processor, queries)
        processor.add_route(Route(routes.next_id(), [(3.0, 3.0), (6.0, 6.0)]))
        hits_before = context.subquery_hits
        results = processor.query_batch(queries, K, method=DIVIDE_CONQUER)
        assert context.subquery_hits == hits_before
        for query, result in zip(queries, results):
            oracle = rknnt_bruteforce(routes, transitions, query, K)
            assert result.transition_ids == oracle.transition_ids

    def test_interleaved_churn_rounds_stay_exact(self, world, queries):
        # Several churn → query rounds against one warm memo.
        routes, transitions = world
        processor = RkNNTProcessor(routes, transitions)
        warm_cache(processor, queries)
        for round_seed in range(3):
            mutate_transitions(processor, inserts=3, deletes=3, seed=round_seed)
            results = processor.query_batch(queries, K, method=DIVIDE_CONQUER)
            for query, result in zip(queries, results):
                oracle = rknnt_bruteforce(routes, transitions, query, K)
                assert result.confirmed_endpoints == oracle.confirmed_endpoints


class TestInvalidationUnderChurn:
    """An interleaved churn script — transition inserts, deletes, a route
    added and removed — runs against a processor whose shared caches were
    warmed once and never cleared: after every mutation the batch answers
    must match the brute-force oracle recomputed from the mutated datasets,
    serially and through fork and spawn worker pools (which see the churn
    as delta syncs and route-churn reseeds)."""

    K = 2

    def _queries(self, city):
        workload = QueryWorkload(city, seed=17)
        return workload.clustered_query_routes(
            6, length=3, interval=0.7, clusters=2
        )

    def _run_script(self, processor, check):
        """Mutate, then verify, six times: insert/insert/delete transitions
        interleaved with a route appearing and disappearing."""
        first = processor.transitions.next_id()
        processor.add_transition(Transition(first, (2.1, 2.1), (2.4, 2.6)))
        check("insert first transition")
        second = processor.transitions.next_id()
        processor.add_transition(Transition(second, (3.1, 2.2), (2.6, 2.9)))
        check("insert second transition")
        processor.remove_transition(first)
        check("delete first transition")
        route = Route(
            processor.routes.next_id(),
            [(2.2, 2.1), (2.6, 2.4), (3.0, 2.8)],
        )
        processor.add_route(route)
        check("add route")
        processor.remove_route(route.route_id)
        check("remove route")
        processor.remove_transition(second)
        check("delete second transition")

    def _assert_matches_oracle(self, processor, queries, results, label):
        for index, (result, query) in enumerate(zip(results, queries)):
            oracle = rknnt_bruteforce(
                processor.routes, processor.transitions, query, self.K
            )
            assert result.confirmed_endpoints == oracle.confirmed_endpoints, (
                f"{label}: stale answer at query {index}"
            )
            assert result.transition_ids == oracle.transition_ids, (
                f"{label}: stale transitions at query {index}"
            )

    @pytest.mark.parametrize("method", METHODS)
    def test_serial_answers_track_churn(self, method):
        city, transitions = make_city("mini")
        processor = RkNNTProcessor(city.routes, transitions)
        queries = self._queries(city)
        # Warm every shared cache once; from here on each mutation must
        # invalidate on its own — the caches are never cleared again.
        processor.query_batch(queries, self.K, method=method)

        def check(label):
            results = processor.query_batch(queries, self.K, method=method)
            self._assert_matches_oracle(processor, queries, results, label)

        self._run_script(processor, check)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pooled_answers_track_churn(self, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        city, transitions = make_city("mini")
        processor = RkNNTProcessor(city.routes, transitions)
        queries = self._queries(city)
        jobs = [(tuple(map(tuple, q)), frozenset()) for q in queries]
        plan = QueryPlan.for_method("voronoi", share_subquery_cache=True)
        with ShardedExecutor(
            processor.engine_context, workers=2, start_method=start_method
        ) as pool:
            pool.run(jobs, self.K, plan)  # warm the workers' caches

            def check(label):
                results = pool.run(jobs, self.K, plan)
                self._assert_matches_oracle(processor, queries, results, label)

            self._run_script(processor, check)
