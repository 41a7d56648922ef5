"""Warm execution-context caches never outlive the data they answered.

The context's derived caches (route matrix, radius tables) are rebuilt
whenever either index's version moves, and nothing is kept per answered
query.  These tests pin down

* that batches of fresh queries, under every method, grow no container
  the context holds; and
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


class TestNothingRetainedPerQuery:
    @pytest.mark.parametrize("method", METHODS)
    def test_fresh_batches_grow_no_context_container(self, world, method):
        """The context keeps nothing per answered query: once its derived
        caches are built, batches of never-seen queries leave the length
        of every container attribute as it was."""
        routes, transitions = world
        processor = RkNNTProcessor(routes, transitions)
        context = processor.engine_context
        rng = random.Random(7)

        def fresh_batch():
            return [
                [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(3)]
                for _ in range(4)
            ]

        def container_lengths():
            return {
                name: len(value)
                for name, value in vars(context).items()
                if hasattr(value, "__len__")
            }

        processor.query_batch(fresh_batch(), K, method=method)
        before = container_lengths()
        assert "_route_matrix" in before
        misses = context.subquery_misses
        for _ in range(5):
            processor.query_batch(fresh_batch(), K, method=method)
        runs = 5 * 4 * 3 if method == DIVIDE_CONQUER else 0
        assert context.subquery_misses == misses + runs
        assert container_lengths() == before


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
        plan = QueryPlan.for_method("voronoi")
        with ShardedExecutor(
            processor.engine_context, workers=2, start_method=start_method
        ) as pool:
            pool.run(jobs, self.K, plan)  # warm the workers' caches

            def check(label):
                results = pool.run(jobs, self.K, plan)
                self._assert_matches_oracle(processor, queries, results, label)

            self._run_script(processor, check)
