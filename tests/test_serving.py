"""Differential and lifecycle tests of the persistent serving pool.

The serving contract, per method × semantics × backend:

    persistent pool ≡ per-call pool ≡ serial ≡ brute force

element-wise, in workload order — plus the lifecycle guarantees that make
the pool safe to keep alive: transition churn is delta-synced into the
workers (no reseed), route churn reseeds transparently, a worker crash
mid-query is recovered from by bounded reseed-and-replay (the full fault
matrix lives in test_resilience.py), and no shared-memory segment
outlives its pool (exit, crash and double-close included).
"""

import os
import time

import pytest

from conftest import BACKENDS

from repro.core.baseline import rknnt_bruteforce
from repro.core.rknnt import METHODS, RkNNTProcessor
from repro.data.checkins import TransitionGenerator
from repro.engine.parallel import ShardedExecutor
from repro.engine.plan import QueryPlan
from repro.model.route import Route
from repro.model.transition import Transition

K = 3
QUERY_COUNT = 4
WORKERS = 2


#: Brute-force oracle answers, cached per (query, semantics) — the oracle
#: does not depend on method/backend, so the 12-way differential sweep
#: pays for it once per query.
_ORACLE_CACHE = {}


def _oracle_ids(city, transitions, query, semantics):
    key = (tuple(map(tuple, query)), semantics)
    if key not in _ORACLE_CACHE:
        _ORACLE_CACHE[key] = rknnt_bruteforce(
            city.routes, transitions, query, K, semantics=semantics
        ).transition_ids
    return _ORACLE_CACHE[key]


@pytest.fixture(scope="module")
def serve_queries(mini_workload):
    queries = mini_workload.query_routes(QUERY_COUNT, length=4, interval=0.8)
    queries.append(queries[0][:1])  # single-point degenerate case
    return queries


@pytest.fixture(scope="module")
def serving(mini_city, mini_transitions):
    """One persistent pool shared by the whole differential sweep (reuse is
    the point); asserts the pool does not outlive the scope."""
    processor = RkNNTProcessor(mini_city.routes, mini_transitions)
    with processor.serving_pool(workers=WORKERS) as pool:
        yield processor, pool
    assert processor.active_serving_pool is None


class TestServingEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("semantics", ["exists", "forall"])
    @pytest.mark.parametrize("method", METHODS)
    def test_persistent_equals_percall_equals_serial_equals_bruteforce(
        self, mini_city, mini_transitions, serving, serve_queries,
        method, semantics, backend,
    ):
        processor, pool = serving
        serial = processor.query_batch(
            serve_queries, K, method=method, semantics=semantics, backend=backend
        )
        persistent = processor.query_batch(
            serve_queries, K, method=method, semantics=semantics,
            backend=backend, workers=WORKERS,
        )
        plan = QueryPlan.for_method(method, backend=backend)
        jobs = [
            ([(float(x), float(y)) for x, y in query], frozenset())
            for query in serve_queries
        ]
        with ShardedExecutor(
            processor.engine_context, workers=WORKERS
        ) as per_call:
            per_call_results = per_call.run(jobs, K, plan, semantics=semantics)
        for query, expected, warm, cold in zip(
            serve_queries, serial, persistent, per_call_results
        ):
            assert warm.confirmed_endpoints == expected.confirmed_endpoints
            assert cold.confirmed_endpoints == expected.confirmed_endpoints
            assert warm.transition_ids == _oracle_ids(
                mini_city, mini_transitions, query, semantics
            )

    def test_pool_is_reused_across_batches(self, serving, serve_queries):
        processor, pool = serving
        spawned = pool.pools_spawned
        for _ in range(3):
            processor.query_batch(serve_queries, K, workers=WORKERS)
        assert pool.pools_spawned == spawned  # all three dispatched warm


class TestDynamicUpdatesWhilePoolLive:
    @pytest.fixture()
    def churn_processor(self, mini_city):
        transitions = TransitionGenerator(mini_city.routes, seed=17).generate(120)
        return RkNNTProcessor(mini_city.routes, transitions), transitions

    def test_transition_churn_is_delta_synced(self, churn_processor):
        processor, transitions = churn_processor
        query = [(2.0, 2.0), (3.0, 2.5)]
        with processor.serving_pool(workers=WORKERS) as pool:
            before = processor.query_batch([query], K, workers=WORKERS)[0]
            assert (
                before.confirmed_endpoints
                == processor.query_batch([query], K)[0].confirmed_endpoints
            )
            added = []
            for step in range(3):
                new_id = transitions.next_id()
                processor.add_transition(
                    Transition(new_id, (2.0 + step / 10, 2.1), (2.4, 2.6))
                )
                added.append(new_id)
            processor.remove_transition(added[0])
            after = processor.query_batch([query], K, workers=WORKERS)[0]
            fresh = processor.query_batch([query], K)[0]
            assert after.confirmed_endpoints == fresh.confirmed_endpoints
            assert added[1] in after.transition_ids
            assert added[0] not in after.transition_ids
            # The whole churn burst was absorbed by delta sync: the workers
            # invalidated/patched their caches, the pool never respawned.
            assert pool.pools_spawned == 1

    def test_route_churn_reseeds_the_pool(self, mini_city, churn_processor):
        processor, _ = churn_processor
        query = [(2.0, 2.0), (3.0, 2.5)]
        with processor.serving_pool(workers=WORKERS) as pool:
            processor.query_batch([query], K, workers=WORKERS)
            assert pool.pools_spawned == 1
            route_id = mini_city.routes.next_id()
            route = Route(route_id, [(1.9, 2.0), (2.5, 2.2), (3.1, 2.4)])
            processor.add_route(route)
            try:
                after = processor.query_batch([query], K, workers=WORKERS)[0]
                fresh = processor.query_batch([query], K)[0]
                assert after.confirmed_endpoints == fresh.confirmed_endpoints
                assert pool.pools_spawned == 2  # geometry changed: reseeded
            finally:
                processor.remove_route(route_id)

    def test_worker_crash_mid_query_recovers_once(self, churn_processor):
        processor, _ = churn_processor
        query = [(2.0, 2.0), (3.0, 2.5)]
        with processor.serving_pool(workers=WORKERS) as pool:
            expected = processor.query_batch([query], K, workers=WORKERS)[0]
            # Kill a worker out from under the executor, then wait until
            # the pool has noticed (otherwise the surviving worker could
            # serve the next dispatch before the break is detected and no
            # recovery would be needed): the next dispatch hits a broken
            # pool, reseeds and replays the workload.
            pool._pool.submit(os._exit, 13)
            deadline = time.monotonic() + 30.0
            while not pool._pool._broken and time.monotonic() < deadline:
                time.sleep(0.02)
            assert pool._pool._broken, "worker kill was never detected"
            after = processor.query_batch([query], K, workers=WORKERS)[0]
            assert after.confirmed_endpoints == expected.confirmed_endpoints
            assert pool.crash_recoveries == 1
            assert pool.pools_spawned == 2


class TestServingPoolLifecycle:
    def test_nested_serving_pool_rejected(self, mini_processor, serve_queries):
        with mini_processor.serving_pool(workers=1):
            with pytest.raises(RuntimeError):
                with mini_processor.serving_pool(workers=1):
                    pass  # pragma: no cover
        assert mini_processor.active_serving_pool is None

    def test_double_close_is_idempotent(self, mini_city, mini_transitions):
        processor = RkNNTProcessor(mini_city.routes, mini_transitions)
        with processor.serving_pool(workers=1) as pool:
            processor.query_batch([[(2.0, 2.0)]], K, workers=1)
        pool.close()  # second close (the context manager already closed it)
        processor.close()
        processor.close()

    def test_percall_pools_are_not_retained(self, mini_city, mini_transitions):
        processor = RkNNTProcessor(mini_city.routes, mini_transitions)
        processor.query_batch([[(2.0, 2.0)]], K, workers=1)
        assert processor.active_serving_pool is None


class TestSpawnStartMethod:
    """Spawn-start-method serving (the macOS/Windows leg).

    The columnar context pickle is start-method-agnostic, so a spawn pool
    must answer exactly like the fork pool and the serial path.
    """

    @pytest.fixture(scope="class")
    def spawn_serving(self, mini_city, mini_transitions):
        processor = RkNNTProcessor(mini_city.routes, mini_transitions)
        with processor.serving_pool(workers=WORKERS, start_method="spawn") as pool:
            assert pool.start_method == "spawn"
            yield processor, pool
        assert processor.active_serving_pool is None

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", METHODS)
    def test_spawn_pool_equals_serial(
        self, mini_city, mini_transitions, spawn_serving, serve_queries,
        method, backend,
    ):
        processor, pool = spawn_serving
        serial = processor.query_batch(
            serve_queries, K, method=method, backend=backend
        )
        spawned = processor.query_batch(
            serve_queries, K, method=method, backend=backend, workers=WORKERS
        )
        for query, expected, actual in zip(serve_queries, serial, spawned):
            assert actual.confirmed_endpoints == expected.confirmed_endpoints
            assert actual.transition_ids == _oracle_ids(
                mini_city, mini_transitions, query, "exists"
            )
        assert pool.pools_spawned == 1  # the whole sweep reused one pool

    def test_spawn_pool_delta_syncs_transition_churn(
        self, mini_city, spawn_serving
    ):
        processor, pool = spawn_serving
        query = [(2.0, 2.0), (3.0, 2.5)]
        new_id = processor.transitions.next_id()
        processor.add_transition(Transition(new_id, (2.0, 2.1), (2.4, 2.6)))
        try:
            after = processor.query_batch([query], K, workers=WORKERS)[0]
            fresh = processor.query_batch([query], K)[0]
            assert after.confirmed_endpoints == fresh.confirmed_endpoints
            assert pool.pools_spawned == 1  # synced, never respawned
        finally:
            processor.remove_transition(new_id)

    def test_env_knob_selects_spawn(self, mini_city, mini_transitions, monkeypatch):
        from repro.engine.parallel import START_METHOD_ENV, ShardedExecutor

        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        processor = RkNNTProcessor(mini_city.routes, mini_transitions)
        executor = ShardedExecutor(processor.engine_context, workers=1)
        assert executor.start_method == "spawn"
        # A mistyped knob falls back to the platform default, never raises.
        monkeypatch.setenv(START_METHOD_ENV, "warp-drive")
        fallback = ShardedExecutor(processor.engine_context, workers=1)
        assert fallback.start_method in ("fork", "spawn", "forkserver")


class TestServingIntegration:
    def test_refresh_subscriptions_via_pool(self, mini_city, mini_transitions):
        processor = RkNNTProcessor(mini_city.routes, mini_transitions)
        queries = [
            [(2.0, 2.0), (3.0, 2.5)],
            [(1.0, 1.5)],
            [(3.5, 1.0), (3.0, 2.0)],
        ]
        subscriptions = [processor.watch(query, K) for query in queries]
        route_id = mini_city.routes.next_id()
        try:
            with processor.serving_pool(workers=WORKERS):
                # Route churn close to every query: the standing results
                # genuinely change, and all re-filters run in the pool.
                processor.add_route(
                    Route(route_id, [(1.5, 1.6), (2.5, 2.1), (3.2, 2.3)])
                )
                assert all(s.is_stale() for s in subscriptions)
                processor.refresh_subscriptions()
                assert not any(s.is_stale() for s in subscriptions)
                for subscription, query in zip(subscriptions, queries):
                    fresh = processor.query(query, K)
                    assert subscription.transition_ids == fresh.transition_ids
                # The re-installed filter structures must keep the O(filter)
                # insert fast-path exact: stream a transition through and
                # compare against a fresh query again.
                new_id = mini_transitions.next_id()
                processor.add_transition(
                    Transition(new_id, (2.05, 2.05), (2.9, 2.4))
                )
                for subscription, query in zip(subscriptions, queries):
                    fresh = processor.query(query, K)
                    assert subscription.transition_ids == fresh.transition_ids
                processor.remove_transition(new_id)
        finally:
            processor.remove_route(route_id)
            processor.close()
