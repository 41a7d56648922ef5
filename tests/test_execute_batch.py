"""Differential tests of the batch loop on a spatially clustered workload.

``engine.executor.execute_batch`` answers a batch as one ``execute`` call
per job against one shared execution context.  The workload here is the
clustered one the batch-throughput benchmark runs: queries of a cluster
start near one centre and share a heading, so they overlap in candidate
routes, filter points and divide & conquer sub-queries.  Any state one job
leaves behind in the shared context is most likely to change the next
job's answer on such a workload.  The contract, per method × semantics ×
backend:

    execute_batch(jobs)  ≡  [execute(job) for job in jobs]  ≡  rknnt_bruteforce

where ``≡`` is element-wise identity of the confirmed endpoint maps and
transition ids.  On top of it: each job's work counters equal those of a
cold single run, route exclusions apply per job, the deadline is checked
before every job, sharded runs equal the serial loop, and standing queries
registered next to each other match fresh queries under churn.
"""

from __future__ import annotations

import random

import pytest

from conftest import BACKENDS

from repro.core.baseline import rknnt_bruteforce
from repro.core.rknnt import DIVIDE_CONQUER, METHODS, RkNNTProcessor
from repro.data.workloads import QueryWorkload, make_city
from repro.engine.executor import execute, execute_batch
from repro.engine.parallel import ShardedExecutor
from repro.engine.plan import QueryPlan
from repro.engine.resilience import Deadline, DeadlineExceeded
from repro.model.route import Route
from repro.model.transition import Transition

K = 2
SEMANTICS = ["exists", "forall"]

#: Per-query counters that measure work, not wall time.
WORK_COUNTERS = (
    "route_nodes_visited",
    "transition_nodes_visited",
    "filter_points",
    "nodes_pruned",
    "candidates",
    "confirmed_points",
    "subqueries",
)


@pytest.fixture(scope="module")
def clustered_queries(mini_city):
    workload = QueryWorkload(mini_city, seed=17)
    return workload.clustered_query_routes(
        10, length=3, interval=0.7, clusters=3
    )


def _jobs(queries, excluded=frozenset()):
    return [(tuple(map(tuple, q)), excluded) for q in queries]


def _batch_plan(method):
    return QueryPlan.for_method(method, share_subquery_cache=True).resolved()


def _assert_same_answers(expected, actual):
    assert len(actual) == len(expected)
    for index, (a, b) in enumerate(zip(expected, actual)):
        assert b.confirmed_endpoints == a.confirmed_endpoints, index
        assert b.transition_ids == a.transition_ids, index


class TestClusteredBatch:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_equals_single_equals_bruteforce(
        self, mini_city, mini_transitions, mini_processor, clustered_queries,
        method, semantics, backend,
    ):
        mini_processor.engine_context.clear_caches()
        batch = mini_processor.query_batch(
            clustered_queries, K, method=method, semantics=semantics,
            backend=backend,
        )
        singles = [
            mini_processor.query(q, K, method=method, semantics=semantics)
            for q in clustered_queries
        ]
        _assert_same_answers(singles, batch)
        for query, batched in zip(clustered_queries, batch):
            oracle = rknnt_bruteforce(
                mini_city.routes, mini_transitions, query, K,
                semantics=semantics,
            )
            assert batched.confirmed_endpoints == oracle.confirmed_endpoints
            assert batched.transition_ids == oracle.transition_ids

    @pytest.mark.parametrize("method", METHODS)
    def test_work_counters_match_cold_single_runs(
        self, mini_processor, clustered_queries, method
    ):
        """A job's counters do not depend on the jobs before it: memo hits
        replay the statistics of the run that filled the memo."""
        context = mini_processor.engine_context
        context.clear_caches()
        batch = mini_processor.query_batch(
            clustered_queries, K, method=method, backend="python"
        )
        for query, batched in zip(clustered_queries, batch):
            context.clear_caches()
            single = mini_processor.query(query, K, method=method)
            for name in WORK_COUNTERS:
                assert getattr(batched.stats, name) == getattr(
                    single.stats, name
                ), name

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_second_divide_conquer_batch_is_pure_memo_hits(
        self, mini_processor, clustered_queries, semantics
    ):
        context = mini_processor.engine_context
        context.clear_caches()
        first = mini_processor.query_batch(
            clustered_queries, K, method=DIVIDE_CONQUER, semantics=semantics
        )
        misses, hits = context.subquery_misses, context.subquery_hits
        assert misses > 0
        second = mini_processor.query_batch(
            clustered_queries, K, method=DIVIDE_CONQUER, semantics=semantics
        )
        assert context.subquery_misses == misses
        assert context.subquery_hits > hits
        _assert_same_answers(first, second)


class TestExecuteBatch:
    def test_empty_batch(self, mini_processor):
        context = mini_processor.engine_context
        assert execute_batch(context, [], K, _batch_plan("voronoi"), "exists") == []

    def test_jobs_may_be_a_generator(self, mini_processor, clustered_queries):
        context = mini_processor.engine_context
        plan = _batch_plan("voronoi")
        jobs = _jobs(clustered_queries)
        from_list = execute_batch(context, jobs, K, plan, "exists")
        from_generator = execute_batch(
            context, (job for job in jobs), K, plan, "exists"
        )
        _assert_same_answers(from_list, from_generator)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_exclusions_apply_per_job(
        self, mini_city, mini_transitions, mini_processor, clustered_queries,
        method, semantics,
    ):
        """Each query runs twice in a row, once with half the routes
        excluded and once with none: neither answer may leak into the
        other."""
        context = mini_processor.engine_context
        context.clear_caches()
        routes = list(mini_city.routes)
        half = frozenset(r.route_id for r in routes[: len(routes) // 2])
        jobs = []
        for points, _ in _jobs(clustered_queries[:3]):
            jobs.append((points, half))
            jobs.append((points, frozenset()))
        results = execute_batch(context, jobs, K, _batch_plan(method), semantics)
        for (points, excluded), result in zip(jobs, results):
            oracle = rknnt_bruteforce(
                mini_city.routes, mini_transitions, list(points), K,
                semantics=semantics, exclude_route_ids=excluded,
            )
            assert result.confirmed_endpoints == oracle.confirmed_endpoints
            assert result.transition_ids == oracle.transition_ids
        # The exclusion matters on this workload: the paired answers differ.
        assert any(
            a.confirmed_endpoints != b.confirmed_endpoints
            for a, b in zip(results[0::2], results[1::2])
        )

    def test_expired_deadline_raises_before_the_first_job(
        self, mini_processor, clustered_queries, monkeypatch
    ):
        import repro.engine.executor as executor_module

        calls = []
        monkeypatch.setattr(
            executor_module, "execute", lambda *a, **kw: calls.append(a)
        )
        now = [0.0]
        deadline = Deadline(10.0, clock=lambda: now[0])
        now[0] = 1.0
        with pytest.raises(DeadlineExceeded):
            execute_batch(
                mini_processor.engine_context, _jobs(clustered_queries), K,
                _batch_plan("voronoi"), "exists", deadline=deadline,
            )
        assert calls == []

    def test_deadline_is_checked_between_jobs(
        self, mini_processor, clustered_queries, monkeypatch
    ):
        """Each job takes one (fake) second: a 1.5 s budget lets two jobs
        run and stops the batch before the third."""
        import repro.engine.executor as executor_module

        now = [0.0]
        calls = []

        def one_second_execute(*args, **kwargs):
            calls.append(args)
            result = execute(*args, **kwargs)
            now[0] += 1.0
            return result

        monkeypatch.setattr(executor_module, "execute", one_second_execute)
        deadline = Deadline(1500.0, clock=lambda: now[0])
        with pytest.raises(DeadlineExceeded):
            execute_batch(
                mini_processor.engine_context, _jobs(clustered_queries), K,
                _batch_plan("voronoi"), "exists", deadline=deadline,
            )
        assert len(calls) == 2

    @pytest.mark.parametrize("method", METHODS)
    def test_generous_deadline_changes_nothing(
        self, mini_processor, clustered_queries, method
    ):
        context = mini_processor.engine_context
        plan = _batch_plan(method)
        jobs = _jobs(clustered_queries)
        context.clear_caches()
        plain = execute_batch(context, jobs, K, plan, "exists")
        context.clear_caches()
        bounded = execute_batch(
            context, jobs, K, plan, "exists", deadline=Deadline(600_000.0)
        )
        _assert_same_answers(plain, bounded)


class TestShardedClusteredBatch:
    @pytest.mark.parametrize("method", METHODS)
    def test_sharded_equals_serial(
        self, mini_processor, clustered_queries, method
    ):
        context = mini_processor.engine_context
        plan = _batch_plan(method)
        jobs = _jobs(clustered_queries)
        context.clear_caches()
        serial = execute_batch(context, jobs, K, plan, "exists")
        with ShardedExecutor(context, workers=2, chunk_size=3) as sharded:
            pooled = sharded.run(jobs, K, plan, "exists")
        _assert_same_answers(serial, pooled)


def _nearby_pair(city, seed=31):
    """A random query route and a copy shifted by 0.05 in x and y."""
    query = QueryWorkload(city, seed=seed).random_query_route(3, 0.5)
    return query, [(x + 0.05, y + 0.05) for x, y in query]


def _assert_subscriptions_current(processor, subscriptions, label, **kwargs):
    for query, subscription in subscriptions:
        standing = subscription.result()
        fresh = processor.query(query, K, **kwargs)
        oracle = rknnt_bruteforce(
            processor.routes, processor.transitions, query, K,
            semantics=kwargs.get("semantics", "exists"),
        )
        assert standing.confirmed_endpoints == fresh.confirmed_endpoints, label
        assert standing.transition_ids == fresh.transition_ids, label
        assert standing.transition_ids == oracle.transition_ids, label


class TestNearbySubscriptions:
    """Two standing queries a few hundredths of a unit apart share filter
    points and candidates; each must still be maintained on its own."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_nearby_subscription_matches_fresh_query(
        self, mini_city, mini_processor, method, semantics
    ):
        subscriptions = []
        try:
            for query in _nearby_pair(mini_city):
                subscriptions.append(
                    (
                        query,
                        mini_processor.watch(
                            query, K, method=method, semantics=semantics
                        ),
                    )
                )
            _assert_subscriptions_current(
                mini_processor, subscriptions, "registered",
                method=method, semantics=semantics,
            )
        finally:
            for _, subscription in subscriptions:
                mini_processor.unwatch(subscription)

    @pytest.mark.parametrize("method", METHODS)
    def test_nearby_subscriptions_track_route_churn(self, method):
        city, transitions = make_city("mini")
        processor = RkNNTProcessor(city.routes, transitions)
        pair = _nearby_pair(city)
        subscriptions = [
            (query, processor.watch(query, K, method=method)) for query in pair
        ]
        route = Route(
            processor.routes.next_id(),
            [(x + 0.3, y - 0.2) for x, y in pair[1]],
        )
        processor.add_route(route)
        _assert_subscriptions_current(
            processor, subscriptions, "add route", method=method
        )
        processor.remove_route(route.route_id)
        _assert_subscriptions_current(
            processor, subscriptions, "remove route", method=method
        )

    @pytest.mark.parametrize("method", METHODS)
    def test_nearby_subscriptions_track_transition_churn(self, method):
        city, transitions = make_city("mini")
        processor = RkNNTProcessor(city.routes, transitions)
        pair = _nearby_pair(city)
        subscriptions = [
            (query, processor.watch(query, K, method=method)) for query in pair
        ]
        rng = random.Random(7)
        inserted = []
        for x, y in pair[0]:
            tid = processor.transitions.next_id()
            processor.add_transition(
                Transition(
                    tid,
                    (x + rng.uniform(-0.2, 0.2), y + rng.uniform(-0.2, 0.2)),
                    (x + rng.uniform(-1.0, 1.0), y + rng.uniform(-1.0, 1.0)),
                )
            )
            inserted.append(tid)
        _assert_subscriptions_current(
            processor, subscriptions, "insert transitions", method=method
        )
        for tid in inserted[::2]:
            processor.remove_transition(tid)
        _assert_subscriptions_current(
            processor, subscriptions, "delete transitions", method=method
        )
