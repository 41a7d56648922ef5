"""Differential tests of the parallel sharded execution layer.

The contract, per method × semantics × backend:

    query_batch(workers=N)  ≡  query_batch(workers=0)  ≡  rknnt_bruteforce

element-wise, in workload order, regardless of shard sizes or completion
order.  Plus the serialisation contract that makes sharding cheap: pickling
an :class:`~repro.engine.context.ExecutionContext` must never carry its
derived caches (route matrix, memoised sub-queries).
"""

import pickle

import pytest

from conftest import BACKENDS

from repro.core.baseline import rknnt_bruteforce
from repro.core.rknnt import DIVIDE_CONQUER, METHODS, RkNNTProcessor
from repro.engine.context import ExecutionContext
from repro.engine import parallel
from repro.engine.parallel import (
    DEFAULT_MIN_SHARD_BATCH,
    MIN_SHARD_BATCH_ENV,
    ShardedExecutor,
    available_cpu_count,
    min_shard_batch,
    resolve_worker_count,
)
from repro.engine.plan import QueryPlan, VORONOI
from repro.planning.precompute import VertexRkNNTIndex

K = 3
QUERY_COUNT = 5
WORKERS = 2


@pytest.fixture(scope="module")
def shard_queries(mini_workload):
    queries = mini_workload.query_routes(QUERY_COUNT, length=4, interval=0.8)
    queries.append(queries[0][:1])  # single-point degenerate case
    return queries


@pytest.fixture(autouse=True)
def force_pool_path(monkeypatch):
    """Exercise the real pool path even on single-CPU runners.

    ``RKNNT_MIN_SHARD_BATCH=0`` disables ``query_batch``'s serial
    fallback so the sharded ≡ serial contract is tested against actual
    worker processes (the fallback itself is covered by
    :class:`TestSerialFallback`, which restores the default).
    """
    monkeypatch.setenv("RKNNT_MIN_SHARD_BATCH", "0")


class TestShardedEquivalence:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("semantics", ["exists", "forall"])
    def test_sharded_equals_serial_equals_bruteforce(
        self, mini_city, mini_transitions, mini_processor, shard_queries,
        method, semantics,
    ):
        mini_processor.engine_context.clear_caches()
        serial = mini_processor.query_batch(
            shard_queries, K, method=method, semantics=semantics
        )
        sharded = mini_processor.query_batch(
            shard_queries, K, method=method, semantics=semantics, workers=WORKERS
        )
        assert len(sharded) == len(serial)
        for query, expected, actual in zip(shard_queries, serial, sharded):
            assert actual.confirmed_endpoints == expected.confirmed_endpoints
            assert actual.transition_ids == expected.transition_ids
            oracle = rknnt_bruteforce(
                mini_city.routes, mini_transitions, query, K, semantics=semantics
            )
            assert actual.transition_ids == oracle.transition_ids

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sharded_backends_agree(
        self, mini_processor, shard_queries, backend
    ):
        serial = mini_processor.query_batch(
            shard_queries, K, method=VORONOI, backend=backend
        )
        sharded = mini_processor.query_batch(
            shard_queries, K, method=VORONOI, backend=backend, workers=WORKERS
        )
        for expected, actual in zip(serial, sharded):
            assert actual.confirmed_endpoints == expected.confirmed_endpoints

    @pytest.mark.parametrize("method", METHODS)
    def test_route_queries_exclude_themselves_per_shard(
        self, mini_city, mini_processor, method
    ):
        routes = list(mini_city.routes)[:4]
        serial = mini_processor.query_batch(routes, K, method=method)
        sharded = mini_processor.query_batch(
            routes, K, method=method, workers=WORKERS
        )
        for expected, actual in zip(serial, sharded):
            assert actual.confirmed_endpoints == expected.confirmed_endpoints

    def test_single_worker_and_single_query_shards(
        self, mini_processor, shard_queries
    ):
        # workers=1 exercises the whole worker machinery without
        # parallelism; chunk_size=1 forces one shard per query, so result
        # re-ordering is maximally stressed.
        serial = mini_processor.query_batch(shard_queries, K)
        single = mini_processor.query_batch(shard_queries, K, workers=1)
        plan = QueryPlan.for_method(VORONOI, share_subquery_cache=True)
        jobs = [
            ([(float(x), float(y)) for x, y in query], frozenset())
            for query in shard_queries
        ]
        with ShardedExecutor(
            mini_processor.engine_context, workers=WORKERS, chunk_size=1
        ) as sharded:
            tiny_shards = sharded.run(jobs, K, plan)
        for expected, one, many in zip(serial, single, tiny_shards):
            assert one.confirmed_endpoints == expected.confirmed_endpoints
            assert many.confirmed_endpoints == expected.confirmed_endpoints

    def test_empty_workload(self, mini_processor):
        assert mini_processor.query_batch([], K, workers=WORKERS) == []

    def test_pool_is_reused_across_runs(self, mini_processor, shard_queries):
        plan = QueryPlan.for_method(VORONOI, share_subquery_cache=True)
        jobs = [
            ([(float(x), float(y)) for x, y in query], frozenset())
            for query in shard_queries
        ]
        serial = mini_processor.query_batch(shard_queries, K)
        with ShardedExecutor(
            mini_processor.engine_context, workers=WORKERS
        ) as sharded:
            first = sharded.run(jobs, K, plan)
            second = sharded.run(jobs, K, plan)
        for expected, a, b in zip(serial, first, second):
            assert a.confirmed_endpoints == expected.confirmed_endpoints
            assert b.confirmed_endpoints == expected.confirmed_endpoints

    def test_reused_pool_rebuilds_after_dynamic_updates(self, mini_city):
        # A reused executor must never serve answers from a pre-update
        # worker snapshot: the pool is version-guarded like every other
        # derived cache.
        from repro.data.checkins import TransitionGenerator
        from repro.model.transition import Transition

        transitions = TransitionGenerator(mini_city.routes, seed=11).generate(120)
        processor = RkNNTProcessor(mini_city.routes, transitions)
        query = [(2.0, 2.0), (3.0, 2.5)]
        jobs = [(query, frozenset())]
        plan = QueryPlan.for_method(VORONOI, share_subquery_cache=True)
        with ShardedExecutor(
            processor.engine_context, workers=WORKERS
        ) as sharded:
            before = sharded.run(jobs, K, plan)[0]
            assert (
                before.confirmed_endpoints
                == processor.query_batch([query], K)[0].confirmed_endpoints
            )
            new_id = transitions.next_id()
            processor.add_transition(Transition(new_id, (2.1, 2.1), (2.4, 2.6)))
            after = sharded.run(jobs, K, plan)[0]
            expected = processor.query_batch([query], K)[0]
            assert after.confirmed_endpoints == expected.confirmed_endpoints
            assert new_id in after.transition_ids


class TestWorkerKnob:
    def test_resolve_worker_count(self):
        assert resolve_worker_count(None) == available_cpu_count()
        assert resolve_worker_count(3) == 3
        # 0 means "in-process" on every other surface; a pool cannot honour
        # that, so the executor refuses it instead of spawning all CPUs.
        with pytest.raises(ValueError):
            resolve_worker_count(0)
        with pytest.raises(ValueError):
            resolve_worker_count(-1)

    def test_invalid_chunk_size(self, mini_processor):
        with pytest.raises(ValueError):
            ShardedExecutor(mini_processor.engine_context, chunk_size=0)


class TestSerialFallback:
    """``query_batch(workers=N)`` declines to spawn a per-call pool when it
    cannot pay off — too few CPUs, or a batch below
    ``RKNNT_MIN_SHARD_BATCH`` — answering serially (identically) instead
    and counting the fallback.  Persistent serving pools are exempt (their
    setup cost is sunk); those paths are covered in test_serving.py."""

    def test_small_batch_answers_serially(
        self, mini_processor, shard_queries, monkeypatch
    ):
        monkeypatch.setenv(MIN_SHARD_BATCH_ENV, str(len(shard_queries) + 1))
        context = mini_processor.engine_context
        before = context.shard_fallbacks
        serial = mini_processor.query_batch(shard_queries, K)
        fell_back = mini_processor.query_batch(shard_queries, K, workers=WORKERS)
        assert context.shard_fallbacks == before + 1
        for expected, actual in zip(serial, fell_back):
            assert actual.confirmed_endpoints == expected.confirmed_endpoints

    def test_single_cpu_answers_serially(
        self, mini_processor, shard_queries, monkeypatch
    ):
        monkeypatch.delenv(MIN_SHARD_BATCH_ENV, raising=False)
        monkeypatch.setattr(parallel, "available_cpu_count", lambda: 1)
        context = mini_processor.engine_context
        before = context.shard_fallbacks
        serial = mini_processor.query_batch(shard_queries, K)
        fell_back = mini_processor.query_batch(shard_queries, K, workers=WORKERS)
        assert context.shard_fallbacks == before + 1
        for expected, actual in zip(serial, fell_back):
            assert actual.confirmed_endpoints == expected.confirmed_endpoints

    def test_zero_disables_the_fallback(
        self, mini_processor, shard_queries, monkeypatch
    ):
        # Even on one CPU, 0 forces the requested pool (the escape hatch
        # this module's autouse fixture relies on).
        monkeypatch.setenv(MIN_SHARD_BATCH_ENV, "0")
        monkeypatch.setattr(parallel, "available_cpu_count", lambda: 1)
        context = mini_processor.engine_context
        before = context.shard_fallbacks
        serial = mini_processor.query_batch(shard_queries, K)
        pooled = mini_processor.query_batch(shard_queries, K, workers=WORKERS)
        assert context.shard_fallbacks == before
        for expected, actual in zip(serial, pooled):
            assert actual.confirmed_endpoints == expected.confirmed_endpoints

    def test_min_shard_batch_parsing(self, monkeypatch):
        monkeypatch.delenv(MIN_SHARD_BATCH_ENV, raising=False)
        assert min_shard_batch() == DEFAULT_MIN_SHARD_BATCH
        monkeypatch.setenv(MIN_SHARD_BATCH_ENV, "7")
        assert min_shard_batch() == 7
        monkeypatch.setenv(MIN_SHARD_BATCH_ENV, "0")
        assert min_shard_batch() == 0
        # A mistyped tuning knob must never change answers or crash.
        monkeypatch.setenv(MIN_SHARD_BATCH_ENV, "lots")
        assert min_shard_batch() == DEFAULT_MIN_SHARD_BATCH
        monkeypatch.setenv(MIN_SHARD_BATCH_ENV, "-3")
        assert min_shard_batch() == DEFAULT_MIN_SHARD_BATCH


class TestContextPickling:
    def test_derived_caches_are_stripped(self, mini_city, mini_processor):
        context = mini_processor.engine_context
        # Warm both derived caches, then ship the context.
        assert len(context.route_matrix().blocks) >= 1
        mini_processor.query_batch(
            [[(2.0, 2.0), (3.0, 2.5)]], K, method=DIVIDE_CONQUER
        )
        context.knn_radii(K)
        state = context.__getstate__()
        assert state["_route_matrix"] is None
        assert state["_knn_radii"] == {}
        assert state["_subqueries"] == {}
        assert state["subquery_hits"] == 0
        assert state["subquery_misses"] == 0

        clone = pickle.loads(pickle.dumps(context))
        assert isinstance(clone, ExecutionContext)
        assert clone._route_matrix is None
        assert clone._subqueries == {}
        # The clone answers queries identically to the original.
        query = [(2.0, 2.0), (3.0, 2.5)]
        plan = QueryPlan.for_method(VORONOI)
        from repro.engine.executor import run_stages

        expected, _ = run_stages(context, query, K, plan)
        actual, _ = run_stages(clone, query, K, plan)
        assert actual == expected

    def test_pickle_roundtrip_excludes_cache_payload_bytes(
        self, mini_city, mini_processor
    ):
        context = mini_processor.engine_context
        context.clear_caches()
        cold = len(pickle.dumps(context))
        # Fill the k-th-route radius table and warm the sub-query cache
        # heavily; the pickled size must not grow with them (the caches are
        # derived state, rebuilt per worker).
        VertexRkNNTIndex(mini_city.network, mini_processor, k=K).build()
        assert context._knn_radii
        mini_processor.query_batch(
            [[(float(i), float(i % 5))] for i in range(25)],
            K,
            method=DIVIDE_CONQUER,
        )
        warm = len(pickle.dumps(context))
        assert warm == cold


class TestBatchHandle:
    """The non-blocking dispatch primitive the network server flushes
    micro-batches through."""

    def test_handle_resolves_with_run_result(self, mini_processor, shard_queries):
        from repro.engine.parallel import BatchHandle

        context = mini_processor.engine_context
        plan = QueryPlan.for_method(VORONOI)
        jobs = [(query, None) for query in shard_queries]
        with ShardedExecutor(context, workers=WORKERS) as executor:
            serial = executor._run_serial(jobs, K, plan, "exists", None)
            handle = executor.run_handle(jobs, K, plan)
            assert isinstance(handle, BatchHandle)
            results = handle.result(timeout=120)
            assert handle.done()
            assert [r.transition_ids for r in results] == [
                r.transition_ids for r in serial
            ]

    def test_handle_surfaces_exceptions(self):
        from repro.engine.parallel import BatchHandle

        def boom():
            raise RuntimeError("kaput")

        handle = BatchHandle(boom)
        with pytest.raises(RuntimeError, match="kaput"):
            handle.result(timeout=30)
        assert handle.done()

    def test_handle_runs_off_the_calling_thread(self):
        import threading

        from repro.engine.parallel import BatchHandle

        seen = {}

        def record():
            seen["thread"] = threading.current_thread()
            return 42

        handle = BatchHandle(record, label="rknnt-test-handle")
        assert handle.result(timeout=30) == 42
        assert seen["thread"] is not threading.current_thread()
        assert seen["thread"].name == "rknnt-test-handle"
        assert seen["thread"].daemon
