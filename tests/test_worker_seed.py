"""Pool worker seeding: the columnar pickle and the store handle.

A pool worker gets its private context one of two ways — the store
handle (store-backed context still at its packed versions) or the
columnar context pickle (everything else).  Seeding is pure mechanism and
must never change an answer; these tests pin the mechanism itself: the
pickle carries no derived cache and the worker rebuilds the route matrix
and packed boxes bitwise, the initializer installs a context from either
seed and degrades a stale or faulted handle to the pickle (or to a typed
error on the first task, never a dead worker), and the executor picks
the handle only while it still describes the indexes.
"""

import dataclasses
import pickle

import pytest

from repro.core.rknnt import RkNNTProcessor
from repro.engine import columnar, faults, parallel
from repro.engine import store as store_module
from repro.engine.executor import run_stages
from repro.engine.parallel import ShardedExecutor
from repro.engine.plan import QueryPlan
from repro.engine.resilience import StoreError
from repro.model.route import Route

K = 3
QUERIES = [[(2.0, 2.0), (3.0, 2.5)], [(1.0, 4.0)]]

@pytest.fixture()
def fresh_processor(mini_city, mini_transitions):
    return RkNNTProcessor(mini_city.routes, mini_transitions)


@pytest.fixture(scope="module")
def store_path(tmp_path_factory, mini_processor):
    path = str(tmp_path_factory.mktemp("seed") / "mini.store")
    store_module.save_indexes(
        path, mini_processor.route_index, mini_processor.transition_index
    )
    return path


@pytest.fixture()
def worker_globals():
    """Reset the in-process worker globals the initializer writes."""
    yield
    parallel._WORKER_CONTEXT = None
    parallel._WORKER_STORE_ERROR = None
    faults.uninstall()


def _answers(context):
    plan = QueryPlan.for_method("voronoi")
    return [run_stages(context, query, K, plan)[0] for query in QUERIES]


class TestColumnarSeed:
    def test_seed_ships_no_derived_cache(self, fresh_processor):
        context = fresh_processor.engine_context
        context.route_matrix()
        trees = (context.route_index.tree, context.transition_index.tree)
        # Bulk load installs every node's packed child boxes; the
        # pickle bytes are the same with them dropped, so none of them travel.
        for tree in trees:
            for node in columnar.walk_nodes(tree):
                node.packed_child_boxes()
        shipped = pickle.dumps(context)
        for tree in trees:
            for node in columnar.walk_nodes(tree):
                assert node.packed_boxes is not None
                node.packed_boxes = None
        assert pickle.dumps(context) == shipped
        clone = pickle.loads(shipped)
        assert clone._route_matrix is None

    def test_clone_rebuilds_the_route_matrix_bitwise(self, fresh_processor):
        import numpy

        context = fresh_processor.engine_context
        clone = pickle.loads(pickle.dumps(context))
        source = context.route_matrix()
        rebuilt = clone.route_matrix()
        assert len(rebuilt.blocks) == len(source.blocks)
        for ours, theirs in zip(source.blocks, rebuilt.blocks):
            assert numpy.array_equal(ours.points, theirs.points)
            assert ours.offsets == theirs.offsets
            assert ours.column_route_ids == theirs.column_route_ids

    def test_clone_repacks_equal_tree_boxes(self, fresh_processor):
        import numpy

        context = fresh_processor.engine_context
        clone = pickle.loads(pickle.dumps(context))
        for tree, cloned in (
            (context.route_index.tree, clone.route_index.tree),
            (context.transition_index.tree, clone.transition_index.tree),
        ):
            for ours, theirs in zip(
                columnar.walk_nodes(tree), columnar.walk_nodes(cloned)
            ):
                if not ours.children:
                    continue
                assert numpy.array_equal(
                    theirs.packed_child_boxes(), ours.packed_child_boxes()
                )

    def test_clone_reads_plist_and_nlist_from_columns(self, fresh_processor):
        context = fresh_processor.engine_context
        clone = pickle.loads(pickle.dumps(context))
        plist = clone.route_index.plist
        assert plist._routes_by_point is None  # columnar mode
        for key, ids in context.route_index.plist.sorted_items():
            assert plist.crossover_routes(key) == frozenset(ids)
        for ours, theirs in zip(
            columnar.walk_nodes(context.route_index.tree),
            columnar.walk_nodes(clone.route_index.tree),
        ):
            assert theirs.packed_union is not None
            assert list(theirs.packed_union) == sorted(ours.payload_union)

    def test_retired_knobs_do_not_change_the_seed(
        self, fresh_processor, monkeypatch
    ):
        """The arena and object-pickle knobs are gone: setting them leaves
        the shipped bytes unchanged."""
        context = fresh_processor.engine_context
        expected = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        monkeypatch.setenv("RKNNT_ARENA", "1")
        monkeypatch.setenv("RKNNT_ARENA_MIN_BYTES", "0")
        monkeypatch.setenv("RKNNT_COLUMNAR", "0")
        assert pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL) == expected


@pytest.mark.usefixtures("worker_globals")
class TestWorkerInitializer:
    def test_pickle_seed_installs_an_equal_context(self, fresh_processor):
        context = fresh_processor.engine_context
        parallel._initialize_worker(pickle.dumps(context))
        worker_context = parallel._worker_context()
        assert worker_context is not context
        assert parallel._WORKER_STORE_ERROR is None
        assert _answers(worker_context) == _answers(context)

    def test_store_seed_installs_a_store_backed_context(
        self, store_path, mini_processor
    ):
        handle = store_module.open_handle(store_path)
        parallel._initialize_worker(None, None, handle)
        worker_context = parallel._worker_context()
        assert worker_context.store_handle == handle
        assert _answers(worker_context) == _answers(
            mini_processor.engine_context
        )

    def test_stale_handle_falls_back_to_the_pickle(
        self, tmp_path, store_path, fresh_processor
    ):
        """A handle whose file is gone degrades to the shipped pickle —
        the attach error is recorded, the worker still answers."""
        handle = dataclasses.replace(
            store_module.open_handle(store_path),
            path=str(tmp_path / "missing.store"),
        )
        context = fresh_processor.engine_context
        parallel._initialize_worker(pickle.dumps(context), None, handle)
        assert isinstance(parallel._WORKER_STORE_ERROR, StoreError)
        assert _answers(parallel._worker_context()) == _answers(context)

    def test_stale_handle_alone_surfaces_a_typed_error(
        self, tmp_path, store_path
    ):
        """Without a pickle the first task re-raises the attach failure so
        the parent can reseed; the initializer itself never raises."""
        missing = str(tmp_path / "missing.store")
        handle = dataclasses.replace(
            store_module.open_handle(store_path), path=missing
        )
        parallel._initialize_worker(None, None, handle)
        assert parallel._WORKER_CONTEXT is None
        with pytest.raises(StoreError) as excinfo:
            parallel._worker_context()
        assert excinfo.value.context["path"] == missing

    def test_injected_attach_fault_is_recorded_not_raised(self, store_path):
        handle = store_module.open_handle(store_path)
        with faults.injected("store_attach:count=1") as runtime:
            parallel._initialize_worker(None, runtime, handle)
        assert runtime.fire_count(faults.STORE_ATTACH) == 1
        with pytest.raises(StoreError):
            parallel._worker_context()

    def test_uninitialised_worker_raises(self):
        parallel._WORKER_CONTEXT = None
        parallel._WORKER_STORE_ERROR = None
        with pytest.raises(RuntimeError, match="before initialization"):
            parallel._worker_context()


class TestSeedChoice:
    def test_in_memory_context_ships_the_pickle(self, fresh_processor):
        context = fresh_processor.engine_context
        with ShardedExecutor(context, workers=2) as executor:
            assert executor._store_seed_handle() is None
            executor._ensure_pool()
            assert executor.store_seeds == 0
            assert executor.last_seed_nbytes == context.reseed_payload_nbytes()

    def test_store_context_ships_the_handle(self, store_path):
        context = RkNNTProcessor.from_store(store_path).engine_context
        with ShardedExecutor(context, workers=2) as executor:
            assert executor._store_seed_handle() == context.store_handle
            executor._ensure_pool()
            assert executor.store_seeds == 1
            assert executor.last_seed_nbytes == len(
                pickle.dumps(
                    context.store_handle, protocol=pickle.HIGHEST_PROTOCOL
                )
            )

    def test_route_churn_retires_the_handle(self, store_path):
        processor = RkNNTProcessor.from_store(store_path)
        processor.add_route(
            Route(
                processor.routes.next_id(),
                [(1.5, 1.6), (2.5, 2.1), (3.2, 2.3)],
            )
        )
        context = processor.engine_context
        assert not context.store_handle.matches(context)
        with ShardedExecutor(context, workers=2) as executor:
            assert executor._store_seed_handle() is None

    def test_failed_store_seed_is_sticky_until_close(self, store_path):
        context = RkNNTProcessor.from_store(store_path).engine_context
        executor = ShardedExecutor(context, workers=2)
        executor._store_seed_failed = True
        assert executor._store_seed_handle() is None
        executor.close()
        assert executor._store_seed_handle() == context.store_handle

    def test_close_is_idempotent_and_the_next_run_reseeds(
        self, fresh_processor
    ):
        executor = ShardedExecutor(fresh_processor.engine_context, workers=2)
        executor._ensure_pool()
        executor.close()
        executor.close()
        assert executor._pool is None
        executor._ensure_pool()
        assert executor.pools_spawned == 2
        executor.close()
