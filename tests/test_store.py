"""Tests of the persistent memory-mapped columnar store.

The persistence contract, end to end:

    store-backed processor ≡ pickle-backed processor ≡ brute force

per method × semantics × backend — plus the durability guarantees that
make the store safe to ship to production: the file format is
byte-deterministic, every corruption mode surfaces as a typed
:class:`StoreError` (never a garbage answer), column views are
read-only, a reseed handle stays under 4 KiB, and when an attach fails
mid-serving (injected fault, file deleted underneath a live pool) the
executor degrades loudly to the pickle path with identical answers.
"""

import os
import pickle
import shutil
import struct

import pytest

from conftest import BACKENDS

from repro.core.baseline import rknnt_bruteforce
from repro.core.rknnt import METHODS, RkNNTProcessor
from repro.engine import faults
from repro.engine import store as store_module
from repro.engine.resilience import StoreError
from repro.model.route import Route
from repro.model.transition import Transition

K = 3
QUERY_COUNT = 4
WORKERS = 2


@pytest.fixture(scope="module")
def packed(tmp_path_factory, mini_processor):
    """One packed store shared by the read-only tests: ``(path, handle)``."""
    path = str(tmp_path_factory.mktemp("store") / "mini.store")
    handle = store_module.save_indexes(
        path, mini_processor.route_index, mini_processor.transition_index
    )
    return path, handle


@pytest.fixture(scope="module")
def store_queries(mini_workload):
    queries = mini_workload.query_routes(QUERY_COUNT, length=4, interval=0.8)
    queries.append(queries[0][:1])  # single-point degenerate case
    return queries


def _endpoint_sets(processor, queries, **kwargs):
    return [
        result.confirmed_endpoints
        for result in processor.query_batch(queries, K, **kwargs)
    ]


class TestFormat:
    def test_save_is_byte_deterministic(self, tmp_path, mini_processor):
        paths = [str(tmp_path / name) for name in ("a.store", "b.store")]
        for path in paths:
            store_module.save_indexes(
                path,
                mini_processor.route_index,
                mini_processor.transition_index,
            )
        with open(paths[0], "rb") as first, open(paths[1], "rb") as second:
            assert first.read() == second.read()

    def test_preamble_layout(self, packed):
        path, handle = packed
        with open(path, "rb") as fh:
            preamble = fh.read(store_module._PREAMBLE.size)
        magic, version, meta_len, _crc = store_module._PREAMBLE.unpack(preamble)
        assert magic == store_module.MAGIC
        assert version == store_module.FORMAT_VERSION
        assert meta_len > 0
        assert handle.nbytes == os.path.getsize(path)

    def test_column_offsets_are_aligned(self, packed):
        path, _ = packed
        with store_module.open_store(path) as store:
            for spec in store.columns.values():
                if spec.kind == store_module.KIND_F64:
                    assert spec.offset % store_module.ALIGNMENT == 0

    def test_views_are_read_only(self, packed):
        path, _ = packed
        with store_module.open_store(path) as store:
            columns = store.route_columns()
            for view in (columns.routes.points, columns.routes.ids):
                assert not view.flags.writeable
                with pytest.raises(ValueError):
                    view[0] = 0

    def test_open_handle_matches_save_handle(self, packed):
        path, handle = packed
        assert store_module.open_handle(path) == handle

    def test_handle_pickles_under_4kib(self, packed):
        _, handle = packed
        payload = pickle.dumps(handle, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(payload) < 4096


def _corrupt(path: str, target: str, mode: str) -> None:
    data = bytearray(open(path, "rb").read())
    if mode == "truncated-preamble":
        data = data[:10]
    elif mode == "truncated-body":
        data = data[: len(data) // 2]
    elif mode == "bad-magic":
        data[:8] = b"NOTASTOR"
    elif mode == "bad-version":
        struct.pack_into("<I", data, 8, 99)
    elif mode == "flipped-meta-byte":
        data[store_module._PREAMBLE.size + 4] ^= 0xFF
    else:  # pragma: no cover - guards test typos
        raise AssertionError(mode)
    with open(target, "wb") as handle:
        handle.write(bytes(data))


class TestCorruption:
    """Every way the file can rot must raise a typed ``StoreError``."""

    MODES = [
        "truncated-preamble",
        "truncated-body",
        "bad-magic",
        "bad-version",
        "flipped-meta-byte",
    ]

    @pytest.mark.parametrize("mode", MODES)
    def test_corrupt_file_raises_typed_error(self, tmp_path, packed, mode):
        path, _ = packed
        target = str(tmp_path / f"{mode}.store")
        _corrupt(path, target, mode)
        with pytest.raises(StoreError) as excinfo:
            store_module.open_store(target)
        assert excinfo.value.wire_code == "store_attach_failed"

    def test_missing_file_raises_typed_error(self, tmp_path):
        with pytest.raises(StoreError):
            store_module.open_store(str(tmp_path / "nowhere.store"))

    def test_attach_detects_file_swap(self, tmp_path, packed, toy_processor):
        """A handle minted from one file refuses a different file's bytes."""
        path = str(tmp_path / "swapped.store")
        shutil.copy(packed[0], path)
        handle = store_module.open_handle(path)
        store_module.save_indexes(
            path, toy_processor.route_index, toy_processor.transition_index
        )
        with pytest.raises(StoreError):
            store_module.attach(handle)

    def test_injected_attach_fault_is_typed(self, packed):
        _, handle = packed
        with faults.injected("store_attach:count=1"):
            with pytest.raises(StoreError):
                store_module.attach(handle)
        # The fault budget is spent: the very next attach succeeds.
        store_module.attach(handle).close()


class TestLazyBoot:
    def test_from_store_defers_decoding(self, packed):
        path, _ = packed
        processor = RkNNTProcessor.from_store(path)
        assert "routes" not in processor.route_index.__dict__
        assert "transitions" not in processor.transition_index.__dict__
        processor.query([(2.0, 2.0), (3.0, 2.5)], K)
        assert "tree" in processor.route_index.__dict__

    def test_from_store_accepts_handle(self, packed, store_queries):
        _, handle = packed
        processor = RkNNTProcessor.from_store(handle)
        assert processor.engine_context.store_handle == handle
        assert processor.query_batch(store_queries, K)

    def test_store_context_survives_pickling(self, packed, store_queries):
        """The pickle round-trip drops the mmap, keeps the answers."""
        processor = RkNNTProcessor.from_store(packed[0])
        expected = _endpoint_sets(processor, store_queries)
        clone = pickle.loads(pickle.dumps(processor.engine_context))
        assert clone._store_attachment is None
        # Materialised clone answers identically through the raw engine.
        from repro.engine.executor import execute
        from repro.engine.plan import QueryPlan

        plan = QueryPlan.for_method("filter-refine")
        results = [
            execute(clone, query, K, plan, semantics="exists")
            for query in store_queries
        ]
        assert [r.confirmed_endpoints for r in results] == expected


class TestStoreDifferential:
    """store-backed ≡ pickle-backed ≡ brute force, the full matrix."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("semantics", ["exists", "forall"])
    @pytest.mark.parametrize("method", METHODS)
    def test_store_backed_equals_direct_equals_bruteforce(
        self, packed, mini_city, mini_transitions, mini_processor,
        store_queries, method, semantics, backend,
    ):
        stored = RkNNTProcessor.from_store(packed[0])
        kwargs = dict(method=method, semantics=semantics, backend=backend)
        from_store = _endpoint_sets(stored, store_queries, **kwargs)
        direct = _endpoint_sets(mini_processor, store_queries, **kwargs)
        assert from_store == direct
        for query, result in zip(
            store_queries, stored.query_batch(store_queries, K, **kwargs)
        ):
            oracle = rknnt_bruteforce(
                mini_city.routes, mini_transitions, query, K,
                semantics=semantics,
            )
            assert result.transition_ids == oracle.transition_ids


class TestOldTransitionTreeMeta:
    """A store packed when the TR-tree still tracked payload unions."""

    def test_union_flag_is_ignored_and_answers_hold(
        self, tmp_path, mini_city, mini_transitions, mini_processor, store_queries
    ):
        import dataclasses

        from repro.engine.columnar import TransitionIndexColumns

        columns = mini_processor.transition_index.to_columns()
        old_tree = dataclasses.replace(columns.tree, track_payload_union=True)
        old_columns = TransitionIndexColumns(
            transitions=columns.transitions,
            tree=old_tree,
            version=columns.version,
            max_entries=columns.max_entries,
        )
        path = str(tmp_path / "old.store")
        store_module.save(path, mini_processor.route_index.to_columns(), old_columns)
        with store_module.open_store(path) as store:
            assert store.meta["ttree"]["track_payload_union"] is True

        stored = RkNNTProcessor.from_store(path)
        tree = stored.transition_index.tree
        assert tree.track_payload_union is False
        for method in METHODS:
            for query, result in zip(
                store_queries, stored.query_batch(store_queries, K, method=method)
            ):
                oracle = rknnt_bruteforce(
                    mini_city.routes, mini_transitions, query, K
                )
                assert result.transition_ids == oracle.transition_ids


class TestServingPoolSeeding:
    """Workers boot from the store handle, not a multi-megabyte pickle."""

    @pytest.mark.parametrize("start_method", [None, "spawn"])
    def test_store_seed_is_compact(
        self, packed, mini_processor, store_queries, start_method
    ):
        processor = RkNNTProcessor.from_store(packed[0])
        expected = _endpoint_sets(mini_processor, store_queries)
        with processor.serving_pool(
            workers=WORKERS, start_method=start_method
        ) as pool:
            pooled = _endpoint_sets(
                processor, store_queries, workers=WORKERS
            )
            assert pool.store_seeds == 1
            assert pool.store_fallbacks == 0
            assert pool.last_seed_nbytes < 4096
        assert pooled == expected

    @pytest.mark.parametrize("start_method", [None, "spawn"])
    def test_churned_store_pool_reseeds_with_columnar_pickle(
        self, packed, store_queries, start_method
    ):
        processor = RkNNTProcessor.from_store(packed[0])

        def assert_pooled_equals_oracle():
            pooled = processor.query_batch(store_queries, K, workers=WORKERS)
            for query, result in zip(store_queries, pooled):
                oracle = rknnt_bruteforce(
                    processor.routes, processor.transitions, query, K
                )
                assert result.transition_ids == oracle.transition_ids

        with processor.serving_pool(
            workers=WORKERS, start_method=start_method
        ) as pool:
            assert_pooled_equals_oracle()
            assert (pool.store_seeds, pool.pools_spawned) == (1, 1)
            # Transition churn is delta-synced into the store-seeded workers.
            processor.add_transition(
                Transition(
                    processor.transitions.next_id(), (2.05, 2.05), (2.9, 2.4)
                )
            )
            assert_pooled_equals_oracle()
            assert pool.pools_spawned == 1
            # Route churn moves the indexes off the packed versions: the
            # handle no longer matches, so the reseed ships the pickle.
            processor.add_route(
                Route(
                    processor.routes.next_id(),
                    [(1.5, 1.6), (2.5, 2.1), (3.2, 2.3)],
                )
            )
            assert_pooled_equals_oracle()
            assert pool.store_seeds == 1
            assert pool.pools_spawned == 2
            assert pool.last_seed_nbytes > 4096
            assert pool.store_fallbacks == 0

    def test_attach_fault_degrades_to_pickle_path(
        self, packed, mini_processor, store_queries, caplog
    ):
        processor = RkNNTProcessor.from_store(packed[0])
        expected = _endpoint_sets(mini_processor, store_queries)
        with faults.injected(f"store_attach:count={WORKERS * 2}"):
            with processor.serving_pool(workers=WORKERS) as pool:
                with caplog.at_level("WARNING", "repro.engine.parallel"):
                    pooled = _endpoint_sets(
                        processor, store_queries, workers=WORKERS
                    )
                assert pool.store_fallbacks >= 1
                # Fallback reseeds carry the full pickle, not the handle.
                assert pool.last_seed_nbytes > 4096
        assert pooled == expected
        assert any(
            "store seed failed" in record.message for record in caplog.records
        )

    def test_file_deleted_while_attached_degrades_loudly(
        self, tmp_path, packed, mini_processor, store_queries
    ):
        path = str(tmp_path / "doomed.store")
        shutil.copy(packed[0], path)
        processor = RkNNTProcessor.from_store(path)
        expected = _endpoint_sets(mini_processor, store_queries)
        # Serial queries keep working after deletion: the parent's mapping
        # pins the pages even though the directory entry is gone.
        os.remove(path)
        assert _endpoint_sets(processor, store_queries) == expected
        # New workers cannot re-open the file — they must fall back.
        with processor.serving_pool(workers=WORKERS) as pool:
            pooled = _endpoint_sets(processor, store_queries, workers=WORKERS)
            assert pool.store_fallbacks >= 1
        assert pooled == expected
