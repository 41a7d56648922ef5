"""Columnar dataset core: round-trips, differential equality, determinism.

The contract of :mod:`repro.engine.columnar`:

* a decoded index is **structure-exact** — same preorder node walk, same
  bounding boxes, same entries, same payload sets;
* an unpickled (columnar) context is differentially equal to the original
  — same results *and* same traversal counters, per method × semantics ×
  backend;
* columnar pickles are byte-deterministic (sorted id columns everywhere,
  no hash-ordered set iteration survives serialisation) and smaller than
  a pickle of the object graph they encode by a wide margin;
* PList/NList reads in columnar mode (binary search, packed unions) agree
  with the dict/frozenset reads bitwise, and the first mutation
  materialises a private copy without changing answers.
"""

import dataclasses
import pickle

import pytest

from conftest import BACKENDS

from repro.core.rknnt import METHODS, RkNNTProcessor
from repro.engine import columnar
from repro.engine.executor import execute, run_stages
from repro.engine.plan import QueryPlan
from repro.index.route_index import RouteIndex
from repro.index.rtree import RTreeEntry
from repro.index.transition_index import DESTINATION, ORIGIN, TransitionEntry
from repro.model.route import Route
from repro.model.transition import Transition

K = 3
QUERIES = [
    [(2.0, 2.0), (3.0, 2.5)],
    [(1.0, 4.0)],
    [(3.5, 1.0), (3.0, 2.0)],
]


@pytest.fixture()
def fresh_processor(mini_city, mini_transitions):
    return RkNNTProcessor(mini_city.routes, mini_transitions)


def _walk_signature(tree):
    """Structure + payload signature of a tree, preorder."""
    signature = []
    for node in columnar.walk_nodes(tree):
        box = node.bbox.as_tuple() if node.bbox is not None else None
        entries = None
        if node.is_leaf:
            entries = [
                (entry.point, tuple(sorted(entry.payload, key=repr)))
                for entry in node.children
            ]
        signature.append((node.is_leaf, len(node.children), box, entries))
    return signature


class TestTreeRoundTrip:
    def test_route_tree_structure_is_exact(self, fresh_processor):
        tree = fresh_processor.route_index.tree
        decoded = columnar.decode_tree(
            columnar.encode_tree(tree, columnar.PAYLOAD_ROUTE)
        )
        assert _walk_signature(decoded) == _walk_signature(tree)
        assert len(decoded) == len(tree)
        assert decoded.max_entries == tree.max_entries
        assert decoded.min_entries == tree.min_entries
        assert decoded.track_payload_union == tree.track_payload_union

    def test_transition_tree_structure_is_exact(self, fresh_processor):
        tree = fresh_processor.transition_index.tree
        decoded = columnar.decode_tree(
            columnar.encode_tree(tree, columnar.PAYLOAD_TAG)
        )
        assert _walk_signature(decoded) == _walk_signature(tree)

    def test_payload_unions_materialise_lazily_and_equal(self, fresh_processor):
        tree = fresh_processor.route_index.tree
        decoded = columnar.decode_tree(
            columnar.encode_tree(tree, columnar.PAYLOAD_ROUTE)
        )
        for ours, theirs in zip(
            columnar.walk_nodes(tree), columnar.walk_nodes(decoded)
        ):
            assert theirs.payload_union == ours.payload_union

    def test_empty_tree_round_trips(self):
        from repro.index.rtree import RTree

        tree = RTree(max_entries=8, track_payload_union=True)
        decoded = columnar.decode_tree(
            columnar.encode_tree(tree, columnar.PAYLOAD_ROUTE)
        )
        assert len(decoded) == 0
        assert decoded.root.is_leaf
        assert decoded.root.bbox is None


class TestNListColumns:
    def test_union_ids_are_sorted_and_equal_the_frozenset(self, fresh_processor):
        tree = fresh_processor.route_index.tree
        nlist = columnar.encode_nlist(tree)
        decoded = columnar.decode_tree(
            columnar.encode_tree(tree, columnar.PAYLOAD_ROUTE)
        )
        columnar.install_nlist(decoded, nlist)
        for ours, theirs in zip(
            columnar.walk_nodes(tree), columnar.walk_nodes(decoded)
        ):
            expected = sorted(ours.payload_union)
            assert list(theirs.packed_union) == expected
            assert list(theirs.union_ids()) == expected
            # The lazily materialised frozenset comes from the packed ids.
            assert theirs.payload_union == ours.payload_union

    def test_shape_mismatch_raises(self, fresh_processor):
        tree = fresh_processor.route_index.tree
        nlist = columnar.encode_nlist(tree)
        from repro.index.rtree import RTree

        other = RTree(max_entries=8, track_payload_union=True)
        with pytest.raises(ValueError):
            columnar.install_nlist(other, nlist)

    def test_dynamic_update_drops_packed_unions(self, mini_city, mini_transitions):
        processor = RkNNTProcessor(mini_city.routes, mini_transitions)
        root = processor.route_index.tree.root
        before = list(root.union_ids())
        assert root.packed_union is not None
        route_id = mini_city.routes.next_id()
        try:
            processor.add_route(
                Route(route_id, [(1.9, 2.0), (2.5, 2.2), (3.1, 2.4)])
            )
            assert processor.route_index.tree.root.packed_union is None
            after = list(processor.route_index.tree.root.union_ids())
            assert route_id in after
            assert set(before) <= set(after)
        finally:
            processor.remove_route(route_id)


class TestOnePassDecode:
    """``decode_tree`` makes every leaf entry and tag once, up front."""

    def test_transition_leaves_hold_plain_points_and_tags(self, fresh_processor):
        decoded = columnar.decode_tree(
            columnar.encode_tree(
                fresh_processor.transition_index.tree, columnar.PAYLOAD_TAG
            )
        )
        entries = list(decoded.entries())
        assert len(entries) == len(decoded) > 0
        for entry in entries:
            assert type(entry) is RTreeEntry
            assert type(entry.point) is tuple
            assert [type(value) for value in entry.point] == [float, float]
            tag = entry.payload
            assert type(tag) is TransitionEntry
            assert type(tag.transition_id) is int
            assert tag.endpoint in (ORIGIN, DESTINATION)

    @pytest.mark.parametrize(
        "index_name, kind",
        [
            ("route_index", columnar.PAYLOAD_ROUTE),
            ("transition_index", columnar.PAYLOAD_TAG),
        ],
    )
    def test_re_encoding_a_decode_reproduces_every_column(
        self, fresh_processor, index_name, kind
    ):
        tree = getattr(fresh_processor, index_name).tree
        columns = columnar.encode_tree(tree, kind)
        again = columnar.encode_tree(columnar.decode_tree(columns), kind)
        for field in dataclasses.fields(columnar.TreeColumns):
            # Pickled bytes compare float bits, dtypes and shapes too.
            assert pickle.dumps(getattr(again, field.name)) == pickle.dumps(
                getattr(columns, field.name)
            ), field.name


def test_store_materialise_sets_off_no_collection(
    fresh_processor, tmp_path, collections_during
):
    from repro.engine import store

    path = str(tmp_path / "mini.store")
    store.save_indexes(
        path, fresh_processor.route_index, fresh_processor.transition_index
    )
    booted = RkNNTProcessor.from_store(path)
    for name in ("route_index", "transition_index"):
        index = getattr(booted, name)
        assert "tree" not in index.__dict__
        tree, collections = collections_during(lambda: index.tree)
        assert collections == 0, name
        assert len(tree) == len(getattr(fresh_processor, name).tree)


class TestPListColumns:
    def test_columnar_reads_equal_dict_reads(self, fresh_processor):
        plist = fresh_processor.route_index.plist
        clone = type(plist).from_columns(plist.to_columns())
        assert len(clone) == len(plist)
        for key, ids in plist.sorted_items():
            assert clone.crossover_routes(key) == frozenset(ids)
            assert clone.crossover_degree(key) == len(ids)
            assert key in clone
        assert (1e9, 1e9) not in clone
        assert clone.crossover_routes((1e9, 1e9)) == frozenset()
        assert list(clone.points()) == list(plist.points())
        assert clone.sorted_items() == plist.sorted_items()

    def test_sorted_iteration(self, fresh_processor):
        plist = fresh_processor.route_index.plist
        points = list(plist.points())
        assert points == sorted(points)
        items = plist.sorted_items()
        assert [key for key, _ in items] == points
        for _, ids in items:
            assert list(ids) == sorted(ids)

    def test_mutation_materialises_a_private_dict(self, fresh_processor):
        plist = fresh_processor.route_index.plist
        clone = type(plist).from_columns(plist.to_columns())
        key, ids = plist.sorted_items()[0]
        clone.add(key, 987654)
        assert clone._routes_by_point is not None  # columnar mode left
        assert clone.crossover_routes(key) == frozenset(ids) | {987654}
        clone.discard(key, 987654)
        assert clone.crossover_routes(key) == frozenset(ids)
        # The original is untouched (the columns were copied out, the
        # original PList never shared its dict).
        assert plist.crossover_routes(key) == frozenset(ids)


class TestIndexPickling:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("semantics", ["exists", "forall"])
    @pytest.mark.parametrize("method", METHODS)
    def test_columnar_clone_equals_original(
        self, fresh_processor, method, semantics, backend
    ):
        """Columnar clone ≡ original: results, confirmed endpoints and
        traversal counters, per method × semantics × backend."""
        context = fresh_processor.engine_context
        clone = pickle.loads(pickle.dumps(context))
        plan = QueryPlan.for_method(method, backend=backend)
        for query in QUERIES:
            expected = execute(context, query, K, plan, semantics)
            probe = execute(clone, query, K, plan, semantics)
            assert probe.confirmed_endpoints == expected.confirmed_endpoints
            assert probe.transition_ids == expected.transition_ids
            assert (
                probe.stats.route_nodes_visited
                == expected.stats.route_nodes_visited
            )
            assert (
                probe.stats.transition_nodes_visited
                == expected.stats.transition_nodes_visited
            )
            assert probe.stats.nodes_pruned == expected.stats.nodes_pruned
            assert probe.stats.candidates == expected.stats.candidates

    def test_pickles_are_byte_deterministic(self, fresh_processor):
        context = fresh_processor.engine_context
        first = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        second = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        assert first == second
        # ...and stable across a decode/re-encode round trip: the clone
        # re-pickles to the exact same bytes.
        clone = pickle.loads(first)
        assert pickle.dumps(clone, protocol=pickle.HIGHEST_PROTOCOL) == first

    def test_pickles_shrink(self, fresh_processor):
        context = fresh_processor.engine_context
        columnar_bytes = context.reseed_payload_nbytes()
        # The object graph the columns encode: both indexes' attributes
        # pickled as plain objects (caches and listeners dropped).
        graph = [
            dict(index.__dict__, _columns_cache=None, _listeners=[])
            for index in (context.route_index, context.transition_index)
        ]
        object_bytes = len(pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL))
        assert columnar_bytes * 3 <= object_bytes * 2, (
            f"columnar pickle {columnar_bytes} B is not >= 1.5x smaller "
            f"than the object graph's pickle {object_bytes} B"
        )

    def test_versions_survive_the_round_trip(self, mini_city, mini_transitions):
        processor = RkNNTProcessor(mini_city.routes, mini_transitions)
        new_id = mini_transitions.next_id()
        processor.add_transition(Transition(new_id, (2.0, 2.1), (2.4, 2.6)))
        try:
            clone = pickle.loads(pickle.dumps(processor.engine_context))
            assert (
                clone.transition_index.version
                == processor.transition_index.version
            )
            assert clone.route_index.version == processor.route_index.version
        finally:
            processor.remove_transition(new_id)


class TestDynamicUpdatesAfterDecode:
    def test_decoded_index_stays_dynamic(self, mini_city, mini_transitions):
        """A decoded context accepts the same mutations as the original and
        keeps answering identically (the columnar form is a serialisation,
        not a freeze)."""
        processor = RkNNTProcessor(mini_city.routes, mini_transitions)
        clone = pickle.loads(pickle.dumps(processor.engine_context))
        new_id = mini_transitions.next_id()
        transition = Transition(new_id, (2.05, 2.05), (2.9, 2.4))
        processor.add_transition(transition)
        clone.transition_index.transitions.add(transition)
        clone.transition_index.add_transition(transition)
        try:
            plan = QueryPlan.for_method("voronoi")
            for query in QUERIES:
                expected, _ = run_stages(
                    processor.engine_context, query, K, plan
                )
                actual, _ = run_stages(clone, query, K, plan)
                assert actual == expected
        finally:
            processor.remove_transition(new_id)

    def test_decoded_route_index_accepts_route_churn(self, mini_city, mini_transitions):
        processor = RkNNTProcessor(mini_city.routes, mini_transitions)
        columns = processor.route_index.to_columns()
        decoded = RouteIndex.from_columns(columns)
        route_id = decoded.routes.next_id()
        route = Route(route_id, [(1.9, 2.0), (2.5, 2.2), (3.1, 2.4)])
        decoded.routes.add(route)
        decoded.add_route(route)
        assert decoded.version == processor.route_index.version + 1
        for point in route.points:
            assert route_id in decoded.crossover_routes(point)
        removed = decoded.routes.remove(route_id)
        decoded.remove_route(removed)
        for key, ids in processor.route_index.plist.sorted_items():
            assert decoded.crossover_routes(key) == frozenset(ids)


# ----------------------------------------------------------------------
# Spawn-leg coverage: the columnar decode path workers actually exercise
# ----------------------------------------------------------------------
import multiprocessing

START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]


class TestStartMethodLegs:
    """Workers decode the context from its columnar pickle; ``spawn``
    workers additionally re-import the package from scratch.  Both legs
    must answer identically to the in-process serial path, including after
    mutations that force the packed columns to materialise private copies."""

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_sharded_answers_match_serial_after_mutation(
        self, mini_city, mini_transitions, start_method
    ):
        from repro.engine.parallel import ShardedExecutor

        processor = RkNNTProcessor(mini_city.routes, mini_transitions)
        new_id = mini_transitions.next_id()
        processor.add_transition(Transition(new_id, (2.05, 2.05), (2.9, 2.4)))
        try:
            plan = QueryPlan.for_method("voronoi")
            jobs = [(query, None) for query in QUERIES]
            serial = [
                execute(processor.engine_context, query, K, plan, "exists")
                for query in QUERIES
            ]
            with ShardedExecutor(
                processor.engine_context, workers=2, start_method=start_method
            ) as executor:
                sharded = executor.run(jobs, K, plan, "exists")
            assert not executor.degraded
            for expected, actual in zip(serial, sharded):
                assert actual.confirmed_endpoints == expected.confirmed_endpoints
                assert new_id in actual.transition_ids or (
                    new_id not in expected.transition_ids
                )
        finally:
            processor.remove_transition(new_id)

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_decoded_clone_survives_the_pool(self, mini_city, mini_transitions, start_method):
        """Mutation-after-decode, then shipped through a pool: the decoded
        clone's columnar re-pickle is what the workers see."""
        from repro.engine.parallel import ShardedExecutor

        processor = RkNNTProcessor(mini_city.routes, mini_transitions)
        clone = pickle.loads(pickle.dumps(processor.engine_context))
        new_id = mini_transitions.next_id()
        transition = Transition(new_id, (2.05, 2.05), (2.9, 2.4))
        processor.add_transition(transition)
        clone.transition_index.transitions.add(transition)
        clone.transition_index.add_transition(transition)
        try:
            plan = QueryPlan.for_method("voronoi")
            jobs = [(query, None) for query in QUERIES]
            with ShardedExecutor(
                clone, workers=2, start_method=start_method
            ) as executor:
                sharded = executor.run(jobs, K, plan, "exists")
            assert not executor.degraded
            for query, actual in zip(QUERIES, sharded):
                expected = execute(processor.engine_context, query, K, plan, "exists")
                assert actual.confirmed_endpoints == expected.confirmed_endpoints
        finally:
            processor.remove_transition(new_id)
