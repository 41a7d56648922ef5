"""Dynamic update workflow: arriving/expiring transitions, new/removed routes.

The paper's motivation for the index design is that transitions arrive
continuously (Uber requests) and must be visible to the next query without a
rebuild; routes may also be added or retired.  These tests drive the
processor through such update sequences and re-check answers against the
brute-force oracle after every step.
"""

import random
from types import SimpleNamespace

import pytest

from conftest import BACKENDS

from repro.core.baseline import rknnt_bruteforce
from repro.core.rknnt import METHODS, RkNNTProcessor
from repro.data.workloads import make_city
from repro.engine import parallel
from repro.engine.columnar import (
    PAYLOAD_ROUTE,
    PAYLOAD_TAG,
    encode_nlist,
    encode_tree,
    walk_nodes,
)
from repro.geometry import kernels
from repro.index.inverted import point_key
from repro.index.route_index import RouteIndex
from repro.index.rtree import RTree
from repro.index.transition_index import TransitionIndex
from repro.model.dataset import RouteDataset, TransitionDataset
from repro.model.route import Route
from repro.model.transition import Transition

SEMANTICS = ["exists", "forall"]


def assert_matches_oracle(processor, routes, transitions, query, k):
    oracle = rknnt_bruteforce(routes, transitions, query, k)
    for method in METHODS:
        result = processor.query(query, k, method=method)
        assert result.transition_ids == oracle.transition_ids, method
    return oracle


class TestTransitionUpdates:
    def test_new_transition_visible_immediately(self, toy_routes, toy_transitions):
        processor = RkNNTProcessor(toy_routes, toy_transitions)
        query = [(0.0, 2.0), (8.0, 2.0)]
        before = processor.query(query, k=2)
        new_transition = Transition(50, (2.0, 2.1), (6.0, 1.9))
        processor.add_transition(new_transition)
        after = processor.query(query, k=2)
        assert 50 not in before
        assert 50 in after
        assert_matches_oracle(processor, toy_routes, toy_transitions, query, 2)

    def test_removed_transition_disappears(self, toy_routes, toy_transitions):
        processor = RkNNTProcessor(toy_routes, toy_transitions)
        query = [(0.0, 0.0), (8.0, 0.0)]
        assert 0 in processor.query(query, k=1)
        processor.remove_transition(0)
        assert 0 not in processor.query(query, k=1)
        assert_matches_oracle(processor, toy_routes, toy_transitions, query, 1)

    def test_stream_of_arrivals_and_expiries(self, toy_routes):
        transitions = TransitionDataset(
            [Transition(i, (1.0 + i, 0.4), (2.0 + i, 0.6), timestamp=float(i)) for i in range(5)]
        )
        processor = RkNNTProcessor(toy_routes, transitions)
        query = [(0.0, 1.0), (8.0, 1.0)]
        for step in range(5, 12):
            processor.add_transition(
                Transition(step, (1.0 + step % 6, 0.4), (2.0 + step % 6, 0.6), timestamp=float(step))
            )
            expired = [t.transition_id for t in transitions if t.timestamp is not None and t.timestamp < step - 4]
            for transition_id in expired:
                processor.remove_transition(transition_id)
            assert_matches_oracle(processor, toy_routes, transitions, query, 2)

    def test_remove_unknown_transition_raises(self, toy_routes, toy_transitions):
        processor = RkNNTProcessor(toy_routes, toy_transitions)
        with pytest.raises(KeyError):
            processor.remove_transition(12345)


class TestRouteUpdates:
    def test_new_route_steals_passengers(self, toy_routes, toy_transitions):
        processor = RkNNTProcessor(toy_routes, toy_transitions)
        query = [(0.0, 2.0), (8.0, 2.0)]
        before = processor.query(query, k=1)
        # A new route running right along the query captures the midline
        # riders, so the query should lose results (or stay equal).
        new_route = Route(30, [(0.0, 2.0), (4.0, 2.0), (8.0, 2.0)])
        processor.add_route(new_route)
        after = processor.query(query, k=1)
        assert after.transition_ids <= before.transition_ids
        assert_matches_oracle(processor, toy_routes, toy_transitions, query, 1)

    def test_removed_route_releases_passengers(self, toy_routes, toy_transitions):
        processor = RkNNTProcessor(toy_routes, toy_transitions)
        query = [(0.0, 2.0), (8.0, 2.0)]
        before = processor.query(query, k=1)
        processor.remove_route(0)  # retire the y=0 route
        after = processor.query(query, k=1)
        assert before.transition_ids <= after.transition_ids
        # Transition 0 hugged route 0; with it gone the query picks it up.
        assert 0 in after
        assert_matches_oracle(processor, toy_routes, toy_transitions, query, 1)

    def test_add_then_remove_is_identity(self, toy_routes, toy_transitions):
        processor = RkNNTProcessor(toy_routes, toy_transitions)
        query = [(0.0, 6.0), (8.0, 6.0)]
        baseline = processor.query(query, k=2).transition_ids
        route = Route(31, [(0.0, 6.0), (8.0, 6.0)])
        processor.add_route(route)
        processor.remove_route(31)
        assert processor.query(query, k=2).transition_ids == baseline

    def test_remove_unknown_route_raises(self, toy_routes, toy_transitions):
        processor = RkNNTProcessor(toy_routes, toy_transitions)
        with pytest.raises(KeyError):
            processor.remove_route(999)


class TestMixedUpdates:
    def test_interleaved_updates_stay_consistent(self, mini_city_bundle):
        city, transitions, _, workload = mini_city_bundle
        # Use fresh datasets so the session-scoped fixtures stay untouched.
        routes = RouteDataset(list(city.routes))
        local_transitions = TransitionDataset(list(transitions)[:150])
        processor = RkNNTProcessor(routes, local_transitions)
        query = workload.random_query_route(4, 1.0)

        next_transition_id = local_transitions.next_id()
        next_route_id = routes.next_id()
        for step in range(3):
            processor.add_transition(
                Transition(next_transition_id + step, (step * 1.0, 2.0), (step * 1.0 + 1.0, 3.0))
            )
            if step == 1:
                processor.add_route(
                    Route(next_route_id, [(0.0, 0.0), (3.0, 3.0), (6.0, 6.0)])
                )
            if step == 2:
                processor.remove_route(next_route_id)
            oracle = rknnt_bruteforce(routes, local_transitions, query, 3)
            result = processor.query(query, 3)
            assert result.transition_ids == oracle.transition_ids


# ----------------------------------------------------------------------
# Structural deletes, STR rebuilds and the static RR-tree
# ----------------------------------------------------------------------
def tree_bits(columns):
    """Tree columns as text that keeps every float's exact bits."""
    return (
        columns.payload_kind,
        columns.max_entries,
        columns.min_entries,
        columns.track_payload_union,
        columns.size,
        *(
            repr(kernels.id_list(getattr(columns, name)))
            for name in (
                "child_counts",
                "leaf_flags",
                "entry_points",
                "payload_offsets",
                "payload_values",
            )
        ),
    )


def route_index_bits(index):
    nlist = encode_nlist(index.tree)
    plist = index.plist.to_columns()
    return (
        tree_bits(encode_tree(index.tree, PAYLOAD_ROUTE)),
        repr(kernels.id_list(nlist.offsets)),
        repr(kernels.id_list(nlist.route_ids)),
        repr(kernels.id_list(plist.points)),
        repr(kernels.id_list(plist.offsets)),
        repr(kernels.id_list(plist.route_ids)),
    )


def route_tree_bits(index):
    return tree_bits(encode_tree(index.tree, PAYLOAD_ROUTE))


def reference_index(routes, max_entries=4):
    """An RR-tree packed as the first RouteIndex did: STR over the distinct
    route points in the order the routes first reach them."""
    ids_by_point = {}
    for route in routes:
        for point in route.points:
            ids_by_point.setdefault(point_key(point), set()).add(route.route_id)
    return SimpleNamespace(
        tree=RTree.bulk_load_points(
            list(ids_by_point),
            [frozenset(ids) for ids in ids_by_point.values()],
            max_entries=max_entries,
            track_payload_union=True,
        )
    )


def count_rebuilds(monkeypatch):
    """Record the entry count of every STR re-pack of an existing tree."""
    rebuilds = []
    load = RTree._load

    def counted(tree, entries):
        rebuilds.append(len(entries))
        return load(tree, entries)

    monkeypatch.setattr(RTree, "_load", counted)
    return rebuilds


def small_churn_processor(mini_city, mini_transitions, count=120):
    """A processor over private datasets with ``max_entries=4`` trees."""
    routes = RouteDataset(list(mini_city.routes))
    transitions = TransitionDataset(list(mini_transitions)[:count])
    return RkNNTProcessor(routes, transitions, max_entries=4)


def churn_through_rebuild(processor, rebuilds, seed=3):
    """Delete transitions in a seeded order, with an arrival every fifth
    step, until the TR-tree has been rebuilt and then some more."""
    rng = random.Random(seed)
    transitions = processor.transitions
    next_id = transitions.next_id()
    steps = 0
    while not rebuilds or steps % 10:
        steps += 1
        if steps % 5 == 0:
            x, y = rng.uniform(0.0, 6.0), rng.uniform(0.0, 6.0)
            processor.add_transition(Transition(next_id, (x, y), (y, x)))
            next_id += 1
        else:
            victim = rng.choice(sorted(t.transition_id for t in transitions))
            processor.remove_transition(victim)
        assert steps < 1000, "the TR-tree was never rebuilt"
    return steps


def _synced_tree_columns(sync):
    """Pool task: bring this worker's replica up to date, then encode its
    TR-tree (module level so that a worker can unpickle it by name)."""
    context = parallel._worker_context()
    parallel._apply_sync(context, sync)
    return encode_tree(context.transition_index.tree, PAYLOAD_TAG)


def _counters(result):
    stats = result.stats.as_dict()
    return {
        name: value for name, value in stats.items() if not name.endswith("seconds")
    }


class TestBoundedDeletes:
    def test_nyc_probe_deletes_reinsert_nothing(self, monkeypatch):
        """40 random deletes (seed 0) on the nyc×0.75 TR-tree.  Under
        Guttman's condense step, transition 2121's delete re-inserted 1,211
        entries one at a time; a structural delete re-inserts none."""
        _, transitions = make_city("nyc", scale=0.75)
        index = TransitionIndex(transitions)
        assert len(index.tree) == 13_500
        inserts = []
        insert = RTree.insert
        monkeypatch.setattr(
            RTree, "insert", lambda tree, entry: (inserts.append(entry), insert(tree, entry))
        )
        rebuilds = count_rebuilds(monkeypatch)
        victims = random.Random(0).sample(list(transitions), 40)
        assert 2121 in {t.transition_id for t in victims}
        for transition in victims:
            assert index.remove_transition(transition) == 2
        assert inserts == [] and rebuilds == []
        assert len(index.tree) == 13_500 - 80
        assert index.tree.leaf_count == sum(
            node.is_leaf for node in walk_nodes(index.tree)
        )

    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_matches_oracle_through_a_rebuild(
        self, mini_city, mini_transitions, mini_workload, monkeypatch, semantics, backend
    ):
        rebuilds = count_rebuilds(monkeypatch)
        processor = small_churn_processor(mini_city, mini_transitions)
        queries = mini_workload.query_routes(3, length=4, interval=0.8)
        churn_through_rebuild(processor, rebuilds)
        assert rebuilds
        for query in queries:
            oracle = rknnt_bruteforce(
                processor.routes, processor.transitions, query, 3, semantics=semantics
            )
            for method in METHODS:
                result = processor.query(
                    query, 3, method=method, semantics=semantics, backend=backend
                )
                assert result.transition_ids == oracle.transition_ids, method


class TestPoolReplicasRebuildTogether:
    def test_worker_tree_and_pooled_answers_match_the_parent(
        self, mini_city, mini_transitions, mini_workload, monkeypatch
    ):
        rebuilds = count_rebuilds(monkeypatch)
        processor = small_churn_processor(mini_city, mini_transitions)
        queries = mini_workload.query_routes(4, length=4, interval=0.8)
        with processor.serving_pool(workers=2) as pool:
            processor.query_batch(queries, 3, workers=2)
            churn_through_rebuild(processor, rebuilds)
            assert rebuilds
            for method in METHODS:
                pooled = processor.query_batch(queries, 3, method=method, workers=2)
                serial = processor.query_batch(queries, 3, method=method)
                for ours, theirs in zip(pooled, serial):
                    assert ours.confirmed_endpoints == theirs.confirmed_endpoints
                    assert _counters(ours) == _counters(theirs), method
            # Transition churn is replayed, never reseeded: the workers'
            # trees were decoded at the seed and rebuilt by their own deletes.
            assert pool.pools_spawned == 1
            worker = pool._pool.submit(_synced_tree_columns, pool._current_sync())
            parent = encode_tree(processor.transition_index.tree, PAYLOAD_TAG)
            assert tree_bits(worker.result(timeout=60)) == tree_bits(parent)


class TestStaticRouteTree:
    def test_route_updates_rebuild_the_tree_a_fresh_index_builds(self, toy_routes):
        """The toy routes sit on a grid, so STR meets coordinate ties: the
        x = 4 stops are first reached in the order y = 0, 4, 8, 2, and the
        slab cut falls between the second and the third of them, so the
        input order decides which slab each one lands in."""
        index = RouteIndex(toy_routes, max_entries=4)
        assert route_tree_bits(index) == route_tree_bits(reference_index(toy_routes))
        crossing = Route(10, [(4.0, 0.0), (4.0, 6.0), (9.0, 6.0)])
        updates = [
            ("add", crossing),
            ("add", Route(11, [(0.0, 4.0), (4.0, 6.0), (0.0, 6.0)])),
            ("remove", toy_routes.get(0)),
            ("remove", crossing),
            ("add", Route(0, [(0.0, 0.0), (8.0, 0.0)])),
        ]
        for kind, route in updates:
            if kind == "add":
                toy_routes.add(route)
                index.add_route(route)
            else:
                toy_routes.remove(route.route_id)
                index.remove_route(route)
            fresh = RouteIndex(toy_routes, max_entries=4)
            assert route_index_bits(index) == route_index_bits(fresh), (kind, route)
            assert route_tree_bits(fresh) == route_tree_bits(reference_index(toy_routes))

    def test_excluded_routes_stay_out_of_the_rebuild(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4, exclude_route_ids={3})
        route = Route(12, [(4.0, 2.0), (6.0, 2.0)])
        toy_routes.add(route)
        index.add_route(route)
        fresh = RouteIndex(toy_routes, max_entries=4, exclude_route_ids={3})
        assert route_index_bits(index) == route_index_bits(fresh)
        assert index.crossover_routes((4.0, 2.0)) == {12}

    def test_processor_route_churn_on_the_mini_city(self, mini_city, mini_transitions):
        processor = small_churn_processor(mini_city, mini_transitions)
        routes = processor.routes
        first = next(iter(routes))
        shared = Route(routes.next_id(), list(first.points[::2]) + [(0.5, 0.5)])
        processor.add_route(shared)
        processor.remove_route(first.route_id)
        fresh = RouteIndex(routes, max_entries=4)
        assert route_index_bits(processor.route_index) == route_index_bits(fresh)


class TestStoreAfterChurn:
    def test_pack_and_boot_after_churn_gives_the_same_answers(
        self, mini_city, mini_transitions, mini_workload, monkeypatch, tmp_path
    ):
        from repro.engine import store as store_module

        rebuilds = count_rebuilds(monkeypatch)
        processor = small_churn_processor(mini_city, mini_transitions)
        churn_through_rebuild(processor, rebuilds)
        route = Route(processor.routes.next_id(), [(1.5, 1.6), (2.5, 2.1)])
        processor.add_route(route)
        path = str(tmp_path / "churned.store")
        store_module.save_indexes(
            path, processor.route_index, processor.transition_index
        )
        booted = RkNNTProcessor.from_store(path)
        assert tree_bits(
            encode_tree(booted.transition_index.tree, PAYLOAD_TAG)
        ) == tree_bits(encode_tree(processor.transition_index.tree, PAYLOAD_TAG))
        assert booted.transition_index.tree.leaf_count == (
            processor.transition_index.tree.leaf_count
        )
        queries = mini_workload.query_routes(4, length=4, interval=0.8)
        for method in METHODS:
            ours = booted.query_batch(queries, 3, method=method)
            theirs = processor.query_batch(queries, 3, method=method)
            for booted_result, result in zip(ours, theirs):
                assert booted_result.confirmed_endpoints == result.confirmed_endpoints
                assert _counters(booted_result) == _counters(result)
        # The booted index keeps taking deletes, and rebuilds at the same one.
        for transition in list(processor.transitions)[:30]:
            processor.remove_transition(transition.transition_id)
            booted.remove_transition(transition.transition_id)
        assert tree_bits(
            encode_tree(booted.transition_index.tree, PAYLOAD_TAG)
        ) == tree_bits(encode_tree(processor.transition_index.tree, PAYLOAD_TAG))
