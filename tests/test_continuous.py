"""Differential and edge-case tests for continuous (delta-maintained) RkNNT.

The contract under test, per method × semantics × backend:

    after ANY interleaving of transition inserts/deletes (and route
    mutations), a subscription's materialized standing result is
    element-wise identical to a fresh ``query()`` with the same arguments,
    and to the brute-force oracle.

Plus the delta stream invariant: replaying the emitted ``added``/``removed``
sets over the initial membership reproduces the final membership exactly.
"""

from __future__ import annotations

import random

import pytest

from conftest import BACKENDS

from repro.core.baseline import rknnt_bruteforce
from repro.core.rknnt import METHODS, RkNNTProcessor, VORONOI
from repro.engine.continuous import CAUSE_REBUILD, ResultDelta
from repro.model.dataset import RouteDataset, TransitionDataset
from repro.model.route import Route
from repro.model.transition import Transition

K = 3
STREAM_OPS = 200
CHECK_EVERY = 25


# ----------------------------------------------------------------------
# A small private world per test (the streams mutate it)
# ----------------------------------------------------------------------
def make_world(seed: int, route_count: int = 10, transition_count: int = 50):
    rng = random.Random(seed)
    routes = []
    for route_id in range(route_count):
        x, y = rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)
        points = [(x, y)]
        for _ in range(rng.randint(3, 5)):
            x = min(10.0, max(0.0, x + rng.uniform(-2.0, 2.0)))
            y = min(10.0, max(0.0, y + rng.uniform(-2.0, 2.0)))
            points.append((x, y))
        routes.append(Route(route_id, points))
    transitions = [
        Transition(
            tid,
            (rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)),
            (rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)),
        )
        for tid in range(transition_count)
    ]
    return RouteDataset(routes), TransitionDataset(transitions)


def random_op(rng, processor, live_ids, next_id):
    """Apply one random insert (60%) or delete (40%); returns next_id."""
    if live_ids and rng.random() < 0.4:
        victim = live_ids.pop(rng.randrange(len(live_ids)))
        processor.remove_transition(victim)
        return next_id
    processor.add_transition(
        Transition(
            next_id,
            (rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)),
            (rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)),
        )
    )
    live_ids.append(next_id)
    return next_id + 1


def assert_matches_fresh(processor, subscription, query, method, semantics):
    fresh = processor.query(
        query, K, method=method, semantics=semantics
    )
    standing = subscription.result()
    assert standing.transition_ids == fresh.transition_ids
    assert standing.confirmed_endpoints == fresh.confirmed_endpoints


QUERY = [(2.0, 2.0), (5.0, 5.0), (8.0, 3.0)]


class TestDifferentialStream:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("semantics", ["exists", "forall"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stream_matches_fresh_query_and_bruteforce(
        self, method, semantics, backend
    ):
        routes, transitions = make_world(seed=7)
        processor = RkNNTProcessor(routes, transitions)
        subscription = processor.watch(
            QUERY, K, method=method, semantics=semantics, backend=backend
        )
        initial_ids = set(subscription.transition_ids)

        # String seeds are hashed with sha512 by random.seed, so every
        # parametrization replays the exact same stream on every run.
        rng = random.Random(f"{method}|{semantics}|{backend}")
        live_ids = list(transitions.transition_ids)
        next_id = transitions.next_id()
        for step in range(STREAM_OPS):
            next_id = random_op(rng, processor, live_ids, next_id)
            if (step + 1) % CHECK_EVERY == 0:
                assert_matches_fresh(
                    processor, subscription, QUERY, method, semantics
                )
        assert_matches_fresh(processor, subscription, QUERY, method, semantics)

        oracle = rknnt_bruteforce(
            routes, transitions, QUERY, K, semantics=semantics
        )
        assert subscription.result().transition_ids == oracle.transition_ids

        # The delta stream replays the membership exactly.
        ids = set(initial_ids)
        for delta in subscription.poll():
            assert not (delta.added & delta.removed)
            ids -= set(delta.removed)
            ids |= set(delta.added)
        assert ids == set(subscription.transition_ids)

        # Delta maintenance actually short-circuited work: most endpoints
        # were either rejected by the O(filter) test or verified, never both.
        stats = subscription.delta_stats
        assert stats.inserts_seen + stats.deletes_seen == STREAM_OPS
        assert (
            stats.endpoints_filtered + stats.endpoints_verified
            == 2 * stats.inserts_seen
        )

    def test_route_mutations_trigger_scoped_refilter(self):
        routes, transitions = make_world(seed=11)
        processor = RkNNTProcessor(routes, transitions)
        subscription = processor.watch(QUERY, K, method=VORONOI)

        new_route = Route(routes.next_id(), [(2.0, 2.5), (5.0, 4.5), (7.5, 3.0)])
        processor.add_route(new_route)
        assert_matches_fresh(processor, subscription, QUERY, VORONOI, "exists")
        assert subscription.delta_stats.rebuilds == 1

        processor.remove_route(new_route.route_id)
        assert_matches_fresh(processor, subscription, QUERY, VORONOI, "exists")
        assert subscription.delta_stats.rebuilds == 2

    def test_update_storm_crossing_generation_boundary(self):
        """Route churn mid-stream: the subscriptions' retained filter sets
        (and their ``FilterSet.generation`` counters) are invalidated and
        rebuilt while transition updates keep streaming."""
        routes, transitions = make_world(seed=13)
        processor = RkNNTProcessor(routes, transitions)
        subscription = processor.watch(QUERY, K, method=VORONOI)
        generation_before = [
            executor.filter_set.generation
            for _, executor in subscription._executors
        ]

        rng = random.Random(99)
        live_ids = list(transitions.transition_ids)
        next_id = transitions.next_id()
        extra_route_id = None
        for step in range(60):
            next_id = random_op(rng, processor, live_ids, next_id)
            if step == 19:
                extra_route_id = routes.next_id()
                processor.add_route(
                    Route(extra_route_id, [(1.0, 1.0), (4.0, 4.0), (8.0, 4.0)])
                )
            if step == 39:
                processor.remove_route(extra_route_id)
            if step % 10 == 9:
                assert_matches_fresh(
                    processor, subscription, QUERY, VORONOI, "exists"
                )
        assert subscription.delta_stats.rebuilds >= 2
        # The rebuilt filter sets are fresh objects with new generations.
        generation_after = [
            executor.filter_set.generation
            for _, executor in subscription._executors
        ]
        assert len(generation_after) == len(generation_before)
        oracle = rknnt_bruteforce(routes, transitions, QUERY, K)
        assert subscription.result().transition_ids == oracle.transition_ids


class TestEdgeCases:
    def test_mutations_with_empty_subscription_set(self):
        routes, transitions = make_world(seed=17)
        processor = RkNNTProcessor(routes, transitions)
        manager = processor.continuous
        assert len(manager) == 0
        # No subscriptions: mutations must not blow up and later watches
        # must see the post-mutation state.
        processor.add_transition(Transition(9999, (1.0, 1.0), (2.0, 2.0)))
        processor.remove_transition(9999)
        subscription = processor.watch(QUERY, K)
        processor.unwatch(subscription)
        assert len(manager) == 0
        processor.add_transition(Transition(9999, (1.0, 1.0), (2.0, 2.0)))
        # The cancelled subscription is frozen: no deltas, no rebuilds.
        assert subscription.poll() == []
        assert not subscription.active

    def test_duplicate_transition_id_rejected_without_corruption(self):
        routes, transitions = make_world(seed=19)
        processor = RkNNTProcessor(routes, transitions)
        subscription = processor.watch(QUERY, K)
        existing = next(iter(transitions)).transition_id
        with pytest.raises(ValueError):
            processor.add_transition(
                Transition(existing, (1.0, 1.0), (2.0, 2.0))
            )
        # The failed insert never reached the index, so the subscription
        # saw nothing and stays exactly in sync.
        assert subscription.delta_stats.inserts_seen == 0
        assert_matches_fresh(processor, subscription, QUERY, VORONOI, "exists")
        # And the stream keeps working afterwards.
        processor.add_transition(
            Transition(transitions.next_id(), (2.0, 2.1), (4.9, 5.0))
        )
        assert_matches_fresh(processor, subscription, QUERY, VORONOI, "exists")

    def test_delete_then_reinsert_same_coordinates(self):
        routes, transitions = make_world(seed=23)
        processor = RkNNTProcessor(routes, transitions)
        subscription = processor.watch(QUERY, K)
        # Pick a transition currently in the result.
        member = sorted(subscription.transition_ids)[0]
        coords = transitions.get(member).coordinates()

        removed = processor.remove_transition(member)
        assert member not in subscription.transition_ids

        # Same id, same coordinates: membership must come back identically.
        processor.add_transition(Transition(member, *coords))
        assert member in subscription.transition_ids
        assert_matches_fresh(processor, subscription, QUERY, VORONOI, "exists")

        # Different id, same coordinates: membership transfers to the new id.
        processor.remove_transition(member)
        fresh_id = transitions.next_id()
        processor.add_transition(Transition(fresh_id, *removed.coordinates()))
        assert member not in subscription.transition_ids
        assert fresh_id in subscription.transition_ids
        assert_matches_fresh(processor, subscription, QUERY, VORONOI, "exists")

    def test_callback_and_poll_see_the_same_deltas(self):
        routes, transitions = make_world(seed=29)
        processor = RkNNTProcessor(routes, transitions)
        seen = []
        subscription = processor.watch(QUERY, K, callback=seen.append)
        rng = random.Random(3)
        live_ids = list(transitions.transition_ids)
        next_id = transitions.next_id()
        for _ in range(40):
            next_id = random_op(rng, processor, live_ids, next_id)
        polled = subscription.poll()
        assert polled == seen
        assert all(isinstance(delta, ResultDelta) for delta in polled)
        assert all(delta.added or delta.removed for delta in polled)
        # poll drains.
        assert subscription.poll() == []

    def test_margin_reports_membership_safety(self):
        routes, transitions = make_world(seed=31)
        processor = RkNNTProcessor(routes, transitions)
        subscription = processor.watch(QUERY, K)
        result = subscription.result()
        for transition_id, endpoints in result.confirmed_endpoints.items():
            for endpoint in endpoints:
                margin = subscription.margin(transition_id, endpoint)
                assert 1 <= margin <= K
        # A non-member (or non-confirmed endpoint) has margin 0.
        non_members = set(transitions.transition_ids) - set(
            result.confirmed_endpoints
        )
        if non_members:
            assert subscription.margin(next(iter(non_members))) == 0

    def test_watch_existing_route_excludes_itself(self):
        routes, transitions = make_world(seed=37)
        processor = RkNNTProcessor(routes, transitions)
        route = next(iter(routes))
        subscription = processor.watch(route, K)
        fresh = processor.query(route, K)
        assert subscription.result().transition_ids == fresh.transition_ids
        processor.add_transition(
            Transition(transitions.next_id(), (2.0, 2.0), (5.0, 5.0))
        )
        fresh = processor.query(route, K)
        assert subscription.result().transition_ids == fresh.transition_ids

    def test_result_deltas_stamp_the_index_version(self):
        routes, transitions = make_world(seed=43)
        processor = RkNNTProcessor(routes, transitions)
        subscription = processor.watch(QUERY, K)
        rng = random.Random(8)
        live_ids = list(transitions.transition_ids)
        next_id = transitions.next_id()
        for _ in range(30):
            next_id = random_op(rng, processor, live_ids, next_id)
        index = processor.transition_index
        deltas = subscription.poll()
        assert deltas, "expected at least one result delta in 30 ops"
        # Each delta carries the index version it brought the subscription
        # up to date with; versions are strictly increasing and end at (or
        # before) the index's current version.
        versions = [delta.version for delta in deltas]
        assert versions == sorted(versions)
        assert all(1 <= version <= index.version for version in versions)
        # And the subscription is fully caught up.
        assert subscription._transition_version == index.version

    def test_index_level_reused_id_revokes_membership(self):
        # TransitionIndex.add_transition accepts duplicate ids (only the
        # datasets reject them); an insert delta re-using a member's id at
        # far-away coordinates must revoke the membership and emit it.
        routes, transitions = make_world(seed=47)
        processor = RkNNTProcessor(routes, transitions)
        subscription = processor.watch(QUERY, K)
        subscription.poll()
        member = sorted(subscription.transition_ids)[0]
        processor.transition_index.add_transition(
            Transition(member, (900.0, 900.0), (901.0, 901.0))
        )
        assert member not in subscription.transition_ids
        deltas = subscription.poll()
        assert any(member in delta.removed for delta in deltas)
        # transition_ids and the materialized confirmed map stay in sync.
        assert member not in subscription.result().confirmed_endpoints

    def test_rebuild_delta_reports_the_diff(self):
        routes, transitions = make_world(seed=41)
        processor = RkNNTProcessor(routes, transitions)
        subscription = processor.watch(QUERY, K)
        subscription.poll()
        before = set(subscription.transition_ids)
        # A route hugging the query steals rank-k slots: some transitions
        # must leave the standing result.
        processor.add_route(
            Route(routes.next_id(), [(q[0], q[1]) for q in QUERY])
        )
        after = set(subscription.transition_ids)
        deltas = subscription.poll()
        if before != after:
            assert len(deltas) == 1
            assert deltas[0].cause == CAUSE_REBUILD
            assert set(deltas[0].removed) == before - after
            assert set(deltas[0].added) == after - before


# ----------------------------------------------------------------------
# Spawn-leg coverage: subscription rebuilds dispatched through the pool
# ----------------------------------------------------------------------
import multiprocessing

START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]


class TestStartMethodLegs:
    """`refresh_subscriptions()` shards the post-route-churn re-filters
    across a live serving pool.  Both start methods must rebuild every
    standing query to exactly the fresh-query answer — ``spawn`` workers
    re-import the package and decode the context from its columnar pickle,
    which is the leg production serving actually runs on."""

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_pooled_subscription_rebuild_matches_fresh(self, start_method):
        routes, transitions = make_world(seed=77)
        processor = RkNNTProcessor(routes, transitions)
        try:
            subscriptions = [
                processor.watch(query, K, method=VORONOI, semantics=semantics)
                for query in ([(2.0, 2.0)], QUERY)
                for semantics in ("exists", "forall")
            ]
            with processor.serving_pool(workers=2, start_method=start_method) as pool:
                processor.add_route(
                    Route(routes.next_id(), [(1.5, 1.5), (2.5, 2.5), (4.0, 3.0)])
                )
                deltas = processor.refresh_subscriptions()
                assert not pool.degraded
            # Only the non-empty rebuild deltas are returned.
            assert all(delta.cause == CAUSE_REBUILD for delta in deltas)
            for subscription in subscriptions:
                assert_matches_fresh(
                    processor,
                    subscription,
                    subscription.query_points,
                    VORONOI,
                    subscription.semantics,
                )
        finally:
            processor.close()
