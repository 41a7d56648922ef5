"""Tests for the TR-tree wrapper (TransitionIndex)."""

import pytest

import dataclasses
import gc
import pickle
import random

from repro.core.rknnt import RkNNTProcessor
from repro.data.workloads import make_city
from repro.engine import columnar
from repro.geometry.bbox import BoundingBox
from repro.index.rtree import RTreeNode
from repro.index.transition_index import (
    DELTA_DELETE,
    DELTA_INSERT,
    DESTINATION,
    ORIGIN,
    TransitionDelta,
    TransitionEntry,
    TransitionIndex,
)
from repro.model.dataset import TransitionDataset
from repro.model.transition import Transition


class TestTransitionEntry:
    def test_valid_endpoints(self):
        TransitionEntry(1, ORIGIN)
        TransitionEntry(1, DESTINATION)

    def test_invalid_endpoint_raises(self):
        with pytest.raises(ValueError):
            TransitionEntry(1, "x")

    def test_hashable_and_frozen(self):
        tag = TransitionEntry(3, ORIGIN)
        assert tag in {TransitionEntry(3, ORIGIN)}
        with pytest.raises(AttributeError):
            tag.endpoint = DESTINATION

    def test_is_a_slotted_pair(self):
        tag = TransitionEntry(3, ORIGIN)
        assert tuple(tag) == (3, ORIGIN)
        assert not hasattr(tag, "__dict__")
        assert pickle.loads(pickle.dumps(tag)) == tag


class TestConstruction:
    def test_two_entries_per_transition(self, toy_transitions):
        index = TransitionIndex(toy_transitions, max_entries=4)
        assert index.endpoint_count() == 2 * len(toy_transitions)

    def test_empty_dataset(self):
        index = TransitionIndex(TransitionDataset())
        assert index.endpoint_count() == 0
        assert index.root.bbox is None

    def test_transition_lookup(self, toy_transitions):
        index = TransitionIndex(toy_transitions, max_entries=4)
        assert index.transition(3).transition_id == 3

    def test_endpoints_in_box(self, toy_transitions):
        index = TransitionIndex(toy_transitions, max_entries=4)
        box = BoundingBox(0.0, 0.0, 8.0, 1.0)
        tags = {(tag.transition_id, tag.endpoint) for _, tag in index.endpoints_in_box(box)}
        # Transitions 0 (both endpoints) and 3 (origin) lie in that strip.
        assert (0, ORIGIN) in tags
        assert (3, ORIGIN) in tags
        assert all(tid != 5 for tid, _ in tags)


class TestDynamicUpdates:
    def test_add_transition(self, toy_transitions):
        index = TransitionIndex(toy_transitions, max_entries=4)
        before = index.endpoint_count()
        new_transition = Transition(100, (1.0, 1.0), (2.0, 2.0))
        toy_transitions.add(new_transition)
        index.add_transition(new_transition)
        assert index.endpoint_count() == before + 2
        tags = {
            tag.transition_id
            for _, tag in index.endpoints_in_box(BoundingBox(0.5, 0.5, 2.5, 2.5))
        }
        assert 100 in tags

    def test_remove_transition(self, toy_transitions):
        index = TransitionIndex(toy_transitions, max_entries=4)
        before = index.endpoint_count()
        transition = toy_transitions.get(5)
        removed = index.remove_transition(transition)
        assert removed == 2
        assert index.endpoint_count() == before - 2

    def test_remove_missing_transition_returns_zero(self, toy_transitions):
        index = TransitionIndex(toy_transitions, max_entries=4)
        ghost = Transition(999, (100.0, 100.0), (101.0, 101.0))
        assert index.remove_transition(ghost) == 0

    def test_remove_only_targets_matching_transition(self, toy_transitions):
        # Two transitions sharing an endpoint location: removing one must not
        # disturb the other.
        index = TransitionIndex(toy_transitions, max_entries=4)
        shared = Transition(200, (1.0, 0.3), (5.0, 5.0))
        toy_transitions.add(shared)
        index.add_transition(shared)
        index.remove_transition(shared)
        remaining = {
            (tag.transition_id, tag.endpoint)
            for _, tag in index.endpoints_in_box(BoundingBox(0.9, 0.2, 1.1, 0.4))
        }
        assert (0, ORIGIN) in remaining
        assert (200, ORIGIN) not in remaining


class TestDeltaStream:
    def test_listener_sees_typed_contiguous_deltas(self, toy_transitions):
        index = TransitionIndex(toy_transitions, max_entries=4)
        seen = []
        index.add_listener(seen.append)

        fresh = Transition(300, (1.0, 1.0), (2.0, 2.0))
        index.add_transition(fresh)
        index.remove_transition(fresh)

        assert [delta.kind for delta in seen] == [DELTA_INSERT, DELTA_DELETE]
        assert all(isinstance(delta, TransitionDelta) for delta in seen)
        assert all(delta.transition is fresh for delta in seen)
        # Versions stamp the post-mutation state and are contiguous.
        assert [delta.version for delta in seen] == [1, 2]
        assert index.version == 2

    def test_remove_listener_stops_delivery(self, toy_transitions):
        index = TransitionIndex(toy_transitions, max_entries=4)
        seen = []
        index.add_listener(seen.append)
        index.remove_listener(seen.append)
        index.add_transition(Transition(301, (1.0, 1.0), (2.0, 2.0)))
        assert seen == []
        # Removing an unknown listener is a no-op, not an error.
        index.remove_listener(seen.append)

    def test_invalid_delta_kind_rejected(self, toy_transitions):
        with pytest.raises(ValueError):
            TransitionDelta("mutate", Transition(1, (0, 0), (1, 1)), 1)

    def test_pickle_strips_listeners(self, toy_transitions):
        index = TransitionIndex(toy_transitions, max_entries=4)
        index.add_listener(lambda delta: None)
        clone = pickle.loads(pickle.dumps(index))
        assert clone._listeners == []
        assert clone.endpoint_count() == index.endpoint_count()


def _fresh_mini_transitions() -> TransitionDataset:
    """A private copy of the mini city's transitions (safe to mutate)."""
    _, transitions = make_city("mini")
    return TransitionDataset(list(transitions))


def _churn(index: TransitionIndex, dataset: TransitionDataset, calls: int, seed: int):
    """``calls`` mixed random deletes and re-inserts (under new ids)."""
    rng = random.Random(seed)
    next_id = max(t.transition_id for t in dataset) + 1
    for step in range(calls):
        if step % 2 == 0:
            victim = rng.choice(sorted(t.transition_id for t in dataset))
            index.remove_transition(dataset.remove(victim))
        else:
            x, y = rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)
            fresh = Transition(next_id, (x, y), (y, x))
            next_id += 1
            dataset.add(fresh)
            index.add_transition(fresh)


def _assert_one_tag_per_leaf(index: TransitionIndex) -> None:
    seen = set()
    for node in columnar.walk_nodes(index.tree):
        if not node.is_leaf:
            continue
        for entry in node.children:
            tag = entry.payload
            assert type(tag) is TransitionEntry, repr(tag)
            seen.add(tag)
    expected = {
        TransitionEntry(t.transition_id, endpoint)
        for t in index.transitions
        for endpoint in (ORIGIN, DESTINATION)
    }
    assert seen == expected
    assert len(index.tree) == len(expected)


class TestNoPayloadUnions:
    """The TR-tree never builds or maintains per-node payload unions."""

    def test_build_and_churn_never_touch_unions(self, monkeypatch):
        calls = []
        recompute = RTreeNode.recompute_payload_union
        merge = RTreeNode._merged_child_union

        def counted_recompute(node):
            calls.append("recompute_payload_union")
            return recompute(node)

        def counted_merge(node):
            calls.append("_merged_child_union")
            return merge(node)

        monkeypatch.setattr(RTreeNode, "recompute_payload_union", counted_recompute)
        monkeypatch.setattr(RTreeNode, "_merged_child_union", counted_merge)

        dataset = _fresh_mini_transitions()
        index = TransitionIndex(dataset, max_entries=8)
        _churn(index, dataset, calls=40, seed=5)
        assert not index.tree.track_payload_union
        assert calls == []
        _assert_one_tag_per_leaf(index)


class TestOneTagPerLeaf:
    """Every TR-tree leaf payload is exactly one TransitionEntry."""

    def test_after_bulk_load(self):
        _assert_one_tag_per_leaf(TransitionIndex(_fresh_mini_transitions()))

    def test_after_add_transition(self):
        dataset = _fresh_mini_transitions()
        index = TransitionIndex(dataset, max_entries=4)
        for offset in range(20):
            fresh = Transition(10_000 + offset, (offset * 0.3, 1.0), (2.0, offset * 0.2))
            dataset.add(fresh)
            index.add_transition(fresh)
        _assert_one_tag_per_leaf(index)

    def test_after_columnar_pickle_round_trip(self):
        dataset = _fresh_mini_transitions()
        index = TransitionIndex(dataset, max_entries=8)
        _churn(index, dataset, calls=10, seed=1)
        clone = pickle.loads(pickle.dumps(index))
        assert not clone.tree.track_payload_union
        _assert_one_tag_per_leaf(clone)

    def test_after_from_store_materialises(self, tmp_path):
        from repro.engine import store

        city, transitions = make_city("mini")
        processor = RkNNTProcessor(city.routes, transitions)
        path = str(tmp_path / "mini.store")
        store.save_indexes(path, processor.route_index, processor.transition_index)
        booted = RkNNTProcessor.from_store(path)
        index = booted.transition_index
        assert "tree" not in index.__dict__
        _assert_one_tag_per_leaf(index)
        assert not index.tree.track_payload_union

    @pytest.mark.parametrize(
        "offsets, values, message",
        [
            # Two (tid, code) pairs in one row, as the old frozenset encoding
            # allowed.
            ([0, 4], [7, 0, 8, 1], "one"),
            ([0, 2], [7, 2], "endpoint"),
            # A value the offsets do not cover, and no row for the point.
            ([0, 2], [7, 0, 8], "inconsistent"),
            ([0], [], "inconsistent"),
        ],
    )
    def test_decoder_rejects_a_bad_tag_row(self, offsets, values, message):
        bad = columnar.TreeColumns(
            payload_kind=columnar.PAYLOAD_TAG,
            max_entries=8,
            min_entries=4,
            track_payload_union=False,
            size=1,
            child_counts=[1],
            leaf_flags=[1],
            entry_points=[(1.0, 2.0)],
            payload_offsets=offsets,
            payload_values=values,
        )
        with pytest.raises(ValueError, match=message):
            columnar.decode_tree(bad)


class TestPausedCollector:
    """Builds and decodes run with the cyclic collector paused."""

    def test_build_sets_off_no_collection(self, collections_during):
        transitions = _fresh_mini_transitions()
        index, collections = collections_during(lambda: TransitionIndex(transitions))
        assert collections == 0
        _assert_one_tag_per_leaf(index)

    def test_unpickle_decode_sets_off_no_collection(self, collections_during):
        # Loading the columns is outside the pause (on the pure-python
        # backend they are lists of tuples), so the window covers the step
        # an unpickle runs once they are loaded.
        index = TransitionIndex(_fresh_mini_transitions())
        state = pickle.loads(pickle.dumps(index.__getstate__()))
        clone = TransitionIndex.__new__(TransitionIndex)
        _, collections = collections_during(lambda: clone.__setstate__(state))
        assert collections == 0
        _assert_one_tag_per_leaf(clone)

    def test_collector_is_back_on_after_a_rejected_decode(self):
        columns = TransitionIndex(_fresh_mini_transitions()).to_columns()
        bad = dataclasses.replace(
            columns,
            tree=dataclasses.replace(
                columns.tree,
                size=1,
                child_counts=[1],
                leaf_flags=[1],
                entry_points=[(1.0, 2.0)],
                payload_offsets=[0, 3],
                payload_values=[7, 0, 1],
            ),
        )
        try:
            with pytest.raises(ValueError, match="got 3 values"):
                TransitionIndex.from_columns(bad)
            assert gc.isenabled()
        finally:
            gc.enable()

    def test_a_collector_the_caller_disabled_stays_disabled(self):
        transitions = _fresh_mini_transitions()
        gc.disable()
        try:
            index = TransitionIndex(transitions)
            clone = pickle.loads(pickle.dumps(index))
            assert not gc.isenabled()
        finally:
            gc.enable()
        _assert_one_tag_per_leaf(clone)
