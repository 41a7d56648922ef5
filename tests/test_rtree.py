"""Unit tests for the R-tree substrate (bulk load, insert, delete, queries)."""

import itertools
import pickle
import random

import pytest

from repro.engine.columnar import walk_nodes
from repro.geometry.point import euclidean
from repro.index.rtree import RTree, RTreeEntry, RTreeNode


def make_entries(points, payload_factory=lambda i: frozenset({i})):
    return [RTreeEntry(p, payload_factory(i)) for i, p in enumerate(points)]


def random_points(count, seed=0, span=100.0):
    rng = random.Random(seed)
    return [(rng.uniform(0, span), rng.uniform(0, span)) for _ in range(count)]


class TestConstruction:
    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert not tree
        assert tree.bbox is None
        assert list(tree.entries()) == []

    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            RTree(max_entries=2)

    def test_min_entries_validation(self):
        with pytest.raises(ValueError):
            RTree(max_entries=8, min_entries=5)

    def test_bulk_load_small(self):
        entries = make_entries([(0, 0), (1, 1), (2, 2)])
        tree = RTree.bulk_load(entries, max_entries=4)
        assert len(tree) == 3
        assert tree.bbox.as_tuple() == (0, 0, 2, 2)

    def test_bulk_load_empty(self):
        tree = RTree.bulk_load([], max_entries=4)
        assert len(tree) == 0

    def test_bulk_load_preserves_all_entries(self):
        points = random_points(500, seed=1)
        tree = RTree.bulk_load(make_entries(points), max_entries=8)
        assert len(tree) == 500
        stored = sorted(entry.point for entry in tree.entries())
        assert stored == sorted(points)

    def test_bulk_load_node_fill(self):
        points = random_points(300, seed=2)
        tree = RTree.bulk_load(make_entries(points), max_entries=10)
        # Every node respects the fanout limit.
        stack = [tree.root]
        while stack:
            node = stack.pop()
            assert len(node.children) <= 10
            if not node.is_leaf:
                stack.extend(node.children)


class TestInvariants:
    @staticmethod
    def check_bboxes(node: RTreeNode):
        """Every node's bbox covers its children's bboxes/points."""
        assert node.bbox is not None
        if node.is_leaf:
            for entry in node.children:
                assert node.bbox.contains_point(entry.point)
        else:
            for child in node.children:
                assert node.bbox.contains_box(child.bbox)
                TestInvariants.check_bboxes(child)

    @staticmethod
    def check_payload_unions(node: RTreeNode):
        merged = set()
        if node.is_leaf:
            for entry in node.children:
                merged.update(entry.payload)
        else:
            for child in node.children:
                TestInvariants.check_payload_unions(child)
                merged.update(child.payload_union)
        assert node.payload_union == frozenset(merged)

    def test_bulk_load_invariants(self):
        points = random_points(200, seed=3)
        tree = RTree.bulk_load(
            make_entries(points), max_entries=6, track_payload_union=True
        )
        self.check_bboxes(tree.root)
        self.check_payload_unions(tree.root)

    def test_insert_invariants(self):
        tree = RTree(max_entries=6)
        for i, point in enumerate(random_points(200, seed=4)):
            tree.insert(RTreeEntry(point, frozenset({i})))
        assert len(tree) == 200
        self.check_bboxes(tree.root)

    def test_union_tracking_tree_is_static(self):
        points = random_points(40, seed=4)
        tree = RTree.bulk_load(
            make_entries(points), max_entries=6, track_payload_union=True
        )
        with pytest.raises(ValueError, match="static"):
            tree.insert(RTreeEntry((1.0, 1.0), frozenset({99})))
        with pytest.raises(ValueError, match="static"):
            tree.remove(points[0])
        assert len(tree) == 40
        assert tree.root.payload_union == frozenset(range(40))

    def test_leaf_depth_uniform_after_bulk_load(self):
        tree = RTree.bulk_load(make_entries(random_points(300, seed=5)), max_entries=8)

        depths = set()

        def walk(node, depth):
            if node.is_leaf:
                depths.add(depth)
            else:
                for child in node.children:
                    walk(child, depth + 1)

        walk(tree.root, 0)
        assert len(depths) == 1


class TestInsertDelete:
    def test_insert_then_query(self):
        tree = RTree(max_entries=4)
        tree.insert(RTreeEntry((1, 1), "a"))
        tree.insert(RTreeEntry((2, 2), "b"))
        _, nearest = next(tree.iter_nearest((1.2, 1.2)))
        assert nearest.payload == "a"
        assert [e.payload for e in tree.entries()] == ["a", "b"]

    def test_remove_existing(self):
        tree = RTree(max_entries=4)
        for i, point in enumerate(random_points(50, seed=6)):
            tree.insert(RTreeEntry(point, i))
        points = [e.point for e in tree.entries()]
        removed = tree.remove(points[10])
        assert removed is not None
        assert len(tree) == 49

    def test_remove_missing_returns_none(self):
        tree = RTree(max_entries=4)
        tree.insert(RTreeEntry((0, 0), "x"))
        assert tree.remove((5, 5)) is None
        assert len(tree) == 1

    def test_remove_with_match_predicate(self):
        tree = RTree(max_entries=4)
        tree.insert(RTreeEntry((1, 1), "a"))
        tree.insert(RTreeEntry((1, 1), "b"))
        removed = tree.remove((1, 1), match=lambda e: e.payload == "b")
        assert removed.payload == "b"
        remaining = [e.payload for e in tree.entries()]
        assert remaining == ["a"]

    def test_remove_everything(self):
        points = random_points(60, seed=7)
        tree = RTree.bulk_load(make_entries(points), max_entries=5)
        for point in points:
            assert tree.remove(point) is not None
        assert len(tree) == 0

    def test_deletes_keep_entries(self):
        points = random_points(120, seed=8)
        tree = RTree.bulk_load(make_entries(points), max_entries=5)
        removed = set()
        rng = random.Random(0)
        for point in rng.sample(points, 60):
            tree.remove(point)
            removed.add(point)
        remaining = sorted(e.point for e in tree.entries())
        expected = sorted(p for p in points if p not in removed)
        assert remaining == expected
        TestInvariants.check_bboxes(tree.root)

    def test_delete_never_reinserts(self, monkeypatch):
        def no_insert(self, entry):
            raise AssertionError("a delete re-inserted an entry")

        monkeypatch.setattr(RTree, "insert", no_insert)
        points = random_points(200, seed=14)
        tree = RTree.bulk_load(make_entries(points), max_entries=8)
        for point in random.Random(1).sample(points, 150):
            assert tree.remove(point) is not None
        assert len(tree) == 50

    def test_delete_unlinks_empty_nodes_and_collapses_the_root(self):
        points = [(float(i), 0.0) for i in range(8)]
        tree = RTree.bulk_load(make_entries(points), max_entries=4)
        assert tree.height() == 2 and tree.leaf_count == 2
        left = [entry.point for entry in tree.root.children[0].children]
        # Emptying one leaf unlinks it; the root is left with one child and
        # is replaced by it.
        for point in left[:-1]:
            tree.remove(point)
        assert tree.leaf_count == 2
        tree.remove(left[-1])
        assert tree.height() == 1 and tree.leaf_count == 1
        assert sorted(e.point for e in tree.entries()) == points[4:]
        assert tree.bbox.as_tuple() == (4.0, 0.0, 7.0, 0.0)

    def test_insert_never_creates_a_node(self):
        points = random_points(64, seed=16)
        tree = RTree.bulk_load(make_entries(points), max_entries=4)
        nodes = [id(node) for node in walk_nodes(tree)]
        height, leaves = tree.height(), tree.leaf_count
        for i, point in enumerate(random_points(20, seed=17)):
            leaf = tree._choose_path(RTreeEntry(point, None))[-1]
            if len(leaf.children) + 1 >= 2 * tree.max_entries:
                break  # the next insert rebuilds
            tree.insert(RTreeEntry(point, frozenset({100 + i})))
            assert [id(node) for node in walk_nodes(tree)] == nodes
            assert leaf.bbox.contains_point(point)
        assert i > 0
        assert (tree.height(), tree.leaf_count) == (height, leaves)
        TestInvariants.check_bboxes(tree.root)

    def test_insert_rebuilds_when_the_leaf_reaches_twice_max_entries(self):
        points = [(float(i), float(i)) for i in range(8)]
        tree = RTree.bulk_load(make_entries(points), max_entries=4)
        rebuilds = []
        rebuild = tree._rebuild
        tree._rebuild = lambda: (rebuilds.append(len(tree)), rebuild())
        leaf = tree.root.children[1]
        # The right leaf holds 4 entries; the fourth insert into it makes 8.
        for i in range(3):
            tree.insert(RTreeEntry((7.0, 7.0), frozenset({10 + i})))
        assert len(leaf.children) == 7 and rebuilds == []
        tree.insert(RTreeEntry((7.0, 7.0), frozenset({13})))
        assert rebuilds == [12]
        assert tree.leaf_count == 3
        assert all(
            len(node.children) <= 4 for node in walk_nodes(tree) if node.is_leaf
        )
        assert sorted(e.point for e in tree.entries()) == sorted(
            points + [(7.0, 7.0)] * 4
        )

    def test_insert_into_an_empty_tree_fills_the_root_leaf_first(self):
        tree = RTree(max_entries=4)
        for i in range(7):
            tree.insert(RTreeEntry((float(i), float(i)), i))
        assert tree.root.is_leaf and len(tree.root.children) == 7
        tree.insert(RTreeEntry((7.0, 7.0), 7))
        assert tree.height() == 2 and tree.leaf_count == 2
        assert tree.bbox.as_tuple() == (0.0, 0.0, 7.0, 7.0)

    def test_rebuild_keeps_the_average_leaf_fill_at_min(self):
        points = random_points(64, seed=15)
        tree = RTree.bulk_load(make_entries(points), max_entries=4)
        rebuilds = []
        load = tree._load
        tree._load = lambda entries: (rebuilds.append(len(entries)), load(entries))
        remaining = list(points)
        random.Random(2).shuffle(remaining)
        while remaining:
            assert tree.remove(remaining.pop()) is not None
            leaves = [node for node in walk_nodes(tree) if node.is_leaf]
            assert tree.leaf_count == len(leaves)
            # Only a one-leaf tree may stay under the bar (STR cannot
            # spread fewer than min_entries entries any thinner).
            assert len(tree) >= tree.min_entries * len(leaves) or len(leaves) == 1
            assert sorted(e.point for e in tree.entries()) == sorted(remaining)
        assert rebuilds and all(size < 32 for size in rebuilds)
        assert tree.root.is_leaf and tree.bbox is None


class TestQueries:
    def test_nearest_neighbors_match_scan(self):
        points = random_points(200, seed=10)
        tree = RTree.bulk_load(make_entries(points), max_entries=8)
        query = (33.3, 66.6)
        expected = sorted(points, key=lambda p: euclidean(p, query))[:5]
        found = [e.point for _, e in itertools.islice(tree.iter_nearest(query), 5)]
        assert found == expected

    def test_nearest_k_larger_than_size(self):
        points = random_points(10, seed=11)
        tree = RTree.bulk_load(make_entries(points), max_entries=4)
        assert len(list(itertools.islice(tree.iter_nearest((0, 0)), 50))) == 10

    def test_iter_nearest_is_sorted(self):
        points = random_points(150, seed=12)
        tree = RTree.bulk_load(make_entries(points), max_entries=8)
        distances = [d for d, _ in tree.iter_nearest((50, 50))]
        assert distances == sorted(distances)
        assert len(distances) == 150

    def test_empty_tree_queries(self):
        tree = RTree()
        assert list(tree.iter_nearest((0, 0))) == []


class TestPackedBoxCache:
    def test_mutation_invalidates_the_cache(self):
        tree = RTree(max_entries=4)
        for index in range(6):
            tree.insert(RTreeEntry((float(index), 0.0), frozenset({index})))
        root = tree.root
        packed = root.packed_child_boxes()
        assert root.packed_boxes is packed  # cached
        tree.insert(RTreeEntry((9.0, 9.0), frozenset({99})))
        assert tree.root.packed_boxes is None  # dropped by the mutation
        rebuilt = tree.root.packed_child_boxes()
        assert len(rebuilt) == len(tree.root.children)

    def test_cache_is_never_pickled(self):
        tree = RTree(max_entries=4)
        for index in range(10):
            tree.insert(RTreeEntry((float(index), 1.0), frozenset({index})))
        for node in walk_nodes(tree):
            node.packed_child_boxes()
        clone = pickle.loads(pickle.dumps(tree))
        for node in walk_nodes(clone):
            assert node.packed_boxes is None
        assert [e.point for e in clone.entries()] == [
            e.point for e in tree.entries()
        ]
