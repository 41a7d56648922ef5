"""Unit tests for the R-tree substrate (bulk load, insert, delete, queries)."""

import pickle
import random

import pytest

from repro.engine.columnar import walk_nodes
from repro.geometry.bbox import BoundingBox
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
        tree = RTree(max_entries=6, track_payload_union=True)
        for i, point in enumerate(random_points(200, seed=4)):
            tree.insert_point(point, frozenset({i}))
        assert len(tree) == 200
        self.check_bboxes(tree.root)
        self.check_payload_unions(tree.root)

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
        tree.insert_point((1, 1), "a")
        tree.insert_point((2, 2), "b")
        results = tree.range_search(BoundingBox(0, 0, 1.5, 1.5))
        assert [e.payload for e in results] == ["a"]

    def test_remove_existing(self):
        tree = RTree(max_entries=4)
        for i, point in enumerate(random_points(50, seed=6)):
            tree.insert_point(point, i)
        points = [e.point for e in tree.entries()]
        removed = tree.remove(points[10])
        assert removed is not None
        assert len(tree) == 49

    def test_remove_missing_returns_none(self):
        tree = RTree(max_entries=4)
        tree.insert_point((0, 0), "x")
        assert tree.remove((5, 5)) is None
        assert len(tree) == 1

    def test_remove_with_match_predicate(self):
        tree = RTree(max_entries=4)
        tree.insert_point((1, 1), "a")
        tree.insert_point((1, 1), "b")
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

    def test_condense_keeps_entries(self):
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


class TestQueries:
    def test_range_search_matches_scan(self):
        points = random_points(300, seed=9)
        tree = RTree.bulk_load(make_entries(points), max_entries=8)
        box = BoundingBox(20, 20, 60, 70)
        expected = sorted(p for p in points if box.contains_point(p))
        found = sorted(e.point for e in tree.range_search(box))
        assert found == expected

    def test_nearest_neighbors_match_scan(self):
        points = random_points(200, seed=10)
        tree = RTree.bulk_load(make_entries(points), max_entries=8)
        query = (33.3, 66.6)
        expected = sorted(points, key=lambda p: euclidean(p, query))[:5]
        found = [e.point for _, e in tree.nearest_neighbors(query, k=5)]
        assert found == expected

    def test_nearest_k_larger_than_size(self):
        points = random_points(10, seed=11)
        tree = RTree.bulk_load(make_entries(points), max_entries=4)
        assert len(tree.nearest_neighbors((0, 0), k=50)) == 10

    def test_nearest_invalid_k(self):
        tree = RTree.bulk_load(make_entries([(0, 0)]), max_entries=4)
        with pytest.raises(ValueError):
            tree.nearest_neighbors((0, 0), k=0)

    def test_iter_nearest_is_sorted(self):
        points = random_points(150, seed=12)
        tree = RTree.bulk_load(make_entries(points), max_entries=8)
        distances = [d for d, _ in tree.iter_nearest((50, 50))]
        assert distances == sorted(distances)
        assert len(distances) == 150

    def test_iter_best_first_visits_everything(self):
        points = random_points(80, seed=13)
        tree = RTree.bulk_load(make_entries(points), max_entries=8)
        seen_points = [
            item.point
            for _, item in tree.iter_best_first([(10, 10), (90, 90)])
            if isinstance(item, RTreeEntry)
        ]
        assert sorted(seen_points) == sorted(points)

    def test_empty_tree_queries(self):
        tree = RTree()
        assert tree.range_search(BoundingBox(0, 0, 1, 1)) == []
        assert tree.nearest_neighbors((0, 0), k=3) == []
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
