"""Tests for the PList / NList inverted indexes."""

from repro.index.inverted import NodeList, PointList, point_key
from repro.index.rtree import RTree, RTreeEntry
from repro.index.route_index import RouteIndex


class TestPointKey:
    def test_normalises_to_floats(self):
        assert point_key((1, 2)) == (1.0, 2.0)
        assert point_key((1.5, -2.5)) == (1.5, -2.5)


class TestPointList:
    def test_add_and_lookup(self):
        plist = PointList()
        plist.add((1, 2), 10)
        plist.add((1, 2), 11)
        plist.add((3, 4), 10)
        assert plist.crossover_routes((1, 2)) == {10, 11}
        assert plist.crossover_degree((1, 2)) == 2
        assert plist.crossover_routes((3, 4)) == {10}
        assert len(plist) == 2

    def test_lookup_missing_point(self):
        plist = PointList()
        assert plist.crossover_routes((9, 9)) == frozenset()
        assert plist.crossover_degree((9, 9)) == 0
        assert (9, 9) not in plist

    def test_discard(self):
        plist = PointList()
        plist.add((0, 0), 1)
        plist.add((0, 0), 2)
        plist.discard((0, 0), 1)
        assert plist.crossover_routes((0, 0)) == {2}
        plist.discard((0, 0), 2)
        assert (0, 0) not in plist
        assert len(plist) == 0

    def test_discard_missing_is_noop(self):
        plist = PointList()
        plist.discard((0, 0), 1)
        assert len(plist) == 0

    def test_contains_and_iteration(self):
        plist = PointList()
        plist.add((0, 0), 1)
        plist.add((1, 1), 2)
        assert (0, 0) in plist
        assert set(plist.points()) == {(0.0, 0.0), (1.0, 1.0)}

    def test_crossover_set_is_immutable_snapshot(self):
        plist = PointList()
        plist.add((0, 0), 1)
        snapshot = plist.crossover_routes((0, 0))
        plist.add((0, 0), 2)
        assert snapshot == {1}


class TestNodeList:
    def _tree(self):
        entries = [
            RTreeEntry((float(i), float(i % 3)), frozenset({i % 4}))
            for i in range(40)
        ]
        return RTree.bulk_load(entries, max_entries=4, track_payload_union=True)

    def test_build_matches_payload_union(self):
        tree = self._tree()
        nlist = NodeList.build(tree.root)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            assert nlist.routes_in_node(node) == node.payload_union
            if not node.is_leaf:
                stack.extend(node.children)

    def test_root_contains_all_routes(self):
        tree = self._tree()
        nlist = NodeList.build(tree.root)
        assert nlist.routes_in_node(tree.root) == {0, 1, 2, 3}

    def test_unknown_node_falls_back_to_live_union(self):
        tree = self._tree()
        nlist = NodeList.build(tree.root)
        # A tree rebuilt after the NList was built has nodes the NList has
        # never seen; the fallback reads their own unions.
        entries = list(tree.entries()) + [RTreeEntry((100.0, 100.0), frozenset({9}))]
        rebuilt = RTree.bulk_load(entries, max_entries=4, track_payload_union=True)
        assert nlist.routes_in_node(rebuilt.root) == {0, 1, 2, 3, 9}

    def test_len_counts_nodes(self):
        tree = self._tree()
        nlist = NodeList.build(tree.root)
        assert len(nlist) >= 1


class TestRouteIndexInvertedIntegration:
    def test_crossover_from_shared_stops(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        # (4, 0) and (4, 4) are shared between route 3 and routes 0 / 1.
        assert index.crossover_routes((4.0, 0.0)) == {0, 3}
        assert index.crossover_routes((4.0, 4.0)) == {1, 3}
        assert index.crossover_routes((0.0, 8.0)) == {2}

    def test_nlist_root_has_every_route(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        assert index.routes_in_node(index.root) == {0, 1, 2, 3}

    def test_distinct_point_count_excludes_duplicates(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        total_points = sum(len(r) for r in toy_routes)
        # Two stops are shared, so the RR-tree holds two fewer entries.
        assert index.distinct_point_count() == total_points - 2
