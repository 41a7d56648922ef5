"""Tests for the PList / NList inverted indexes."""

from repro.engine.columnar import walk_nodes
from repro.geometry import kernels
from repro.index.inverted import PointList, point_key
from repro.index.route_index import RouteIndex
from repro.model.route import Route


def subtree_routes(node):
    """Route ids of every RR-tree entry below ``node``, read off the leaves."""
    routes = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_leaf:
            for entry in current.children:
                routes.update(entry.payload)
        else:
            stack.extend(current.children)
    return routes


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

    def test_nlist_of_every_node_is_its_subtree_routes(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        nodes = list(walk_nodes(index.tree))
        assert len(nodes) > 1
        for node in nodes:
            assert index.routes_in_node(node) == subtree_routes(node)

    def test_union_ids_is_the_sorted_nlist(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        for node in walk_nodes(index.tree):
            assert kernels.id_list(node.union_ids()) == sorted(node.payload_union)

    def test_nlist_follows_route_updates(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        index.add_route(Route(9, [(100.0, 100.0), (4.0, 4.0)]))
        assert index.routes_in_node(index.root) == {0, 1, 2, 3, 9}
        assert index.crossover_routes((4.0, 4.0)) == {1, 3, 9}
        index.remove_route(toy_routes.get(3))
        assert index.routes_in_node(index.root) == {0, 1, 2, 9}
        assert index.crossover_routes((4.0, 0.0)) == {0}
        for node in walk_nodes(index.tree):
            assert index.routes_in_node(node) == subtree_routes(node)

    def test_decoded_nlist_matches_node_for_node(self, toy_routes):
        index = RouteIndex(toy_routes, max_entries=4)
        decoded = RouteIndex.from_columns(index.to_columns())
        before = [node.payload_union for node in walk_nodes(index.tree)]
        after = [decoded.routes_in_node(node) for node in walk_nodes(decoded.tree)]
        assert after == before
