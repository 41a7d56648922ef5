"""Tests for the Voronoi (per-route) filtering predicate (Section 5.1)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.bbox import BoundingBox
from repro.geometry.halfspace import filtering_space_contains_bbox
from repro.geometry.point import point_to_points_distance
from repro.geometry.voronoi import voronoi_prunes_bbox, voronoi_prunes_point

coord = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
points = st.tuples(coord, coord)
point_lists = st.lists(points, min_size=1, max_size=6)


class TestVoronoiPointPredicate:
    def test_point_closer_to_route(self):
        route = [(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)]
        query = [(0.0, 5.0), (4.0, 5.0)]
        assert voronoi_prunes_point((2.0, 1.0), route, query)
        assert not voronoi_prunes_point((2.0, 4.5), route, query)

    def test_empty_route_never_prunes(self):
        assert not voronoi_prunes_point((0, 0), [], [(1, 1)])

    @given(p=points, route=point_lists, query=point_lists)
    def test_matches_set_distance_comparison(self, p, route, query):
        pruned = voronoi_prunes_point(p, route, query)
        if pruned:
            d_route = point_to_points_distance(p, route)
            d_query = point_to_points_distance(p, query)
            assert d_route < d_query


class TestVoronoiBoxPredicate:
    def test_paper_scenario_route_prunes_what_single_point_cannot(self):
        """The Figure 5 effect: a whole route prunes a node no single point can."""
        route = [(0.0, 0.0), (2.0, 0.0), (4.0, 0.0), (6.0, 0.0)]
        query = [(0.0, 3.0), (3.0, 3.0), (6.0, 3.0)]
        # Node sitting under the middle of the route, well below the query.
        node = BoundingBox(1.0, -1.0, 5.0, 0.4)
        assert voronoi_prunes_bbox(node, route, query)
        # No single filter point dominates the node against every query point.
        assert not any(
            filtering_space_contains_bbox(node, r, query) for r in route
        )

    def test_node_near_query_not_pruned(self):
        route = [(0.0, 0.0), (4.0, 0.0)]
        query = [(2.0, 2.0)]
        node = BoundingBox(1.5, 1.5, 2.5, 2.5)
        assert not voronoi_prunes_bbox(node, route, query)

    def test_empty_route_never_prunes(self):
        assert not voronoi_prunes_bbox(BoundingBox(0, 0, 1, 1), [], [(5, 5)])

    @given(
        route=point_lists,
        query=point_lists,
        x1=coord,
        y1=coord,
        x2=coord,
        y2=coord,
    )
    def test_pruned_box_corners_closer_to_route(self, route, query, x1, y1, x2, y2):
        """Safety: every corner of a pruned node is closer to the route."""
        box = BoundingBox(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        if voronoi_prunes_bbox(box, route, query):
            for corner in box.corners():
                # Tolerance absorbs floating-point rounding of the distance
                # computation; the half-plane certificate itself is exact.
                assert point_to_points_distance(
                    corner, route
                ) <= point_to_points_distance(corner, query) + 1e-9

    @given(
        route=point_lists,
        query=point_lists,
        x1=coord,
        y1=coord,
        x2=coord,
        y2=coord,
    )
    def test_strictly_more_powerful_than_single_point_filter(
        self, route, query, x1, y1, x2, y2
    ):
        """If any single filter point prunes the box, the route also prunes it."""
        box = BoundingBox(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        single = any(filtering_space_contains_bbox(box, r, query) for r in route)
        if single:
            assert voronoi_prunes_bbox(box, route, query)

    @given(
        route=point_lists,
        query=point_lists,
        px=coord,
        py=coord,
    )
    def test_interior_points_of_pruned_box_are_safe(self, route, query, px, py):
        """Points sampled inside a pruned degenerate box behave like the box."""
        box = BoundingBox.from_point((px, py))
        if voronoi_prunes_bbox(box, route, query):
            d_route = point_to_points_distance((px, py), route)
            d_query = point_to_points_distance((px, py), query)
            if abs(d_route - d_query) < 1e-9:
                # Near-tie: the two predicates evaluate different (equally
                # valid) floating-point expressions of the same comparison.
                return
            assert voronoi_prunes_point((px, py), route, query)
