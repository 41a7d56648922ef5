"""Unit tests for repro.geometry.bbox."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import euclidean

coord = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


def boxes():
    return st.builds(
        lambda x1, y1, x2, y2: BoundingBox(
            min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)
        ),
        coord,
        coord,
        coord,
        coord,
    )


class TestConstruction:
    def test_invalid_box_raises(self):
        with pytest.raises(ValueError):
            BoundingBox(1, 0, 0, 1)

    def test_from_point_is_degenerate(self):
        box = BoundingBox.from_point((2, 3))
        assert box.is_point()
        assert box.area == 0.0

    def test_from_points(self):
        box = BoundingBox.from_points([(0, 5), (2, 1), (-1, 3)])
        assert box.as_tuple() == (-1, 1, 2, 5)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            BoundingBox.from_points([])

    def test_union_all(self):
        box = BoundingBox.union_all(
            [BoundingBox(0, 0, 1, 1), BoundingBox(2, -1, 3, 0.5)]
        )
        assert box.as_tuple() == (0, -1, 3, 1)

    def test_union_all_empty_raises(self):
        with pytest.raises(ValueError):
            BoundingBox.union_all([])


class TestDerivedQuantities:
    def test_dimensions(self):
        box = BoundingBox(0, 0, 4, 2)
        assert box.width == 4
        assert box.height == 2
        assert box.area == 8
        assert box.perimeter == 12
        assert box.center == (2, 1)

    def test_corners(self):
        corners = set(BoundingBox(0, 0, 1, 2).corners())
        assert corners == {(0, 0), (0, 2), (1, 0), (1, 2)}

    def test_equality_and_hash(self):
        assert BoundingBox(0, 0, 1, 1) == BoundingBox(0, 0, 1, 1)
        assert hash(BoundingBox(0, 0, 1, 1)) == hash(BoundingBox(0, 0, 1, 1))
        assert BoundingBox(0, 0, 1, 1) != BoundingBox(0, 0, 1, 2)


class TestPredicates:
    def test_contains_point_boundary(self):
        box = BoundingBox(0, 0, 1, 1)
        assert box.contains_point((1, 1))
        assert box.contains_point((0.5, 0.5))
        assert not box.contains_point((1.0001, 0.5))

    def test_contains_box(self):
        outer = BoundingBox(0, 0, 10, 10)
        assert outer.contains_box(BoundingBox(1, 1, 2, 2))
        assert not outer.contains_box(BoundingBox(9, 9, 11, 11))

    def test_enlargement(self):
        box = BoundingBox(0, 0, 1, 1)
        assert box.enlargement(BoundingBox(0, 0, 1, 1)) == 0.0
        assert box.enlargement(BoundingBox(1, 0, 2, 1)) == pytest.approx(1.0)


class TestDistances:
    def test_min_dist_inside_is_zero(self):
        assert BoundingBox(0, 0, 2, 2).min_dist((1, 1)) == 0.0

    def test_min_dist_outside_corner(self):
        assert BoundingBox(0, 0, 1, 1).min_dist((4, 5)) == pytest.approx(5.0)

    def test_min_dist_outside_edge(self):
        assert BoundingBox(0, 0, 1, 1).min_dist((0.5, 3)) == pytest.approx(2.0)

    def test_max_dist_corner(self):
        assert BoundingBox(0, 0, 3, 4).max_dist((0, 0)) == pytest.approx(5.0)

    def test_min_dist_to_query_multiple_points(self):
        box = BoundingBox(0, 0, 1, 1)
        assert box.min_dist_to_query([(5, 0.5), (0.5, 2)]) == pytest.approx(1.0)


class TestDistanceProperties:
    @given(box=boxes(), px=coord, py=coord)
    def test_min_dist_le_max_dist(self, box, px, py):
        assert box.min_dist((px, py)) <= box.max_dist((px, py)) + 1e-9

    @given(box=boxes(), px=coord, py=coord)
    def test_min_dist_is_lower_bound_to_corners(self, box, px, py):
        min_dist = box.min_dist((px, py))
        for corner in box.corners():
            assert min_dist <= euclidean((px, py), corner) + 1e-9

    @given(box=boxes(), px=coord, py=coord)
    def test_max_dist_is_upper_bound_to_corners(self, box, px, py):
        max_dist = box.max_dist((px, py))
        for corner in box.corners():
            assert max_dist >= euclidean((px, py), corner) - 1e-9

    @given(first=boxes(), second=boxes())
    def test_union_contains_both(self, first, second):
        union = first.union(second)
        assert union.contains_box(first)
        assert union.contains_box(second)
