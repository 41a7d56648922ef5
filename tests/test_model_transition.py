"""Tests for the Transition model."""

import pytest

from repro.geometry.bbox import BoundingBox
from repro.model.transition import Transition


class TestConstruction:
    def test_points(self):
        t = Transition(0, (0, 0), (3, 4))
        assert t.origin == (0.0, 0.0)
        assert t.destination == (3.0, 4.0)
        assert t.points == (t.origin, t.destination)

    def test_timestamp_optional(self):
        assert Transition(0, (0, 0), (1, 1)).timestamp is None
        assert Transition(0, (0, 0), (1, 1), timestamp=12.5).timestamp == 12.5


class TestGeometry:
    def test_length(self):
        assert Transition(0, (0, 0), (3, 4)).length == pytest.approx(5.0)

    def test_bbox(self):
        t = Transition(0, (2, 5), (-1, 3))
        assert t.bbox == BoundingBox(-1, 3, 2, 5)

    def test_zero_length_transition(self):
        t = Transition(0, (1, 1), (1, 1))
        assert t.length == 0.0
        assert t.bbox.is_point()


class TestProtocols:
    def test_len_iter_getitem(self):
        t = Transition(0, (0, 0), (1, 1))
        assert len(t) == 2
        assert list(t) == [(0.0, 0.0), (1.0, 1.0)]
        assert t[0] == (0.0, 0.0)
        assert t[1] == (1.0, 1.0)

    def test_equality_and_hash(self):
        a = Transition(0, (0, 0), (1, 1))
        b = Transition(0, (0, 0), (1, 1))
        c = Transition(0, (0, 0), (2, 2))
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != 42

    def test_repr(self):
        text = repr(Transition(9, (1, 2), (3, 4)))
        assert "9" in text and "(1.0, 2.0)" in text
