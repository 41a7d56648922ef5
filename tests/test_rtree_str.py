"""The vectorised STR bulk load against a node-at-a-time reference.

``RTree.bulk_load`` builds every tree level with array operations
(``kernels.str_levels``): an STR ordering, one reduction per level for the
node boxes, and each node's packed child boxes as a row slice of its
level.  The reference below is the packing it replaced, kept here as the
oracle: two key-sorted passes per level (``_reference_partition``) and one
``BoundingBox.from_points`` / ``union_all`` per node.

Both must give the same tree: the same ``encode_tree`` columns (bitwise),
node boxes that compare equal (``==``: ``minimum.reduceat`` may pick the
other sign of a zero bound), and equal packed child boxes — for
degenerate inputs (duplicates, ties, signed zeros, subnormals, huge
magnitudes) and at the fill boundaries ``n`` in ``{0, 1, M, M + 1}``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import columnar
from repro.geometry import kernels
from repro.geometry.bbox import BoundingBox
from repro.index.rtree import RTree, RTreeEntry, RTreeNode

#: Values that make ties, duplicates and sign/subnormal edge cases likely.
SPECIAL = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e-310,
    2.2250738585072014e-308,
    1.0,
    -1.0,
    2.5,
    1e300,
    -1e300,
]
coordinate = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-4, max_value=4).map(float),
)
point = st.tuples(coordinate, coordinate)


# ----------------------------------------------------------------------
# The reference: STR packing one node at a time
# ----------------------------------------------------------------------
def _reference_partition(items, capacity, key):
    n = len(items)
    if n <= capacity:
        return [list(items)]
    leaf_count = math.ceil(n / capacity)
    slice_count = math.ceil(math.sqrt(leaf_count))
    slice_size = slice_count * capacity
    by_x = sorted(items, key=lambda item: key(item)[0])
    groups = []
    for slice_start in range(0, n, slice_size):
        vertical_slice = by_x[slice_start : slice_start + slice_size]
        vertical_slice.sort(key=lambda item: key(item)[1])
        for group_start in range(0, len(vertical_slice), capacity):
            groups.append(vertical_slice[group_start : group_start + capacity])
    return groups


def reference_bulk_load(entries, max_entries, track_payload_union):
    tree = RTree(max_entries=max_entries, track_payload_union=track_payload_union)
    entry_list = list(entries)
    tree._size = len(entry_list)
    if not entry_list:
        return tree
    level = []
    for group in _reference_partition(entry_list, max_entries, lambda e: e.point):
        node = RTreeNode(is_leaf=True)
        node.children = list(group)
        node.bbox = BoundingBox.from_points(e.point for e in group)
        if track_payload_union:
            node.recompute_payload_union()
        level.append(node)
    while len(level) > 1:
        parents = []
        for group in _reference_partition(
            level, max_entries, lambda n: n.bbox.center
        ):
            parent = RTreeNode(is_leaf=False)
            parent.children = list(group)
            parent.bbox = BoundingBox.union_all(child.bbox for child in group)
            if track_payload_union:
                parent.recompute_payload_union()
            parents.append(parent)
        level = parents
    tree.root = level[0]
    return tree


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _column_bits(column):
    """A packed column as text that keeps every float's exact bits."""
    return repr(kernels.id_list(column))


def assert_same_tree(tree, reference):
    ours = columnar.encode_tree(tree, columnar.PAYLOAD_ROUTE)
    theirs = columnar.encode_tree(reference, columnar.PAYLOAD_ROUTE)
    for name in (
        "child_counts",
        "leaf_flags",
        "entry_points",
        "payload_offsets",
        "payload_values",
    ):
        assert _column_bits(getattr(ours, name)) == _column_bits(
            getattr(theirs, name)
        ), name
    assert len(tree) == len(reference)
    assert tree.leaf_count == sum(node.is_leaf for node in columnar.walk_nodes(reference))
    for node, expected in zip(
        columnar.walk_nodes(tree), columnar.walk_nodes(reference)
    ):
        assert node.bbox == expected.bbox
        if not expected.children:
            continue
        packed = kernels.id_list(node.packed_child_boxes())
        assert packed == kernels.id_list(expected.packed_child_boxes())
        if tree.track_payload_union:
            assert node.payload_union == expected.payload_union


def _entries(points):
    return [RTreeEntry(p, frozenset({i})) for i, p in enumerate(points)]


@st.composite
def layouts(draw):
    """``(max_entries, points)`` with ``n`` often at a fill boundary."""
    max_entries = draw(st.sampled_from([4, 5, 8, 16]))
    size = draw(
        st.one_of(
            st.sampled_from([0, 1, max_entries, max_entries + 1]),
            st.integers(min_value=0, max_value=300),
        )
    )
    points = draw(st.lists(point, min_size=size, max_size=size))
    # Repeat some points so that duplicates are common, not rare.
    if points and draw(st.booleans()):
        points += draw(st.lists(st.sampled_from(points), max_size=size))
    return max_entries, points


@given(layout=layouts(), track_payload_union=st.booleans())
@settings(max_examples=60, deadline=None)
def test_bulk_load_matches_reference(layout, track_payload_union):
    max_entries, points = layout
    tree = RTree.bulk_load(
        _entries(points),
        max_entries=max_entries,
        track_payload_union=track_payload_union,
    )
    reference = reference_bulk_load(_entries(points), max_entries, track_payload_union)
    assert_same_tree(tree, reference)


@given(layout=layouts())
@settings(max_examples=40, deadline=None)
def test_bulk_load_points_matches_reference(layout):
    max_entries, points = layout
    payloads = [frozenset({i}) for i in range(len(points))]
    tree = RTree.bulk_load_points(
        points, payloads, max_entries=max_entries, track_payload_union=True
    )
    reference = reference_bulk_load(_entries(points), max_entries, True)
    assert_same_tree(tree, reference)
    for entry in tree.entries():
        assert type(entry.point) is tuple
        assert all(type(value) is float for value in entry.point)


#: ``(M, n)`` pairs at the fill boundaries ``n`` in ``{M, M + 1, M², M² + 1}``
#: for the smallest fanout the tree accepts and for a wider one; plus the
#: empty tree, a single entry, a deep tree, and for ``M = 4`` a full
#: three-level tree (``M³``) and one entry more.
FILL_BOUNDARIES = [(8, n) for n in (0, 1, 8, 9, 64, 65, 600)] + [
    (4, n) for n in (4, 5, 16, 17, 64, 65)
]


@pytest.mark.parametrize("max_entries, size", FILL_BOUNDARIES)
def test_fill_boundaries(max_entries, size):
    points = [((i * 7919) % 97 * 0.5, (i * 104729) % 89 * 0.25) for i in range(size)]
    tree = RTree.bulk_load(_entries(points), max_entries=max_entries)
    if size:
        assert_packed_boxes_installed(tree)
    assert_same_tree(tree, reference_bulk_load(_entries(points), max_entries, False))


@pytest.mark.parametrize("max_entries", [4, 6, 16])
def test_decode_installs_the_same_boxes(max_entries):
    points = [((i * 37) % 23 - 11.0, -0.0 if i % 7 == 0 else float(i % 5)) for i in range(200)]
    tree = RTree.bulk_load(_entries(points), max_entries=max_entries)
    decoded = columnar.decode_tree(columnar.encode_tree(tree, columnar.PAYLOAD_ROUTE))
    assert_packed_boxes_installed(decoded)
    assert_same_tree(decoded, reference_bulk_load(_entries(points), max_entries, False))


def assert_packed_boxes_installed(tree):
    """Bulk load and decode install every node's packed child boxes, and
    they read the same as packing the node's child boxes afresh."""
    for node in columnar.walk_nodes(tree):
        assert node.packed_boxes is not None
        expected = kernels.pack_boxes(node.child_box_tuples())
        assert kernels.id_list(node.packed_child_boxes()) == kernels.id_list(expected)
