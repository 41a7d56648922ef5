"""Property-based tests of the R-tree against brute-force reference answers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import euclidean
from repro.index.rtree import RTree, RTreeEntry

coord = st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord)
point_sets = st.lists(point, min_size=0, max_size=80)


def build_tree(points, bulk, max_entries=6):
    """An STR tree with payload unions, or a tree grown by insertion (which
    a union-tracking tree refuses)."""
    entries = [RTreeEntry(p, frozenset({i})) for i, p in enumerate(points)]
    if bulk:
        return RTree.bulk_load(entries, max_entries=max_entries, track_payload_union=True)
    tree = RTree(max_entries=max_entries)
    for entry in entries:
        tree.insert(entry)
    return tree


@given(points=point_sets, bulk=st.booleans())
@settings(max_examples=60, deadline=None)
def test_size_and_contents_preserved(points, bulk):
    tree = build_tree(points, bulk)
    assert len(tree) == len(points)
    assert sorted(e.point for e in tree.entries()) == sorted(
        (float(x), float(y)) for x, y in points
    )


@given(points=point_sets, bulk=st.booleans(), query=point)
@settings(max_examples=60, deadline=None)
def test_nearest_neighbor_matches_bruteforce(points, bulk, query):
    tree = build_tree(points, bulk)
    found = next(tree.iter_nearest(query), None)
    if not points:
        assert found is None
        return
    best = min(euclidean(p, query) for p in points)
    assert abs(found[0] - best) < 1e-9


@given(points=point_sets, bulk=st.booleans())
@settings(max_examples=40, deadline=None)
def test_iter_nearest_order_is_non_decreasing(points, bulk):
    tree = build_tree(points, bulk)
    distances = [d for d, _ in tree.iter_nearest((0.0, 0.0))]
    assert distances == sorted(distances)


@given(points=st.lists(point, min_size=1, max_size=60), removals=st.data())
@settings(max_examples=40, deadline=None)
def test_insert_then_remove_random_subset(points, removals):
    tree = build_tree(points, bulk=False)
    unique_points = list({(float(x), float(y)) for x, y in points})
    to_remove = removals.draw(
        st.lists(st.sampled_from(unique_points), max_size=len(unique_points), unique=True)
    )
    removed_count = 0
    for p in to_remove:
        if tree.remove(p) is not None:
            removed_count += 1
    assert len(tree) == len(points) - removed_count
    # Remaining nearest-neighbour queries still agree with brute force.
    remaining = [e.point for e in tree.entries()]
    if remaining:
        query = (12.5, -7.5)
        best = min(euclidean(p, query) for p in remaining)
        assert abs(next(tree.iter_nearest(query))[0] - best) < 1e-9


@given(points=point_sets)
@settings(max_examples=40, deadline=None)
def test_payload_union_of_root_is_every_payload(points):
    tree = build_tree(points, bulk=True)
    if points:
        assert tree.root.payload_union == frozenset(range(len(points)))


# ----------------------------------------------------------------------
# Structural invariants under churn
# ----------------------------------------------------------------------
def assert_tree_invariants(tree, live):
    """``tree`` holds exactly the ``live`` entries and is a valid R-tree.

    Every entry is reachable and ``len`` is exact; every box is the tight
    box of its children; all leaves sit at one depth and ``leaf_count``
    counts them; no node below the root is empty and an internal root has
    at least two children; an internal node holds at most ``max_entries``
    children and a leaf fewer than ``2 * max_entries`` entries (an insert
    that fills a leaf to that rebuilds the tree); every node's packed child
    boxes equal a fresh
    pack of its children's boxes, so a slice installed at build or decode
    never outlives a mutation below it.
    """
    from repro.engine.columnar import walk_nodes
    from repro.geometry import kernels

    assert len(tree) == len(live)
    reached = sorted((e.point, sorted(e.payload)) for e in tree.entries())
    assert reached == sorted((e.point, sorted(e.payload)) for e in live)
    leaf_depths = set()
    stack = [(tree.root, 1)]
    while stack:
        node, depth = stack.pop()
        if node.is_leaf:
            leaf_depths.add(depth)
        else:
            for child in node.children:
                stack.append((child, depth + 1))
    assert len(leaf_depths) == 1
    assert tree.leaf_count == sum(node.is_leaf for node in walk_nodes(tree))
    assert tree.root.is_leaf or len(tree.root.children) >= 2
    assert tree.height() == leaf_depths.pop()
    for node in walk_nodes(tree):
        if not node.children:
            assert node is tree.root and node.is_leaf and node.bbox is None
            continue
        if node.is_leaf:
            tight = BoundingBox.from_points(e.point for e in node.children)
        else:
            tight = BoundingBox.union_all(c.bbox for c in node.children)
        assert node.bbox == tight
        if node.is_leaf:
            assert len(node.children) < 2 * tree.max_entries
        else:
            assert len(node.children) <= tree.max_entries
        fresh = kernels.pack_boxes(node.child_box_tuples())
        assert kernels.id_list(node.packed_child_boxes()) == kernels.id_list(fresh)


#: Insert-heavy churn: two plain inserts per remove, plus ``burst`` ops
#: that insert ``2 * max_entries`` entries at one point.  Repeated inserts
#: at one point all join the same leaf, so a burst always fills a leaf to
#: the insert rebuild, and it may take at most one rebuild per
#: ``max_entries`` inserts.
churn_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), point),
        st.tuples(st.just("insert"), point),
        st.tuples(st.just("burst"), point),
        st.tuples(st.just("remove"), st.integers(min_value=0)),
    ),
    max_size=60,
)


def apply_churn(tree, live, ops, next_id):
    rebuilds = []
    rebuild = tree._rebuild
    tree._rebuild = lambda: (rebuilds.append(len(tree)), rebuild())
    for op, arg in ops:
        if op == "remove":
            if live:
                target = live.pop(arg % len(live))
                assert tree.remove(target.point, match=lambda e: e is target) is target
            continue
        before = len(rebuilds)
        for _ in range(2 * tree.max_entries if op == "burst" else 1):
            entry = RTreeEntry(arg, frozenset({next_id}))
            next_id += 1
            tree.insert(entry)
            live.append(entry)
        if op == "burst":
            assert 1 <= len(rebuilds) - before <= 2
    del tree._rebuild
    return next_id


@given(
    points=point_sets,
    ops=churn_ops,
    more_ops=churn_ops,
    max_entries=st.sampled_from([4, 5, 8]),
)
@settings(max_examples=60, deadline=None)
def test_churn_keeps_invariants_and_drops_stale_packed_boxes(
    points, ops, more_ops, max_entries
):
    from repro.engine.columnar import PAYLOAD_ROUTE, decode_tree, encode_tree

    live = [RTreeEntry(p, frozenset({i})) for i, p in enumerate(points)]
    tree = RTree.bulk_load(list(live), max_entries=max_entries)
    assert_tree_invariants(tree, live)
    next_id = apply_churn(tree, live, ops, len(points))
    assert_tree_invariants(tree, live)

    decoded = decode_tree(encode_tree(tree, PAYLOAD_ROUTE))
    decoded_live = list(decoded.entries())
    assert_tree_invariants(decoded, live)
    apply_churn(decoded, decoded_live, more_ops, next_id)
    assert_tree_invariants(decoded, decoded_live)
