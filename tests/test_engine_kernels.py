"""Differential tests: vectorized geometry kernels vs. scalar predicates.

Every batch kernel in :mod:`repro.geometry.kernels` must agree *exactly*
(not approximately) with the scalar predicate it replaces — the execution
engine relies on that for element-wise identical batch answers.  Inputs are
random via hypothesis, including degenerate boxes and coincident points.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.knn import query_distance_sq
from repro.geometry import kernels
from repro.geometry.bbox import BoundingBox
from repro.geometry.halfspace import (
    bisector_halfplane,
    filtering_space_contains_bbox,
)
from repro.geometry.point import squared_euclidean
from repro.geometry.voronoi import voronoi_prunes_bbox

coord = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
point = st.tuples(coord, coord)
points = st.lists(point, min_size=1, max_size=6)


@st.composite
def box(draw):
    x1, y1 = draw(point)
    x2, y2 = draw(point)
    return (min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


boxes = st.lists(box(), min_size=1, max_size=5)


def as_bbox(box_tuple) -> BoundingBox:
    return BoundingBox(*box_tuple)


@settings(max_examples=60, deadline=None)
@given(bxs=boxes, query=points)
def test_boxes_min_dist_matches_bbox(bxs, query):
    batch = kernels.boxes_min_dist_sq_to_query(kernels.pack_boxes(bxs), kernels.pack_points(query))
    for box_tuple, got in zip(bxs, batch):
        assert float(got) == as_bbox(box_tuple).min_dist_sq_to_query(query)


@settings(max_examples=60, deadline=None)
@given(pts=points, query=points)
def test_points_min_dist_matches_query_distance(pts, query):
    batch = kernels.points_min_dist_sq_to_query(
        kernels.pack_points(pts), kernels.pack_points(query)
    )
    for pt, got in zip(pts, batch):
        assert float(got) == query_distance_sq(pt, query)


@settings(max_examples=60, deadline=None)
@given(bxs=boxes, filters=points, query=points)
def test_block_tensor_matches_contains_bbox(bxs, filters, query):
    """Entry ``[b, i, j]`` is the scalar half-plane test, and each ``[b, i]``
    row reduced over the query is Definition 6's filtering-space test."""
    tensor = kernels.boxes_halfplane_tensor(
        kernels.pack_boxes(bxs), kernels.pack_points(filters), kernels.pack_points(query)
    )
    for b, box_tuple in enumerate(bxs):
        bbox = as_bbox(box_tuple)
        for i, filter_point in enumerate(filters):
            for j, query_point in enumerate(query):
                expected = bisector_halfplane(query_point, filter_point).contains_bbox(bbox)
                assert bool(tensor[b, i, j]) == expected
            assert bool(tensor[b, i].all()) == filtering_space_contains_bbox(
                bbox, filter_point, query
            )


@settings(max_examples=60, deadline=None)
@given(
    bxs=boxes,
    others=st.lists(point, max_size=3),
    route=st.lists(point, min_size=2, max_size=5),
    query=points,
)
def test_route_domination_matches_voronoi_predicate(bxs, others, route, query):
    """The block Voronoi test picks one route's rows out of a filter set
    that holds other routes' points too."""
    tensor = kernels.boxes_halfplane_tensor(
        kernels.pack_boxes(bxs), kernels.pack_points(others + route), kernels.pack_points(query)
    )
    rows = list(range(len(others), len(others) + len(route)))
    verdicts = kernels.routes_dominate_boxes(tensor, rows)
    for box_tuple, got in zip(bxs, verdicts):
        assert bool(got) == voronoi_prunes_bbox(as_bbox(box_tuple), route, query)


@settings(max_examples=40, deadline=None)
@given(
    pts=points,
    routes=st.lists(st.lists(point, min_size=1, max_size=4), min_size=1, max_size=5),
    query=points,
    k_excluded=st.integers(min_value=0, max_value=2),
)
def test_count_closer_routes_matches_bruteforce(pts, routes, query, k_excluded):
    flat = [p for route in routes for p in route]
    offsets = []
    position = 0
    for route in routes:
        offsets.append(position)
        position += len(route)
    excluded_columns = list(range(min(k_excluded, len(routes))))

    thresholds = [query_distance_sq(p, query) for p in pts]
    with pytest.MonkeyPatch.context() as patch:
        # A tiny budget exercises the chunked path (1–2 rows per chunk).
        patch.setattr(kernels, "ROUTE_CHUNK_ELEMENTS", 2)
        counts = kernels.count_closer_routes(
            kernels.pack_points(pts),
            thresholds,
            kernels.pack_points(flat),
            offsets,
            excluded_columns=excluded_columns,
        )
    for p, threshold, got in zip(pts, thresholds, counts):
        expected = 0
        for column, route in enumerate(routes):
            if column in excluded_columns:
                continue
            route_d = query_distance_sq(p, route)
            if route_d < threshold:
                expected += 1
        assert int(got) == expected


# Coordinates that stress the float contract of the point-to-route kernel:
# duplicates (ties), subnormals, an offset whose square underflows to zero
# (so two distinct points tie) and magnitudes whose squares are near the top
# of the float64 range.
extreme_coord = st.one_of(
    coord,
    st.sampled_from(
        [0.0, 1.0, -1.0, 5e-324, -5e-324, 1.5112441903382607e-232, 1e150, -1e150]
    ),
)
extreme_point = st.tuples(extreme_coord, extreme_coord)
kernel_route = st.lists(extreme_point, min_size=1, max_size=6)
# A route-matrix block is a list of routes; every route lives in one block.
kernel_blocks = st.lists(
    st.lists(kernel_route, min_size=1, max_size=4), min_size=1, max_size=3
)


def flatten_block(routes):
    """``(route_points, route_offsets)`` of one block of routes."""
    flat, offsets = [], []
    for route in routes:
        offsets.append(len(flat))
        flat.extend(route)
    return kernels.pack_points(flat), offsets


def route_distance_sq(p, route):
    """Scalar reference: squared point-to-route distance (Definition 3)."""
    return min(squared_euclidean(p, r) for r in route)


@settings(max_examples=80, deadline=None)
@given(
    pts=st.lists(extreme_point, min_size=0, max_size=9),
    blocks=kernel_blocks,
    query=st.lists(extreme_point, min_size=1, max_size=3),
    k=st.integers(min_value=1, max_value=8),
    budget=st.sampled_from([1, 2, 3, 5, 8, 64, kernels.ROUTE_CHUNK_ELEMENTS]),
)
# 7 points in 3-row chunks: a point count that is not a multiple of the chunk.
@example(
    pts=[(float(i), 0.0) for i in range(7)],
    blocks=[[[(0.0, 0.0)], [(1.0, 1.0)]]],
    query=[(0.5, 0.5)],
    k=1,
    budget=6,
)
# One route wider than the budget: 1-row chunks.
@example(
    pts=[(0.0, 0.0), (3.0, 3.0), (3.0, 3.0)],
    blocks=[[[(float(i), 1.0) for i in range(5)]]],
    query=[(2.0, 2.0)],
    k=1,
    budget=2,
)
# No points.
@example(pts=[], blocks=[[[(0.0, 0.0)]]], query=[(0.0, 0.0)], k=1, budget=4)
# Fewer than k routes.
@example(
    pts=[(1.0, 1.0)],
    blocks=[[[(0.0, 0.0)], [(2.0, 2.0)]]],
    query=[(1.0, 1.0)],
    k=3,
    budget=4,
)
# Multi-block matrix with blocks of different widths and an exact tie.
@example(
    pts=[(0.0, 0.0), (1e150, -1e150), (5e-324, 0.0)],
    blocks=[
        [[(1.0, 0.0), (2.0, 0.0)], [(0.0, 1.0)]],
        [[(-1.0, 0.0)]],
        [[(1e150, 1e150), (0.0, 0.0), (0.0, 0.0)]],
    ],
    query=[(0.0, 0.0)],
    k=2,
    budget=3,
)
def test_route_kernels_match_scalar_reference(pts, blocks, query, k, budget):
    """Both point-to-route kernels equal the scalar reference under ``==``,
    whatever the chunk budget and block layout."""
    packed = [flatten_block(routes) for routes in blocks]
    points = kernels.pack_points(pts)
    thresholds = [query_distance_sq(p, query) for p in pts]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "ROUTE_CHUNK_ELEMENTS", budget)
        counts = [0] * len(pts)
        for (route_points, offsets), routes in zip(packed, blocks):
            excluded = [0] if len(routes) > 1 else None
            block_counts = kernels.count_closer_routes(
                points, thresholds, route_points, offsets, excluded_columns=excluded
            )
            counts = [a + int(b) for a, b in zip(counts, block_counts)]
        radii = kernels.kth_route_distance_sq(points, packed, k)

    expected_counts, expected_radii = [], []
    for p, threshold in zip(pts, thresholds):
        closer, distances = 0, []
        for routes in blocks:
            for column, route in enumerate(routes):
                d = route_distance_sq(p, route)
                distances.append(d)
                if d < threshold and not (column == 0 and len(routes) > 1):
                    closer += 1
        expected_counts.append(closer)
        distances.sort()
        expected_radii.append(distances[k - 1] if len(distances) >= k else math.inf)
    assert counts == expected_counts
    assert [float(r) for r in radii] == expected_radii


@pytest.mark.parametrize(
    "point_count, widths, budget, expected",
    [
        (7, [2], 6, [(0, 3), (3, 6), (6, 7)]),  # rows = budget // width
        (3, [5], 2, [(0, 1), (1, 2), (2, 3)]),  # wider than the budget
        (3, [2, 4], 8, [(0, 2), (2, 3)]),  # rows from the widest block
        (4, [1], 1 << 16, [(0, 4)]),  # never more rows than points
    ],
)
def test_route_chunks_stay_within_budget(point_count, widths, budget, expected):
    points = kernels.pack_points([(float(i), 0.0) for i in range(point_count)])
    blocks = [flatten_block([[(0.0, 0.0)] * width]) for width in widths]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "ROUTE_CHUNK_ELEMENTS", budget)
        chunks = list(kernels._route_distance_chunks(points, blocks))
    assert [(start, stop) for start, stop, _ in chunks] == expected
    for start, stop, distances in chunks:
        assert distances.shape == (stop - start, len(widths))


def test_resolve_backend():
    assert kernels.resolve_backend("python") == "python"
    assert kernels.resolve_backend("auto") == "numpy"
    assert kernels.resolve_backend("numpy") == "numpy"
    with pytest.raises(ValueError):
        kernels.resolve_backend("fortran")


def test_numpy_available_and_backend_names_stay_importable():
    """Benchmark scripts import these names to stamp and select backends."""
    assert kernels.numpy_available() is True
    assert kernels.BACKEND_PYTHON == "python"
    assert kernels.resolve_backend(kernels.BACKEND_PYTHON) == kernels.BACKEND_PYTHON


@settings(max_examples=60, deadline=None)
@given(
    pts=st.lists(st.tuples(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]), coord), max_size=12),
    probes=st.lists(point, max_size=4),
)
def test_lex_search_point_matches_sorted_lookup(pts, probes):
    """Present points are found at their sorted row, absent ones give -1."""
    rows = sorted(dict.fromkeys(pts))
    packed = kernels.pack_points(rows)
    row_of = {p: i for i, p in enumerate(rows)}
    for x, y in rows + probes:
        assert kernels.lex_search_point(packed, x, y) == row_of.get((x, y), -1)


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=40),
    capacity=st.integers(min_value=1, max_value=6),
)
def test_str_order_matches_two_pass_sort(keys, capacity):
    """Stable sort by x, cut into slabs of whole groups, each stably sorted
    by y; a single group keeps the input order."""
    n = len(keys)
    xs = [float(x) for x, _ in keys]
    ys = [float(y) for _, y in keys]
    if n <= capacity:
        expected = list(range(n))
    else:
        slab_size = math.ceil(math.sqrt(math.ceil(n / capacity))) * capacity
        by_x = sorted(range(n), key=lambda i: xs[i])
        expected = []
        for start in range(0, n, slab_size):
            expected += sorted(by_x[start : start + slab_size], key=lambda i: ys[i])
    assert [int(i) for i in kernels.str_order(xs, ys, capacity)] == expected


@settings(max_examples=60, deadline=None)
@given(bxs=boxes, data=st.data())
def test_group_boxes_bounds_each_run(bxs, data):
    cuts = set()
    if len(bxs) > 1:
        cuts = data.draw(st.sets(st.integers(min_value=1, max_value=len(bxs) - 1)))
    starts = [0] + sorted(cuts)
    grouped = kernels.group_boxes(kernels.pack_boxes(bxs), starts)
    assert len(grouped) == len(starts)
    for run, start, stop in zip(grouped, starts, starts[1:] + [len(bxs)]):
        members = bxs[start:stop]
        expected = (
            min(b[0] for b in members),
            min(b[1] for b in members),
            max(b[2] for b in members),
            max(b[3] for b in members),
        )
        assert tuple(float(v) for v in run) == expected


def test_point_boxes_are_degenerate_boxes():
    pts = [(1.5, -2.0), (0.0, 3.25), (-0.0, 5e-324)]
    boxes_of_points = kernels.point_boxes(kernels.pack_points(pts))
    expected = kernels.pack_boxes([(x, y, x, y) for x, y in pts])
    assert boxes_of_points.tobytes() == expected.tobytes()
    assert kernels.point_boxes(kernels.pack_points([])).shape == (0, 4)


def test_gather_row_reads_the_offset_table():
    flat = kernels.pack_i32([7, 8, 9, 4, 5])
    offsets = kernels.pack_i32([0, 3, 3, 5])
    rows = [kernels.id_list(kernels.gather_row(flat, offsets, i)) for i in range(3)]
    assert rows == [[7, 8, 9], [], [4, 5]]


def test_views_alias_the_buffer_read_only():
    """The store attach primitives read the buffer in place and refuse writes."""
    import numpy

    floats = numpy.arange(6, dtype=numpy.float64)
    ints = numpy.arange(4, dtype=numpy.int32)
    buffer = bytearray(8 + floats.nbytes + ints.nbytes)
    buffer[8 : 8 + floats.nbytes] = floats.tobytes()
    buffer[8 + floats.nbytes :] = ints.tobytes()
    f64 = kernels.view_f64(buffer, 8, 3, 2)
    i32 = kernels.view_i32(buffer, 8 + floats.nbytes, 4)
    assert kernels.id_list(f64) == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
    assert kernels.id_list(i32) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        f64[0, 0] = 9.0
    with pytest.raises(ValueError):
        i32[0] = 9
    buffer[8 + floats.nbytes : 8 + floats.nbytes + 4] = numpy.int32(42).tobytes()
    assert int(i32[0]) == 42


def test_pack_points_tuple_fast_path_matches_asarray():
    import numpy

    from repro.geometry.point import Point

    rows = [(1.5, -0.0), Point(2.0, 5e-324), (3, 4)]
    packed = kernels.pack_points(rows)
    expected = numpy.asarray([tuple(map(float, row)) for row in rows])
    assert packed.shape == (3, 2)
    assert packed.tobytes() == expected.tobytes()
    assert kernels.pack_points([]).shape == (0, 2)
    assert kernels.pack_points([1.0, 2.0]).shape == (1, 2)
    # A row that is not a pair is never flattened into its neighbour.
    with pytest.raises(ValueError):
        kernels.pack_points([(1.0, 2.0, 3.0), (4.0,)])
