"""Vectorized geometry kernels.

The filter-refine framework spends almost all of its time in four geometric
primitives, evaluated once per R-tree node / transition endpoint / candidate:

* ``MinDist``-to-query lower bounds (best-first traversal ordering),
* half-plane containment of a box (Definition 6, the filtering space),
* the per-route Voronoi domination test (Definition 8), and
* point–polyline (point-to-route) distances (verification thresholds).

This module provides *batch* versions of those primitives as numpy
expressions: one call evaluates a whole block of boxes or points against a
whole block of filter/query points, so the per-tuple Python interpreter
overhead is paid once per block instead of once per tuple.  The scalar
predicates in :mod:`repro.geometry.halfspace`, :mod:`repro.geometry.bbox`
and :mod:`repro.geometry.voronoi` stay as the readable reference; the
differential tests in ``tests/test_engine_kernels.py`` assert that every
kernel agrees with them exactly.

Determinism.  Every kernel evaluates the *same* elementary-float expression
as its scalar counterpart (no transcendental functions, squared distances
instead of ``hypot``), so the kernels and the scalar predicates agree
bitwise and the batched execution engine returns element-wise identical
answers to the scalar one.

Backend selection
-----------------
numpy is a hard dependency.  The executor still offers two paths, chosen by
:func:`resolve_backend` from the user-facing ``"auto" | "numpy" | "python"``
name: ``"numpy"`` (and ``"auto"``) runs these batch kernels, ``"python"``
the scalar predicates one tuple at a time.
"""

from __future__ import annotations

import math
from array import array as _stdlib_array
from itertools import chain
from typing import Iterable, List, Sequence, Tuple

import numpy as _np

BACKEND_AUTO = "auto"
BACKEND_NUMPY = "numpy"
BACKEND_PYTHON = "python"
BACKENDS = (BACKEND_AUTO, BACKEND_NUMPY, BACKEND_PYTHON)

Coords = Sequence[Sequence[float]]
BoxTuples = Sequence[Tuple[float, float, float, float]]


def numpy_available() -> bool:
    """Always True: numpy is a required dependency.

    Kept because benchmark scripts outside the package import it to stamp
    their reports; nothing in the package branches on it.
    """
    return True


def resolve_backend(backend: str = BACKEND_AUTO) -> str:
    """Resolve ``"auto"`` to ``"numpy"``, validating the name.

    Raises
    ------
    ValueError
        If ``backend`` is unknown.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return BACKEND_NUMPY if backend == BACKEND_AUTO else backend


# ----------------------------------------------------------------------
# Packing helpers
# ----------------------------------------------------------------------
def pack_points(points: Coords):
    """Pack ``(x, y)`` pairs into an ``(N, 2)`` float64 array."""
    if isinstance(points, list) and all(
        isinstance(p, tuple) and len(p) == 2 for p in points
    ):
        # Several times faster than ``asarray`` over (named) tuples.
        flat = chain.from_iterable(points)
        count = 2 * len(points)
        return _np.fromiter(flat, dtype=_np.float64, count=count).reshape(-1, 2)
    arr = _np.asarray(points, dtype=_np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(0, 2) if arr.size == 0 else arr.reshape(1, 2)
    return arr


def pack_boxes(boxes: BoxTuples):
    """Pack ``(min_x, min_y, max_x, max_y)`` tuples into an ``(N, 4)`` array."""
    arr = _np.asarray(boxes, dtype=_np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(0, 4) if arr.size == 0 else arr.reshape(1, 4)
    return arr


def point_boxes(points):
    """Degenerate ``(x, y, x, y)`` boxes of packed points, as :func:`pack_boxes`."""
    pts = _np.asarray(points, dtype=_np.float64).reshape(-1, 2)
    return _np.hstack((pts, pts))


def view_f64(buffer, offset: int, rows: int, cols: int):
    """Read-only float64 view of ``buffer`` at ``offset``.

    The store attach primitive: the returned array aliases the buffer
    (no copy) and is marked non-writable, so a worker can never scribble
    over a mapping other processes are reading.
    """
    view = _np.ndarray((rows, cols), dtype=_np.float64, buffer=buffer, offset=offset)
    view.setflags(write=False)
    return view


# ----------------------------------------------------------------------
# Packed int32 id columns (columnar dataset core)
# ----------------------------------------------------------------------
def pack_i32(values: Iterable[int]):
    """Pack integer ids into a 1-D int32 array.

    The id-column primitive of the columnar dataset core
    (:mod:`repro.engine.columnar`).
    """
    return _np.asarray(list(values), dtype=_np.int32)


def view_i32(buffer, offset: int, count: int):
    """Read-only 1-D int32 view of ``buffer`` at ``offset``.

    The integer twin of :func:`view_f64` (store attach primitive)."""
    view = _np.ndarray((count,), dtype=_np.int32, buffer=buffer, offset=offset)
    view.setflags(write=False)
    return view


def id_list(ids) -> List[int]:
    """A packed id column as a list of plain Python ints.

    Set/dict consumers (the NList shortcut, crossover-set accounting) go
    through this so numpy scalars never leak into id sets — mixed
    ``np.int32``/``int`` members hash identically but copy slower.  The
    columnar decoders also pass float64 point/box columns, whose rows come
    back as lists of the same floats (bitwise).
    """
    if hasattr(ids, "tolist"):
        return ids.tolist()
    return list(ids)


def gather_row(flat, offsets, index: int):
    """Row ``index`` of an offset-table column: ``flat[offsets[i]:offsets[i+1]]``.

    The packed-block gather primitive: ``offsets`` has one more entry than
    there are rows, and each row is the half-open slice between consecutive
    offsets.
    """
    return flat[int(offsets[index]) : int(offsets[index + 1])]


def lex_search_point(points, x: float, y: float) -> int:
    """Row index of ``(x, y)`` in a lexicographically sorted point column.

    ``points`` is a :func:`pack_points` output sorted by ``(x, y)``; returns
    ``-1`` when the point is absent.  Narrows by binary search on the x
    column and then on the y run — exact float comparisons, so membership
    matches the dict-based :class:`~repro.index.inverted.PointList` bitwise.
    """
    xs = points[:, 0]
    lo = int(_np.searchsorted(xs, x, side="left"))
    hi = int(_np.searchsorted(xs, x, side="right"))
    if lo == hi:
        return -1
    ys = points[lo:hi, 1]
    j = int(_np.searchsorted(ys, y, side="left"))
    if j < hi - lo and ys[j] == y:
        return lo + j
    return -1


# ----------------------------------------------------------------------
# R-tree bulk loading: Sort-Tile-Recursive order and level boxes
# ----------------------------------------------------------------------
def str_order(xs, ys, capacity: int):
    """Sort-Tile-Recursive order of the items keyed by ``(xs[i], ys[i])``.

    Items are stably sorted by x and cut into vertical slabs of
    ``ceil(sqrt(ceil(n / capacity))) * capacity`` items; each slab is
    stably sorted by y (Leutenegger, Lopez & Edgington, ICDE 1997).  A slab
    holds whole groups, so the STR groups are the consecutive runs of
    ``capacity`` items of the result.  ``n <= capacity`` keeps the input
    order (a single group).  Returns the permutation as an index array.
    """
    n = len(xs)
    if n <= capacity:
        return _np.arange(n)
    slab_size = math.ceil(math.sqrt(math.ceil(n / capacity))) * capacity
    order = _np.argsort(_np.asarray(xs, dtype=_np.float64), kind="stable")
    y_by_x = _np.asarray(ys, dtype=_np.float64)[order]
    for start in range(0, n, slab_size):
        slab = slice(start, start + slab_size)
        order[slab] = order[slab][_np.argsort(y_by_x[slab], kind="stable")]
    return order


def group_boxes(boxes, starts: Sequence[int]):
    """Bounding box of each run ``boxes[starts[i]:starts[i + 1]]``.

    ``boxes`` is a :func:`pack_boxes` output, ``starts`` the ascending
    first rows of non-empty runs (the last run ends at ``len(boxes)``).
    One ``minimum.reduceat`` / ``maximum.reduceat`` pair.
    """
    bxs = _np.asarray(boxes, dtype=_np.float64)
    idx = _np.asarray(starts, dtype=_np.intp)
    return _np.hstack(
        (
            _np.minimum.reduceat(bxs[:, :2], idx, axis=0),
            _np.maximum.reduceat(bxs[:, 2:], idx, axis=0),
        )
    )


def str_levels(points, capacity: int):
    """The bottom-up STR layout of an R-tree over ``points``.

    Returns one ``(order, child_boxes, node_boxes)`` triple per tree level,
    leaf level first and the single root last (``[]`` for no points):

    * ``order`` permutes the level's children (entry indices at the leaf
      level, indices into the level below's nodes above it) by
      :func:`str_order`, keyed by the points, then by box centres, as a
      sequence of ints;
    * ``child_boxes`` packs the children's boxes in that order; node ``g``
      owns rows ``g * capacity`` up to ``(g + 1) * capacity``;
    * ``node_boxes`` is each node's box (:func:`group_boxes`) as a
      ``(min_x, min_y, max_x, max_y)`` sequence of floats.

    The same grouping and boxes as packing the nodes one at a time.
    """
    pts = pack_points(points)
    if len(pts) == 0:
        return []
    order = str_order(pts[:, 0], pts[:, 1], capacity)
    # Drop each coordinate array as soon as the next one exists, so the
    # build's peak holds one copy of the points beside the leaf boxes.
    pts = pts[order]
    children = point_boxes(pts)
    del pts
    levels = []
    while True:
        boxes = group_boxes(children, range(0, len(children), capacity))
        node_boxes = id_list(boxes)
        # Iterates as plain ints without materialising them all.
        levels.append((memoryview(order), children, node_boxes))
        if len(node_boxes) == 1:
            return levels
        # Centres of huge boxes overflow to inf, as Python floats do.
        with _np.errstate(over="ignore"):
            xs = (boxes[:, 0] + boxes[:, 2]) / 2.0
            ys = (boxes[:, 1] + boxes[:, 3]) / 2.0
        order = str_order(xs, ys, capacity)
        children = boxes[order]


# ----------------------------------------------------------------------
# MinDist lower bounds
# ----------------------------------------------------------------------
def points_min_dist_sq_to_query(points, query):
    """Squared distance from each point to its nearest query point.

    ``points`` and ``query`` are outputs of :func:`pack_points`.  Returns an
    array of length ``len(points)``.
    """
    pts = _np.asarray(points, dtype=_np.float64)
    qry = _np.asarray(query, dtype=_np.float64)
    if len(pts) == 0:
        return _np.zeros(0)
    dx = pts[:, 0][:, None] - qry[:, 0][None, :]
    dy = pts[:, 1][:, None] - qry[:, 1][None, :]
    return (dx * dx + dy * dy).min(axis=1)


def boxes_min_dist_sq_to_query(boxes, query):
    """Squared MinDist from each box to the query (minimum over query points).

    ``boxes`` is the output of :func:`pack_boxes`, ``query`` of
    :func:`pack_points`.
    """
    bxs = _np.asarray(boxes, dtype=_np.float64)
    qry = _np.asarray(query, dtype=_np.float64)
    if len(bxs) == 0:
        return _np.zeros(0)
    qx = qry[:, 0][None, :]
    qy = qry[:, 1][None, :]
    dx = _np.maximum(bxs[:, 0][:, None] - qx, 0.0) + _np.maximum(
        qx - bxs[:, 2][:, None], 0.0
    )
    dy = _np.maximum(bxs[:, 1][:, None] - qy, 0.0) + _np.maximum(
        qy - bxs[:, 3][:, None], 0.0
    )
    return (dx * dx + dy * dy).min(axis=1)


def points_dist_sq_to_point(points, point):
    """Squared distance from each of ``points`` to one ``point``.

    The block version of :func:`repro.geometry.point.squared_euclidean`,
    used by the block-expansion kNN traversals to score every entry of an
    R-tree leaf in one call.  ``points`` is the output of
    :func:`pack_points`.
    """
    px, py = float(point[0]), float(point[1])
    pts = _np.asarray(points, dtype=_np.float64)
    if len(pts) == 0:
        return _np.zeros(0)
    dx = pts[:, 0] - px
    dy = pts[:, 1] - py
    return dx * dx + dy * dy


def boxes_min_max_dist_sq_to_point(boxes, point):
    """``(MinDist², MaxDist²)`` of every box to one point, in one call.

    The block version of :meth:`repro.geometry.bbox.BoundingBox.min_dist_sq`
    and :meth:`~repro.geometry.bbox.BoundingBox.max_dist_sq`: the
    block-expansion kNN traversals bound all children of an R-tree node per
    kernel call instead of per child.  Both bounds evaluate the same
    elementary-float expressions as the scalar methods (the two MinDist
    clamp terms cannot both be non-zero, so their sum equals the selected
    branch bitwise), keeping both executor paths' traversal decisions
    identical.
    """
    px, py = float(point[0]), float(point[1])
    bxs = _np.asarray(boxes, dtype=_np.float64)
    if len(bxs) == 0:
        return _np.zeros(0), _np.zeros(0)
    dx = _np.maximum(bxs[:, 0] - px, 0.0) + _np.maximum(px - bxs[:, 2], 0.0)
    dy = _np.maximum(bxs[:, 1] - py, 0.0) + _np.maximum(py - bxs[:, 3], 0.0)
    fx = _np.maximum(_np.abs(px - bxs[:, 0]), _np.abs(px - bxs[:, 2]))
    fy = _np.maximum(_np.abs(py - bxs[:, 1]), _np.abs(py - bxs[:, 3]))
    return dx * dx + dy * dy, fx * fx + fy * fy


# ----------------------------------------------------------------------
# Half-plane containment and Voronoi domination
# ----------------------------------------------------------------------
def boxes_halfplane_tensor(boxes, filter_points, query):
    """``(B, F, Q)`` truth table: box ⊂ H_{r:q} for a whole block of boxes.

    ``boxes`` is the output of :func:`pack_boxes`, ``filter_points`` and
    ``query`` of :func:`pack_points`.  Entry ``[b, i, j]`` is True when box
    ``b`` lies strictly inside the half-plane of points closer to filter
    point ``i`` than to query point ``j`` — the same test, on the same
    floats, as :meth:`repro.geometry.halfspace.HalfPlane.contains_bbox`.
    Used to test all children of an R-tree node (or all entries of a leaf,
    as degenerate boxes) in one call.
    """
    bxs = _np.asarray(boxes, dtype=_np.float64)
    flt = _np.asarray(filter_points, dtype=_np.float64)
    qry = _np.asarray(query, dtype=_np.float64)
    if len(bxs) == 0 or len(flt) == 0:
        return _np.zeros((len(bxs), len(flt), len(qry)), dtype=bool)
    rx = flt[:, 0][None, :, None]
    ry = flt[:, 1][None, :, None]
    qx = qry[:, 0][None, None, :]
    qy = qry[:, 1][None, None, :]
    a = 2.0 * (rx - qx)
    b = 2.0 * (ry - qy)
    c = (rx * rx + ry * ry) - (qx * qx + qy * qy)
    # The corner of the box minimising a*x + b*y decides containment.
    x = _np.where(a >= 0, bxs[:, 0][:, None, None], bxs[:, 2][:, None, None])
    y = _np.where(b >= 0, bxs[:, 1][:, None, None], bxs[:, 3][:, None, None])
    return a * x + b * y > c


def routes_dominate_boxes(tensor, rows):
    """Block Voronoi test (Definition 8): one route against a ``(B, F, Q)`` tensor.

    ``rows`` indexes the filter points belonging to one route.  Returns a
    ``(B,)`` verdict mask: box ``b`` is dominated when, for every query
    point, at least one of the route's filter points contains the box in its
    half-plane — :func:`repro.geometry.voronoi.voronoi_prunes_bbox`'s test.
    The executor calls this once per eligible route over the boxes its
    step-1 accounting left undecided.
    """
    return _np.asarray(tensor)[:, rows, :].any(axis=1).all(axis=1)


# ----------------------------------------------------------------------
# Point–polyline (point-to-route) distances for verification
# ----------------------------------------------------------------------
#: Element budget of one chunk of the point × route-point distance matrix.
#: Rows per chunk are this budget divided by the widest block's route-point
#: count (at least one row), so the verification and radius kernels hold two
#: float64 buffers of about 512 KiB each, whatever the number of points.
ROUTE_CHUNK_ELEMENTS = 1 << 16


def _route_distance_chunks(points, route_blocks):
    """Yield ``(start, stop, distances)`` over row chunks of ``points``.

    ``route_blocks`` is a sequence of ``(route_points, route_offsets)``
    pairs: each block's points grouped by route and the start index of each
    route's group.  ``distances[i, j]`` is the squared distance from point
    ``start + i`` to route ``j`` (the paper's Definition 3, minimum over the
    route's points), columns in block order.  Each block is split into x and
    y columns once, and every chunk's ``dx*dx + dy*dy`` is evaluated in
    place in two reused buffers of at most ``ROUTE_CHUNK_ELEMENTS``
    elements, so memory stays bounded however many points are reduced.
    """
    blocks = []
    for route_points, route_offsets in route_blocks:
        if len(route_offsets) == 0:
            continue
        rpts = _np.asarray(route_points, dtype=_np.float64)
        blocks.append(
            (
                _np.ascontiguousarray(rpts[:, 0]),
                _np.ascontiguousarray(rpts[:, 1]),
                _np.asarray(route_offsets, dtype=_np.intp),
            )
        )
    width = max(len(xs) for xs, _, _ in blocks)
    rows = max(1, min(len(points), ROUTE_CHUNK_ELEMENTS // width))
    dx_buffer = _np.empty(rows * width)
    dy_buffer = _np.empty(rows * width)
    px = points[:, 0:1]
    py = points[:, 1:2]
    for start in range(0, len(points), rows):
        stop = min(start + rows, len(points))
        reduced = []
        for xs, ys, offsets in blocks:
            shape = (stop - start, len(xs))
            dx = dx_buffer[: shape[0] * shape[1]].reshape(shape)
            dy = dy_buffer[: shape[0] * shape[1]].reshape(shape)
            _np.subtract(px[start:stop], xs, out=dx)
            _np.subtract(py[start:stop], ys, out=dy)
            _np.multiply(dx, dx, out=dx)
            _np.multiply(dy, dy, out=dy)
            _np.add(dx, dy, out=dx)
            reduced.append(_np.minimum.reduceat(dx, offsets, axis=1))
        yield start, stop, reduced[0] if len(reduced) == 1 else _np.hstack(reduced)


def count_closer_routes(
    points, thresholds_sq, route_points, route_offsets, excluded_columns=None
):
    """Distinct routes strictly closer than each point's threshold.

    The vectorized verification primitive: for each candidate point ``i``,
    count the routes whose squared point-to-route distance is strictly below
    ``thresholds_sq[i]``.  ``excluded_columns`` masks routes that must not
    count (e.g. the query route itself).  Memory is bounded by
    ``ROUTE_CHUNK_ELEMENTS``, not by the number of points.
    """
    pts = _np.asarray(points, dtype=_np.float64)
    thr = _np.asarray(thresholds_sq, dtype=_np.float64)
    counts = _np.zeros(len(pts), dtype=_np.intp)
    if len(pts) == 0 or len(route_offsets) == 0:
        return counts
    masked = excluded_columns is not None and len(excluded_columns) > 0
    for start, stop, distances in _route_distance_chunks(
        pts, [(route_points, route_offsets)]
    ):
        closer = distances < thr[start:stop, None]
        if masked:
            closer[:, excluded_columns] = False
        counts[start:stop] = closer.sum(axis=1)
    return counts


def kth_route_distance_sq(points, route_blocks, k: int):
    """Each point's ``k``-th smallest squared point-to-route distance.

    ``route_blocks`` is a sequence of ``(route_points, route_offsets)``
    pairs — the route-matrix blocks, every route in exactly one of them.
    A point with fewer than ``k`` routes gets ``inf``.  Fewer than ``k``
    routes are strictly closer to the point than a query ``q`` exactly when
    ``|point - q|² <= result``, the same comparison
    :func:`count_closer_routes` makes one query at a time.  Memory is
    bounded by ``ROUTE_CHUNK_ELEMENTS``, not by the number of points.
    """
    pts = _np.asarray(points, dtype=_np.float64)
    radii = _np.full(len(pts), _np.inf)
    if len(pts) == 0 or sum(len(offsets) for _, offsets in route_blocks) < k:
        return radii
    for start, stop, distances in _route_distance_chunks(pts, route_blocks):
        radii[start:stop] = _np.partition(distances, k - 1, axis=1)[:, k - 1]
    return radii


# ----------------------------------------------------------------------
# All-sources shortest distances (the planning matrix M_ψ)
# ----------------------------------------------------------------------
#: Sources relaxed together by :func:`multi_source_distances`; its
#: temporaries hold O(block × edges) elements whatever the source count.
SHORTEST_PATH_BLOCK = 64


def multi_source_distances(adjacency, sources) -> List[_stdlib_array]:
    """Shortest distances from each of ``sources`` to every vertex.

    ``adjacency[u]`` lists ``(v, weight)`` pairs over vertex columns
    ``0 .. len(adjacency) - 1`` and ``sources`` holds columns; row ``i`` of
    the result is an ``array('d')`` of the distances from ``sources[i]``
    (``inf`` when unreachable).  A label-correcting (Bellman–Ford) pass over
    ``SHORTEST_PATH_BLOCK`` sources at a time: each round expands only the
    ``(source, vertex)`` labels the previous round improved, along a CSR
    copy of the adjacency, keeps the strict improvements with
    ``np.minimum.at`` and stops when none is left.  For ``weight >= 0``,
    ``x ↦ fl(x + weight)`` is monotone and never below ``x``, so this and
    Dijkstra reach the same least fixed point — the minimum over paths of
    the left-to-right float sum — and every entry equals Dijkstra's
    bitwise.
    """
    vertex_count = len(adjacency)
    degrees = _np.fromiter(map(len, adjacency), dtype=_np.intp, count=vertex_count)
    indptr = _np.zeros(vertex_count + 1, dtype=_np.intp)
    _np.cumsum(degrees, out=indptr[1:])
    edges = list(chain.from_iterable(adjacency))
    heads = _np.fromiter((v for v, _ in edges), dtype=_np.intp, count=len(edges))
    weights = _np.fromiter((w for _, w in edges), dtype=_np.float64, count=len(edges))
    rows: List[_stdlib_array] = []
    for start in range(0, len(sources), SHORTEST_PATH_BLOCK):
        block = _np.asarray(sources[start : start + SHORTEST_PATH_BLOCK], dtype=_np.intp)
        # One flat label per (source, vertex) cell: row r starts at r * V.
        labels = _np.full(len(block) * vertex_count, _np.inf)
        frontier = _np.arange(len(block)) * vertex_count + block
        labels[frontier] = 0.0
        improved = _np.zeros(len(labels), dtype=bool)
        while len(frontier):
            vertex = frontier % vertex_count
            counts = degrees[vertex]
            # Edge id of every expansion: cell i's run of the flat expansion
            # starts at run_ends[i] - counts[i] and maps onto its vertex's
            # CSR run, which starts at indptr[vertex[i]].
            run_ends = _np.cumsum(counts)
            edge = _np.repeat(indptr[vertex] - run_ends + counts, counts)
            edge += _np.arange(len(edge))
            cells = _np.repeat(frontier - vertex, counts) + heads[edge]
            candidates = _np.repeat(labels[frontier], counts) + weights[edge]
            better = candidates < labels[cells]
            cells = cells[better]
            _np.minimum.at(labels, cells, candidates[better])
            # The next frontier, deduplicated through a reused mask: several
            # times faster than np.unique, which hashes in numpy 2.
            improved[cells] = True
            frontier = _np.flatnonzero(improved)
            improved[frontier] = False
        for row in labels.reshape(len(block), vertex_count):
            rows.append(_stdlib_array("d", row.tobytes()))
    return rows
