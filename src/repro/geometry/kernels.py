"""Vectorized geometry kernels with an automatic pure-Python fallback.

The filter-refine framework spends almost all of its time in four geometric
primitives, evaluated once per R-tree node / transition endpoint / candidate:

* ``MinDist``-to-query lower bounds (best-first traversal ordering),
* half-plane containment of a box (Definition 6, the filtering space),
* the per-route Voronoi domination test (Definition 8), and
* point–polyline (point-to-route) distances (verification thresholds).

This module provides *batch* versions of those primitives: one call evaluates
a whole block of boxes or points against a whole block of filter/query points,
so the per-tuple Python interpreter overhead is paid once per block instead of
once per tuple.  When numpy is available the batch kernels are numpy
expressions; otherwise they fall back to loops over the scalar predicates in
:mod:`repro.geometry.halfspace` — the results are identical either way, which
the differential tests in ``tests/test_engine_kernels.py`` assert.

Determinism.  Every kernel evaluates the *same* elementary-float expression
as its scalar counterpart (no transcendental functions, squared distances
instead of ``hypot``), so the numpy and Python backends agree bitwise and the
batched execution engine returns element-wise identical answers to the scalar
one.

Backend selection
-----------------
``numpy_available()`` reports whether numpy could be imported *and* was not
disabled via the ``RKNNT_PURE_PYTHON`` environment variable (set it to ``1``
to force the fallback path, e.g. in CI).  :func:`resolve_backend` maps the
user-facing ``"auto" | "numpy" | "python"`` choice onto a concrete backend.
"""

from __future__ import annotations

import math
import os
from array import array as _stdlib_array
from bisect import bisect_left
from itertools import chain
from typing import Iterable, List, Sequence, Tuple

try:  # pragma: no cover - exercised via the CI matrix
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Set ``RKNNT_PURE_PYTHON=1`` to force the pure-Python kernels even when
#: numpy is importable (used by the CI fallback job and the kernel tests).
_FORCED_PURE = os.environ.get("RKNNT_PURE_PYTHON", "").strip().lower() in (
    "1",
    "true",
    "yes",
)

BACKEND_AUTO = "auto"
BACKEND_NUMPY = "numpy"
BACKEND_PYTHON = "python"
BACKENDS = (BACKEND_AUTO, BACKEND_NUMPY, BACKEND_PYTHON)

Coords = Sequence[Sequence[float]]
BoxTuples = Sequence[Tuple[float, float, float, float]]


def numpy_available() -> bool:
    """True when the numpy backend can be used."""
    return _np is not None and not _FORCED_PURE


def resolve_backend(backend: str = BACKEND_AUTO) -> str:
    """Resolve ``"auto"`` to a concrete backend, validating the name.

    Raises
    ------
    ValueError
        If ``backend`` is unknown, or ``"numpy"`` is requested but numpy is
        unavailable (or disabled via ``RKNNT_PURE_PYTHON``).
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if backend == BACKEND_AUTO:
        return BACKEND_NUMPY if numpy_available() else BACKEND_PYTHON
    if backend == BACKEND_NUMPY and not numpy_available():
        raise ValueError(
            "numpy backend requested but numpy is not available "
            "(or RKNNT_PURE_PYTHON is set)"
        )
    return backend


# ----------------------------------------------------------------------
# Packing helpers
# ----------------------------------------------------------------------
def pack_points(points: Coords):
    """Pack ``(x, y)`` pairs into an ``(N, 2)`` float64 array (or list)."""
    if numpy_available():
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
    return [(float(p[0]), float(p[1])) for p in points]


def pack_boxes(boxes: BoxTuples):
    """Pack ``(min_x, min_y, max_x, max_y)`` tuples into an ``(N, 4)`` array."""
    if numpy_available():
        arr = _np.asarray(boxes, dtype=_np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(0, 4) if arr.size == 0 else arr.reshape(1, 4)
        return arr
    return [tuple(float(v) for v in b) for b in boxes]


def point_boxes(points):
    """Degenerate ``(x, y, x, y)`` boxes of packed points, as :func:`pack_boxes`.

    Takes any :func:`pack_points` output (or a float64 column of either
    backend's making) and returns the current backend's box layout.
    """
    if numpy_available():
        pts = _np.asarray(points, dtype=_np.float64).reshape(-1, 2)
        return _np.hstack((pts, pts))
    return [(x, y, x, y) for x, y in id_list(points)]


def view_f64(buffer, offset: int, rows: int, cols: int):
    """Read-only float64 view of ``buffer`` at ``offset``.

    The store attach primitive: the returned array aliases the buffer
    (no copy) and is marked non-writable, so a worker can never scribble
    over a mapping other processes are reading.
    """
    assert numpy_available(), "view_f64 requires the numpy backend"
    view = _np.ndarray((rows, cols), dtype=_np.float64, buffer=buffer, offset=offset)
    view.setflags(write=False)
    return view


# ----------------------------------------------------------------------
# Packed int32 id columns (columnar dataset core)
# ----------------------------------------------------------------------
#: ``array.array`` typecode with a 32-bit signed layout on every supported
#: platform ("i" is C int, 4 bytes everywhere CPython runs today).
INT32_TYPECODE = "i"


def pack_i32(values: Iterable[int]):
    """Pack integer ids into a 1-D int32 array (numpy) or ``array.array``.

    The id-column primitive of the columnar dataset core
    (:mod:`repro.engine.columnar`): both representations slice, iterate,
    compare and pickle identically, and both serialise to the same byte
    layout, so columnar pickles are byte-deterministic on either backend.
    """
    if numpy_available():
        return _np.asarray(list(values), dtype=_np.int32)
    return _stdlib_array(INT32_TYPECODE, values)


def view_i32(buffer, offset: int, count: int):
    """Read-only 1-D int32 view of ``buffer`` at ``offset``.

    The integer twin of :func:`view_f64` (store attach primitive)."""
    assert numpy_available(), "view_i32 requires the numpy backend"
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
    offsets.  Works for numpy arrays and plain ``array.array``/list columns
    alike (slicing semantics coincide).
    """
    return flat[int(offsets[index]) : int(offsets[index + 1])]


def lex_search_point(points, x: float, y: float) -> int:
    """Row index of ``(x, y)`` in a lexicographically sorted point column.

    ``points`` is a :func:`pack_points` output sorted by ``(x, y)``; returns
    ``-1`` when the point is absent.  The numpy path narrows by binary
    search on the x column and then on the y run; the fallback bisects the
    plain tuple list — both are exact float comparisons, so membership
    matches the dict-based :class:`~repro.index.inverted.PointList` bitwise.

    Dispatch is on the *column's* type, not on :func:`numpy_available`: a
    columnar pickle built with numpy arrays must still answer correctly in
    a process that forces the pure-Python kernels (``bisect`` over ndarray
    rows would raise on the elementwise comparison).
    """
    if _np is not None and hasattr(points, "ndim"):
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
    key = (x, y)
    row = bisect_left(points, key)
    if row < len(points) and tuple(points[row]) == key:
        return row
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
    order (a single group).  Returns the permutation: an index array on
    the numpy path, a list otherwise.
    """
    n = len(xs)
    if n <= capacity:
        return _np.arange(n) if numpy_available() else list(range(n))
    slab_size = math.ceil(math.sqrt(math.ceil(n / capacity))) * capacity
    if numpy_available():
        order = _np.argsort(_np.asarray(xs, dtype=_np.float64), kind="stable")
        y_by_x = _np.asarray(ys, dtype=_np.float64)[order]
        for start in range(0, n, slab_size):
            slab = slice(start, start + slab_size)
            order[slab] = order[slab][_np.argsort(y_by_x[slab], kind="stable")]
        return order
    by_x = sorted(range(n), key=xs.__getitem__)
    order = []
    for start in range(0, n, slab_size):
        slab_items = by_x[start : start + slab_size]
        slab_items.sort(key=ys.__getitem__)
        order.extend(slab_items)
    return order


def group_boxes(boxes, starts: Sequence[int]):
    """Bounding box of each run ``boxes[starts[i]:starts[i + 1]]``.

    ``boxes`` is a :func:`pack_boxes` output, ``starts`` the ascending
    first rows of non-empty runs (the last run ends at ``len(boxes)``).
    The numpy path is one ``minimum.reduceat`` / ``maximum.reduceat`` pair;
    the fallback scans each run with ``min``/``max``, which keep the first
    of equal values like :meth:`~repro.geometry.bbox.BoundingBox.from_points`.
    The two agree under ``==``; only the sign of a zero bound can differ.
    """
    if numpy_available():
        bxs = _np.asarray(boxes, dtype=_np.float64)
        idx = _np.asarray(starts, dtype=_np.intp)
        return _np.hstack(
            (
                _np.minimum.reduceat(bxs[:, :2], idx, axis=0),
                _np.maximum.reduceat(bxs[:, 2:], idx, axis=0),
            )
        )
    out = []
    for start, stop in zip(starts, [*starts[1:], len(boxes)]):
        min_xs, min_ys, max_xs, max_ys = zip(*boxes[start:stop])
        out.append((min(min_xs), min(min_ys), max(max_xs), max(max_ys)))
    return out


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
    if numpy_available():
        xs, ys = pts[:, 0], pts[:, 1]
    else:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
    order = str_order(xs, ys, capacity)
    del xs, ys
    # Drop each coordinate array as soon as the next one exists, so the
    # build's peak holds one copy of the points beside the leaf boxes.
    pts = _take(pts, order)
    children = point_boxes(pts)
    del pts
    levels = []
    while True:
        boxes = group_boxes(children, range(0, len(children), capacity))
        node_boxes = id_list(boxes)
        if hasattr(order, "ndim"):
            # Iterates as plain ints without materialising them all.
            order = memoryview(order)
        levels.append((order, children, node_boxes))
        if len(node_boxes) == 1:
            return levels
        if numpy_available():
            # Centres of huge boxes overflow to inf, as Python floats do.
            with _np.errstate(over="ignore"):
                xs = (boxes[:, 0] + boxes[:, 2]) / 2.0
                ys = (boxes[:, 1] + boxes[:, 3]) / 2.0
        else:
            xs = [(box[0] + box[2]) / 2.0 for box in boxes]
            ys = [(box[1] + box[3]) / 2.0 for box in boxes]
        order = str_order(xs, ys, capacity)
        children = _take(boxes, order)


def _take(rows, order: List[int]):
    """``rows`` reordered by ``order`` (numpy fancy index or list gather)."""
    if hasattr(rows, "ndim"):
        return rows[order]
    return [rows[i] for i in order]


# ----------------------------------------------------------------------
# MinDist lower bounds
# ----------------------------------------------------------------------
def points_min_dist_sq_to_query(points, query) -> List[float]:
    """Squared distance from each point to its nearest query point.

    ``points`` and ``query`` are outputs of :func:`pack_points`.  Returns a
    sequence of length ``len(points)``.
    """
    if numpy_available():
        pts = _np.asarray(points, dtype=_np.float64)
        qry = _np.asarray(query, dtype=_np.float64)
        if len(pts) == 0:
            return _np.zeros(0)
        dx = pts[:, 0][:, None] - qry[:, 0][None, :]
        dy = pts[:, 1][:, None] - qry[:, 1][None, :]
        return (dx * dx + dy * dy).min(axis=1)
    out = []
    for px, py in points:
        best = float("inf")
        for qx, qy in query:
            dx = px - qx
            dy = py - qy
            d = dx * dx + dy * dy
            if d < best:
                best = d
        out.append(best)
    return out


def boxes_min_dist_sq_to_query(boxes, query) -> List[float]:
    """Squared MinDist from each box to the query (minimum over query points).

    ``boxes`` is the output of :func:`pack_boxes`, ``query`` of
    :func:`pack_points`.
    """
    if numpy_available():
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
    out = []
    for min_x, min_y, max_x, max_y in boxes:
        best = float("inf")
        for qx, qy in query:
            dx = min_x - qx if qx < min_x else (qx - max_x if qx > max_x else 0.0)
            dy = min_y - qy if qy < min_y else (qy - max_y if qy > max_y else 0.0)
            d = dx * dx + dy * dy
            if d < best:
                best = d
        out.append(best)
    return out


def points_dist_sq_to_point(points, point) -> List[float]:
    """Squared distance from each of ``points`` to one ``point``.

    The block version of :func:`repro.geometry.point.squared_euclidean`,
    used by the block-expansion kNN traversals to score every entry of an
    R-tree leaf in one call.  ``points`` is the output of
    :func:`pack_points`.
    """
    px, py = float(point[0]), float(point[1])
    if numpy_available():
        pts = _np.asarray(points, dtype=_np.float64)
        if len(pts) == 0:
            return _np.zeros(0)
        dx = pts[:, 0] - px
        dy = pts[:, 1] - py
        return dx * dx + dy * dy
    out = []
    for x, y in points:
        dx = x - px
        dy = y - py
        out.append(dx * dx + dy * dy)
    return out


def boxes_min_max_dist_sq_to_point(boxes, point):
    """``(MinDist², MaxDist²)`` of every box to one point, in one call.

    The block version of :meth:`repro.geometry.bbox.BoundingBox.min_dist_sq`
    and :meth:`~repro.geometry.bbox.BoundingBox.max_dist_sq`: the
    block-expansion kNN traversals bound all children of an R-tree node per
    kernel call instead of per child.  Both bounds evaluate the same
    elementary-float expressions as the scalar methods (the two MinDist
    clamp terms cannot both be non-zero, so their sum equals the selected
    branch bitwise), keeping every backend's traversal decisions identical.
    """
    px, py = float(point[0]), float(point[1])
    if numpy_available():
        bxs = _np.asarray(boxes, dtype=_np.float64)
        if len(bxs) == 0:
            return _np.zeros(0), _np.zeros(0)
        dx = _np.maximum(bxs[:, 0] - px, 0.0) + _np.maximum(px - bxs[:, 2], 0.0)
        dy = _np.maximum(bxs[:, 1] - py, 0.0) + _np.maximum(py - bxs[:, 3], 0.0)
        fx = _np.maximum(_np.abs(px - bxs[:, 0]), _np.abs(px - bxs[:, 2]))
        fy = _np.maximum(_np.abs(py - bxs[:, 1]), _np.abs(py - bxs[:, 3]))
        return dx * dx + dy * dy, fx * fx + fy * fy
    mins = []
    maxs = []
    for min_x, min_y, max_x, max_y in boxes:
        dx = min_x - px if px < min_x else (px - max_x if px > max_x else 0.0)
        dy = min_y - py if py < min_y else (py - max_y if py > max_y else 0.0)
        mins.append(dx * dx + dy * dy)
        fx = max(abs(px - min_x), abs(px - max_x))
        fy = max(abs(py - min_y), abs(py - max_y))
        maxs.append(fx * fx + fy * fy)
    return mins, maxs


# ----------------------------------------------------------------------
# Half-plane / filtering-space containment
# ----------------------------------------------------------------------
def box_halfplane_tensor(box, filter_points, query):
    """``(F, Q)`` truth table: box ⊂ H_{r:q} for each filter/query pair.

    ``box`` is a ``(min_x, min_y, max_x, max_y)`` tuple; ``filter_points``
    and ``query`` are outputs of :func:`pack_points`.  Entry ``[i, j]`` is
    True when the whole box lies strictly inside the half-plane of points
    closer to filter point ``i`` than to query point ``j`` — the same test
    as :meth:`repro.geometry.halfspace.HalfPlane.contains_bbox`.
    """
    min_x, min_y, max_x, max_y = box
    if numpy_available():
        flt = _np.asarray(filter_points, dtype=_np.float64)
        qry = _np.asarray(query, dtype=_np.float64)
        if len(flt) == 0:
            return _np.zeros((0, len(qry)), dtype=bool)
        rx = flt[:, 0][:, None]
        ry = flt[:, 1][:, None]
        qx = qry[:, 0][None, :]
        qy = qry[:, 1][None, :]
        a = 2.0 * (rx - qx)
        b = 2.0 * (ry - qy)
        c = (rx * rx + ry * ry) - (qx * qx + qy * qy)
        # The corner of the box minimising a*x + b*y decides containment.
        x = _np.where(a >= 0, min_x, max_x)
        y = _np.where(b >= 0, min_y, max_y)
        return a * x + b * y > c
    table = []
    for rx, ry in filter_points:
        row = []
        for qx, qy in query:
            a = 2.0 * (rx - qx)
            b = 2.0 * (ry - qy)
            c = (rx * rx + ry * ry) - (qx * qx + qy * qy)
            x = min_x if a >= 0 else max_x
            y = min_y if b >= 0 else max_y
            row.append(a * x + b * y > c)
        table.append(row)
    return table


def boxes_halfplane_tensor(boxes, filter_points, query):
    """``(B, F, Q)`` truth table: box ⊂ H_{r:q} for a whole block of boxes.

    The block version of :func:`box_halfplane_tensor`, used to test all
    children of an R-tree node (or all entries of a leaf, as degenerate
    boxes) in one call.  Evaluates the same expression per element, so each
    ``[b]`` slice equals ``box_halfplane_tensor(boxes[b], ...)`` bitwise.
    """
    if numpy_available():
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
        x = _np.where(a >= 0, bxs[:, 0][:, None, None], bxs[:, 2][:, None, None])
        y = _np.where(b >= 0, bxs[:, 1][:, None, None], bxs[:, 3][:, None, None])
        return a * x + b * y > c
    return [box_halfplane_tensor(box, filter_points, query) for box in boxes]


def dominators_of_box(box, filter_points, query):
    """Per-filter-point mask: box ⊂ H_{r:Q} (inside *every* half-plane).

    Returns ``(all_q_mask, tensor)`` where ``all_q_mask[i]`` collapses row
    ``i`` of the ``(F, Q)`` tensor with AND (the basic filtering-space test of
    Definition 6) and ``tensor`` is the full table for the Voronoi step.
    """
    tensor = box_halfplane_tensor(box, filter_points, query)
    if numpy_available():
        return tensor.all(axis=1), tensor
    return [all(row) for row in tensor], tensor


def route_dominates_box(tensor, rows) -> bool:
    """Voronoi test (Definition 8) from a precomputed half-plane tensor.

    ``rows`` indexes the filter points belonging to one route.  The route
    dominates the box when, for every query point, at least one of its filter
    points contains the box in its half-plane.
    """
    if numpy_available():
        sub = tensor[rows]
        return bool(sub.any(axis=0).all())
    if not rows:
        return False
    columns = len(tensor[rows[0]])
    for j in range(columns):
        if not any(tensor[i][j] for i in rows):
            return False
    return True


def routes_dominate_boxes(tensor, rows):
    """Block Voronoi test: one route against a whole ``(B, F, Q)`` tensor.

    Returns a ``(B,)`` verdict mask where entry ``b`` equals
    ``route_dominates_box(tensor[b], rows)``.  The executor calls this once
    per eligible route over the boxes its step-1 accounting left undecided,
    replacing a per-(box, route) kernel call with a per-route one.
    """
    if numpy_available():
        return _np.asarray(tensor)[:, rows, :].any(axis=1).all(axis=1)
    return [route_dominates_box(table, rows) for table in tensor]


def points_in_filtering_space(points, filter_point, query):
    """Mask: each point strictly closer to ``filter_point`` than to every q.

    The per-point version of the filtering-space test, used to prune whole
    blocks of transition endpoints at once.  Matches
    :func:`repro.geometry.halfspace.filtering_space_contains_point`.
    """
    fx, fy = float(filter_point[0]), float(filter_point[1])
    if numpy_available():
        pts = _np.asarray(points, dtype=_np.float64)
        qry = _np.asarray(query, dtype=_np.float64)
        if len(pts) == 0:
            return _np.zeros(0, dtype=bool)
        dxf = pts[:, 0] - fx
        dyf = pts[:, 1] - fy
        d_filter = dxf * dxf + dyf * dyf
        dxq = pts[:, 0][:, None] - qry[:, 0][None, :]
        dyq = pts[:, 1][:, None] - qry[:, 1][None, :]
        d_query = dxq * dxq + dyq * dyq
        return (d_filter[:, None] < d_query).all(axis=1)
    out = []
    for px, py in points:
        dxf = px - fx
        dyf = py - fy
        d_filter = dxf * dxf + dyf * dyf
        ok = True
        for qx, qy in query:
            dxq = px - qx
            dyq = py - qy
            if d_filter >= dxq * dxq + dyq * dyq:
                ok = False
                break
        out.append(ok)
    return out


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
    assert numpy_available(), "count_closer_routes requires the numpy backend"
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
    assert numpy_available(), "kth_route_distance_sq requires the numpy backend"
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
    assert numpy_available(), "multi_source_distances requires the numpy backend"
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
