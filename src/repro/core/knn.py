"""k nearest route search for a single point (Definition 4).

These helpers are the building blocks of both the brute-force RkNNT baseline
and the exact verification step of the filter-refine framework:

* :func:`k_nearest_routes` — the k routes nearest to a point, deduplicated by
  route id, found with a best-first RR-tree traversal;
* :func:`count_routes_within` — how many *distinct* routes lie strictly
  closer to a point than a given distance, with early termination at ``k``;
* :func:`point_takes_query_as_knn` — whether the query route would be among
  the point's k nearest routes, the predicate that defines RkNNT membership.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.geometry import kernels
from repro.geometry.kernels import BACKEND_AUTO, BACKEND_NUMPY, resolve_backend
from repro.geometry.point import euclidean, squared_euclidean
from repro.index.route_index import RouteIndex
from repro.index.rtree import RTreeEntry, RTreeNode


def _add_node_union(
    found: Set[int], node: RTreeNode, excluded: Set[int]
) -> None:
    """NList shortcut: add every route id below ``node`` to ``found``.

    Reads the node's packed sorted-id union (:meth:`~repro.index.rtree
    .RTreeNode.union_ids`) instead of the ``payload_union`` frozenset: on a
    store-booted index this is a read-only slice of the mapped NList
    column, and iteration order is sorted everywhere.  The
    resulting set is identical either way, so decisions never change.
    """
    ids = kernels.id_list(node.union_ids())
    if excluded:
        found.update(route_id for route_id in ids if route_id not in excluded)
    else:
        found.update(ids)


def query_distance(
    point: Sequence[float], query_points: Sequence[Sequence[float]]
) -> float:
    """``dist(t, Q)``: minimum distance from ``point`` to the query route."""
    best = math.inf
    for q in query_points:
        d = euclidean(point, q)
        if d < best:
            best = d
    return best


def query_distance_sq(
    point: Sequence[float], query_points: Sequence[Sequence[float]]
) -> float:
    """Squared ``dist(t, Q)``: the verification threshold of the engine.

    Squared distances are exact elementary-float expressions (no ``sqrt`` /
    ``hypot`` rounding), so the scalar and vectorized execution backends
    compute bitwise-identical thresholds and confirm exactly the same
    endpoints.
    """
    best = math.inf
    for q in query_points:
        d = squared_euclidean(point, q)
        if d < best:
            best = d
    return best


def k_nearest_routes(
    route_index: RouteIndex, point: Sequence[float], k: int
) -> List[Tuple[float, int]]:
    """The ``k`` routes nearest to ``point`` as ``(distance, route_id)`` pairs.

    The distance to a route is the paper's point-route distance (minimum over
    the route's points).  Results are sorted by increasing distance; ties are
    broken by route id for determinism.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    best_by_route: Dict[int, float] = {}
    # Best-first traversal: entries come back ordered by distance, so the
    # first time a route id is seen, that distance is the route's distance.
    # Once k routes are known the traversal continues only while remaining
    # entries could still tie the current k-th distance, so that ties are
    # resolved deterministically (by route id) like the brute-force scan.
    for distance, entry in route_index.tree.iter_nearest(point):
        if len(best_by_route) >= k:
            kth_distance = sorted(best_by_route.values())[k - 1]
            if distance > kth_distance:
                break
        for route_id in entry.payload:
            if route_id not in best_by_route:
                best_by_route[route_id] = distance
    ranked = sorted(best_by_route.items(), key=lambda item: (item[1], item[0]))
    return [(distance, route_id) for route_id, distance in ranked[:k]]


def count_routes_within(
    route_index: RouteIndex,
    point: Sequence[float],
    threshold: float,
    stop_at: Optional[int] = None,
    exclude_route_ids: Optional[Set[int]] = None,
) -> int:
    """Count distinct routes strictly closer to ``point`` than ``threshold``.

    This is the verification primitive: a transition endpoint takes the query
    as one of its k nearest routes exactly when fewer than ``k`` routes are
    strictly closer to it than the query is.

    The traversal uses the RR-tree and the per-node route-id sets (NList): a
    node whose *maximum* distance to ``point`` is below ``threshold`` has all
    of its routes closer, so they are added without opening the node.

    Like :func:`count_routes_within_sq` the traversal block-expands: when a
    node is opened, all of its children are lower-bounded in one pass (here
    through the scalar predicates — this non-squared variant compares
    ``math.hypot`` distances, which the array kernels deliberately avoid).
    The MaxDist bound of the NList shortcut stays a pop-time computation:
    children pushed but never popped (tight thresholds, ``stop_at`` exits)
    must not pay for it.  Keep structural changes in sync between the two
    variants.

    Parameters
    ----------
    stop_at:
        Early-exit bound — once this many distinct routes have been found the
        exact count no longer matters and the function returns immediately.
    exclude_route_ids:
        Routes to ignore (used when the query is an existing route that is
        still present in the index).
    """
    excluded = exclude_route_ids or frozenset()
    found: Set[int] = set()
    tree = route_index.tree
    if len(tree) == 0 or tree.root.bbox is None:
        return 0

    counter = itertools.count()
    heap: List[Tuple[float, int, RTreeNode]] = [
        (tree.root.bbox.min_dist(point), next(counter), tree.root)
    ]
    while heap:
        min_dist, _, node = heapq.heappop(heap)
        if min_dist >= threshold:
            # Every remaining node is at least this far: nothing closer left.
            break
        if stop_at is not None and len(found) >= stop_at:
            break
        assert node.bbox is not None
        if node.bbox.max_dist(point) < threshold:
            # NList shortcut: every route below this node is strictly closer.
            _add_node_union(found, node, excluded)
            continue
        if node.is_leaf:
            for entry in node.children:
                assert isinstance(entry, RTreeEntry)
                if euclidean(entry.point, point) < threshold:
                    found.update(set(entry.payload) - excluded)
        else:
            for child in node.children:
                assert isinstance(child, RTreeNode)
                if child.bbox is None:
                    continue
                child_min = child.bbox.min_dist(point)
                if child_min < threshold:
                    heapq.heappush(heap, (child_min, next(counter), child))
    return len(found)


def count_routes_within_sq(
    route_index: RouteIndex,
    point: Sequence[float],
    threshold_sq: float,
    stop_at: Optional[int] = None,
    exclude_route_ids: Optional[Set[int]] = None,
    backend: str = BACKEND_AUTO,
) -> int:
    """Squared-threshold variant of :func:`count_routes_within`.

    Identical traversal and NList shortcut, but every comparison is between
    squared distances.  This is the scalar half of the engine's verification
    stage; :func:`repro.geometry.kernels.count_closer_routes` is the
    vectorized half, and the two make identical decisions because they
    evaluate the same elementary-float expressions.

    The traversal is *block-expanding* on the numpy backend: opening a node
    bounds all of its children (squared MinDist *and* MaxDist) in one
    :func:`repro.geometry.kernels.boxes_min_max_dist_sq_to_point` call, the
    MaxDist bound riding along on the heap, and a leaf's entries are scored
    in one :func:`repro.geometry.kernels.points_dist_sq_to_point` call.  On
    the Python backend the loop stays on the scalar
    :class:`~repro.geometry.bbox.BoundingBox` methods — ``backend="python"``
    never touches numpy machinery, and MaxDist stays a pop-time computation
    so children pushed but never popped don't pay for it.  Both backends
    evaluate the same elementary-float expressions, so the traversal visits
    exactly the nodes the node-at-a-time loop visited.  Early exits and the
    NList shortcut still apply at pop time.  Keep structural changes in
    sync with :func:`count_routes_within`.
    """
    excluded = exclude_route_ids or frozenset()
    found: Set[int] = set()
    tree = route_index.tree
    if len(tree) == 0 or tree.root.bbox is None:
        return 0
    use_kernels = resolve_backend(backend) == BACKEND_NUMPY

    counter = itertools.count()
    root = tree.root
    # Heap items carry the squared MaxDist when it was batch-computed at
    # push time (numpy backend); None means "compute at pop" (scalar).
    heap: List[Tuple[float, int, RTreeNode, Optional[float]]] = [
        (root.bbox.min_dist_sq(point), next(counter), root, None)
    ]
    while heap:
        min_dist_sq, _, node, max_dist_sq = heapq.heappop(heap)
        if min_dist_sq >= threshold_sq:
            # Every remaining node is at least this far: nothing closer left.
            break
        if stop_at is not None and len(found) >= stop_at:
            break
        if max_dist_sq is None:
            assert node.bbox is not None
            max_dist_sq = node.bbox.max_dist_sq(point)
        if max_dist_sq < threshold_sq:
            # NList shortcut: every route below this node is strictly closer.
            _add_node_union(found, node, excluded)
            continue
        if node.is_leaf:
            if use_kernels:
                distances = kernels.points_dist_sq_to_point(
                    node.leaf_point_tuples(), point
                )
                for entry, distance_sq in zip(node.children, distances):
                    assert isinstance(entry, RTreeEntry)
                    if distance_sq < threshold_sq:
                        found.update(set(entry.payload) - excluded)
            else:
                for entry in node.children:
                    assert isinstance(entry, RTreeEntry)
                    if squared_euclidean(entry.point, point) < threshold_sq:
                        found.update(set(entry.payload) - excluded)
        elif use_kernels:
            children = [
                child
                for child in node.children
                if isinstance(child, RTreeNode) and child.bbox is not None
            ]
            mins, maxs = kernels.boxes_min_max_dist_sq_to_point(
                [child.bbox.as_tuple() for child in children], point
            )
            for child, child_min_sq, child_max_sq in zip(children, mins, maxs):
                if child_min_sq < threshold_sq:
                    heapq.heappush(
                        heap,
                        (
                            float(child_min_sq),
                            next(counter),
                            child,
                            float(child_max_sq),
                        ),
                    )
        else:
            for child in node.children:
                assert isinstance(child, RTreeNode)
                if child.bbox is None:
                    continue
                child_min_sq = child.bbox.min_dist_sq(point)
                if child_min_sq < threshold_sq:
                    heapq.heappush(
                        heap, (child_min_sq, next(counter), child, None)
                    )
    return len(found)


def closer_route_count(
    route_index: RouteIndex,
    point: Sequence[float],
    query_points: Sequence[Sequence[float]],
    k: int,
    exclude_route_ids: Optional[Set[int]] = None,
    backend: str = BACKEND_AUTO,
) -> int:
    """Distinct routes strictly closer to ``point`` than the query is.

    The endpoint-confirmation primitive: the threshold is the squared
    distance from ``point`` to its nearest query point, the count stops
    early at ``k`` (whether more routes are closer no longer matters), and
    ``point`` is confirmed exactly when the returned count is below ``k``.
    The single source of this expression — the engine's verification stage,
    the continuous-query delta maintenance and the execution context's
    cache patching must all make identical decisions.

    Returns
    -------
    int
        The number of distinct non-excluded routes strictly closer than
        the query, capped at ``k``.
    """
    threshold_sq = query_distance_sq(point, query_points)
    return count_routes_within_sq(
        route_index,
        point,
        threshold_sq,
        stop_at=k,
        exclude_route_ids=exclude_route_ids,
        backend=backend,
    )


def point_takes_query_as_knn(
    route_index: RouteIndex,
    point: Sequence[float],
    query_points: Sequence[Sequence[float]],
    k: int,
    exclude_route_ids: Optional[Set[int]] = None,
    backend: str = BACKEND_AUTO,
) -> bool:
    """True when the query route is among the k nearest routes of ``point``.

    Implemented as: fewer than ``k`` distinct routes are strictly closer to
    ``point`` than the query is (ties therefore favour the query, matching
    the strict half-plane pruning used by the filter phase).  Uses the
    squared-distance comparison, like the engine's verification stage.
    """
    closer = closer_route_count(
        route_index,
        point,
        query_points,
        k,
        exclude_route_ids=exclude_route_ids,
        backend=backend,
    )
    return closer < k
