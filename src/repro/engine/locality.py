"""Query-locality engine: shared filter reuse across nearby batch queries.

The staged executor derives a fresh filtering set per query, yet batch
workloads issued by real clients are spatially *clustered* — bus-bunching
analyses probe the same corridor, per-vertex planning sweeps walk adjacent
network vertices — so nearby queries redo nearly identical filter work.
This module exploits that redundancy without changing a single answer:

1. **Cluster** — a seeded grid snap groups the batch's queries by the cell
   of their centroid (and by their excluded-route set: only identically
   excluded queries may share filter facts).
2. **Pilot** — one member per cluster (the one nearest the cluster's mean
   centroid) runs through the completely normal staged executor.  Its
   result, statistics and counters are bit-for-bit what an unshared run
   would produce.
3. **Seed + margin prune** — every neighbour *shares the pilot's retained
   filter set*.  A filter fact is query-independent — it says "route point
   ``r`` lies on routes ``C(r)``" — so re-deriving it per neighbour is pure
   waste; only the *filtering spaces* ``H_{r:Q}`` depend on the query, and
   the executor recomputes those against each neighbour's actual points.
   One TR-tree traversal per cluster prunes with the δ-margin predicate
   (:func:`repro.geometry.halfspace.margin_slack_bbox`, δ = the largest
   directed Hausdorff distance from any member to the pilot): a box it
   discards is provably filtered for **every** member.  Each surviving
   candidate carries its *prune threshold* — the largest δ at which the
   margin accounting still reaches ``k`` routes — so a member whose own
   (usually much smaller) distance stays below the threshold drops the
   candidate by one float comparison instead of an exact filter test.
4. **Re-test + verify** — each neighbour re-tests only the truly
   *borderline* shared candidates (threshold not above its own δ) with its
   exact filtering predicate and verifies the keepers exactly, so the
   confirmed endpoints — and the ``confirmed_points`` counter, since a
   truly confirmed endpoint is verified exactly once on either path —
   equal the unshared run's.

Soundness of the margin in one line: for any member query ``Q′`` with
directed Hausdorff distance ``≤ δ`` to the pilot ``Q``, and any point ``p``
of a box ``b``, ``dist(p, q′) ≥ dist(p, q) − δ ≥ MinDist(b, Q) − δ >
MaxDist(b, r) ≥ dist(p, r)`` — so every box discarded by the margin
predicate lies inside ``H_{r:Q′}`` too.  δ is additionally inflated by one
part in 10⁹ before use, which dwarfs the accumulated float64 rounding error
of the distance expressions while only making pruning *more* conservative.

The same machinery unifies the repo's two other reuse paths:

* **sub-query memo tier** — under divide & conquer the pre-pass resolves
  the batch's not-yet-memoised single-point sub-queries cluster by cluster
  (pilot + margin + re-test) and stores the answers, turning the main
  loop's lookups into exact hits: locality is the near-hit tier below the
  :class:`~repro.engine.context.ExecutionContext` cache's exact-hit tier.
* **continuous layer** — a new standing query snaps to the nearest active
  subscription in its cell and seeds its executors' filter sets from the
  donor's retained facts (see :mod:`repro.engine.continuous`).

Everything is gated behind ``RKNNT_LOCALITY`` (cell size override:
``RKNNT_LOCALITY_CELL``); ``tests/test_locality.py`` asserts shared ≡
unshared per method × semantics × backend.
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.result import RkNNTResult
from repro.core.semantics import Semantics
from repro.engine.context import ExecutionContext
from repro.engine.executor import Candidate, QueryExecutor, execute
from repro.engine.plan import LOCALITY_ON, QueryPlan
from repro.engine.resilience import Deadline
from repro.geometry import kernels
from repro.geometry.bbox import BoundingBox
from repro.geometry.kernels import BACKEND_NUMPY
from repro.index.rtree import RTreeEntry, RTreeNode

#: One batch job: (query points, excluded route ids).  The same shape the
#: parallel layer ships to shard workers.
Job = Tuple[Sequence[Sequence[float]], FrozenSet[int]]

#: Override the clustering cell size (in coordinate units).  Invalid or
#: non-positive values fall back to the workload-derived default — a
#: mistyped tuning knob must never change answers or crash a query.
LOCALITY_CELL_ENV = "RKNNT_LOCALITY_CELL"

#: Default cell size = workload extent divided by this (so a uniform
#: workload forms ~GRID_DIVISIONS² cells and a clustered one collapses
#: each hotspot into few cells).
GRID_DIVISIONS = 16

#: Shared candidates are re-tested against each member's exact predicate in
#: blocks of this many boxes, bounding the half-plane tensor's size.
RETEST_CHUNK = 512


def locality_cell_override() -> Optional[float]:
    """The ``RKNNT_LOCALITY_CELL`` override as a positive float, or None."""
    raw = os.environ.get(LOCALITY_CELL_ENV, "").strip()
    if raw:
        try:
            value = float(raw)
        except ValueError:
            return None
        if value > 0 and math.isfinite(value):
            return value
    return None


def centroid(points: Sequence[Sequence[float]]) -> Tuple[float, float]:
    """Mean point of a query's points (the grid-snap key coordinate)."""
    xs = sum(float(p[0]) for p in points)
    ys = sum(float(p[1]) for p in points)
    return xs / len(points), ys / len(points)


def default_cell_size(centroids: Sequence[Tuple[float, float]]) -> float:
    """Workload-derived cell size: the centroid extent over GRID_DIVISIONS."""
    if not centroids:
        return 1.0
    xs = [c[0] for c in centroids]
    ys = [c[1] for c in centroids]
    extent = max(max(xs) - min(xs), max(ys) - min(ys))
    if extent <= 0.0:
        return 1.0
    return extent / GRID_DIVISIONS


def dataset_cell_size(context: ExecutionContext) -> Optional[float]:
    """Cell size from the dataset extent: the RR-tree root box over 16.

    Preferred over :func:`default_cell_size` whenever a context is at hand:
    a *clustered* workload's centroid extent is roughly its cluster-spread
    region, so dividing it by 16 fragments exactly the clusters the engine
    exists to exploit.  The dataset extent is workload-independent.
    """
    root = context.route_index.root
    box = getattr(root, "bbox", None) if root is not None else None
    if box is None:
        return None
    extent = max(box.max_x - box.min_x, box.max_y - box.min_y)
    if extent <= 0.0 or not math.isfinite(extent):
        return None
    return extent / GRID_DIVISIONS


def cluster_jobs(jobs: Sequence[Job], cell: Optional[float] = None) -> List[List[int]]:
    """Group job indices by (snap cell of the query centroid, excluded set).

    Deterministic: clusters appear in first-member order and keep their
    members in input order, so repeated runs (and the cluster-aware shard
    assignment built on top) are reproducible.  Queries with different
    excluded-route sets never share a cluster — their filter facts are not
    interchangeable.
    """
    centroids = [centroid(points) for points, _ in jobs]
    size = cell if cell and cell > 0 else locality_cell_override()
    if size is None or size <= 0:
        size = default_cell_size(centroids)
    groups: Dict[Tuple[int, int, FrozenSet[int]], List[int]] = {}
    for index, ((cx, cy), (_, excluded)) in enumerate(zip(centroids, jobs)):
        key = (int(math.floor(cx / size)), int(math.floor(cy / size)), excluded)
        groups.setdefault(key, []).append(index)
    return list(groups.values())


def _elect_pilot(
    members: Sequence[int], centroids: Sequence[Tuple[float, float]]
) -> int:
    """The member nearest the cluster's mean centroid (ties: first member)."""
    mx = sum(centroids[m][0] for m in members) / len(members)
    my = sum(centroids[m][1] for m in members) / len(members)
    best = members[0]
    best_d = float("inf")
    for member in members:
        dx = centroids[member][0] - mx
        dy = centroids[member][1] - my
        d = dx * dx + dy * dy
        if d < best_d:
            best_d = d
            best = member
    return best


def _directed_hausdorff(
    member_points: Sequence[Tuple[float, float]],
    pilot_points: Sequence[Tuple[float, float]],
) -> float:
    """max over member points of the distance to the nearest pilot point.

    This is the translation bound δ of the margin predicate: every member
    query point has a pilot point within δ, so a box provably filtered for
    every query within δ of the pilot is filtered for the member.
    """
    worst = 0.0
    for px, py in member_points:
        best = float("inf")
        for qx, qy in pilot_points:
            dx = px - qx
            dy = py - qy
            d = dx * dx + dy * dy
            if d < best:
                best = d
        worst = max(worst, math.sqrt(best))
    return worst


def _inflate_delta(delta: float) -> float:
    """Inflate δ by 1 part in 10⁹ to absorb float rounding conservatively."""
    return delta + 1e-9 * (1.0 + delta)


def _box_prune_thresholds(
    pilot: QueryExecutor, boxes, query, normalised
) -> List[float]:
    """Per-box prune threshold: the largest δ below which the δ-margin
    crossover accounting reaches ``k`` distinct routes (backend dispatch).

    A box with threshold ``t`` is provably filtered for *every* query
    within directed Hausdorff distance ``δ < t`` of the pilot — the
    δ-margin analogue of ``QueryExecutor._filtered_boxes``, step-1
    crossover accounting only (the per-route Voronoi step is skipped —
    strictly conservative).  The threshold is the slack of the filter point
    whose crossover set completes the accounting when filter points are
    consumed in decreasing-slack order; since reaching ``k`` only depends
    on the *union* of the crossover sets above a slack cutoff, the value is
    independent of tie order and bitwise identical across backends.
    ``-inf`` means the box is not margin-prunable at any δ.
    """
    packed = pilot.filter_set.packed()
    if len(packed) == 0:
        return [float("-inf")] * len(boxes)
    if pilot.backend == BACKEND_NUMPY:
        slack_matrix = kernels.boxes_margin_slack(boxes, packed.points, query)
        # Tie order between equal slacks is irrelevant (see below), so one
        # matrix argsort replaces a per-row sort; .tolist() keeps the
        # accounting loop on plain floats instead of numpy scalars.
        rows_by_slack = (-slack_matrix).argsort(axis=1, kind="stable").tolist()
        slack = slack_matrix.tolist()
    else:
        slack = kernels.boxes_margin_slack(
            [tuple(box) for box in boxes],
            [point for point, _ in pilot.filter_set.points_by_crossover()],
            normalised,
        )
        rows_by_slack = [
            sorted(
                range(len(row_slack)), key=lambda r: (-row_slack[r], r)
            )
            for row_slack in slack
        ]
    thresholds: List[float] = []
    for index in range(len(boxes)):
        dominating: set = set()
        threshold = float("-inf")
        for row in rows_by_slack[index]:
            row_slack = slack[index][row]
            if row_slack <= 0.0:
                # Sorted descending: no later row can yield a positive
                # threshold, and δ ≥ 0 always, so stop here.
                break
            crossover = packed.crossovers[row]
            if crossover <= dominating:
                continue
            dominating.update(crossover - pilot.excluded)
            if len(dominating) >= pilot.k:
                threshold = row_slack
                break
        thresholds.append(threshold)
    return thresholds


#: A shared candidate plus its prune threshold (see
#: :func:`_box_prune_thresholds`): a cluster member at inflated Hausdorff
#: distance ``h`` from the pilot drops the candidate without any exact
#: re-test when ``h < threshold``.
SharedCandidate = Tuple[Candidate, float]


def _margin_prune(
    pilot: QueryExecutor,
    pilot_points: Sequence[Tuple[float, float]],
    delta: float,
) -> List[SharedCandidate]:
    """One TR-tree traversal pruning with the δ-margin predicate.

    ``delta`` is the cluster-wide bound (the largest member Hausdorff
    distance): a box whose threshold exceeds it is filtered for every
    member and discarded outright.  Surviving leaf candidates are returned
    with their individual thresholds, so each member can additionally
    discard the ones its own — usually much smaller — distance still
    covers, and exact re-testing is left only for the truly borderline
    candidates.
    """
    candidates: List[SharedCandidate] = []
    tree = pilot.context.transition_index.tree
    if len(tree) == 0 or tree.root.bbox is None:
        return candidates
    normalised = [(float(p[0]), float(p[1])) for p in pilot_points]
    query = pilot._pack_query(normalised)

    if delta < _box_prune_thresholds(
        pilot, [tree.root.bbox.as_tuple()], query, normalised
    )[0]:
        return candidates
    stack: List[RTreeNode] = [tree.root]
    while stack:
        node = stack.pop()
        boxes = (
            node.packed_child_boxes()
            if pilot.backend == BACKEND_NUMPY
            else node.child_box_tuples()
        )
        thresholds = _box_prune_thresholds(pilot, boxes, query, normalised)
        if node.is_leaf:
            for entry, threshold in zip(node.children, thresholds):
                if delta < threshold:
                    continue
                assert isinstance(entry, RTreeEntry)
                candidates.append(((entry.point, entry.payload), threshold))
        else:
            for child, threshold in zip(node.children, thresholds):
                assert isinstance(child, RTreeNode)
                if not delta < threshold:
                    stack.append(child)
    return candidates


def _run_member(
    context: ExecutionContext,
    member_points: Sequence[Tuple[float, float]],
    k: int,
    plan: QueryPlan,
    excluded: FrozenSet[int],
    pilot: QueryExecutor,
    shared: List[SharedCandidate],
    member_delta: float,
    deadline: Optional[Deadline] = None,
) -> Tuple[Dict[int, set], QueryExecutor]:
    """One neighbour: seed from the pilot, re-test shared candidates, verify.

    The member's executor *shares* the pilot's filter set by reference (it
    never mutates it — only ``filter_routes`` adds points, and that phase
    is skipped entirely).  Shared candidates whose prune threshold exceeds
    ``member_delta`` (the member's inflated directed Hausdorff distance to
    the pilot) are dropped by the slack comparison alone; the borderline
    rest go through the member's exact ``_filtered_boxes`` predicate, which
    recomputes the filtering spaces against the member's own query points.
    A kept candidate is therefore exactly what the member's own prune would
    keep from this superset, and verification is exact as always.
    """
    executor = QueryExecutor(
        context,
        k,
        use_voronoi=plan.use_voronoi,
        exclude_route_ids=excluded,
        backend=plan.backend,
        filter_traversal=plan.filter_traversal,
        deadline=deadline,
    )
    executor.filter_set = pilot.filter_set

    started = time.perf_counter()
    normalised = [(float(p[0]), float(p[1])) for p in member_points]
    query = executor._pack_query(normalised)
    borderline = [
        candidate
        for candidate, threshold in shared
        if not member_delta < threshold
    ]
    kept: List[Candidate] = []
    for start in range(0, len(borderline), RETEST_CHUNK):
        chunk = borderline[start : start + RETEST_CHUNK]
        boxes = [(p[0], p[1], p[0], p[1]) for p, _ in chunk]
        mask = executor._filtered_boxes(boxes, query, normalised)
        kept.extend(cand for cand, filtered in zip(chunk, mask) if not filtered)
    executor.stats.candidates += len(kept)
    executor.stats.filtering_seconds += time.perf_counter() - started
    context.locality_retested += len(borderline)

    started = time.perf_counter()
    confirmed = executor.verify(normalised, kept)
    executor.stats.verification_seconds += time.perf_counter() - started
    return confirmed, executor


def _execute_cluster(
    context: ExecutionContext,
    jobs: Sequence[Job],
    members: Sequence[int],
    centroids: Sequence[Tuple[float, float]],
    k: int,
    plan: QueryPlan,
    semantics: Semantics,
    results: List[Optional[RkNNTResult]],
    deadline: Optional[Deadline] = None,
) -> None:
    """Pilot + seeded neighbours for one multi-member cluster."""
    pilot_index = _elect_pilot(members, centroids)
    pilot_points = [
        (float(p[0]), float(p[1])) for p in jobs[pilot_index][0]
    ]
    excluded = jobs[pilot_index][1]

    pilot = QueryExecutor(
        context,
        k,
        use_voronoi=plan.use_voronoi,
        exclude_route_ids=excluded,
        backend=plan.backend,
        filter_traversal=plan.filter_traversal,
        deadline=deadline,
    )
    confirmed = pilot.run(pilot_points)
    results[pilot_index] = RkNNTResult.from_confirmed(
        confirmed, semantics, k, pilot.stats
    )
    context.locality_clusters += 1

    neighbours = [m for m in members if m != pilot_index]
    member_points = {
        m: [(float(p[0]), float(p[1])) for p in jobs[m][0]] for m in neighbours
    }
    member_delta = {
        m: _inflate_delta(_directed_hausdorff(member_points[m], pilot_points))
        for m in neighbours
    }
    shared = _margin_prune(
        pilot, pilot_points, max(member_delta.values())
    )
    for m in neighbours:
        if deadline is not None:
            deadline.check("query")
        confirmed, executor = _run_member(
            context, member_points[m], k, plan, excluded, pilot, shared,
            member_delta[m], deadline=deadline,
        )
        context.locality_seeded += 1
        results[m] = RkNNTResult.from_confirmed(
            confirmed, semantics, k, executor.stats
        )


def _execute_batch_decomposed(
    context: ExecutionContext,
    jobs: Sequence[Job],
    k: int,
    plan: QueryPlan,
    semantics: Semantics,
    cell: Optional[float],
    deadline: Optional[Deadline] = None,
) -> List[RkNNTResult]:
    """Locality pre-pass for divide & conquer: memo the clustered sub-queries.

    Locality here is the near-hit tier below the context's sub-query memo
    cache: the batch's not-yet-memoised single-point sub-queries are
    clustered, each multi-member cluster is resolved with one pilot plus
    margin-seeded neighbours, and every answer is stored in the memo.  The
    ordinary decomposed execution loop then finds exact hits.  The peek
    uses :meth:`ExecutionContext.subquery_cached` so the pre-pass never
    touches the hit/miss counters.
    """
    pending: List[Tuple[Tuple[float, float], FrozenSet[int]]] = []
    seen = set()
    for points, excluded in jobs:
        for p in points:
            point = (float(p[0]), float(p[1]))
            key = (point, k, excluded, plan.use_voronoi)
            if key in seen or context.subquery_cached(key):
                continue
            seen.add(key)
            pending.append((point, excluded))

    point_jobs: List[Job] = [((point,), excluded) for point, excluded in pending]
    clusters = [c for c in cluster_jobs(point_jobs, cell) if len(c) >= 2]
    centroids = [point for point, _ in pending]
    for members in clusters:
        if deadline is not None:
            deadline.check("query")
        pilot_index = _elect_pilot(members, centroids)
        pilot_point, excluded = pending[pilot_index]
        pilot = QueryExecutor(
            context,
            k,
            use_voronoi=plan.use_voronoi,
            exclude_route_ids=excluded,
            backend=plan.backend,
            filter_traversal=plan.filter_traversal,
            deadline=deadline,
        )
        pilot_confirmed = pilot.run([pilot_point])
        context.subquery_store(
            (pilot_point, k, excluded, plan.use_voronoi),
            {
                transition_id: frozenset(endpoints)
                for transition_id, endpoints in pilot_confirmed.items()
            },
        )
        context.locality_clusters += 1
        neighbours = [m for m in members if m != pilot_index]
        member_delta = {
            m: _inflate_delta(
                _directed_hausdorff([pending[m][0]], [pilot_point])
            )
            for m in neighbours
        }
        shared = _margin_prune(
            pilot, [pilot_point], max(member_delta.values())
        )
        for m in neighbours:
            member_point = pending[m][0]
            confirmed, _ = _run_member(
                context, [member_point], k, plan, excluded, pilot, shared,
                member_delta[m], deadline=deadline,
            )
            context.locality_seeded += 1
            context.subquery_store(
                (member_point, k, excluded, plan.use_voronoi),
                {
                    transition_id: frozenset(endpoints)
                    for transition_id, endpoints in confirmed.items()
                },
            )
    return [
        _checked_execute(
            context, points, k, plan, semantics, excluded, deadline
        )
        for points, excluded in jobs
    ]


def _checked_execute(
    context: ExecutionContext,
    points,
    k: int,
    plan: QueryPlan,
    semantics: Semantics,
    excluded: FrozenSet[int],
    deadline: Optional[Deadline],
) -> RkNNTResult:
    """One plain :func:`execute` call with the batch deadline applied."""
    if deadline is not None:
        deadline.check("query")
    return execute(
        context,
        points,
        k,
        plan,
        semantics,
        exclude_route_ids=excluded,
        deadline=deadline,
    )


def execute_batch(
    context: ExecutionContext,
    jobs: Sequence[Job],
    k: int,
    plan: QueryPlan,
    semantics,
    cell: Optional[float] = None,
    deadline: Optional[Deadline] = None,
) -> List[RkNNTResult]:
    """Answer a batch of RkNNT queries, sharing filter work across clusters.

    With the locality engine off (the default) this is exactly the serial
    loop the processor always ran — one :func:`repro.engine.executor
    .execute` call per job.  With it on, spatially clustered jobs share
    their pilot's filter set as described in the module docstring; answers
    are identical either way, which ``tests/test_locality.py`` asserts
    differentially.
    """
    plan = plan.resolved()
    semantics = Semantics.coerce(semantics)
    normalised_jobs: List[Job] = [
        (points, frozenset(excluded or ())) for points, excluded in jobs
    ]
    if cell is None or cell <= 0:
        cell = locality_cell_override() or dataset_cell_size(context)
    if plan.locality != LOCALITY_ON or len(normalised_jobs) < 2:
        return [
            _checked_execute(context, points, k, plan, semantics, excluded, deadline)
            for points, excluded in normalised_jobs
        ]
    if plan.decompose:
        if not plan.share_subquery_cache:
            return [
                _checked_execute(
                    context, points, k, plan, semantics, excluded, deadline
                )
                for points, excluded in normalised_jobs
            ]
        return _execute_batch_decomposed(
            context, normalised_jobs, k, plan, semantics, cell, deadline=deadline
        )

    centroids = [centroid(points) for points, _ in normalised_jobs]
    results: List[Optional[RkNNTResult]] = [None] * len(normalised_jobs)
    for members in cluster_jobs(normalised_jobs, cell):
        if len(members) < 2:
            index = members[0]
            points, excluded = normalised_jobs[index]
            results[index] = _checked_execute(
                context, points, k, plan, semantics, excluded, deadline
            )
            continue
        _execute_cluster(
            context, normalised_jobs, members, centroids, k, plan, semantics,
            results, deadline=deadline,
        )
    return [result for result in results if result is not None]
