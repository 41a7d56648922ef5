"""The staged query executor: one pipeline behind all three methods.

:class:`QueryExecutor` generalises the seed's ``FilterRefineEngine`` into a
backend-parameterised pipeline (Algorithms 1–4 of the paper):

* **filter** — best-first RR-tree traversal building the filtering set;
* **prune** — TR-tree traversal discarding nodes and endpoints dominated by
  at least ``k`` distinct routes, testing whole child/entry blocks per
  kernel call on the vectorized backend;
* **verify** — exact confirmation of the survivors, either through the
  RR-tree (scalar backend) or against the context's flattened route matrix
  in one reduction (numpy backend).

Both backends evaluate the same elementary-float expressions, so they return
element-wise identical answers; the differential tests in
``tests/test_engine_batch.py`` assert exactly that, per method and per
semantics, against the brute-force oracle.

The module-level :func:`execute` function adds the strategy layer on top
(per-point decomposition for divide & conquer, with sub-query memoisation
through the :class:`~repro.engine.context.ExecutionContext`) and is what
:class:`~repro.core.rknnt.RkNNTProcessor` calls — once per query, against
its shared context, for both single and batch workloads.  One further
strategy, ``KNN_RADIUS``, is internal to the planning pre-computation: it
answers a single-point query from the context's k-th-route radius table and
never runs the pipeline.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.knn import count_routes_within_sq, query_distance_sq
from repro.core.result import RkNNTResult
from repro.core.semantics import Semantics
from repro.core.stats import QueryStatistics
from repro.engine.context import ExecutionContext
from repro.engine.filterset import FilterSet
from repro.engine.plan import KNN_RADIUS, QueryPlan
from repro.engine.resilience import Deadline
from repro.geometry import kernels
from repro.geometry.bbox import BoundingBox
from repro.geometry.halfspace import filtering_space_contains_bbox
from repro.geometry.kernels import BACKEND_NUMPY, resolve_backend
from repro.geometry.voronoi import voronoi_prunes_bbox
from repro.index.rtree import RTreeEntry, RTreeNode
from repro.index.transition_index import TransitionEntry

QueryPoints = Sequence[Sequence[float]]
Candidate = Tuple[Tuple[float, float], TransitionEntry]
ConfirmedEndpoints = Dict[int, Set[str]]


class QueryExecutor:
    """Executes one RkNNT query as a filter → prune → verify pipeline.

    Parameters
    ----------
    context:
        Shared per-dataset execution state (indexes plus caches).
    k:
        The ``k`` of the reverse k nearest neighbour query.
    use_voronoi:
        Enable the Voronoi per-route filtering optimisation (Section 5.1).
    exclude_route_ids:
        Routes that must not count against candidates (used when the query is
        an existing route still present in the index).
    backend:
        Geometry-kernel backend (``"auto"`` / ``"numpy"`` / ``"python"``).
    deadline:
        Optional :class:`~repro.engine.resilience.Deadline` checked at the
        pipeline's stage boundaries.  Deadlines only ever *raise*
        (:class:`~repro.engine.resilience.DeadlineExceeded`) — a query that
        completes within its budget is untouched by them.
    """

    def __init__(
        self,
        context: ExecutionContext,
        k: int,
        use_voronoi: bool = False,
        exclude_route_ids: Optional[Iterable[int]] = None,
        backend: str = "python",
        deadline: Optional[Deadline] = None,
    ):
        if k <= 0:
            raise ValueError("k must be positive")
        self.context = context
        self.k = k
        self.use_voronoi = use_voronoi
        self.excluded: FrozenSet[int] = frozenset(exclude_route_ids or ())
        self.backend = resolve_backend(backend)
        self.deadline = deadline
        self.stats = QueryStatistics()
        self.filter_set = FilterSet()
        self.refine_nodes: List[RTreeNode] = []

    # ------------------------------------------------------------------
    # Algorithm 3: IsFiltered
    # ------------------------------------------------------------------
    def is_filtered(self, box: BoundingBox, query_points: QueryPoints) -> bool:
        """True when at least ``k`` distinct routes provably dominate ``box``."""
        if self.backend == BACKEND_NUMPY:
            query = kernels.pack_points(
                [(float(p[0]), float(p[1])) for p in query_points]
            )
            return self._filtered_mask([box.as_tuple()], query)[0]
        return self._is_filtered_scalar(box, query_points)

    def _is_filtered_scalar(
        self, box: BoundingBox, query_points: QueryPoints
    ) -> bool:
        """Scalar predicate: one box against the scalar geometry functions."""
        dominating: Set[int] = set()
        # Step 1: individual filter points, highest crossover degree first.
        for point, crossover in self.filter_set.points_by_crossover():
            if len(dominating) >= self.k:
                return True
            if crossover <= dominating:
                continue
            if filtering_space_contains_bbox(box, point, query_points):
                dominating.update(crossover - self.excluded)
        if len(dominating) >= self.k:
            return True
        # Step 2: whole filtering routes via the Voronoi filtering space.
        if self.use_voronoi:
            for route_id in self.filter_set.route_ids:
                if len(dominating) >= self.k:
                    return True
                if route_id in dominating or route_id in self.excluded:
                    continue
                route_points = self.filter_set.route_points(route_id)
                if len(route_points) < 2:
                    continue
                if voronoi_prunes_bbox(box, route_points, query_points):
                    dominating.add(route_id)
        return len(dominating) >= self.k

    def _filtered_mask(self, boxes, query) -> List[bool]:
        """Vectorized predicate: a whole block of boxes per kernel call.

        The half-plane truth tensor for all (box, filter point, query point)
        triples is evaluated in one numpy expression; only the set-union
        accounting (which routes dominate, did we reach ``k``) remains in
        Python, iterating the usually tiny number of surviving rows.  The
        Voronoi step is likewise batched *across boxes*: one kernel call per
        eligible route over the step-1 survivors, instead of one per
        (box, route) pair.  The union a box accumulates is order-independent,
        so the verdicts are identical to the per-box loop — the differential
        and block/node equivalence tests pin this down.
        """
        packed = self.filter_set.packed()
        if len(packed) == 0:
            return [False] * len(boxes)
        tensor = kernels.boxes_halfplane_tensor(boxes, packed.points, query)
        all_q = tensor.all(axis=2)
        results = [False] * len(boxes)
        undecided: List[int] = []
        partial: List[Set[int]] = []
        for index in range(len(boxes)):
            # Step 1: filter points whose filtering space contains the box.
            dominating: Set[int] = set()
            for row in _true_indices(all_q[index]):
                crossover = packed.crossovers[row]
                if crossover <= dominating:
                    continue
                dominating.update(crossover - self.excluded)
                if len(dominating) >= self.k:
                    break
            if len(dominating) >= self.k:
                results[index] = True
            elif self.use_voronoi and packed.route_rows:
                undecided.append(index)
                partial.append(dominating)
        if undecided:
            self._decide_boxes_voronoi(tensor, undecided, partial, packed, results)
        return results

    def _decide_boxes_voronoi(
        self, tensor, undecided, partial, packed, results
    ) -> None:
        """Step 2 for the boxes step 1 left short of ``k`` dominators.

        For each eligible route (≥ 2 filter points, not excluded) the Voronoi
        domination verdict is computed for *all* still-undecided boxes in one
        kernel call; the per-box set accounting then consumes the verdict
        vector.  A box drops out of ``live`` as soon as it reaches ``k``.
        """
        sub = tensor[undecided]
        live = list(range(len(undecided)))
        for route_id, rows in packed.route_rows.items():
            if not live:
                return
            if len(rows) < 2 or route_id in self.excluded:
                continue
            verdicts = kernels.routes_dominate_boxes(sub, rows)
            still: List[int] = []
            for pos in live:
                if verdicts[pos]:
                    dominating = partial[pos]
                    dominating.add(route_id)
                    if len(dominating) >= self.k:
                        results[undecided[pos]] = True
                        continue
                still.append(pos)
            live = still

    # ------------------------------------------------------------------
    # Algorithm 2: FilterRoute
    # ------------------------------------------------------------------
    def filter_routes(self, query_points: QueryPoints) -> None:
        """Traverse the RR-tree, building the filter set and the refine set.

        A best-first heap with block expansion: when the best node is
        expanded, all of its children are scored *and* filter-tested in one
        kernel call; only the survivors are pushed.  A pushed survivor is
        re-tested at its own pop only when the filter set grew in between
        (tracked via :attr:`FilterSet.generation`) — the predicate is
        monotone in the filter set, so an unchanged set cannot flip the
        earlier verdict.
        """
        tree = self.context.route_index.tree
        if len(tree) == 0 or tree.root.bbox is None:
            return
        normalised = [(float(p[0]), float(p[1])) for p in query_points]
        query = self._pack_query(normalised)
        counter = itertools.count()
        # Heap items carry the filter-set generation their push-time filter
        # test ran against (-1 = never tested: the root, and leaf entries).
        heap: List[Tuple[float, int, object, int]] = [
            (
                tree.root.bbox.min_dist_sq_to_query(normalised),
                next(counter),
                tree.root,
                -1,
            )
        ]
        while heap:
            _, _, item, tested_generation = heapq.heappop(heap)
            if isinstance(item, RTreeNode):
                self.stats.route_nodes_visited += 1
                if tested_generation != self.filter_set.generation:
                    assert item.bbox is not None
                    if self._filtered_boxes(
                        [item.bbox.as_tuple()], query, normalised
                    )[0]:
                        self.refine_nodes.append(item)
                        self.stats.nodes_pruned += 1
                        continue
                self._expand_route_node(item, query, normalised, counter, heap)
            else:
                assert isinstance(item, RTreeEntry)
                crossover = frozenset(item.payload) - self.excluded
                if not crossover:
                    continue
                self.filter_set.add(item.point, crossover)
                self.stats.filter_points += 1

    def _expand_route_node(
        self, node: RTreeNode, query, normalised, counter, heap
    ) -> None:
        """Score, filter-test and push all children of ``node`` as one block."""
        distances = self._child_distances(node, query, normalised)
        if node.is_leaf:
            # Leaf entries are never filter-tested (they *become* filter
            # points when popped); only their ordering keys are needed.
            for child, distance in zip(node.children, distances):
                heapq.heappush(heap, (float(distance), next(counter), child, -1))
            return
        mask = self._filtered_boxes(self._node_boxes(node), query, normalised)
        generation = self.filter_set.generation
        for child, distance, filtered in zip(node.children, distances, mask):
            assert isinstance(child, RTreeNode)
            if filtered:
                # Pruned at expansion time: account for it exactly as its
                # own pop would have (visited + pruned), and keep it for the
                # verification phase.
                self.stats.route_nodes_visited += 1
                self.refine_nodes.append(child)
                self.stats.nodes_pruned += 1
                continue
            heapq.heappush(
                heap, (float(distance), next(counter), child, generation)
            )

    # ------------------------------------------------------------------
    # Algorithm 4: PruneTransition
    # ------------------------------------------------------------------
    def prune_transitions(self, query_points: QueryPoints) -> List[Candidate]:
        """Traverse the TR-tree, returning the candidate endpoints.

        The filtering set is frozen by the time this runs, so pruning
        decisions are order-independent: children of a node are tested as
        one block per kernel call, and pruned subtrees are never descended.
        """
        candidates: List[Candidate] = []
        tree = self.context.transition_index.tree
        if len(tree) == 0 or tree.root.bbox is None:
            return candidates
        normalised = [(float(p[0]), float(p[1])) for p in query_points]
        query = self._pack_query(normalised)

        self.stats.transition_nodes_visited += 1
        if self._filtered_boxes([tree.root.bbox.as_tuple()], query, normalised)[0]:
            self.stats.nodes_pruned += 1
            return candidates

        stack: List[RTreeNode] = [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                mask = self._filtered_boxes(self._node_boxes(node), query, normalised)
                for entry, filtered in zip(node.children, mask):
                    if filtered:
                        continue
                    assert isinstance(entry, RTreeEntry)
                    candidates.append((entry.point, entry.payload))
            else:
                mask = self._filtered_boxes(self._node_boxes(node), query, normalised)
                for child, filtered in zip(node.children, mask):
                    assert isinstance(child, RTreeNode)
                    # Every examined node counts as visited (pruned ones
                    # too), matching the filter phase and the seed's
                    # popped-node accounting.
                    self.stats.transition_nodes_visited += 1
                    if filtered:
                        self.stats.nodes_pruned += 1
                        continue
                    stack.append(child)
        self.stats.candidates += len(candidates)
        return candidates

    def _filtered_boxes(self, boxes, query, query_points) -> List[bool]:
        """Backend dispatch for a block of box tuples."""
        if self.backend == BACKEND_NUMPY:
            return self._filtered_mask(boxes, query)
        return [
            self._is_filtered_scalar(BoundingBox(*box), query_points)
            for box in boxes
        ]

    def _node_boxes(self, node: RTreeNode):
        """Child boxes of ``node`` in the backend's block representation.

        The numpy backend consumes the node's cached packed array (leaf
        entries contribute degenerate boxes, exactly what the pruning tests
        expect).
        The scalar backend keeps plain tuples so no numpy machinery is
        touched on its path.
        """
        if self.backend == BACKEND_NUMPY:
            return node.packed_child_boxes()
        return node.child_box_tuples()

    def _pack_query(self, normalised):
        """Query points in the representation the backend consumes.

        The scalar backend keeps the plain tuple list so that no kernel
        (and hence no numpy machinery) is touched on its path.
        """
        if self.backend == BACKEND_NUMPY:
            return kernels.pack_points(normalised)
        return normalised

    def _child_distances(self, node: RTreeNode, query, normalised):
        """Squared MinDist of every child of ``node`` to the query.

        On the numpy backend one kernel call orders the whole child block;
        the scalar backend walks the children exactly as the seed did.
        """
        if self.backend == BACKEND_NUMPY:
            return kernels.boxes_min_dist_sq_to_query(
                node.packed_child_boxes(), query
            )
        distances = []
        for child in node.children:
            if isinstance(child, RTreeNode):
                assert child.bbox is not None
                distances.append(child.bbox.min_dist_sq_to_query(normalised))
            else:
                distances.append(query_distance_sq(child.point, normalised))
        return distances

    # ------------------------------------------------------------------
    # Section 4.2.3: verification
    # ------------------------------------------------------------------
    def verify(
        self, query_points: QueryPoints, candidates: List[Candidate]
    ) -> ConfirmedEndpoints:
        """Exactly verify each candidate endpoint.

        A candidate endpoint is confirmed when fewer than ``k`` distinct
        routes are strictly closer to it than the query.  The scalar backend
        counts through the RR-tree with the NList shortcut — which reads
        each node's packed sorted-id union, a slice of the mapped NList
        column on store-booted indexes (see :mod:`repro.engine.columnar`);
        the numpy backend reduces the context's flattened route matrix — both
        compare the same squared distances, so the decisions coincide
        exactly.
        """
        confirmed: ConfirmedEndpoints = {}
        if not candidates:
            return confirmed
        if self.backend == BACKEND_NUMPY:
            matrix = self.context.route_matrix()
            points = kernels.pack_points([point for point, _ in candidates])
            thresholds = kernels.points_min_dist_sq_to_query(
                points,
                kernels.pack_points(
                    [(float(p[0]), float(p[1])) for p in query_points]
                ),
            )
            # The route matrix is chunked by route blocks (each route lives
            # in exactly one block), so per-block closer-route counts sum to
            # the global distinct-route count.
            counts = None
            for block in matrix.blocks:
                block_counts = kernels.count_closer_routes(
                    points,
                    thresholds,
                    block.points,
                    block.offsets,
                    excluded_columns=block.excluded_columns(self.excluded),
                )
                counts = (
                    block_counts if counts is None else counts + block_counts
                )
            if counts is None:
                counts = [0] * len(candidates)
            for (point, tag), closer in zip(candidates, counts):
                if closer < self.k:
                    confirmed.setdefault(tag.transition_id, set()).add(
                        tag.endpoint
                    )
                    self.stats.confirmed_points += 1
            return confirmed
        for point, tag in candidates:
            threshold_sq = query_distance_sq(point, query_points)
            closer = count_routes_within_sq(
                self.context.route_index,
                point,
                threshold_sq,
                stop_at=self.k,
                exclude_route_ids=set(self.excluded),
                backend=self.backend,
            )
            if closer < self.k:
                confirmed.setdefault(tag.transition_id, set()).add(tag.endpoint)
                self.stats.confirmed_points += 1
        return confirmed

    # ------------------------------------------------------------------
    # Algorithm 1: the full pipeline
    # ------------------------------------------------------------------
    def run(self, query_points: QueryPoints) -> ConfirmedEndpoints:
        """Execute filter → prune → verify and return confirmed endpoints."""
        query = [(float(p[0]), float(p[1])) for p in query_points]
        if not query:
            raise ValueError("query must contain at least one point")

        started = time.perf_counter()
        if self.deadline is not None:
            self.deadline.check("filter stage")
        self.filter_routes(query)
        if self.deadline is not None:
            self.deadline.check("prune stage")
        candidates = self.prune_transitions(query)
        self.stats.filtering_seconds += time.perf_counter() - started

        started = time.perf_counter()
        if self.deadline is not None:
            self.deadline.check("verify stage")
        confirmed = self.verify(query, candidates)
        self.stats.verification_seconds += time.perf_counter() - started
        return confirmed


def _true_indices(mask) -> Iterable[int]:
    """Indices of True entries, for either a numpy mask or a plain list."""
    if hasattr(mask, "nonzero"):
        return mask.nonzero()[0].tolist()
    return [index for index, value in enumerate(mask) if value]


# ----------------------------------------------------------------------
# Strategy layer: whole queries (and batches) against a context
# ----------------------------------------------------------------------
def run_stages(
    context: ExecutionContext,
    query_points: QueryPoints,
    k: int,
    plan: QueryPlan,
    exclude_route_ids: Optional[Iterable[int]] = None,
    deadline: Optional[Deadline] = None,
) -> Tuple[ConfirmedEndpoints, QueryStatistics]:
    """Run one query under ``plan``; returns (confirmed endpoints, stats)."""
    plan = plan.resolved()
    excluded = frozenset(exclude_route_ids or ())
    if plan.method == KNN_RADIUS:
        return _run_knn_radius(context, query_points, k, plan, excluded, deadline)
    if not plan.decompose:
        executor = QueryExecutor(
            context,
            k,
            use_voronoi=plan.use_voronoi,
            exclude_route_ids=excluded,
            backend=plan.backend,
            deadline=deadline,
        )
        return executor.run(query_points), executor.stats
    return _run_decomposed(context, query_points, k, plan, excluded, deadline)


def _run_decomposed(
    context: ExecutionContext,
    query_points: QueryPoints,
    k: int,
    plan: QueryPlan,
    excluded: FrozenSet[int],
    deadline: Optional[Deadline] = None,
) -> Tuple[ConfirmedEndpoints, QueryStatistics]:
    """Divide & conquer: one single-point sub-query per query point (Lemma 3).

    Sub-query statistics are *summed* into the aggregate (every counter and
    both phase timings), so the parent result reports the full cost of all
    sub-queries.  Memoised sub-queries contribute only to ``subqueries`` —
    no traversal work happened for them.
    """
    points = [(float(p[0]), float(p[1])) for p in query_points]
    if not points:
        raise ValueError("query must contain at least one point")

    aggregate = QueryStatistics(subqueries=0)
    confirmed: ConfirmedEndpoints = {}
    for point in points:
        if deadline is not None:
            deadline.check("sub-query")
        key = (point, k, excluded, plan.use_voronoi)
        cached = (
            context.subquery_lookup(key) if plan.share_subquery_cache else None
        )
        if cached is None:
            executor = QueryExecutor(
                context,
                k,
                use_voronoi=plan.use_voronoi,
                exclude_route_ids=excluded,
                backend=plan.backend,
                deadline=deadline,
            )
            sub_confirmed = executor.run([point])
            aggregate.merge(executor.stats)
            if plan.share_subquery_cache:
                context.subquery_store(
                    key,
                    {
                        transition_id: frozenset(endpoints)
                        for transition_id, endpoints in sub_confirmed.items()
                    },
                )
        else:
            sub_confirmed = cached
            aggregate.subqueries += 1
        for transition_id, endpoints in sub_confirmed.items():
            confirmed.setdefault(transition_id, set()).update(endpoints)
    return confirmed, aggregate


def _run_knn_radius(
    context: ExecutionContext,
    query_points: QueryPoints,
    k: int,
    plan: QueryPlan,
    excluded: FrozenSet[int],
    deadline: Optional[Deadline] = None,
) -> Tuple[ConfirmedEndpoints, QueryStatistics]:
    """Single-point query answered from the k-th-route radius table.

    Endpoint ``p`` is confirmed iff fewer than ``k`` routes are strictly
    closer to ``p`` than ``q``, i.e. iff ``|p − q|² <= r_k²(p)`` — the
    verify stage's comparison on the same float values, so the answers are
    the pipeline's and the brute-force oracle's.  Every endpoint is a
    candidate; the one-off table build is charged to the query that
    triggers it.
    """
    if excluded:
        raise ValueError("the k-th-route radius strategy cannot exclude routes")
    if len(query_points) != 1:
        raise ValueError(
            "the k-th-route radius strategy answers single-point queries only"
        )
    if deadline is not None:
        deadline.check("radius lookup")
    qx, qy = float(query_points[0][0]), float(query_points[0][1])
    started = time.perf_counter()
    table = context.knn_radii(k, plan.backend)
    if plan.backend == BACKEND_NUMPY:
        distances = kernels.points_dist_sq_to_point(table.points, (qx, qy))
        hits = (distances <= table.radii_sq).nonzero()[0].tolist()
    else:
        hits = []
        for index, ((x, y), radius_sq) in enumerate(
            zip(table.points, table.radii_sq)
        ):
            dx = x - qx
            dy = y - qy
            if dx * dx + dy * dy <= radius_sq:
                hits.append(index)
    confirmed: ConfirmedEndpoints = {}
    for index in hits:
        transition_id, endpoint = table.tags[index]
        confirmed.setdefault(transition_id, set()).add(endpoint)
    stats = QueryStatistics(
        candidates=len(table),
        confirmed_points=len(hits),
        verification_seconds=time.perf_counter() - started,
    )
    return confirmed, stats


def execute(
    context: ExecutionContext,
    query_points: QueryPoints,
    k: int,
    plan: QueryPlan,
    semantics: Union[Semantics, str],
    exclude_route_ids: Optional[Iterable[int]] = None,
    deadline: Optional[Deadline] = None,
) -> RkNNTResult:
    """Answer one RkNNT query under ``plan`` and wrap it in a result.

    Batch workloads call this once per query against a shared context
    (see :func:`execute_batch`); the processor layer owns per-query
    concerns such as a Route query excluding itself.  ``deadline`` is
    checked between pipeline stages
    and between divide & conquer sub-queries; on expiry the query raises
    :class:`~repro.engine.resilience.DeadlineExceeded` instead of
    returning a partial answer.
    """
    semantics = Semantics.coerce(semantics)
    confirmed, stats = run_stages(
        context, query_points, k, plan, exclude_route_ids, deadline=deadline
    )
    return RkNNTResult.from_confirmed(confirmed, semantics, k, stats)


def execute_batch(
    context: ExecutionContext,
    jobs: Iterable[Tuple[QueryPoints, Optional[Iterable[int]]]],
    k: int,
    plan: QueryPlan,
    semantics: Union[Semantics, str],
    deadline: Optional[Deadline] = None,
) -> List[RkNNTResult]:
    """Answer ``(query points, excluded route ids)`` jobs in order.

    One :func:`execute` call per job against the shared context, with
    ``deadline`` checked before every job as well as inside it.
    """
    results: List[RkNNTResult] = []
    for points, excluded in jobs:
        if deadline is not None:
            deadline.check("query")
        results.append(
            execute(
                context,
                points,
                k,
                plan,
                semantics,
                exclude_route_ids=excluded,
                deadline=deadline,
            )
        )
    return results
