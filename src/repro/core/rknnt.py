"""Top-level RkNNT query interface (Algorithm 1 plus the method variants).

:class:`RkNNTProcessor` owns the RR-tree and TR-tree for a pair of datasets
and answers queries with any of the three strategies evaluated in the paper:

========================  =====================================================
method                    description
========================  =====================================================
``"filter-refine"``       basic half-space filtering (Section 4)
``"voronoi"``             plus the per-route Voronoi filtering space (Sec. 5.1)
``"divide-conquer"``      one sub-query per query point, results unioned
                          (Section 5.2, Lemma 3)
========================  =====================================================

All three strategies run on the unified execution engine
(:mod:`repro.engine`): a method name is just a :class:`~repro.engine.plan
.QueryPlan`, and the processor owns one
:class:`~repro.engine.context.ExecutionContext` whose per-dataset caches are
shared by every query it answers.  :meth:`RkNNTProcessor.query_batch`
evaluates a whole workload through that shared context on the vectorized
geometry kernels; its results are element-wise identical to per-query
:meth:`RkNNTProcessor.query` calls.

The processor also exposes the dynamic-update entry points (add/remove routes
and transitions) so that the "most up-to-date transition data" requirement of
the paper is satisfied without rebuilding the indexes — the engine caches
invalidate automatically through the indexes' version counters.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.engine.parallel import ShardedExecutor

from repro.core.result import RkNNTResult
from repro.core.semantics import EXISTS, Semantics
from repro.engine import resilience
from repro.engine.context import ExecutionContext
from repro.engine.continuous import ContinuousRkNNT, ResultDelta, Subscription
from repro.engine.executor import execute, execute_batch
from repro.engine.plan import (
    DIVIDE_CONQUER,
    FILTER_REFINE,
    METHODS,
    QueryPlan,
    VORONOI,
)
from repro.geometry.kernels import BACKEND_AUTO, BACKEND_PYTHON
from repro.index.route_index import RouteIndex
from repro.index.transition_index import TransitionIndex
from repro.model.dataset import RouteDataset, TransitionDataset
from repro.model.route import Route
from repro.model.transition import Transition

QueryLike = Union[Route, Sequence[Sequence[float]]]

#: The method names are re-exported here because this module is the public
#: entry point: callers that construct a processor also pick a method.
__all__ = [
    "DIVIDE_CONQUER",
    "FILTER_REFINE",
    "METHODS",
    "VORONOI",
    "QueryLike",
    "RkNNTProcessor",
    "as_query_points",
    "rknnt_query",
]


def as_query_points(query: QueryLike) -> list:
    """Normalise a query (Route or point sequence) into a list of points."""
    if isinstance(query, Route):
        return [(p.x, p.y) for p in query.points]
    points = [(float(p[0]), float(p[1])) for p in query]
    if not points:
        raise ValueError("query must contain at least one point")
    return points


class RkNNTProcessor:
    """Answers RkNNT queries over a route set and a transition set.

    Parameters
    ----------
    routes:
        The route dataset ``DR``.
    transitions:
        The transition dataset ``DT``.
    max_entries:
        Fanout of both R-trees.
    exclude_route_ids:
        Route ids excluded from the RR-tree (used when querying with an
        existing route, mirroring the paper's "remove the points of this
        route from the RR-tree index before running each query").
    """

    def __init__(
        self,
        routes: RouteDataset,
        transitions: TransitionDataset,
        max_entries: int = 16,
        exclude_route_ids: Optional[Iterable[int]] = None,
    ):
        self.routes = routes
        self.transitions = transitions
        self._excluded: Set[int] = set(exclude_route_ids or ())
        self.route_index = RouteIndex(
            routes, max_entries=max_entries, exclude_route_ids=self._excluded
        )
        self.transition_index = TransitionIndex(transitions, max_entries=max_entries)
        #: Shared engine state (route matrices, radius tables) reused
        #: by every query this processor answers; see ``repro.engine``.
        self.engine_context = ExecutionContext(
            self.route_index, self.transition_index
        )
        self._continuous: Optional[ContinuousRkNNT] = None
        self._serving_pool = None

    @classmethod
    def from_store(cls, source) -> "RkNNTProcessor":
        """Boot a processor straight from a persistent store file, in O(1).

        ``source`` is a path to a file written by :func:`repro.engine.store
        .save_indexes` (the CLI ``pack`` command), or an already-minted
        :class:`~repro.engine.store.StoreHandle`.  Both indexes install
        their columns lazily over read-only ``mmap`` views, so this returns
        in constant time regardless of dataset size and the OS shares the
        column pages between every process attached to the same file.  The
        resulting processor answers identically to one built from the
        datasets; its serving pools reseed by shipping the store handle
        instead of a context pickle.  Raises
        :class:`~repro.engine.resilience.StoreError` when the file is
        missing, corrupt or of an unsupported version.
        """
        from repro.engine import store as store_module

        if isinstance(source, store_module.StoreHandle):
            handle = source
        else:
            handle = store_module.open_handle(source)
        context = store_module.attach_context(handle)
        processor = cls.__new__(cls)
        processor.route_index = context.route_index
        processor.transition_index = context.transition_index
        processor.engine_context = context
        processor._excluded = set(context.route_index.excluded_route_ids)
        processor._continuous = None
        processor._serving_pool = None
        return processor

    def __getattr__(self, name):
        # Only reached when an attribute is missing: a store-booted
        # processor (from_store) resolves its dataset attributes from the
        # lazy indexes on first touch, keeping the boot itself O(1).
        if name == "routes" and "route_index" in self.__dict__:
            self.routes = self.route_index.routes
            return self.routes
        if name == "transitions" and "transition_index" in self.__dict__:
            self.transitions = self.transition_index.transitions
            return self.transitions
        raise AttributeError(name)

    @property
    def continuous(self) -> ContinuousRkNNT:
        """The lazily-created continuous-query manager of this processor."""
        if self._continuous is None:
            self._continuous = ContinuousRkNNT(self.engine_context)
        return self._continuous

    # ------------------------------------------------------------------
    # Serving pool (persistent worker pool)
    # ------------------------------------------------------------------
    @property
    def active_serving_pool(self):
        """The live persistent pool, or ``None`` (see :meth:`serving_pool`)."""
        return self._serving_pool

    @contextmanager
    def serving_pool(
        self,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        start_method: Optional[str] = None,
        queue_limit: Optional[int] = None,
    ) -> Iterator["ShardedExecutor"]:
        """Keep one worker pool alive across every parallel call in scope.

        Inside the ``with`` block, :meth:`query_batch` (any ``workers > 0``)
        and :meth:`refresh_subscriptions` both dispatch through this one pool
        instead of spawning a fresh pool per call — workers keep their
        seeded context and warmed caches between calls, so dispatch latency
        stops scaling with dataset size.  A store-booted processor seeds
        its workers with the store handle (O(1) attach) while its indexes
        are still at the packed versions; every other pool ships the
        columnar context pickle.

        Dynamic updates stay correct while the pool is live: transition
        churn is forwarded to the workers as version-counted deltas (their
        caches invalidate or delta-patch instead of being rebuilt), and
        route churn reseeds the pool transparently.

        Parameters are those of
        :class:`~repro.engine.parallel.ShardedExecutor`; ``workers=None``
        uses every available CPU, and ``start_method=None`` defers to
        ``RKNNT_START_METHOD`` (else ``fork`` on Linux, the platform
        default elsewhere) — the columnar context pickle makes serving
        start-method-agnostic, so ``spawn`` (macOS/Windows) answers
        identically.  The pool is shut down on exit, crash included.

        ``queue_limit`` bounds in-flight shard tasks (admission control
        with :class:`~repro.engine.resilience.PoolSaturated`
        backpressure); ``None`` defers to ``RKNNT_QUEUE_LIMIT``.  Pool
        failures are retried with backoff and, past ``RKNNT_MAX_RESEEDS``,
        degrade to in-process execution with identical answers — see
        :mod:`repro.engine.resilience`.
        """
        from repro.engine.parallel import ShardedExecutor

        if self._serving_pool is not None:
            raise RuntimeError("a serving pool is already active for this processor")
        pool = ShardedExecutor(
            self.engine_context,
            workers=workers,
            chunk_size=chunk_size,
            start_method=start_method,
            queue_limit=queue_limit,
        )
        self._serving_pool = pool
        try:
            yield pool
        finally:
            if self._serving_pool is pool:
                self._serving_pool = None
            pool.close()

    def close(self) -> None:
        """Release long-lived resources (idempotent).

        Shuts the persistent serving pool down and cancels every standing
        subscription.
        Query entry points remain usable afterwards — the serial path needs
        nothing closed, and a later parallel call simply builds fresh
        state.
        """
        if self._serving_pool is not None:
            self._serving_pool.close()
            self._serving_pool = None
        if self._continuous is not None:
            self._continuous.close()

    def __enter__(self) -> "RkNNTProcessor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dynamic updates
    # ------------------------------------------------------------------
    def add_route(self, route: Route) -> None:
        """Add a new route to the dataset and the RR-tree."""
        self.routes.add(route)
        self.route_index.add_route(route)

    def remove_route(self, route_id: int) -> Route:
        """Remove a route from the dataset and the RR-tree."""
        route = self.routes.remove(route_id)
        self.route_index.remove_route(route)
        return route

    def add_transition(self, transition: Transition) -> None:
        """Add a new transition (e.g. an incoming ride request)."""
        self.transitions.add(transition)
        self.transition_index.add_transition(transition)

    def remove_transition(self, transition_id: int) -> Transition:
        """Remove an expired transition."""
        transition = self.transitions.remove(transition_id)
        self.transition_index.remove_transition(transition)
        return transition

    # ------------------------------------------------------------------
    # Query evaluation
    # ------------------------------------------------------------------
    def _resolve_exclusions(
        self, query: QueryLike, exclude_route_ids: Optional[Iterable[int]]
    ) -> Set[int]:
        """Construction-time exclusions plus per-query ones (and the query
        route itself when it is still part of the dataset)."""
        excluded = set(self._excluded)
        if exclude_route_ids is not None:
            excluded.update(exclude_route_ids)
        if isinstance(query, Route) and query.route_id in self.routes:
            excluded.add(query.route_id)
        return excluded

    def query(
        self,
        query: QueryLike,
        k: int,
        method: str = VORONOI,
        semantics: Union[Semantics, str] = EXISTS,
        exclude_route_ids: Optional[Iterable[int]] = None,
        backend: str = BACKEND_AUTO,
    ) -> RkNNTResult:
        """Answer ``RkNNT(query)`` with the chosen method and semantics.

        Parameters
        ----------
        query:
            A :class:`~repro.model.route.Route` or a sequence of points.
        k:
            Number of nearest routes considered per transition endpoint.
        method:
            One of ``"filter-refine"``, ``"voronoi"`` or ``"divide-conquer"``.
        semantics:
            ``"exists"`` (default) or ``"forall"``.
        exclude_route_ids:
            Extra routes to ignore for this query only (combined with the
            construction-time exclusions).  If the query is an existing route
            of the dataset, pass its id here so it does not compete with
            itself.
        backend:
            Geometry-kernel backend.  ``"auto"`` (the default) runs the
            vectorized kernels; ``"python"`` runs the scalar predicates, which
            measured 5–11× slower on single nyc×1.5 queries (k = 10).
            Answers and every statistics counter are equal across backends.

        Returns
        -------
        RkNNTResult
            The matching transition ids under ``semantics``, the raw
            per-endpoint confirmation map, and the query statistics.
        """
        semantics = Semantics.coerce(semantics)
        plan = QueryPlan.for_method(method, backend=backend)
        query_points = as_query_points(query)
        excluded = self._resolve_exclusions(query, exclude_route_ids)
        return execute(
            self.engine_context,
            query_points,
            k,
            plan,
            semantics,
            exclude_route_ids=excluded,
        )

    def query_batch(
        self,
        queries: Sequence[QueryLike],
        k: int,
        method: str = VORONOI,
        semantics: Union[Semantics, str] = EXISTS,
        exclude_route_ids: Optional[Iterable[int]] = None,
        backend: str = BACKEND_AUTO,
        workers: int = 0,
        deadline_ms: Optional[float] = None,
    ) -> List[RkNNTResult]:
        """Answer a whole workload of queries, sharing work across them.

        Results are element-wise identical to calling :meth:`query` once per
        query (the differential tests assert this for every method and both
        semantics, serial and sharded); the speedup comes from

        * the vectorized geometry kernels (``backend="auto"`` selects numpy)
          testing whole R-tree child/entry blocks per call,
        * the flattened route matrix shared by every verification stage, and
        * with ``workers >= 1``, sharding across a process pool (the
          :class:`~repro.engine.parallel.ShardedExecutor`), which sidesteps
          the GIL entirely — one private execution context per worker,
          results re-ordered back into workload order.

        Parameters
        ----------
        queries:
            Routes or point sequences.  Per-query route exclusion (a Route
            query still present in the dataset) is applied per element,
            exactly as :meth:`query` would.
        exclude_route_ids:
            Routes ignored by *every* query of the batch.
        workers:
            ``0`` (default) answers the batch in-process.  ``workers >= 1``
            shards it across that many worker processes (``1`` is useful to
            exercise the worker path deterministically; real speedups need
            ``>= 2`` and spare CPUs).  While a persistent pool is live
            (:meth:`serving_pool` scope), any ``workers >= 1`` call dispatches
            through it — reusing its warm workers — instead of spawning a
            per-call pool.  Worker caches are private, so the parent
            context's caches are neither used nor warmed.
        deadline_ms:
            Time budget for the whole batch, in milliseconds.  On expiry
            the call raises a typed
            :class:`~repro.engine.resilience.DeadlineExceeded` instead of
            blocking (on the pool path hung workers are terminated) —
            never a partial or wrong answer.  ``None`` defers to the
            ``RKNNT_DEADLINE_MS`` environment knob; unset means no
            deadline.

        Returns
        -------
        list of RkNNTResult
            One result per query, in workload order, element-wise identical
            to per-query :meth:`query` calls.
        """
        semantics = Semantics.coerce(semantics)
        plan = QueryPlan.for_method(method, backend=backend).resolved()
        if deadline_ms is None:
            deadline_ms = resilience.default_deadline_ms()
        deadline = resilience.Deadline.from_ms(deadline_ms)
        jobs = [
            (
                as_query_points(query),
                frozenset(self._resolve_exclusions(query, exclude_route_ids)),
            )
            for query in queries
        ]
        if workers:
            pool = self._serving_pool
            if pool is not None:
                return pool.run(jobs, k, plan, semantics, deadline=deadline)
            from repro.engine import parallel

            floor = parallel.MIN_SHARD_BATCH
            if floor == 0 or (
                parallel.available_cpu_count() >= 2 and len(jobs) >= floor
            ):
                with parallel.ShardedExecutor(
                    self.engine_context, workers=workers
                ) as sharded:
                    return sharded.run(jobs, k, plan, semantics, deadline=deadline)
            # A per-call pool costs more than it buys without spare CPUs
            # or a batch worth slicing (``MIN_SHARD_BATCH``) —
            # answer serially and record the fallback.  Persistent pools
            # (handled above) are exempt: their setup cost is sunk.
            self.engine_context.shard_fallbacks += 1
        return execute_batch(
            self.engine_context, jobs, k, plan, semantics, deadline=deadline
        )

    # ------------------------------------------------------------------
    # Continuous queries (delta-maintained standing results)
    # ------------------------------------------------------------------
    def watch(
        self,
        query: QueryLike,
        k: int,
        method: str = VORONOI,
        semantics: Union[Semantics, str] = EXISTS,
        exclude_route_ids: Optional[Iterable[int]] = None,
        backend: str = BACKEND_PYTHON,
        callback=None,
    ) -> Subscription:
        """Register a standing RkNNT query maintained under updates.

        The returned :class:`~repro.engine.continuous.Subscription` tracks
        ``RkNNT(query)`` as transitions stream in and out of the dataset:
        each :meth:`add_transition` / :meth:`remove_transition` produces an
        incremental :class:`~repro.engine.continuous.ResultDelta`
        (``added`` / ``removed`` transition ids) instead of a full
        recomputation — inserted endpoints are tested against the
        subscription's retained filter half-spaces in O(filter) and only
        borderline ones are verified exactly; route mutations trigger a
        scoped re-filter, detected through the index generation counters.

        Parameters
        ----------
        query, k, method, semantics, exclude_route_ids, backend:
            Exactly as :meth:`query`; the materialized standing result
            (:meth:`~repro.engine.continuous.Subscription.result`) is
            element-wise identical to a fresh :meth:`query` with the same
            arguments at any point of the update stream.
        callback:
            Optional ``callback(delta)`` invoked synchronously for every
            non-empty result delta; deltas are also queued for
            :meth:`~repro.engine.continuous.Subscription.poll`.

        Returns
        -------
        Subscription
            The live subscription; cancel it with :meth:`unwatch`.
        """
        semantics = Semantics.coerce(semantics)
        plan = QueryPlan.for_method(method, backend=backend)
        query_points = as_query_points(query)
        excluded = self._resolve_exclusions(query, exclude_route_ids)
        return self.continuous.watch(
            query_points,
            k,
            plan,
            semantics,
            exclude_route_ids=excluded,
            callback=callback,
        )

    def unwatch(self, subscription: Subscription) -> None:
        """Cancel a standing query registered with :meth:`watch`."""
        self.continuous.unwatch(subscription)

    def refresh_subscriptions(self) -> List[ResultDelta]:
        """Eagerly re-validate every standing query after index churn.

        Stale subscriptions normally re-filter lazily, one by one, on their
        next access.  After a burst of route mutations a serving process
        wants them all current *now*; this entry point re-filters every
        stale subscription at once — and, while a persistent pool is live
        (:meth:`serving_pool`), runs those re-filters sharded across the
        pool's workers instead of serially in the parent.  Results (and the
        retained filter structures) are identical either way.

        Returns the non-empty ``"rebuild"`` result deltas that were emitted.
        """
        if self._continuous is None:
            return []
        return self._continuous.refresh_all(pool=self._serving_pool)

    def __repr__(self) -> str:
        return (
            f"RkNNTProcessor(routes={len(self.routes)}, "
            f"transitions={len(self.transitions)})"
        )


def rknnt_query(
    routes: RouteDataset,
    transitions: TransitionDataset,
    query: QueryLike,
    k: int,
    method: str = VORONOI,
    semantics: Union[Semantics, str] = EXISTS,
) -> RkNNTResult:
    """One-shot convenience wrapper building the indexes and running a query.

    Prefer :class:`RkNNTProcessor` when issuing many queries over the same
    datasets — the indexes are then built once and reused.
    """
    processor = RkNNTProcessor(routes, transitions)
    return processor.query(query, k, method=method, semantics=semantics)
