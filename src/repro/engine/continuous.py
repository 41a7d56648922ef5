"""Continuous RkNNT: delta-maintained standing queries over streaming DT.

The paper's headline applications only pay off when the transition set
churns continuously — new ride requests arrive, old ones expire — and a
route operator wants the *current* RkNNT answer of a (planned) route at all
times.  Re-running the full filter → prune → verify pipeline after every
update throws away almost all of the work: a single transition insert or
delete can change the answer by at most that one transition, and the
filtering structures built for the standing query remain valid until the
*route* set changes.

This module exploits exactly that:

* :class:`ContinuousRkNNT` — the per-context subscription manager.  It
  listens to the transition index's typed mutation stream
  (:class:`~repro.index.transition_index.TransitionDelta`) and forwards
  each event to every registered subscription.
* :class:`Subscription` — one standing query.  It keeps the query's filter
  structures (one retained :class:`~repro.engine.executor.QueryExecutor`
  per sub-query, so divide & conquer keeps one per query point), the
  verified confirmed-endpoint map, and per-endpoint kNN count margins.

Delta maintenance per event:

* **insert** — each endpoint of the new transition is tested against the
  subscription's existing filter half-spaces in O(|filter set|) (the same
  ``is_filtered`` predicate the pruning phase used).  A filtered endpoint
  is provably dominated by ≥ k routes and rejected with no further work;
  only *borderline* endpoints (not filtered) pay one exact verification
  (:func:`~repro.core.knn.count_routes_within_sq`, early-exit at ``k``).
* **delete** — the transition is dropped from the confirmed map in O(1);
  other transitions cannot be affected (their confirmation depends only on
  the routes).
* **route mutations** — invalidate the filter structures.  Staleness is
  detected through the existing index generation counters
  (``RouteIndex.version``) and triggers a scoped re-filter: the
  subscription rebuilds its executors and emits the diff against its
  previously materialized result as one ``"rebuild"`` delta.

After any interleaving of updates a subscription's materialized result is
element-wise identical to a fresh :meth:`~repro.core.rknnt.RkNNTProcessor
.query` (and hence to brute force) — ``tests/test_continuous.py`` asserts
this differentially for all three methods, both semantics and both
backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
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

from repro.core.knn import closer_route_count
from repro.core.result import RkNNTResult
from repro.core.semantics import FORALL, Semantics
from repro.core.stats import QueryStatistics
from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryExecutor
from repro.engine.plan import QueryPlan
from repro.engine.resilience import RkNNTError
from repro.geometry.bbox import BoundingBox
from repro.index.transition_index import (
    DELTA_INSERT,
    DESTINATION,
    ORIGIN,
    TransitionDelta,
)
from repro.model.transition import Transition

QueryPoints = Sequence[Sequence[float]]

#: Causes carried by :class:`ResultDelta`.
CAUSE_INSERT = "insert"
CAUSE_DELETE = "delete"
CAUSE_REBUILD = "rebuild"


@dataclass(frozen=True)
class ResultDelta:
    """An incremental change of one subscription's standing result.

    Attributes
    ----------
    added:
        Transition ids that entered the result.
    removed:
        Transition ids that left the result.
    cause:
        ``"insert"`` / ``"delete"`` for a single-transition delta,
        ``"rebuild"`` when a route mutation forced a scoped re-filter (the
        delta then carries the *diff* between the old and new materialized
        results, which may span many transitions).
    version:
        The transition index version this delta brought the subscription up
        to date with.
    """

    added: FrozenSet[int]
    removed: FrozenSet[int]
    cause: str
    version: int

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)


@dataclass
class DeltaStatistics:
    """Instrumentation of one subscription's delta maintenance.

    Attributes
    ----------
    inserts_seen / deletes_seen:
        Transition-level events observed.
    endpoints_filtered:
        Inserted endpoints rejected purely by the O(filter) half-space
        test — no exact verification was needed for them.
    endpoints_verified:
        Borderline inserted endpoints that paid one exact kNN-count
        verification.
    rebuilds:
        Scoped re-filters triggered by route-set staleness (or a detected
        gap in the delta stream).
    deltas_emitted:
        Non-empty :class:`ResultDelta` events produced.
    """

    inserts_seen: int = 0
    deletes_seen: int = 0
    endpoints_filtered: int = 0
    endpoints_verified: int = 0
    rebuilds: int = 0
    deltas_emitted: int = 0


class Subscription:
    """One standing RkNNT query, maintained incrementally.

    Created through :meth:`ContinuousRkNNT.watch` (or, at the top level,
    :meth:`repro.core.rknnt.RkNNTProcessor.watch`) — not directly.

    Parameters
    ----------
    context:
        The shared execution context of the owning processor.
    query_points:
        The standing query ``Q`` as normalised point tuples.
    k:
        The ``k`` of the reverse k nearest neighbour query.
    plan:
        Resolved :class:`~repro.engine.plan.QueryPlan` (method, backend,
        decomposition).
    semantics:
        ``EXISTS`` or ``FORALL`` — the aggregation under which membership
        (and hence the emitted deltas) is defined.
    exclude_route_ids:
        Routes that never count against candidates for this subscription.
    callback:
        Optional ``callback(delta)`` invoked synchronously for every
        non-empty :class:`ResultDelta`; deltas are queued for :meth:`poll`
        either way.
    """

    def __init__(
        self,
        context: ExecutionContext,
        query_points: QueryPoints,
        k: int,
        plan: QueryPlan,
        semantics: Semantics,
        exclude_route_ids: Optional[Iterable[int]] = None,
        callback: Optional[Callable[[ResultDelta], None]] = None,
    ):
        if k <= 0:
            raise ValueError("k must be positive")
        self.context = context
        self.query_points: List[Tuple[float, float]] = [
            (float(p[0]), float(p[1])) for p in query_points
        ]
        if not self.query_points:
            raise ValueError("query must contain at least one point")
        self.k = k
        self.plan = plan.resolved()
        self.semantics = semantics
        self.excluded: FrozenSet[int] = frozenset(exclude_route_ids or ())
        self.callback = callback
        self.delta_stats = DeltaStatistics()
        #: Cumulative pipeline statistics of the initial build and every
        #: subsequent scoped re-filter.
        self.query_stats = QueryStatistics()
        self.active = True
        self._pending: List[ResultDelta] = []
        #: Retained (sub-query points, executor) pairs; divide & conquer
        #: keeps one executor (and hence one filter set) per query point.
        self._executors: List[Tuple[List[Tuple[float, float]], QueryExecutor]] = []
        self._confirmed: Dict[int, Set[str]] = {}
        self._margins: Dict[Tuple[int, str], int] = {}
        self._result_ids: Set[int] = set()
        self._route_version = -1
        self._transition_version = -1
        self._rebuild()

    # ------------------------------------------------------------------
    # Build / rebuild (scoped re-filter)
    # ------------------------------------------------------------------
    def _sub_queries(self) -> List[List[Tuple[float, float]]]:
        if self.plan.decompose:
            return [[point] for point in self.query_points]
        return [list(self.query_points)]

    def _rebuild(self) -> None:
        """Run the full pipeline once and retain the filter structures."""
        self._executors = []
        confirmed: Dict[int, Set[str]] = {}
        for sub in self._sub_queries():
            executor = QueryExecutor(
                self.context,
                self.k,
                use_voronoi=self.plan.use_voronoi,
                exclude_route_ids=self.excluded,
                backend=self.plan.backend,
                filter_traversal=self.plan.filter_traversal,
            )
            for transition_id, endpoints in executor.run(sub).items():
                confirmed.setdefault(transition_id, set()).update(endpoints)
            self.query_stats.merge(executor.stats)
            self._executors.append((sub, executor))
        self._finish_rebuild(confirmed)

    def _finish_rebuild(self, confirmed: Dict[int, Set[str]]) -> None:
        """Install a rebuilt confirmed map and re-derive the dependent state."""
        self._confirmed = confirmed
        self._margins = {}
        self._result_ids = {
            transition_id
            for transition_id, endpoints in confirmed.items()
            if self._is_member(endpoints)
        }
        self._route_version = self.context.route_index.version
        self._transition_version = self.context.transition_index.version

    def is_stale(self) -> bool:
        """True when the indexes moved since the last (re)build — the next
        access (or :meth:`refresh`) will trigger a scoped re-filter."""
        return self.active and (
            self._route_version != self.context.route_index.version
            or self._transition_version != self.context.transition_index.version
        )

    def rebuild_job(self):
        """The pool job describing this subscription's re-filter.

        Shape consumed by :meth:`repro.engine.parallel.ShardedExecutor
        .run_standing`: ``(sub-queries, k, plan, excluded route ids)``.
        """
        return (self._sub_queries(), self.k, self.plan, self.excluded)

    def install_rebuild(self, parts) -> Optional[ResultDelta]:
        """Install a pool-computed re-filter (see :meth:`rebuild_job`).

        ``parts`` holds one ``(confirmed map, stats, filter set)`` tuple per
        sub-query, computed by a pool worker against the same index state —
        the retained executors are reconstructed around the shipped filter
        sets, so the O(filter) insert test behaves exactly as after a local
        :meth:`refresh`.  Emits the same ``"rebuild"`` delta a local
        re-filter would.
        """
        if not self.active:
            return None
        old_ids = set(self._result_ids)
        self._executors = []
        confirmed: Dict[int, Set[str]] = {}
        for sub, (sub_confirmed, stats, filter_set) in zip(
            self._sub_queries(), parts
        ):
            executor = QueryExecutor(
                self.context,
                self.k,
                use_voronoi=self.plan.use_voronoi,
                exclude_route_ids=self.excluded,
                backend=self.plan.backend,
                filter_traversal=self.plan.filter_traversal,
            )
            executor.filter_set = filter_set
            for transition_id, endpoints in sub_confirmed.items():
                confirmed.setdefault(transition_id, set()).update(endpoints)
            self.query_stats.merge(stats)
            self._executors.append((sub, executor))
        self._finish_rebuild(confirmed)
        self.delta_stats.rebuilds += 1
        return self._emit(
            added=self._result_ids - old_ids,
            removed=old_ids - self._result_ids,
            cause=CAUSE_REBUILD,
        )

    def refresh(self) -> Optional[ResultDelta]:
        """Re-filter if the indexes moved under the subscription.

        Called automatically before every delta application and result
        access; callers only need it to force an eager rebuild.  Returns the
        emitted ``"rebuild"`` delta when the standing result changed, else
        ``None`` (including when nothing was stale).  A cancelled
        subscription is frozen: it neither rebuilds nor emits, its
        materialized result stays whatever it was at cancellation time.
        """
        if not self.active or (
            self._route_version == self.context.route_index.version
            and self._transition_version == self.context.transition_index.version
        ):
            return None
        old_ids = set(self._result_ids)
        self._rebuild()
        self.delta_stats.rebuilds += 1
        return self._emit(
            added=self._result_ids - old_ids,
            removed=old_ids - self._result_ids,
            cause=CAUSE_REBUILD,
        )

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------
    def apply(self, delta: TransitionDelta) -> Optional[ResultDelta]:
        """Fold one transition mutation into the standing result.

        Returns the emitted :class:`ResultDelta` when the result changed
        (possibly a ``"rebuild"`` delta when route staleness or a stream
        gap forced a re-filter), else ``None``.
        """
        if not self.active:
            return None
        if (
            self._route_version != self.context.route_index.version
            or delta.version != self._transition_version + 1
        ):
            # Route mutations invalidate the filter half-spaces; a version
            # gap means events were missed.  Either way the scoped
            # re-filter already observes the post-mutation transition
            # index, so this delta is subsumed by the rebuild.
            return self.refresh()
        # Advance first: _emit stamps result deltas with the version they
        # bring the subscription up to date with, i.e. this mutation's.
        self._transition_version = delta.version
        if delta.kind == DELTA_INSERT:
            return self._apply_insert(delta.transition)
        return self._apply_delete(delta.transition)

    def _apply_insert(self, transition: Transition) -> Optional[ResultDelta]:
        self.delta_stats.inserts_seen += 1
        transition_id = transition.transition_id
        # Defensive: a re-used id replaces any previous confirmation state
        # (the index accepts duplicate ids even though the datasets reject
        # them), so prior membership may be revoked by this insert.
        was_member = transition_id in self._result_ids
        self._confirmed.pop(transition_id, None)
        self._forget_margins(transition_id)
        endpoints: Set[str] = set()
        for label, point in (
            (ORIGIN, transition.origin),
            (DESTINATION, transition.destination),
        ):
            closer = self._verify_endpoint(point)
            if closer is None:
                continue
            if closer < self.k:
                endpoints.add(label)
                self._margins[(transition_id, label)] = self.k - closer
        if endpoints:
            self._confirmed[transition_id] = endpoints
        is_member = bool(endpoints) and self._is_member(endpoints)
        if is_member and not was_member:
            self._result_ids.add(transition_id)
            return self._emit(added={transition_id}, cause=CAUSE_INSERT)
        if was_member and not is_member:
            self._result_ids.discard(transition_id)
            return self._emit(removed={transition_id}, cause=CAUSE_INSERT)
        return None

    def _verify_endpoint(self, point) -> Optional[int]:
        """Closer-route count of one inserted endpoint, or ``None`` if the
        O(filter) half-space test already proves ≥ k routes dominate it.

        An endpoint is a member for the whole query iff it is a member for
        at least one sub-query (Lemma 3), so it can be rejected outright
        only when *every* retained filter set dominates it.
        """
        box = BoundingBox(point[0], point[1], point[0], point[1])
        if all(
            executor.is_filtered(box, sub) for sub, executor in self._executors
        ):
            self.delta_stats.endpoints_filtered += 1
            return None
        self.delta_stats.endpoints_verified += 1
        return closer_route_count(
            self.context.route_index,
            point,
            self.query_points,
            self.k,
            exclude_route_ids=set(self.excluded),
            backend=self.plan.backend,
        )

    def _apply_delete(self, transition: Transition) -> Optional[ResultDelta]:
        self.delta_stats.deletes_seen += 1
        transition_id = transition.transition_id
        self._confirmed.pop(transition_id, None)
        self._forget_margins(transition_id)
        if transition_id in self._result_ids:
            self._result_ids.discard(transition_id)
            return self._emit(removed={transition_id}, cause=CAUSE_DELETE)
        return None

    def _forget_margins(self, transition_id: int) -> None:
        self._margins.pop((transition_id, ORIGIN), None)
        self._margins.pop((transition_id, DESTINATION), None)

    # ------------------------------------------------------------------
    # Membership / emission
    # ------------------------------------------------------------------
    def _is_member(self, endpoints: Set[str]) -> bool:
        if self.semantics is FORALL:
            return len(endpoints) == 2
        return bool(endpoints)

    def _emit(
        self,
        added: Iterable[int] = (),
        removed: Iterable[int] = (),
        cause: str = CAUSE_REBUILD,
    ) -> Optional[ResultDelta]:
        delta = ResultDelta(
            added=frozenset(added),
            removed=frozenset(removed),
            cause=cause,
            version=self._transition_version,
        )
        if not delta:
            return None
        self.delta_stats.deltas_emitted += 1
        self._pending.append(delta)
        if self.callback is not None:
            self.callback(delta)
        return delta

    # ------------------------------------------------------------------
    # Reading the standing result
    # ------------------------------------------------------------------
    def poll(self) -> List[ResultDelta]:
        """Drain and return the queued result deltas (oldest first)."""
        self.refresh()
        drained = self._pending
        self._pending = []
        return drained

    @property
    def transition_ids(self) -> FrozenSet[int]:
        """Current result membership under the subscription's semantics."""
        self.refresh()
        return frozenset(self._result_ids)

    def result(self) -> RkNNTResult:
        """Materialize the standing result as a regular query result.

        Element-wise identical to a fresh
        :meth:`~repro.core.rknnt.RkNNTProcessor.query` with the same
        arguments; ``stats`` reports the cumulative pipeline work of the
        initial build plus every scoped re-filter (delta maintenance itself
        is accounted in :attr:`delta_stats`).
        """
        self.refresh()
        return RkNNTResult.from_confirmed(
            {tid: set(eps) for tid, eps in self._confirmed.items()},
            self.semantics,
            self.k,
            self.query_stats,
        )

    def margin(self, transition_id: int, endpoint: str = ORIGIN) -> int:
        """How safely the endpoint holds its membership: ``k - closer``.

        A confirmed endpoint with margin ``m`` tolerates ``m - 1`` more
        strictly-closer routes before eviction; ``0`` means the endpoint is
        not currently confirmed.  Computed on demand (and cached until the
        transition churns) for endpoints confirmed by the initial build.
        """
        self.refresh()
        endpoints = self._confirmed.get(transition_id)
        if not endpoints or endpoint not in endpoints:
            return 0
        key = (transition_id, endpoint)
        if key not in self._margins:
            transition = self.context.transition_index.transition(transition_id)
            point = (
                transition.origin if endpoint == ORIGIN else transition.destination
            )
            closer = closer_route_count(
                self.context.route_index,
                point,
                self.query_points,
                self.k,
                exclude_route_ids=set(self.excluded),
                backend=self.plan.backend,
            )
            self._margins[key] = self.k - closer
        return self._margins[key]

    def cancel(self) -> None:
        """Stop maintaining this subscription (idempotent)."""
        self.active = False

    def __repr__(self) -> str:
        return (
            f"Subscription(|Q|={len(self.query_points)}, k={self.k}, "
            f"method={self.plan.method!r}, semantics={self.semantics}, "
            f"results={len(self._result_ids)}, active={self.active})"
        )


class ContinuousRkNNT:
    """Per-context subscription manager for continuous RkNNT queries.

    One manager per :class:`~repro.engine.context.ExecutionContext`; it
    registers a single listener on the context's transition index and fans
    every :class:`~repro.index.transition_index.TransitionDelta` out to the
    active subscriptions.  With no subscriptions registered the listener is
    a no-op, so an attached manager adds nothing to the update path.
    """

    def __init__(self, context: ExecutionContext):
        self.context = context
        self._subscriptions: List[Subscription] = []
        self._attached = False

    # ------------------------------------------------------------------
    # Subscription lifecycle
    # ------------------------------------------------------------------
    def watch(
        self,
        query_points: QueryPoints,
        k: int,
        plan: QueryPlan,
        semantics: Union[Semantics, str],
        exclude_route_ids: Optional[Iterable[int]] = None,
        callback: Optional[Callable[[ResultDelta], None]] = None,
    ) -> Subscription:
        """Register a standing query and return its live subscription."""
        subscription = Subscription(
            self.context,
            query_points,
            k,
            plan,
            Semantics.coerce(semantics),
            exclude_route_ids=exclude_route_ids,
            callback=callback,
        )
        self._subscriptions.append(subscription)
        self._attach()
        return subscription

    def unwatch(self, subscription: Subscription) -> None:
        """Cancel a subscription and stop delivering deltas to it."""
        subscription.cancel()
        try:
            self._subscriptions.remove(subscription)
        except ValueError:
            pass
        if not self._subscriptions:
            self._detach()

    def close(self) -> None:
        """Cancel every subscription and detach from the index."""
        for subscription in list(self._subscriptions):
            self.unwatch(subscription)

    # ------------------------------------------------------------------
    # Bulk re-validation (serving pool integration)
    # ------------------------------------------------------------------
    def refresh_all(self, pool=None) -> List[ResultDelta]:
        """Re-filter every stale subscription now, optionally via a pool.

        With ``pool`` (a live :class:`~repro.engine.parallel
        .ShardedExecutor`, normally the processor's serving pool) the
        stale subscriptions' re-filters run sharded across the pool's
        workers — after a route-churn burst this re-validates a whole
        standing-query population in parallel — and the shipped filter
        structures are re-installed per subscription.  Without a pool each
        stale subscription refreshes serially, exactly as its next lazy
        access would.  Returns the non-empty ``"rebuild"`` deltas emitted.

        A pool that fails outright (a typed
        :class:`~repro.engine.resilience.RkNNTError`, e.g. its reseed
        budget is already spent and a deadline cut the degraded path short)
        is abandoned for this refresh: the stale subscriptions fall back to
        the serial re-filter, which computes the identical deltas —
        standing results never depend on the pool's health.
        """
        stale = [
            subscription
            for subscription in self._subscriptions
            if subscription.is_stale()
        ]
        deltas: List[ResultDelta] = []
        rebuilt = None
        if pool is not None and stale:
            jobs = [subscription.rebuild_job() for subscription in stale]
            try:
                rebuilt = pool.run_standing(jobs)
            except RkNNTError:
                rebuilt = None
        if rebuilt is not None:
            for subscription, parts in zip(stale, rebuilt):
                delta = subscription.install_rebuild(parts)
                if delta is not None:
                    deltas.append(delta)
        else:
            for subscription in stale:
                delta = subscription.refresh()
                if delta is not None:
                    deltas.append(delta)
        return deltas

    def __len__(self) -> int:
        return len(self._subscriptions)

    # ------------------------------------------------------------------
    # Delta fan-out
    # ------------------------------------------------------------------
    def _attach(self) -> None:
        if not self._attached:
            self.context.transition_index.add_listener(self._on_delta)
            self._attached = True

    def _detach(self) -> None:
        if self._attached:
            self.context.transition_index.remove_listener(self._on_delta)
            self._attached = False

    def _on_delta(self, delta: TransitionDelta) -> None:
        for subscription in list(self._subscriptions):
            subscription.apply(delta)

    def __repr__(self) -> str:
        return (
            f"ContinuousRkNNT(subscriptions={len(self._subscriptions)}, "
            f"attached={self._attached})"
        )
