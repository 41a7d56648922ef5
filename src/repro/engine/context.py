"""Per-dataset execution state shared across the queries of a workload.

Answering one RkNNT query needs nothing beyond the two indexes; answering a
*workload* of queries profitably shares two further structures, both owned by
:class:`ExecutionContext`:

* the **route matrix** — every (non-excluded) route's points flattened into
  coordinate arrays with per-route offsets, which is what the vectorized
  verification kernel (:func:`repro.geometry.kernels.count_closer_routes`)
  reduces over.  Building it is O(total route points); sharing it across a
  batch amortises that to nothing.  The matrix is *chunked by route blocks*
  (``RKNNT_MATRIX_BLOCK_ROWS`` bounds the point rows per block).  What
  bounds verification memory is the kernel, not the blocks: it reduces the
  candidates in row chunks of at most
  :data:`repro.geometry.kernels.ROUTE_CHUNK_ELEMENTS` distances, in two
  buffers allocated once per call.
* the **single-point answer cache** — confirmed endpoint maps of single-point
  sub-queries, keyed by ``(point, k, excluded, voronoi)``.  Divide & conquer
  decomposes every query into per-point sub-queries (Lemma 3) and looks
  each one up here, but query routes seldom share a point: a traced
  ``analytics-batch`` run (seed 1, 10 s) counts 1 hit in 160 lookups.
  Removing the cache waits on a benchmark change that drops its
  ``context.subquery_*`` counters (ROADMAP item 5).

A third structure serves the planning pre-computation (Algorithm 5), which
asks one single-point query per bus stop: the **k-th-route radius table**
(:meth:`ExecutionContext.knn_radii`) — every transition endpoint ``p`` with
``r_k²(p)``, its ``k``-th smallest squared route distance.  ``p`` is in
``RkNNT({q})`` iff ``|p − q|² <= r_k²(p)``, so once the table is built each
stop costs one pass over the endpoints (see ``docs/architecture.md``).

All three are invalidated automatically through the indexes' ``version``
counters, so dynamic route/transition updates keep the context correct
without manual cache management: any update clears the memoised
single-point answers wholesale.

Contexts are also what the parallel execution layer ships to its worker
processes (see :mod:`repro.engine.parallel`): pickling a context serialises
the datasets and indexes but *never* the derived caches — ``__getstate__``
strips them, and each worker lazily rebuilds its own.  Since the columnar
dataset core (:mod:`repro.engine.columnar`), the indexes serialise
themselves as packed sorted-id/coordinate columns instead of object
graphs, so the reseed payload is severalfold smaller, byte-deterministic,
and identical under the ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import math
import os
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.geometry import kernels
from repro.index.route_index import RouteIndex
from repro.index.transition_index import TransitionIndex

#: Key of a memoised single-point sub-query:
#: (point, k, excluded route ids, use_voronoi).
SubqueryKey = Tuple[Tuple[float, float], int, FrozenSet[int], bool]

#: Memoised answer: transition id -> confirmed endpoint labels.
ConfirmedMap = Dict[int, FrozenSet[str]]

#: Soft cap on the number of memoised sub-queries; the cache is cleared
#: wholesale when it is reached (simple and good enough for workloads whose
#: distinct query points are far below the cap).
SUBQUERY_CACHE_LIMIT = 100_000

#: Environment knob bounding the number of flattened point rows per route
#: block of the verification matrix.  Smaller blocks cap the peak size of
#: the per-candidate distance matrix; the default keeps one block ~1.5 MB of
#: float64 coordinates, far below any practical working set, while NYC-scale
#: datasets split into many blocks instead of one giant array.
MATRIX_BLOCK_ROWS_ENV = "RKNNT_MATRIX_BLOCK_ROWS"
DEFAULT_MATRIX_BLOCK_ROWS = 100_000


def matrix_block_rows() -> int:
    """The configured route-block row bound (``RKNNT_MATRIX_BLOCK_ROWS``).

    Invalid or non-positive values fall back to the default — a mistyped
    tuning knob must never change answers or crash a query.
    """
    raw = os.environ.get(MATRIX_BLOCK_ROWS_ENV, "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            return DEFAULT_MATRIX_BLOCK_ROWS
        if value > 0:
            return value
    return DEFAULT_MATRIX_BLOCK_ROWS


class RouteMatrixBlock:
    """One route block of the flattened verification matrix.

    Attributes
    ----------
    points:
        The block's route points, grouped by route, packed via
        :func:`repro.geometry.kernels.pack_points`.
    offsets:
        Start index of each route's group inside ``points``.
    column_route_ids:
        Route id of each column (group), in order.
    column_of_route:
        Inverse mapping: route id -> column index within this block.
    """

    __slots__ = ("points", "offsets", "column_route_ids", "column_of_route")

    def __init__(self, points, offsets, column_route_ids):
        self.points = points
        self.offsets = offsets
        self.column_route_ids = column_route_ids
        self.column_of_route = {
            route_id: column for column, route_id in enumerate(column_route_ids)
        }

    @property
    def route_count(self) -> int:
        return len(self.column_route_ids)

    def excluded_columns(self, route_ids) -> List[int]:
        """Column indices of the given route ids (ids not in this block are
        skipped — every route lives in exactly one block)."""
        return sorted(
            self.column_of_route[route_id]
            for route_id in route_ids
            if route_id in self.column_of_route
        )


class RouteMatrix:
    """The flattened verification matrix, chunked by route blocks.

    Each block covers a contiguous run of routes whose flattened points stay
    within the ``RKNNT_MATRIX_BLOCK_ROWS`` bound (a single route longer than
    the bound forms its own block — routes are never split, because the
    verification kernel reduces per route).  Every route appears in exactly
    one block, so per-block closer-route counts sum to the global count.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: Sequence[RouteMatrixBlock]):
        self.blocks = list(blocks)

    @property
    def route_count(self) -> int:
        return sum(block.route_count for block in self.blocks)

    @property
    def point_rows(self) -> int:
        """Total flattened point rows across every block."""
        return sum(len(block.points) for block in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


class KnnRadii:
    """Every transition endpoint with its ``k``-th-route radius.

    Attributes
    ----------
    points:
        The endpoints' coordinates, packed via
        :func:`repro.geometry.kernels.pack_points` on the numpy backend, a
        list of ``(x, y)`` tuples on the python backend.
    tags:
        Plain ``(transition id, 'o' | 'd')`` tuples, one per point, in order.
    radii_sq:
        ``r_k²`` of each point: its ``k``-th smallest squared distance to a
        (non-excluded) route, ``inf`` when there are fewer than ``k`` routes.
    """

    __slots__ = ("points", "tags", "radii_sq")

    def __init__(self, points, tags: List[Tuple[int, str]], radii_sq):
        self.points = points
        self.tags = tags
        self.radii_sq = radii_sq

    def __len__(self) -> int:
        return len(self.tags)


class ExecutionContext:
    """Shared per-dataset state for the query-execution engine.

    One context per (route index, transition index) pair; a
    :class:`~repro.core.rknnt.RkNNTProcessor` owns one for its lifetime and
    routes every query through it.  All cached state is derived and
    version-guarded, so holding a context never produces stale answers.
    """

    def __init__(
        self, route_index: RouteIndex, transition_index: TransitionIndex
    ):
        self.route_index = route_index
        self.transition_index = transition_index
        self._route_matrix: Optional[RouteMatrix] = None
        self._route_matrix_version = -1
        #: Handle of the persistent store file backing this context's
        #: indexes, or ``None``.  Set by :func:`repro.engine.store
        #: .attach_context` (worker boot) and by store-booted processors;
        #: while the indexes are still at the handle's packed versions, a
        #: serving reseed ships this handle instead of a columnar pickle
        #: (the store file is shared through the OS page cache).
        self.store_handle = None
        #: The attached :class:`repro.engine.store.Store` (keeps the file
        #: mapping reachable for introspection).  Never pickled.
        self._store_attachment: Optional[object] = None
        self._subqueries: Dict[SubqueryKey, ConfirmedMap] = {}
        self._subquery_versions: Tuple[int, int] = (-1, -1)
        #: k-th-route radius tables keyed by (k, backend), all built at
        #: ``_knn_radii_versions``.
        self._knn_radii: Dict[Tuple[int, str], KnnRadii] = {}
        self._knn_radii_versions: Tuple[int, int] = (-1, -1)
        #: Cache statistics (useful for benchmark reporting).
        self.subquery_hits = 0
        self.subquery_misses = 0
        #: Batches that asked for a per-call worker pool but ran serially
        #: instead — fewer than two usable CPUs, or a batch smaller than
        #: ``RKNNT_MIN_SHARD_BATCH`` (see ``engine/parallel.py``).
        self.shard_fallbacks = 0

    # ------------------------------------------------------------------
    # Route matrix (vectorized verification)
    # ------------------------------------------------------------------
    def route_matrix(self) -> RouteMatrix:
        """The flattened route-point matrix, rebuilt after dynamic updates."""
        version = self.route_index.version
        if self._route_matrix is None or self._route_matrix_version != version:
            self._route_matrix = self._build_route_matrix()
            self._route_matrix_version = version
        return self._route_matrix

    def _build_route_matrix(self) -> RouteMatrix:
        excluded = self.route_index.excluded_route_ids
        block_rows = matrix_block_rows()
        blocks: List[RouteMatrixBlock] = []
        flat: List[Tuple[float, float]] = []
        offsets: List[int] = []
        column_ids: List[int] = []

        def cut_block() -> None:
            if column_ids:
                blocks.append(
                    RouteMatrixBlock(
                        kernels.pack_points(flat), list(offsets), list(column_ids)
                    )
                )
                flat.clear()
                offsets.clear()
                column_ids.clear()

        for route in self.route_index.routes:
            if route.route_id in excluded:
                continue
            # Cut before a route that would overflow the block (never after
            # appending: a route must stay whole within one block).
            if flat and len(flat) + len(route.points) > block_rows:
                cut_block()
            offsets.append(len(flat))
            column_ids.append(route.route_id)
            flat.extend((point.x, point.y) for point in route.points)
        cut_block()
        return RouteMatrix(blocks)

    def _current_versions(self) -> Tuple[int, int]:
        return (self.route_index.version, self.transition_index.version)

    # ------------------------------------------------------------------
    # k-th-route radii (single-point planning sweep)
    # ------------------------------------------------------------------
    def knn_radii(self, k: int, backend: str = kernels.BACKEND_AUTO) -> KnnRadii:
        """The k-th-route radius table, rebuilt after dynamic updates.

        Built in O(endpoints × route points) once per ``(k, backend)`` and
        dataset version.  The numpy backend reduces the route-matrix blocks
        (:func:`repro.geometry.kernels.kth_route_distance_sq`); the python
        backend sorts the oracle's own
        :meth:`~repro.model.route.Route.squared_distance_to_point` values.
        Both evaluate the same float expressions, so the radii agree
        bitwise.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        backend = kernels.resolve_backend(backend)
        versions = self._current_versions()
        if versions != self._knn_radii_versions:
            self._knn_radii = {}
            self._knn_radii_versions = versions
        table = self._knn_radii.get((k, backend))
        if table is None:
            table = self._build_knn_radii(k, backend)
            self._knn_radii[(k, backend)] = table
        return table

    def _build_knn_radii(self, k: int, backend: str) -> KnnRadii:
        coords: List[Tuple[float, float]] = []
        tags: List[Tuple[int, str]] = []
        for entry in self.transition_index.tree.entries():
            coords.append(entry.point)
            # A plain tuple: the radius path unpacks one per hit, and a
            # tuple subclass unpacks about 3x slower.
            transition_id, endpoint = entry.payload
            tags.append((transition_id, endpoint))
        if backend == kernels.BACKEND_NUMPY:
            points = kernels.pack_points(coords)
            blocks = [
                (block.points, block.offsets) for block in self.route_matrix().blocks
            ]
            radii = kernels.kth_route_distance_sq(points, blocks, k)
            return KnnRadii(points, tags, radii)
        excluded = self.route_index.excluded_route_ids
        routes = [
            route
            for route in self.route_index.routes
            if route.route_id not in excluded
        ]
        if len(routes) < k:
            return KnnRadii(coords, tags, [math.inf] * len(coords))
        radii = [
            sorted(route.squared_distance_to_point(point) for route in routes)[k - 1]
            for point in coords
        ]
        return KnnRadii(coords, tags, radii)

    # ------------------------------------------------------------------
    # Single-point sub-query cache (divide & conquer)
    # ------------------------------------------------------------------
    def _validate_subqueries(self) -> None:
        versions = self._current_versions()
        if versions == self._subquery_versions:
            return
        self._subqueries.clear()
        self._subquery_versions = versions

    def subquery_lookup(self, key: SubqueryKey) -> Optional[ConfirmedMap]:
        """Memoised answer of a single-point sub-query, or ``None``."""
        self._validate_subqueries()
        answer = self._subqueries.get(key)
        if answer is None:
            self.subquery_misses += 1
        else:
            self.subquery_hits += 1
        return answer

    def subquery_store(self, key: SubqueryKey, confirmed: ConfirmedMap) -> None:
        """Memoise the answer of a single-point sub-query."""
        self._validate_subqueries()
        if len(self._subqueries) >= SUBQUERY_CACHE_LIMIT:
            self._subqueries.clear()
        self._subqueries[key] = confirmed

    # ------------------------------------------------------------------
    # Pickling (parallel execution layer)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle only the primary state, never the derived caches.

        Shipping a context to a shard worker (see
        :mod:`repro.engine.parallel`) must serialise the datasets and
        indexes exactly once — the lazily-built route matrix, the radius
        tables and the memoised sub-query answers are derived, potentially
        large, and cheap to rebuild per worker, so they are stripped here.
        """
        state = self.__dict__.copy()
        state["_route_matrix"] = None
        state["_route_matrix_version"] = -1
        state["_store_attachment"] = None
        state["_subqueries"] = {}
        state["_subquery_versions"] = (-1, -1)
        state["_knn_radii"] = {}
        state["_knn_radii_versions"] = (-1, -1)
        state["subquery_hits"] = 0
        state["subquery_misses"] = 0
        state["shard_fallbacks"] = 0
        return state

    def reseed_payload_nbytes(self) -> int:
        """Byte size of this context's serving reseed payload (its pickle).

        Exactly what a pool (re)seed ships to every worker; the serving
        benchmark records it before/after the columnar encoding so payload
        regressions show up in the ``BENCH_batch.json`` trajectory.
        """
        import pickle

        return len(pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))

    def clear_caches(self) -> None:
        """Drop every derived cache (answers stay correct without this —
        version counters already invalidate on updates; use it to bound
        memory or to time cold-cache execution)."""
        self._route_matrix = None
        self._route_matrix_version = -1
        self._subqueries.clear()
        self._subquery_versions = (-1, -1)
        self._knn_radii = {}
        self._knn_radii_versions = (-1, -1)
        self.subquery_hits = 0
        self.subquery_misses = 0
        self.shard_fallbacks = 0

    #: Counter fields shipped back from shard workers (see
    #: :meth:`counter_snapshot` / :meth:`merge_counters`).
    COUNTER_FIELDS = (
        "subquery_hits",
        "subquery_misses",
        "shard_fallbacks",
    )

    def counter_snapshot(self) -> Dict[str, int]:
        """Current values of every reuse counter, by name.

        Shard workers snapshot before and after executing their slice and
        ship the difference home, so the parent context's counters reflect
        the whole batch no matter where each query actually ran.
        """
        return {name: getattr(self, name) for name in self.COUNTER_FIELDS}

    def merge_counters(self, delta: Dict[str, int]) -> None:
        """Fold a worker's counter delta into this context's counters."""
        for name in self.COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + delta.get(name, 0))

    def __repr__(self) -> str:
        return (
            f"ExecutionContext(routes={len(self.route_index.routes)}, "
            f"transitions={len(self.transition_index.transitions)}, "
            f"cached_subqueries={len(self._subqueries)})"
        )
