"""Per-vertex RkNNT pre-computation (Algorithm 5).

The optimised MaxRkNNT search relies on Lemma 3: the RkNNT set of any route
through the bus network is the union of the RkNNT sets of its vertices.  The
:class:`VertexRkNNTIndex` therefore stores, for every vertex ``v``:

* the set of *(transition id, endpoint)* pairs confirmed by ``RkNNT(v)``
  (from which both the ∃ and ∀ counts of any partial route can be derived),
  answered from the execution context's per-endpoint k-th-route radii
  rather than by one filter → prune → verify query per vertex;
* the all-pairs shortest-distance matrix ``M_ψ`` used by the reachability
  pruning, one compact ``array('d')`` row per source.

Pre-computation time is reported per phase (Table 5 of the paper).
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.rknnt import RkNNTProcessor
from repro.engine.executor import run_stages
from repro.engine.plan import KNN_RADIUS, QueryPlan
from repro.geometry.kernels import BACKEND_AUTO
from repro.planning.graph import BusNetwork
from repro.planning.shortest_path import shortest_distance_rows

EndpointTag = Tuple[int, str]


@dataclass
class PrecomputationReport:
    """Timing breakdown of Algorithm 5 (reproduces Table 5)."""

    #: Seconds spent answering one RkNNT query per vertex.
    rknnt_seconds: float = 0.0
    #: Seconds spent computing the all-pairs shortest-distance matrix.
    shortest_path_seconds: float = 0.0
    #: Number of vertices processed.
    vertices: int = 0
    #: The k used for the per-vertex queries.
    k: int = 0

    @property
    def total_seconds(self) -> float:
        return self.rknnt_seconds + self.shortest_path_seconds

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "vertices": self.vertices,
            "rknnt_seconds": self.rknnt_seconds,
            "shortest_path_seconds": self.shortest_path_seconds,
            "total_seconds": self.total_seconds,
        }


class VertexRkNNTIndex:
    """Pre-computed per-vertex RkNNT sets plus the shortest-distance matrix.

    Parameters
    ----------
    network:
        The bus-network graph ``G``.
    processor:
        RkNNT processor over the route and transition datasets.
    k:
        The (fixed) ``k`` used for every per-vertex query.  As the paper
        notes, several indexes with representative ``k`` values can be built
        in advance to serve different requirements.
    """

    def __init__(self, network: BusNetwork, processor: RkNNTProcessor, k: int):
        self.network = network
        self.processor = processor
        self.k = k
        self._endpoints_by_vertex: Dict[int, FrozenSet[EndpointTag]] = {}
        self._column_of: Dict[int, int] = {}
        self._shortest_rows: List[array] = []
        self.report = PrecomputationReport(k=k)

    # ------------------------------------------------------------------
    # Algorithm 5
    # ------------------------------------------------------------------
    def build(
        self,
        vertices: Optional[Iterable[int]] = None,
        backend: str = BACKEND_AUTO,
    ) -> PrecomputationReport:
        """Run the pre-computation (per-vertex RkNNT + all-pairs shortest).

        Every vertex is a single-point RkNNT query, run through
        :func:`~repro.engine.executor.run_stages` under the internal
        ``KNN_RADIUS`` plan: the first one builds the execution context's
        k-th-route radius table (O(endpoints × route points)), each one
        then confirms the endpoints within their radius (O(endpoints)).
        The table is version-guarded like the route matrix, so it is reused
        by lazy lookups until the routes or transitions change.

        Parameters
        ----------
        vertices:
            Restrict the per-vertex RkNNT queries to a subset (all vertices
            by default); ``M_ψ`` always covers the whole network.
        backend:
            Kernel backend (``"auto"`` by default) for the sweep and for
            ``M_ψ`` (:func:`~repro.planning.shortest_path.shortest_distance_rows`);
            both backends give bitwise-equal answers.
        """
        vertex_list = (
            list(vertices) if vertices is not None else list(self.network.vertices())
        )
        started = time.perf_counter()
        for vertex in vertex_list:
            self._endpoints_by_vertex[vertex] = self._query_vertex(
                vertex, backend=backend
            )
        self.report.rknnt_seconds = time.perf_counter() - started

        started = time.perf_counter()
        self._column_of, self._shortest_rows = shortest_distance_rows(
            self.network, backend=backend
        )
        self.report.shortest_path_seconds = time.perf_counter() - started
        self.report.vertices = len(vertex_list)
        return self.report

    def _query_vertex(
        self, vertex: int, backend: str = BACKEND_AUTO
    ) -> FrozenSet[EndpointTag]:
        position = tuple(self.network.position(vertex))
        confirmed, _ = run_stages(
            self.processor.engine_context,
            [position],
            self.k,
            QueryPlan(
                method=KNN_RADIUS, use_voronoi=False, decompose=False, backend=backend
            ),
        )
        tags: Set[EndpointTag] = set()
        for transition_id, endpoints in confirmed.items():
            for endpoint in endpoints:
                tags.add((transition_id, endpoint))
        return frozenset(tags)

    # ------------------------------------------------------------------
    # Lookups used by the planners
    # ------------------------------------------------------------------
    def vertex_endpoints(self, vertex: int) -> FrozenSet[EndpointTag]:
        """Confirmed (transition id, endpoint) pairs of ``RkNNT(vertex)``.

        Vertices that were not pre-computed are computed lazily and cached,
        so the planners keep working after dynamic updates to the network.
        """
        cached = self._endpoints_by_vertex.get(vertex)
        if cached is None:
            cached = self._query_vertex(vertex)
            self._endpoints_by_vertex[vertex] = cached
        return cached

    def route_endpoints(self, vertices: Sequence[int]) -> FrozenSet[EndpointTag]:
        """Union of per-vertex endpoint sets along a route (Lemma 3)."""
        merged: Set[EndpointTag] = set()
        for vertex in vertices:
            merged.update(self.vertex_endpoints(vertex))
        return frozenset(merged)

    def shortest_distance(self, source: int, target: int) -> float:
        """``M_ψ[source][target]``; ``inf`` when unreachable."""
        row = self._column_of.get(source)
        column = self._column_of.get(target)
        if row is None or column is None:
            return float("inf")
        return self._shortest_rows[row][column]

    # ------------------------------------------------------------------
    # Aggregation helpers (∃ / ∀ counts of a set of endpoint tags)
    # ------------------------------------------------------------------
    @staticmethod
    def exists_count(endpoints: Iterable[EndpointTag]) -> int:
        """``|∃RkNNT|``: transitions with at least one confirmed endpoint."""
        return len({transition_id for transition_id, _ in endpoints})

    @staticmethod
    def forall_count(endpoints: Iterable[EndpointTag]) -> int:
        """``|∀RkNNT|``: transitions with both endpoints confirmed."""
        seen: Dict[int, Set[str]] = {}
        for transition_id, endpoint in endpoints:
            seen.setdefault(transition_id, set()).add(endpoint)
        return sum(1 for endpoints_seen in seen.values() if len(endpoints_seen) == 2)

    @staticmethod
    def exists_ids(endpoints: Iterable[EndpointTag]) -> FrozenSet[int]:
        """Transition ids under ∃ semantics for a set of endpoint tags."""
        return frozenset(transition_id for transition_id, _ in endpoints)

    def __repr__(self) -> str:
        return (
            f"VertexRkNNTIndex(k={self.k}, vertices={len(self._endpoints_by_vertex)})"
        )
