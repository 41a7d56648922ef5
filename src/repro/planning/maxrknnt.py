"""MaxRkNNT / MinRkNNT route planning with pruning (Algorithm 6).

Given a start vertex, an end vertex and a travel-distance threshold ``τ``,
find the loopless route through the bus network that attracts the most (or
fewest) passengers — i.e. maximises (minimises) ``|RkNNT(R)|`` subject to
``ψ(R) ≤ τ`` (Definition 10).

The planner expands partial routes best-first (shortest travel distance
first) and applies the paper's two pruning rules:

* **checkReachability** — a partial route ending at ``v`` is discarded when
  ``ψ(R*) + M_ψ[v][destination] > τ`` (it can no longer reach the destination
  within budget);
* **checkDominance** (Lemma 4) — a partial route ``R2`` ending at ``v`` is
  discarded when another partial route ``R1`` ending at ``v`` satisfies
  ``ψ(R1) < ψ(R2)`` and ``|∀RkNNT(R1)| > |∃RkNNT(R2)|``; for MinRkNNT the
  roles are swapped.

MinRkNNT additionally applies the **checkBounds** rule: since the RkNNT set
only grows as a route is extended, a partial route whose ∃-count already
exceeds the best complete route found so far can never improve the minimum.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.planning.graph import BusNetwork
from repro.planning.precompute import EndpointTag, VertexRkNNTIndex

MAXIMIZE = "max"
MINIMIZE = "min"
OBJECTIVES = (MAXIMIZE, MINIMIZE)


@dataclass
class PlanningStatistics:
    """Counters describing one MaxRkNNT / MinRkNNT search."""

    #: Partial routes popped from the priority queue.
    expansions: int = 0
    #: Extensions rejected by the reachability check.
    pruned_by_reachability: int = 0
    #: Extensions rejected by the dominance check.
    pruned_by_dominance: int = 0
    #: Extensions rejected by the bound check (MinRkNNT only).
    pruned_by_bound: int = 0
    #: Complete routes reaching the destination within budget.
    complete_routes: int = 0
    #: Wall-clock seconds of the search (excludes pre-computation).
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "expansions": self.expansions,
            "pruned_by_reachability": self.pruned_by_reachability,
            "pruned_by_dominance": self.pruned_by_dominance,
            "pruned_by_bound": self.pruned_by_bound,
            "complete_routes": self.complete_routes,
            "seconds": self.seconds,
        }


@dataclass
class PlannedRoute:
    """Result of an optimal route planning query."""

    #: Vertex ids from start to destination.
    vertices: Tuple[int, ...]
    #: Travel distance ``ψ(R)`` of the route.
    travel_distance: float
    #: Transition ids of the route's RkNNT set (∃ semantics).
    transition_ids: FrozenSet[int]
    #: The objective that produced the route (``"max"`` or ``"min"``).
    objective: str
    #: Search statistics.
    stats: PlanningStatistics = field(default_factory=PlanningStatistics)

    @property
    def passengers(self) -> int:
        """``|ω(R)|``: number of attracted passengers (the paper's NP column)."""
        return len(self.transition_ids)

    @property
    def stop_count(self) -> int:
        """Number of stops on the route."""
        return len(self.vertices)

    def __repr__(self) -> str:
        return (
            f"PlannedRoute(objective={self.objective}, stops={self.stop_count}, "
            f"distance={self.travel_distance:.3f}, passengers={self.passengers})"
        )


#: Exact dominance: compares the ∃-transition-id *sets* of the two partial
#: routes (subset/superset), which is sound by Lemma 3 and never discards an
#: optimal continuation.
DOMINANCE_SUBSET = "subset"
#: The paper's Lemma 4 rule, comparing ``|∀RkNNT|`` against ``|∃RkNNT|``
#: counts.  Cheaper but heuristic; kept for fidelity and for the ablation
#: benchmarks.
DOMINANCE_LEMMA4 = "lemma4"
DOMINANCE_MODES = (DOMINANCE_SUBSET, DOMINANCE_LEMMA4)


@dataclass
class _TableEntry:
    distance: float
    exists_ids: FrozenSet[int]
    exists_count: int
    forall_count: int


class _DominanceTable:
    """Per-vertex table of non-dominated partial routes (the paper's DT)."""

    def __init__(self, objective: str, mode: str = DOMINANCE_SUBSET):
        if mode not in DOMINANCE_MODES:
            raise ValueError(
                f"unknown dominance mode {mode!r}; expected one of {DOMINANCE_MODES}"
            )
        self.objective = objective
        self.mode = mode
        self._entries: Dict[int, List[_TableEntry]] = {}

    def _dominates(self, first: _TableEntry, second: _TableEntry) -> bool:
        """True when ``first`` dominates ``second`` under the current objective."""
        if self.mode == DOMINANCE_SUBSET:
            # Sound rule: first is no longer and its result set is provably no
            # worse for every feasible continuation (superset for Max, subset
            # for Min) — see DESIGN.md.
            if first.distance > second.distance:
                return False
            if self.objective == MAXIMIZE:
                return first.exists_ids >= second.exists_ids
            return first.exists_ids <= second.exists_ids
        # Lemma 4 (count-based) rule.
        if self.objective == MAXIMIZE:
            return (
                first.distance < second.distance
                and first.forall_count > second.exists_count
            )
        return (
            first.distance < second.distance
            and first.exists_count < second.forall_count
        )

    def is_dominated(self, vertex: int, candidate: _TableEntry) -> bool:
        """True when an existing partial route at ``vertex`` dominates ``candidate``."""
        return any(
            self._dominates(existing, candidate)
            for existing in self._entries.get(vertex, ())
        )

    def insert(self, vertex: int, candidate: _TableEntry) -> None:
        """Record a non-dominated partial route and drop entries it dominates."""
        entries = self._entries.get(vertex, [])
        survivors = [
            entry for entry in entries if not self._dominates(candidate, entry)
        ]
        survivors.append(candidate)
        self._entries[vertex] = survivors


class MaxRkNNTPlanner:
    """Optimal route planner over a bus network (Section 6.2).

    Parameters
    ----------
    network:
        The bus-network graph ``G``.
    vertex_index:
        Pre-computed per-vertex RkNNT sets and shortest-distance matrix
        (Algorithm 5).  Build it once per ``k`` and reuse it for every
        planning query.
    """

    def __init__(self, network: BusNetwork, vertex_index: VertexRkNNTIndex):
        self.network = network
        self.vertex_index = vertex_index

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def plan(
        self,
        start: int,
        destination: int,
        distance_threshold: float,
        objective: str = MAXIMIZE,
        use_dominance: bool = True,
        use_reachability: bool = True,
        dominance_mode: str = DOMINANCE_SUBSET,
    ) -> Optional[PlannedRoute]:
        """Find the optimal loopless route from ``start`` to ``destination``.

        Returns ``None`` when no route satisfies the distance threshold.

        Parameters
        ----------
        distance_threshold:
            The travel-distance budget ``τ``.
        objective:
            ``"max"`` (MaxRkNNT, the default) or ``"min"`` (MinRkNNT).
        use_dominance, use_reachability:
            Disable individual pruning rules; used by the ablation benchmarks
            to quantify each rule's contribution.
        dominance_mode:
            ``"subset"`` (default, set-containment dominance) or ``"lemma4"``
            (the paper's count-based rule).  Dominance pruning — in either
            mode — is a heuristic on loopless paths: in rare graphs the best
            continuation of a dominated route collides with the dominating
            route's vertices, so disable it when a certified optimum is
            required.
        """
        if objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {objective!r}; expected one of {OBJECTIVES}"
            )
        if start not in self.network or destination not in self.network:
            raise KeyError("start and destination must be vertices of the network")

        stats = PlanningStatistics()
        started = time.perf_counter()
        best = self._search(
            start,
            destination,
            distance_threshold,
            objective,
            use_dominance,
            use_reachability,
            dominance_mode,
            stats,
        )
        stats.seconds = time.perf_counter() - started
        if best is None:
            return None
        vertices, distance, endpoints = best
        return PlannedRoute(
            vertices=vertices,
            travel_distance=distance,
            transition_ids=VertexRkNNTIndex.exists_ids(endpoints),
            objective=objective,
            stats=stats,
        )

    def plan_max(self, start: int, destination: int, distance_threshold: float) -> Optional[PlannedRoute]:
        """Convenience wrapper for the MaxRkNNT objective."""
        return self.plan(start, destination, distance_threshold, objective=MAXIMIZE)

    def plan_min(self, start: int, destination: int, distance_threshold: float) -> Optional[PlannedRoute]:
        """Convenience wrapper for the MinRkNNT objective."""
        return self.plan(start, destination, distance_threshold, objective=MINIMIZE)

    # ------------------------------------------------------------------
    # Algorithm 6
    # ------------------------------------------------------------------
    def _search(
        self,
        start: int,
        destination: int,
        tau: float,
        objective: str,
        use_dominance: bool,
        use_reachability: bool,
        dominance_mode: str,
        stats: PlanningStatistics,
    ) -> Optional[Tuple[Tuple[int, ...], float, FrozenSet[EndpointTag]]]:
        index = self.vertex_index
        # Reachability of the query itself.
        if use_reachability and index.shortest_distance(start, destination) > tau:
            return None

        maximise = objective == MAXIMIZE
        dominance = _DominanceTable(objective, mode=dominance_mode)
        counter = itertools.count()

        start_endpoints = index.vertex_endpoints(start)
        heap: List[Tuple[float, int, Tuple[int, ...], FrozenSet[EndpointTag]]] = [
            (0.0, next(counter), (start,), start_endpoints)
        ]

        best_route: Optional[Tuple[Tuple[int, ...], float, FrozenSet[EndpointTag]]] = None
        best_value = -math.inf if maximise else math.inf

        def exists_count(tags: FrozenSet[EndpointTag]) -> int:
            return VertexRkNNTIndex.exists_count(tags)

        def forall_count(tags: FrozenSet[EndpointTag]) -> int:
            return VertexRkNNTIndex.forall_count(tags)

        if start == destination:
            return (start,), 0.0, start_endpoints

        while heap:
            distance, _, path, endpoints = heapq.heappop(heap)
            stats.expansions += 1
            tail = path[-1]

            for neighbor in self.network.neighbors(tail):
                if neighbor in path:
                    continue
                new_distance = distance + self.network.edge_weight(tail, neighbor)
                if new_distance > tau:
                    stats.pruned_by_reachability += 1
                    continue
                if use_reachability:
                    remaining = index.shortest_distance(neighbor, destination)
                    if new_distance + remaining > tau:
                        stats.pruned_by_reachability += 1
                        continue

                new_endpoints = endpoints | index.vertex_endpoints(neighbor)
                new_exists = exists_count(new_endpoints)
                new_forall = forall_count(new_endpoints)

                if not maximise and new_exists > best_value:
                    # checkBounds: ω only grows, so this branch cannot beat
                    # the best complete route found so far.
                    stats.pruned_by_bound += 1
                    continue

                if use_dominance and neighbor != destination:
                    candidate = _TableEntry(
                        distance=new_distance,
                        exists_ids=VertexRkNNTIndex.exists_ids(new_endpoints),
                        exists_count=new_exists,
                        forall_count=new_forall,
                    )
                    if dominance.is_dominated(neighbor, candidate):
                        stats.pruned_by_dominance += 1
                        continue
                    dominance.insert(neighbor, candidate)

                new_path = path + (neighbor,)
                if neighbor == destination:
                    stats.complete_routes += 1
                    value = new_exists
                    is_better = (
                        value > best_value if maximise else value < best_value
                    )
                    if is_better or (
                        value == best_value
                        and best_route is not None
                        and new_distance < best_route[1]
                    ):
                        best_value = value
                        best_route = (new_path, new_distance, new_endpoints)
                    # A complete route can still be extended only through the
                    # destination, which a loopless path cannot revisit, so do
                    # not re-enqueue it.
                    continue

                heapq.heappush(
                    heap, (new_distance, next(counter), new_path, new_endpoints)
                )
        return best_route
