"""Brute-force and pre-computation-only MaxRkNNT baselines (Section 6.1/6.2).

Two baselines frame the evaluation of the pruned planner:

* **BF** (:func:`maxrknnt_bruteforce`) — enumerate every loopless candidate
  route whose travel distance does not exceed ``τ`` (the paper does this by
  looping Yen's k shortest paths; we enumerate them directly with a
  distance-bounded DFS which yields the identical candidate set), run an
  on-the-fly RkNNT query for each candidate, and keep the best.
* **Pre** (:func:`maxrknnt_pre`) — same candidate enumeration, but the
  on-the-fly RkNNT query is replaced by a union of pre-computed per-vertex
  RkNNT sets (Lemma 3), which removes the dominant cost of BF but still
  explores every candidate route.
"""

from __future__ import annotations

import math
import time
from typing import Optional

from repro.core.rknnt import RkNNTProcessor, VORONOI
from repro.planning.graph import BusNetwork
from repro.planning.maxrknnt import (
    MAXIMIZE,
    OBJECTIVES,
    PlannedRoute,
    PlanningStatistics,
)
from repro.planning.precompute import VertexRkNNTIndex
from repro.planning.shortest_path import enumerate_paths_within_distance


def maxrknnt_bruteforce(
    network: BusNetwork,
    processor: RkNNTProcessor,
    start: int,
    destination: int,
    distance_threshold: float,
    k: int,
    objective: str = MAXIMIZE,
    method: str = VORONOI,
    max_candidates: Optional[int] = None,
) -> Optional[PlannedRoute]:
    """The BF baseline: one full RkNNT query per candidate route.

    Parameters
    ----------
    max_candidates:
        Optional safety cap on the number of candidate routes evaluated (the
        candidate count grows combinatorially with ``τ``); ``None`` evaluates
        every candidate.
    """
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; expected one of {OBJECTIVES}"
        )
    stats = PlanningStatistics()
    started = time.perf_counter()

    best: Optional[PlannedRoute] = None
    best_value = -math.inf if objective == MAXIMIZE else math.inf
    for distance, path in enumerate_paths_within_distance(
        network, start, destination, distance_threshold, max_paths=max_candidates
    ):
        stats.complete_routes += 1
        query_points = network.path_points(path)
        result = processor.query(query_points, k, method=method)
        value = len(result.transition_ids)
        is_better = value > best_value if objective == MAXIMIZE else value < best_value
        if is_better or (
            value == best_value
            and best is not None
            and distance < best.travel_distance
        ):
            best_value = value
            best = PlannedRoute(
                vertices=path,
                travel_distance=distance,
                transition_ids=result.transition_ids,
                objective=objective,
                stats=stats,
            )
    stats.seconds = time.perf_counter() - started
    if best is not None:
        best.stats = stats
    return best


def maxrknnt_pre(
    network: BusNetwork,
    vertex_index: VertexRkNNTIndex,
    start: int,
    destination: int,
    distance_threshold: float,
    objective: str = MAXIMIZE,
    max_candidates: Optional[int] = None,
) -> Optional[PlannedRoute]:
    """The Pre baseline: candidate enumeration + pre-computed RkNNT unions.

    Identical candidate set to :func:`maxrknnt_bruteforce`; the per-candidate
    RkNNT query is replaced by a union of the pre-computed per-vertex sets
    (Lemma 3), so the running time reduces to the path enumeration itself.
    """
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; expected one of {OBJECTIVES}"
        )
    stats = PlanningStatistics()
    started = time.perf_counter()

    best: Optional[PlannedRoute] = None
    best_value = -math.inf if objective == MAXIMIZE else math.inf
    for distance, path in enumerate_paths_within_distance(
        network, start, destination, distance_threshold, max_paths=max_candidates
    ):
        stats.complete_routes += 1
        endpoints = vertex_index.route_endpoints(path)
        transition_ids = VertexRkNNTIndex.exists_ids(endpoints)
        value = len(transition_ids)
        is_better = value > best_value if objective == MAXIMIZE else value < best_value
        if is_better or (
            value == best_value
            and best is not None
            and distance < best.travel_distance
        ):
            best_value = value
            best = PlannedRoute(
                vertices=path,
                travel_distance=distance,
                transition_ids=transition_ids,
                objective=objective,
                stats=stats,
            )
    stats.seconds = time.perf_counter() - started
    if best is not None:
        best.stats = stats
    return best
