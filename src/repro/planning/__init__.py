"""Optimal route planning over a bus network (Section 6 of the paper).

This sub-package provides:

* :class:`repro.planning.graph.BusNetwork` — the weighted graph ``G`` built
  from a set of bus routes (vertices are stops, edges connect consecutive
  stops, weights are Euclidean distances);
* shortest-path machinery (Dijkstra, the all-pairs matrix ``M_ψ`` — one
  vectorised label-correcting pass over all sources on numpy, one Dijkstra
  per source otherwise — and Yen's k shortest loopless paths) in
  :mod:`repro.planning.shortest_path`;
* per-vertex RkNNT pre-computation (:mod:`repro.planning.precompute`,
  Algorithm 5);
* the MaxRkNNT / MinRkNNT planners: the brute-force and Pre baselines in
  :mod:`repro.planning.bruteforce` and the pruned search (Algorithm 6,
  reachability + dominance) in :mod:`repro.planning.maxrknnt`.
"""

from repro.planning.graph import BusNetwork
from repro.planning.shortest_path import (
    dijkstra,
    shortest_path,
    all_pairs_shortest_distances,
    floyd_warshall,
    yen_k_shortest_paths,
    enumerate_paths_within_distance,
)
from repro.planning.precompute import VertexRkNNTIndex, PrecomputationReport
from repro.planning.maxrknnt import (
    MaxRkNNTPlanner,
    PlannedRoute,
    PlanningStatistics,
    MAXIMIZE,
    MINIMIZE,
)
from repro.planning.bruteforce import maxrknnt_bruteforce, maxrknnt_pre

__all__ = [
    "BusNetwork",
    "dijkstra",
    "shortest_path",
    "all_pairs_shortest_distances",
    "floyd_warshall",
    "yen_k_shortest_paths",
    "enumerate_paths_within_distance",
    "VertexRkNNTIndex",
    "PrecomputationReport",
    "MaxRkNNTPlanner",
    "PlannedRoute",
    "PlanningStatistics",
    "MAXIMIZE",
    "MINIMIZE",
    "maxrknnt_bruteforce",
    "maxrknnt_pre",
]
