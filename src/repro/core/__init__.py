"""Core RkNNT query processing (the paper's primary contribution).

The public entry point is :class:`repro.core.rknnt.RkNNTProcessor`, which
wires the RR-tree / TR-tree indexes together and exposes the three query
evaluation strategies compared in the paper's experiments:

* ``filter-refine`` — the basic framework of Section 4,
* ``voronoi`` — the enlarged per-route filtering space of Section 5.1,
* ``divide-conquer`` — the per-query-point decomposition of Section 5.2.

The brute-force algorithm of Section 1 (a kNN search per transition) lives in
:mod:`repro.core.baseline` and doubles as the correctness oracle in the test
suite.
"""

from repro.core.semantics import EXISTS, FORALL, Semantics
from repro.core.stats import QueryStatistics
from repro.core.result import RkNNTResult
from repro.core.knn import k_nearest_routes, count_routes_within, query_distance
from repro.core.rknnt import RkNNTProcessor, rknnt_query
from repro.core.baseline import rknnt_bruteforce, knn_of_point_bruteforce

__all__ = [
    "EXISTS",
    "FORALL",
    "Semantics",
    "QueryStatistics",
    "RkNNTResult",
    "k_nearest_routes",
    "count_routes_within",
    "query_distance",
    "RkNNTProcessor",
    "rknnt_query",
    "rknnt_bruteforce",
    "knn_of_point_bruteforce",
]
