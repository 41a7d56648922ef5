"""repro — Reverse k Nearest Neighbor Search over Trajectories (RkNNT).

A from-scratch Python reproduction of the query-processing system described
in *Reverse k Nearest Neighbor Search over Trajectories* (Wang, Bao,
Culpepper, Sellis, Cong; ICDE 2018 / arXiv:1704.03978).

Quick start
-----------
>>> from repro import Route, Transition, RouteDataset, TransitionDataset, RkNNTProcessor
>>> routes = RouteDataset([Route(0, [(0, 0), (1, 0), (2, 0)]),
...                        Route(1, [(0, 2), (1, 2), (2, 2)])])
>>> transitions = TransitionDataset([Transition(0, (0.5, 0.2), (1.5, 0.1))])
>>> processor = RkNNTProcessor(routes, transitions)
>>> result = processor.query([(0, 0.5), (2, 0.5)], k=2)
>>> sorted(result.transition_ids)
[0]
>>> [sorted(r.transition_ids) for r in processor.query_batch(
...     [[(0, 0.5), (2, 0.5)], [(1, 1.8)]], k=2)]
[[0], [0]]

Batch workloads go through :meth:`RkNNTProcessor.query_batch`, which shares
the execution engine's per-dataset caches and the vectorized geometry
kernels across all queries — with answers element-wise
identical to per-query :meth:`RkNNTProcessor.query` calls.

The sub-packages mirror the paper's structure:

* :mod:`repro.core` — the RkNNT filter-refine framework, its Voronoi and
  divide & conquer optimisations, and the brute-force baseline;
* :mod:`repro.engine` — the unified query-execution engine behind all three
  strategies (query plans, shared execution contexts, the staged
  filter → prune → verify executor);
* :mod:`repro.planning` — the MaxRkNNT / MinRkNNT optimal route planning
  query over a bus-network graph;
* :mod:`repro.data` — synthetic city / check-in generators and a GTFS-like
  loader that stand in for the paper's NYC / LA datasets.
"""

from repro.model import Route, Transition, RouteDataset, TransitionDataset
from repro.core import (
    EXISTS,
    FORALL,
    RkNNTProcessor,
    RkNNTResult,
    rknnt_query,
    rknnt_bruteforce,
    rknnt_divide_conquer,
)

# Imported after repro.core: the engine's executor and core's strategy
# wrappers reference each other's submodules, and core resolves the cycle
# when it initialises first.
from repro.engine import (
    ContinuousRkNNT,
    DeadlineExceeded,
    ExecutionContext,
    PoolSaturated,
    QueryPlan,
    ResultDelta,
    RkNNTError,
    Subscription,
)
from repro.index import RouteIndex, TransitionIndex, RTree
from repro.planning import (
    BusNetwork,
    MaxRkNNTPlanner,
    PlannedRoute,
    maxrknnt_bruteforce,
)
from repro.data import CityGenerator, TransitionGenerator, SyntheticCity

__version__ = "1.6.0"

__all__ = [
    "ContinuousRkNNT",
    "DeadlineExceeded",
    "ExecutionContext",
    "PoolSaturated",
    "QueryPlan",
    "ResultDelta",
    "RkNNTError",
    "Subscription",
    "Route",
    "Transition",
    "RouteDataset",
    "TransitionDataset",
    "RkNNTProcessor",
    "RkNNTResult",
    "rknnt_query",
    "rknnt_bruteforce",
    "rknnt_divide_conquer",
    "RouteIndex",
    "TransitionIndex",
    "RTree",
    "EXISTS",
    "FORALL",
    "BusNetwork",
    "MaxRkNNTPlanner",
    "PlannedRoute",
    "maxrknnt_bruteforce",
    "CityGenerator",
    "TransitionGenerator",
    "SyntheticCity",
    "__version__",
]
