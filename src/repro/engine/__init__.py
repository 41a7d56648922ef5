"""The unified query-execution engine.

Every RkNNT evaluation strategy in the paper — basic filter–refine
(Section 4), the Voronoi optimisation (Section 5.1) and divide & conquer
(Section 5.2) — is the same three-stage pipeline with different knobs:

    filter  (build the filtering set from the RR-tree)
      → prune  (discard TR-tree nodes/endpoints dominated by ≥ k routes)
      → verify (exactly check the survivors)

This package factors that pipeline out of the per-method modules:

* :mod:`repro.engine.plan` — :class:`QueryPlan`, the declarative description
  of a strategy (which filter to use, whether to decompose per query point,
  which geometry backend to run on);
* :mod:`repro.engine.context` — :class:`ExecutionContext`, the per-dataset
  caches shared across queries of a workload (flattened route matrices for
  vectorized verification, memoised single-point sub-query answers);
* :mod:`repro.engine.filterset` — the filtering set ``S_filter`` with packed
  array views for the vectorized kernels;
* :mod:`repro.engine.executor` — :class:`QueryExecutor` (the staged
  pipeline) and the :func:`execute` / :func:`execute_batch` entry points;
* :mod:`repro.engine.parallel` — :class:`ShardedExecutor`, which shards
  batch workloads across a process pool with one private context per
  worker and deterministic result re-ordering; reusable as the processor's
  persistent *serving pool* (transition churn is delta-synced into the
  workers, route churn reseeds);
* :mod:`repro.engine.continuous` — :class:`ContinuousRkNNT` and
  :class:`Subscription`, delta-maintained standing queries over the
  transition index's typed mutation stream;
* :mod:`repro.engine.resilience` — the typed failure taxonomy
  (:class:`RkNNTError` and friends), deadlines, bounded backoff retries
  and admission control for the serving runtime;
* :mod:`repro.engine.faults` — deterministic fault injection: named
  injection points threaded through the serving stack, driven by the
  ``RKNNT_FAULTS`` spec so every chaos run reproduces.

The geometry kernels themselves live in :mod:`repro.geometry.kernels`; the
engine produces element-wise identical answers on its numpy (batch
kernel) and python (scalar predicate) backends.
"""

from repro.engine.context import ExecutionContext
from repro.engine.continuous import (
    ContinuousRkNNT,
    DeltaStatistics,
    ResultDelta,
    Subscription,
)
from repro.engine.executor import QueryExecutor, execute, execute_batch
from repro.engine.filterset import FilterSet
from repro.engine.parallel import ShardedExecutor
from repro.engine.resilience import (
    Deadline,
    DeadlineExceeded,
    PoolSaturated,
    ReseedError,
    RkNNTError,
    SyncLogError,
    UpdateStreamError,
    WorkerCrashError,
)
from repro.engine.plan import (
    DIVIDE_CONQUER,
    FILTER_REFINE,
    METHODS,
    QueryPlan,
    VORONOI,
)

__all__ = [
    "ContinuousRkNNT",
    "DIVIDE_CONQUER",
    "Deadline",
    "DeadlineExceeded",
    "DeltaStatistics",
    "ExecutionContext",
    "FILTER_REFINE",
    "FilterSet",
    "METHODS",
    "PoolSaturated",
    "QueryExecutor",
    "QueryPlan",
    "ReseedError",
    "ResultDelta",
    "RkNNTError",
    "ShardedExecutor",
    "Subscription",
    "SyncLogError",
    "UpdateStreamError",
    "VORONOI",
    "WorkerCrashError",
    "execute",
    "execute_batch",
]
