"""Sweep harness shared by the per-figure benchmark scripts.

The paper's RkNNT experiments all have the same shape: fix every parameter at
its default, sweep one of them, and report the average running time of the
three methods (Filter-Refine, Voronoi, Divide-Conquer), optionally broken
down into filtering and verification phases.  :func:`sweep_parameter`
implements that loop once so each ``benchmarks/bench_figure*.py`` script only
declares what varies.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.parameters import BenchmarkScale, get_scale
from repro.core.rknnt import (
    DIVIDE_CONQUER,
    FILTER_REFINE,
    METHODS,
    RkNNTProcessor,
    VORONOI,
)
from repro.data.synthetic import SyntheticCity
from repro.data.workloads import QueryWorkload, make_city
from repro.model.dataset import TransitionDataset

#: Short labels used in the paper's figures.
METHOD_LABELS = {
    FILTER_REFINE: "FR",
    VORONOI: "VO",
    DIVIDE_CONQUER: "DC",
}


@dataclass
class MethodTiming:
    """Average timings and counters of one method at one parameter value."""

    method: str
    total_seconds: float
    filtering_seconds: float
    verification_seconds: float
    result_size: float
    #: Average number of transition endpoints surviving the pruning phase
    #: (the work the verification phase has to do) — a deterministic proxy
    #: for pruning power that the benchmark shape checks rely on.
    candidates: float = 0.0
    #: Average number of R-tree nodes pruned during the query.
    nodes_pruned: float = 0.0

    @property
    def label(self) -> str:
        return METHOD_LABELS.get(self.method, self.method)

    def as_row(self) -> Dict[str, float | str]:
        return {
            "method": self.label,
            "total_s": self.total_seconds,
            "filter_s": self.filtering_seconds,
            "verify_s": self.verification_seconds,
            "candidates": self.candidates,
            "avg_results": self.result_size,
        }


@dataclass
class SweepResult:
    """Result of sweeping one parameter over a set of methods."""

    parameter: str
    values: List[float]
    timings: Dict[float, List[MethodTiming]] = field(default_factory=dict)

    def rows(self) -> List[Dict[str, float | str]]:
        """Flat rows (one per parameter value × method) for table rendering."""
        rows: List[Dict[str, float | str]] = []
        for value in self.values:
            for timing in self.timings.get(value, []):
                row: Dict[str, float | str] = {self.parameter: value}
                row.update(timing.as_row())
                rows.append(row)
        return rows

    def series(self, method: str) -> List[Tuple[float, float]]:
        """(parameter value, total seconds) series for one method."""
        label = METHOD_LABELS.get(method, method)
        series = []
        for value in self.values:
            for timing in self.timings.get(value, []):
                if timing.label == label or timing.method == method:
                    series.append((value, timing.total_seconds))
        return series


def build_benchmark_city(
    preset: str, scale: Optional[BenchmarkScale] = None, seed: Optional[int] = None
) -> Tuple[SyntheticCity, TransitionDataset, RkNNTProcessor, QueryWorkload]:
    """Build the city, transition set, processor and workload for a benchmark."""
    scale = scale or get_scale()
    city, transitions = make_city(preset, scale=scale.city_scale, seed=seed)
    processor = RkNNTProcessor(city.routes, transitions)
    workload = QueryWorkload(city, seed=1234)
    return city, transitions, processor, workload


def time_rknnt_methods(
    processor: RkNNTProcessor,
    queries: Sequence[Sequence[Sequence[float]]],
    k: int,
    methods: Sequence[str] = METHODS,
) -> List[MethodTiming]:
    """Average each method's running time over a batch of queries.

    The per-query phase breakdown comes from the query statistics (so the
    divide & conquer timing is the sum over its sub-queries, matching how the
    paper reports it).
    """
    timings: List[MethodTiming] = []
    for method in methods:
        total = 0.0
        filtering = 0.0
        verification = 0.0
        results = 0.0
        candidates = 0.0
        nodes_pruned = 0.0
        for query in queries:
            started = time.perf_counter()
            result = processor.query(query, k, method=method)
            total += time.perf_counter() - started
            filtering += result.stats.filtering_seconds
            verification += result.stats.verification_seconds
            results += len(result)
            candidates += result.stats.candidates
            nodes_pruned += result.stats.nodes_pruned
        count = max(1, len(queries))
        timings.append(
            MethodTiming(
                method=method,
                total_seconds=total / count,
                filtering_seconds=filtering / count,
                verification_seconds=verification / count,
                result_size=results / count,
                candidates=candidates / count,
                nodes_pruned=nodes_pruned / count,
            )
        )
    return timings


@dataclass
class BatchThroughput:
    """Loop-of-single vs. batched (vs. sharded) execution of one workload.

    ``loop_seconds`` measures one :meth:`~repro.core.rknnt.RkNNTProcessor
    .query` call per query (the scalar path); ``batch_seconds`` measures one
    :meth:`~repro.core.rknnt.RkNNTProcessor.query_batch` call over the same
    workload (shared execution context + vectorized kernels); when
    ``workers > 0``, ``sharded_seconds`` measures the same batch call
    sharded across that many worker processes.  Every measured result list
    is checked element-wise identical before timings are reported.
    """

    method: str
    backend: str
    queries: int
    k: int
    loop_seconds: float
    batch_seconds: float
    result_size: float
    #: Worker processes of the sharded measurement (0 = not measured).
    workers: int = 0
    #: Wall-clock of the sharded batch (``inf`` when not measured).
    sharded_seconds: float = math.inf

    @property
    def speedup(self) -> float:
        """Loop time over batch time (> 1 means batching wins)."""
        if self.batch_seconds == 0.0:
            return float("inf")
        return self.loop_seconds / self.batch_seconds

    @property
    def sharded_speedup(self) -> float:
        """Single-process batch time over sharded time (> 1: sharding wins)."""
        if not self.workers or math.isinf(self.sharded_seconds):
            return 0.0
        if self.sharded_seconds == 0.0:
            return float("inf")
        return self.batch_seconds / self.sharded_seconds

    @property
    def loop_qps(self) -> float:
        return self.queries / self.loop_seconds if self.loop_seconds else 0.0

    @property
    def batch_qps(self) -> float:
        return self.queries / self.batch_seconds if self.batch_seconds else 0.0

    @property
    def sharded_qps(self) -> float:
        if not self.workers or not self.sharded_seconds:
            return 0.0
        if math.isinf(self.sharded_seconds):
            return 0.0
        return self.queries / self.sharded_seconds

    def as_row(self) -> Dict[str, float | str]:
        row: Dict[str, float | str] = {
            "method": METHOD_LABELS.get(self.method, self.method),
            "backend": self.backend,
            "queries": self.queries,
            "loop_s": self.loop_seconds,
            "batch_s": self.batch_seconds,
            "loop_qps": self.loop_qps,
            "batch_qps": self.batch_qps,
            "speedup": self.speedup,
            "avg_results": self.result_size,
        }
        if self.workers:
            row["workers"] = self.workers
            row["sharded_s"] = self.sharded_seconds
            row["sharded_qps"] = self.sharded_qps
            row["sharded_speedup"] = self.sharded_speedup
        return row


def time_batch_throughput(
    processor: RkNNTProcessor,
    queries: Sequence[Sequence[Sequence[float]]],
    k: int,
    method: str = VORONOI,
    backend: str = "auto",
    repeats: int = 1,
    workers: int = 0,
) -> BatchThroughput:
    """Time a workload as a loop of single queries and as one batch.

    Raises ``AssertionError`` if the batch answers differ from the
    per-query answers anywhere — throughput numbers for wrong answers are
    meaningless, so the check is unconditional.  With ``workers > 0`` the
    sharded batch path is additionally timed (and checked) over the same
    workload.

    ``repeats`` re-times each side that many times and keeps the fastest
    observation (the standard way to damp GC pauses and scheduler noise on
    shared machines; CI uses 3).  The engine caches are cleared before
    every batch repeat so each one measures the same cold-cache work,
    route-matrix build included.  The sharded path pays its pool start-up
    inside the timed region on every repeat, so its speedup is end-to-end
    honest.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    loop_seconds = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        singles = [processor.query(query, k, method=method) for query in queries]
        loop_seconds = min(loop_seconds, time.perf_counter() - started)

    batch_seconds = math.inf
    for _ in range(repeats):
        processor.engine_context.clear_caches()
        started = time.perf_counter()
        batched = processor.query_batch(
            queries, k, method=method, backend=backend
        )
        batch_seconds = min(batch_seconds, time.perf_counter() - started)

    for index, (single, batch) in enumerate(zip(singles, batched)):
        assert single.confirmed_endpoints == batch.confirmed_endpoints, (
            f"batch result diverges from single query at index {index}"
        )

    sharded_seconds = math.inf
    if workers:
        for _ in range(repeats):
            processor.engine_context.clear_caches()
            started = time.perf_counter()
            sharded = processor.query_batch(
                queries, k, method=method, backend=backend, workers=workers
            )
            sharded_seconds = min(
                sharded_seconds, time.perf_counter() - started
            )
        for index, (single, shard) in enumerate(zip(singles, sharded)):
            assert single.confirmed_endpoints == shard.confirmed_endpoints, (
                f"sharded result diverges from single query at index {index}"
            )

    from repro.geometry.kernels import resolve_backend

    return BatchThroughput(
        method=method,
        backend=resolve_backend(backend),
        queries=len(queries),
        k=k,
        loop_seconds=loop_seconds,
        batch_seconds=batch_seconds,
        result_size=(
            sum(len(result) for result in batched) / len(batched)
            if batched
            else 0.0
        ),
        workers=workers,
        sharded_seconds=sharded_seconds,
    )


def sweep_parameter(
    processor: RkNNTProcessor,
    workload: QueryWorkload,
    parameter: str,
    values: Sequence[float],
    queries_per_value: int,
    k: int,
    query_length: int,
    interval: float,
    methods: Sequence[str] = METHODS,
) -> SweepResult:
    """Sweep ``parameter`` over ``values`` keeping the other parameters fixed.

    ``parameter`` is one of ``"k"``, ``"query_length"`` or ``"interval"``;
    the corresponding fixed argument is ignored for that sweep.
    """
    if parameter not in ("k", "query_length", "interval"):
        raise ValueError(
            "parameter must be one of 'k', 'query_length', 'interval'"
        )
    result = SweepResult(parameter=parameter, values=list(values))
    for value in values:
        current_k = int(value) if parameter == "k" else k
        current_length = int(value) if parameter == "query_length" else query_length
        current_interval = float(value) if parameter == "interval" else interval
        queries = workload.query_routes(
            queries_per_value, current_length, current_interval
        )
        result.timings[value] = time_rknnt_methods(
            processor, queries, current_k, methods=methods
        )
    return result
