"""Batched vs. loop-of-single vs. sharded query execution throughput.

Not a figure of the paper: this benchmark quantifies the unified execution
engine's batching win plus the two PR-2 hot-path changes.  The same
synthetic workload is answered several ways per method —

* a loop of :meth:`~repro.core.rknnt.RkNNTProcessor.query` calls,
* one :meth:`~repro.core.rknnt.RkNNTProcessor.query_batch` call (shared
  execution context + vectorized geometry kernels),
* the same batch sharded across worker processes
  (``query_batch(workers=N)``, the :class:`~repro.engine.parallel
  .ShardedExecutor` path)

— and the speedups and queries/sec of each are reported.  Answers are
checked element-wise identical before any timing is trusted.

Acceptance bar (asserted when the machine can meaningfully show it): with
≥ 2 usable CPUs, the sharded path (2 workers) is ≥ 1.5× the single-process
batch on the smoke workload.  The batch-vs-loop speedup is reported but not
asserted: ``query`` runs the same vectorized kernels as ``query_batch``, so
that ratio compares one path with itself and sits near 1×.

Results are written as a text table, as JSON rows under
``benchmarks/results/``, and appended to the repo-root ``BENCH_batch.json``
trajectory artifact so per-PR CI runs accumulate comparable numbers.
"""

from __future__ import annotations

import json
import os
import time

from repro.bench.harness import time_batch_throughput
from repro.bench.parameters import DEFAULT_INTERVAL, DEFAULT_QUERY_LENGTH
from repro.bench.reporting import append_trajectory, format_table, git_commit
from repro.core.rknnt import METHODS, VORONOI
from repro.engine.parallel import available_cpu_count
from repro.geometry.kernels import numpy_available

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
#: Repo-root trajectory artifact: one entry appended per benchmark run, so
#: committing it per PR accumulates a perf history next to the code.
TRAJECTORY_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_batch.json",
)

#: k kept modest so pruning stays effective on the scaled-down cities.
BATCH_K = 5

#: Worker processes for the sharded measurement (the acceptance criterion
#: is stated for >= 2 workers).
SHARD_WORKERS = 2


def test_batch_throughput(benchmark, la_bundle, bench_scale, write_result):
    _, _, processor, workload = la_bundle
    query_count = max(10, 5 * bench_scale.queries_per_point)
    queries = workload.query_routes(
        query_count,
        DEFAULT_QUERY_LENGTH,
        DEFAULT_INTERVAL * bench_scale.distance_scale,
    )
    cpus = available_cpu_count()

    rows = []
    by_method = {}
    for method in METHODS:
        # Best-of-3 timings keep the speedup assertions stable on noisy
        # shared runners (GC pauses, noisy CPU neighbours).  The sharded
        # measurement pays its pool start-up inside the timed region.
        timing = time_batch_throughput(
            processor,
            queries,
            BATCH_K,
            method=method,
            repeats=3,
            workers=SHARD_WORKERS,
        )
        by_method[method] = timing
        rows.append(timing.as_row())

    table = format_table(
        rows,
        title=(
            f"batch vs loop-of-single vs sharded throughput "
            f"({query_count} queries, k={BATCH_K}, backend="
            f"{rows[0]['backend']}, workers={SHARD_WORKERS}, cpus={cpus})"
        ),
    )
    write_result("batch_throughput", table)

    # JSON artefacts: the per-run rows next to the other benchmark results,
    # plus the repo-root trajectory entry CI accumulates per PR.
    os.makedirs(RESULTS_DIR, exist_ok=True)
    payload = {
        "benchmark": "batch_throughput",
        "queries": query_count,
        "k": BATCH_K,
        "workers": SHARD_WORKERS,
        "cpus": cpus,
        "numpy": numpy_available(),
        "scale": bench_scale.name,
        "rows": rows,
    }
    json_path = os.path.join(RESULTS_DIR, "batch_throughput.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    append_trajectory(
        TRAJECTORY_PATH,
        {
            "commit": git_commit(os.path.dirname(os.path.abspath(__file__))),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            **payload,
        },
    )

    if cpus >= 2:
        # Acceptance bar: sharding must pay for itself once there are CPUs
        # to shard onto.  On single-CPU machines the sharded path is still
        # timed and checked for correctness, but a speedup is physically
        # impossible, so the bar is not asserted.
        assert by_method[VORONOI].sharded_speedup >= 1.5, (
            f"expected >= 1.5x sharded speedup with {SHARD_WORKERS} workers, "
            f"got {by_method[VORONOI].sharded_speedup:.2f}x"
        )
    # pytest-benchmark datum: the whole batch through the engine.
    benchmark(processor.query_batch, queries, BATCH_K, method=VORONOI)
