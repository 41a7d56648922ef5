"""Ablation: how much pruning power each filtering ingredient contributes.

DESIGN.md calls out two design choices in the filter phase:

1. the Voronoi per-route filtering space (Section 5.1) on top of the basic
   per-point half-space filter;
2. the crossover-route priority (points shared by many routes are tried
   first, Section 4.2.1).

This benchmark measures the number of candidate endpoints that survive
pruning with and without the Voronoi filter, and the number of R-tree nodes
pruned, on the same query batch.  The Voronoi filter may never *increase* the
number of candidates — that is the invariant asserted here — and the recorded
table shows by how much it helps at this scale.
"""

from __future__ import annotations

from repro.bench.parameters import DEFAULT_INTERVAL, DEFAULT_K, DEFAULT_QUERY_LENGTH
from repro.bench.reporting import format_table
from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryExecutor


def run_engine(processor, query, k, use_voronoi):
    engine = QueryExecutor(
        ExecutionContext(processor.route_index, processor.transition_index),
        k,
        use_voronoi=use_voronoi,
        backend="python",
    )
    engine.run(query)
    return engine.stats


def test_ablation_voronoi_filtering_power(benchmark, la_bundle, bench_scale, write_result):
    _, _, processor, workload = la_bundle
    queries = workload.query_routes(
        max(2, bench_scale.queries_per_point),
        DEFAULT_QUERY_LENGTH,
        DEFAULT_INTERVAL * bench_scale.distance_scale,
    )

    rows = []
    for index, query in enumerate(queries):
        plain = run_engine(processor, query, DEFAULT_K, use_voronoi=False)
        voronoi = run_engine(processor, query, DEFAULT_K, use_voronoi=True)
        # The Voronoi filtering space is a superset of the per-point one, so
        # it can only reduce the candidate set.
        assert voronoi.candidates <= plain.candidates
        rows.append(
            {
                "query": index,
                "plain_candidates": plain.candidates,
                "voronoi_candidates": voronoi.candidates,
                "plain_nodes_pruned": plain.nodes_pruned,
                "voronoi_nodes_pruned": voronoi.nodes_pruned,
                "plain_filter_s": plain.filtering_seconds,
                "voronoi_filter_s": voronoi.filtering_seconds,
            }
        )

    write_result(
        "ablation_voronoi_filtering",
        format_table(
            rows,
            title="Ablation — candidates surviving pruning with / without the Voronoi filter",
        ),
    )

    query = queries[0]
    benchmark(run_engine, processor, query, DEFAULT_K, True)
