"""Table 5: pre-computation cost (per-vertex RkNNT + all-pairs shortest paths).

The paper reports the two phases separately for k = 1, 5, 10 on LA and NYC
(about 1.5-5 minutes each on their testbed).  The reproduction reports the
same breakdown on the scaled datasets and asserts the structural trend that
the paper's per-vertex RkNNT phase grows with k.

``VertexRkNNTIndex.build`` no longer runs that phase as the paper does: it
answers every stop from the execution context's k-th-route radius table.  So
the paper's phase is timed explicitly, as one single-point Voronoi query per
stop (``vo_sweep_s``), and the trend is asserted on it.  The radius table's
one-off build (``radius_s``) and the build's per-stop lookups over it
(``rknnt_s``) are reported in their own columns.
"""

from __future__ import annotations

import time

from repro.bench.reporting import format_table
from repro.engine.plan import VORONOI
from repro.planning.precompute import VertexRkNNTIndex


def test_table5_precomputation_cost(benchmark, la_bundle, nyc_bundle, bench_scale, write_result):
    k_values = (1, 5) if bench_scale.name == "smoke" else (1, 5, 10)
    rows = []
    reports = {}
    vo_sweeps = {}
    for name, bundle in (("LA-like", la_bundle), ("NYC-like", nyc_bundle)):
        city, _, processor, _ = bundle
        # Restrict the per-vertex phase to a sample of vertices at smoke scale
        # so Table 5 stays cheap; the per-vertex cost is what matters.
        vertices = list(city.network.vertices())
        if bench_scale.name == "smoke":
            vertices = vertices[:: max(1, len(vertices) // 40)]
        stop_queries = [[tuple(city.network.position(v))] for v in vertices]
        for k in k_values:
            # Table 5 times the *cold* pre-computation; drop the engine
            # context's derived caches (earlier benchmarks sharing this
            # processor may have populated them).
            context = processor.engine_context
            context.clear_caches()
            started = time.perf_counter()
            context.knn_radii(k)
            radius_seconds = time.perf_counter() - started
            index = VertexRkNNTIndex(city.network, processor, k=k)
            report = index.build(vertices=vertices)
            reports[(name, k)] = report
            # The paper's per-vertex phase: one filter → prune → verify
            # query per stop.
            started = time.perf_counter()
            processor.query_batch(stop_queries, k, method=VORONOI)
            vo_sweeps[(name, k)] = time.perf_counter() - started
            rows.append(
                {
                    "dataset": name,
                    "k": k,
                    "vertices": report.vertices,
                    "vo_sweep_s": vo_sweeps[(name, k)],
                    "radius_s": radius_seconds,
                    "rknnt_s": report.rknnt_seconds,
                    "shortest_s": report.shortest_path_seconds,
                    "total_s": radius_seconds + report.total_seconds,
                }
            )

    for name in ("LA-like", "NYC-like"):
        small_k = vo_sweeps[(name, k_values[0])]
        large_k = vo_sweeps[(name, k_values[-1])]
        # The RkNNT phase gets slower as k grows (pruning gets weaker),
        # the trend Table 5 shows across its columns.
        assert large_k >= small_k * 0.8
        assert reports[(name, k_values[0])].total_seconds > 0.0

    write_result(
        "table5_precompute",
        format_table(rows, title="Table 5 — pre-computation time (seconds)"),
    )

    city, _, processor, _ = la_bundle
    sample_vertex = next(iter(city.network.vertices()))
    index = VertexRkNNTIndex(city.network, processor, k=k_values[0])
    benchmark(index.vertex_endpoints, sample_vertex)
