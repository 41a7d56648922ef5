"""Figure 18: MaxRkNNT running time as the start/end distance ψ(se) grows.

Methods compared, as in the paper: the brute-force baseline (BF: enumerate
candidates + one RkNNT query each), Pre (enumerate candidates + pre-computed
per-vertex unions), and the pruned searches Pre-Max / Pre-Min (Algorithm 6).

Paper shape: every method slows down as ψ(se) grows (more graph between the
endpoints) and the pruned searches are far cheaper than BF, with Pre in
between.
"""

from __future__ import annotations

import time

from repro.bench.parameters import PSI_SE_VALUES
from repro.bench.reporting import format_table
from repro.planning.bruteforce import maxrknnt_bruteforce, maxrknnt_pre
from repro.planning.maxrknnt import MINIMIZE

#: Cap on the number of candidate routes the BF/Pre baselines may enumerate;
#: keeps the baseline tractable on the pure-Python testbed (the cap is noted
#: in the result table when it binds).
MAX_CANDIDATES = 60


def test_figure18_effect_of_psi_se(
    benchmark,
    la_bundle,
    la_vertex_index,
    la_planner,
    bench_scale,
    write_result,
    planning_query_for,
    planning_k,
):
    city, _, processor, _ = la_bundle
    psi_values = PSI_SE_VALUES[:2] if bench_scale.name == "smoke" else PSI_SE_VALUES

    rows = []
    totals = {"BF": 0.0, "Pre": 0.0, "Pre-Max": 0.0, "Pre-Min": 0.0}
    for psi in psi_values:
        for _ in range(bench_scale.planning_queries):
            start, end, tau = planning_query_for(la_bundle, la_vertex_index, psi)

            started = time.perf_counter()
            bf = maxrknnt_bruteforce(
                city.network,
                processor,
                start,
                end,
                tau,
                k=planning_k,
                max_candidates=MAX_CANDIDATES,
            )
            bf_seconds = time.perf_counter() - started

            started = time.perf_counter()
            pre = maxrknnt_pre(
                city.network,
                la_vertex_index,
                start,
                end,
                tau,
                max_candidates=MAX_CANDIDATES,
            )
            pre_seconds = time.perf_counter() - started

            pre_max = la_planner.plan(start, end, tau)
            pre_min = la_planner.plan(start, end, tau, objective=MINIMIZE)

            totals["BF"] += bf_seconds
            totals["Pre"] += pre_seconds
            totals["Pre-Max"] += pre_max.stats.seconds if pre_max else 0.0
            totals["Pre-Min"] += pre_min.stats.seconds if pre_min else 0.0
            rows.append(
                {
                    "psi_se": psi,
                    "BF_s": bf_seconds,
                    "Pre_s": pre_seconds,
                    "PreMax_s": pre_max.stats.seconds if pre_max else 0.0,
                    "PreMin_s": pre_min.stats.seconds if pre_min else 0.0,
                    "candidates": bf.stats.complete_routes if bf else 0,
                    "passengers": pre_max.passengers if pre_max else 0,
                }
            )

            # Consistency between the baselines and the pruned search when
            # the brute-force candidate cap did not bind.
            if bf is not None and pre is not None and bf.stats.complete_routes < MAX_CANDIDATES:
                assert bf.passengers == pre.passengers
                if pre_max is not None:
                    assert pre_max.passengers <= pre.passengers

    # Paper shape: replacing the per-candidate RkNNT query with pre-computed
    # unions removes the dominant cost of BF.
    assert totals["Pre"] < totals["BF"]
    # The pruned searches must also stay far below the brute-force baseline
    # (the paper's headline gap in Figure 18).
    assert totals["Pre-Max"] < totals["BF"]
    assert totals["Pre-Min"] < totals["BF"]

    write_result(
        "figure18_effect_psi",
        format_table(rows, title="Figure 18 (LA) — planning cost vs ψ(se) (seconds)"),
    )

    start, end, tau = planning_query_for(la_bundle, la_vertex_index, psi_values[0])
    benchmark(la_planner.plan, start, end, tau)
