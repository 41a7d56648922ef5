#!/usr/bin/env python
"""Quickstart: build a small city, run RkNNT queries, plan an optimal route.

This script walks through the library's public API end to end:

1. generate a synthetic city (bus routes + passenger transitions),
2. answer an RkNNT query with each evaluation strategy and compare them
   against the brute-force baseline,
3. plan a MaxRkNNT route between two stops.

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

import time

from repro import RkNNTProcessor, rknnt_bruteforce
from repro.bench.reporting import format_table
from repro.core.rknnt import METHODS
from repro.data.workloads import QueryWorkload, make_city
from repro.planning import MaxRkNNTPlanner, VertexRkNNTIndex


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Data: a synthetic city standing in for the paper's LA dataset.
    # ------------------------------------------------------------------
    city, transitions = make_city("mini")
    print(f"city: {city.name!r} with {len(city.routes)} bus routes, "
          f"{len(transitions)} passenger transitions, "
          f"network {city.network.vertex_count} stops / {city.network.edge_count} links")

    processor = RkNNTProcessor(city.routes, transitions)
    workload = QueryWorkload(city, seed=7)

    # ------------------------------------------------------------------
    # 2. RkNNT: which passengers would use a planned route?
    # ------------------------------------------------------------------
    query = workload.random_query_route(length=5, interval=1.0)
    k = 3
    print(f"\nRkNNT query with |Q| = {len(query)} points and k = {k}")

    rows = []
    for method in METHODS:
        started = time.perf_counter()
        result = processor.query(query, k, method=method)
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "method": method,
                "results": len(result),
                "seconds": elapsed,
                "candidates": result.stats.candidates,
                "filter_points": result.stats.filter_points,
            }
        )
    oracle = rknnt_bruteforce(city.routes, transitions, query, k)
    rows.append(
        {
            "method": "bruteforce (oracle)",
            "results": len(oracle),
            "seconds": oracle.stats.total_seconds,
            "candidates": oracle.stats.candidates,
            "filter_points": 0,
        }
    )
    print(format_table(rows))
    assert all(row["results"] == len(oracle) for row in rows), "methods disagree!"
    print("all methods agree with the brute-force oracle")

    # ------------------------------------------------------------------
    # 2b. Batched queries: a whole workload through the execution engine.
    # ------------------------------------------------------------------
    # query_batch answers many queries through one shared execution context
    # (vectorized geometry kernels, shared route matrix) and returns
    # element-wise identical results to query().
    workload_queries = workload.query_routes(20, length=5, interval=1.0)

    started = time.perf_counter()
    loop_results = [processor.query(q, k) for q in workload_queries]
    loop_seconds = time.perf_counter() - started

    started = time.perf_counter()
    batch_results = processor.query_batch(workload_queries, k)
    batch_seconds = time.perf_counter() - started

    assert all(
        single.confirmed_endpoints == batch.confirmed_endpoints
        for single, batch in zip(loop_results, batch_results)
    ), "batch diverges from single queries!"
    speedup = loop_seconds / batch_seconds if batch_seconds else float("inf")
    print(
        f"\nbatch of {len(workload_queries)} queries: "
        f"loop {loop_seconds * 1000:.0f} ms vs batch {batch_seconds * 1000:.0f} ms "
        f"({speedup:.1f}x, identical answers)"
    )

    # ------------------------------------------------------------------
    # 3. MaxRkNNT: the most attractive route between two stops.
    # ------------------------------------------------------------------
    print("\nPre-computing per-vertex RkNNT sets (Algorithm 5)...")
    vertex_index = VertexRkNNTIndex(city.network, processor, k=k)
    report = vertex_index.build()
    print(
        f"  per-vertex RkNNT: {report.rknnt_seconds:.2f}s, "
        f"all-pairs shortest paths: {report.shortest_path_seconds:.2f}s"
    )

    planner = MaxRkNNTPlanner(city.network, vertex_index)
    start, end = workload.planning_query(straight_distance=4.0, tolerance=0.6)
    shortest = vertex_index.shortest_distance(start, end)
    tau = shortest * 1.4

    best = planner.plan_max(start, end, tau)
    least = planner.plan_min(start, end, tau)
    print(f"\nplanning from stop {start} to stop {end} "
          f"(shortest {shortest:.2f}, budget τ = {tau:.2f})")
    print(format_table(
        [
            {
                "route": "MaxRkNNT",
                "passengers": best.passengers,
                "distance": best.travel_distance,
                "stops": best.stop_count,
            },
            {
                "route": "MinRkNNT",
                "passengers": least.passengers,
                "distance": least.travel_distance,
                "stops": least.stop_count,
            },
        ]
    ))
    print("\ndone — see examples/capacity_estimation.py and "
          "examples/route_planning.py for deeper dives")


if __name__ == "__main__":
    main()
