"""plan-maxrknnt: MaxRkNNT / MinRkNNT route planning.

The city is the ``la`` preset at its own size; the seed draws the
(start, end) pairs.  Set-up builds the processor and
``VertexRkNNTIndex(k=10)``: a single-point RkNNT query per bus stop plus
all-pairs shortest paths.  The timed phase cycles through a fixed set of
planning queries over the scaled ψ(se) × τ/ψ(se) grid, alternating the
``max`` and ``min`` objectives.  Plan latency is heavy-tailed and depends
strongly on which pairs a seed draws, so it is a per-layer metric; the
end-to-end metrics of this workload come from set-up and its sweep.  The
timed phase is pure graph search: the executor and the kernels only run
inside set-up, so an engine gain should move ``setup_s`` and ``query_qps``
here but not the planning latency.  The sweep's answers for every
``ORACLE_STOP_STRIDE``-th stop are checked against the brute-force oracle.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List

from repro.bench.parameters import get_scale
from repro.core.baseline import rknnt_bruteforce
from repro.core.rknnt import RkNNTProcessor
from repro.data.workloads import QueryWorkload, make_city
from repro.model.dataset import TransitionDataset
from repro.planning import precompute
from repro.planning.maxrknnt import MaxRkNNTPlanner
from repro.planning.precompute import VertexRkNNTIndex

from common import (
    K,
    ORACLE_STRIDE,
    QueryCounters,
    Report,
    add_latency,
    median,
    own_peak_rss_mb,
    stage_metrics,
    timed_setups,
    wrap_executor,
)

PRESET = "la"
SCALE = 1.0
#: ψ(se) values of Figure 18 and τ/ψ(se) ratios of Figure 19 whose plans
#: finish within tens of milliseconds on this city; the search space grows
#: steeply past them (seconds and gigabytes per plan at ψ = 30, τ/ψ = 1.6).
PSI_SE_VALUES = (10.0, 20.0)
TAU_RATIOS = (1.2, 1.4, 1.6)
#: (start, end) pairs drawn per ψ(se) value.
PAIRS_PER_PSI = 40
OBJECTIVES = ("max", "min")
#: Every n-th stop (in vertex order) has its swept answer checked.
ORACLE_STOP_STRIDE = 29


def planning_queries(city, seed: int) -> List[tuple]:
    workload = QueryWorkload(city, seed=seed)
    scale = get_scale("small").distance_scale
    queries = []
    for psi in PSI_SE_VALUES:
        for start, end in workload.planning_queries(PAIRS_PER_PSI, psi * scale):
            for ratio in TAU_RATIOS:
                for objective in OBJECTIVES:
                    queries.append((start, end, ratio * psi * scale, objective))
    return queries


def check_plan(report: Report, network, index, query, route) -> None:
    start, end, tau, objective = query
    where = f"plan {start}->{end} tau={tau:.2f} {objective}"
    if route is None:
        report.check(index.shortest_distance(start, end) > tau, f"{where}: no route, yet one fits")
        return
    vertices = route.vertices
    distance = network.path_distance(vertices)
    report.check(
        vertices[0] == start
        and vertices[-1] == end
        and len(set(vertices)) == len(vertices)
        and all(network.has_edge(u, v) for u, v in zip(vertices, vertices[1:])),
        f"{where}: not a loopless start-to-end path",
    )
    report.check(
        distance <= tau * (1 + 1e-9) and abs(distance - route.travel_distance) <= 1e-9 * (1 + distance),
        f"{where}: travel distance {route.travel_distance} vs tau {tau}",
    )
    recount = VertexRkNNTIndex.exists_count(index.route_endpoints(vertices))
    report.check(route.passengers == recount, f"{where}: {route.passengers} passengers, recount {recount}")


def check_sweep(report: Report, city, transitions, index) -> None:
    """A fixed sample of stops' swept answers ≡ brute force on every
    ``ORACLE_STRIDE``-th transition (membership of a transition depends only
    on the routes and the query, so the answer restricted to the sample must
    equal the oracle on it)."""
    network = city.network
    sample = TransitionDataset(list(transitions)[::ORACLE_STRIDE])
    for vertex in sorted(network.vertices())[::ORACLE_STOP_STRIDE]:
        oracle = rknnt_bruteforce(city.routes, sample, [tuple(network.position(vertex))], K)
        expected = {(tid, end) for tid, ends in oracle.confirmed_endpoints.items() for end in ends}
        got = {(tid, end) for tid, end in index.vertex_endpoints(vertex) if tid in sample}
        report.attempted += 1
        report.check(got == expected, f"stop {vertex}: swept answer != brute force on the sample")


def run(seed: int, seconds: float, tracer, report: Report) -> Dict[str, object]:
    city, transitions = make_city(PRESET, scale=SCALE)
    network = city.network

    # Each per-stop query of the sweep goes through ``run_stages``; timing
    # those calls gives the sweep's per-query latency.
    calls: List[tuple] = []
    original = precompute.run_stages

    def timed_run_stages(*args, **kwargs):
        started = time.perf_counter()
        confirmed, stats = original(*args, **kwargs)
        calls.append((time.perf_counter() - started, stats))
        return confirmed, stats

    reports = []
    build_seconds: List[float] = []

    def setup():
        started = time.perf_counter()
        processor = RkNNTProcessor(city.routes, transitions)
        build_seconds.append(time.perf_counter() - started)
        index = VertexRkNNTIndex(network, processor, k=K)
        reports.append(index.build())
        return index

    precompute.run_stages = timed_run_stages
    try:
        setup_seconds, index = timed_setups(setup)
        plain_calls = len(calls)
        if tracer.enabled:
            wrap_executor(tracer)
            try:
                started = time.perf_counter()
                with tracer.span("precompute.build", method="vo"):
                    setup()
                traced = time.perf_counter() - started
            finally:
                tracer.restore()
            plain = median(setup_seconds)
            report.add("trace.overhead_pct", (traced - plain) / plain * 100.0, "%", 1)
            counters = QueryCounters()
            for _, stats in calls[plain_calls:]:
                counters.add("vo", stats)
            stage_metrics(report, tracer, counters.queries)
            counters.metrics(report)
    finally:
        precompute.run_stages = original

    repeats = len(setup_seconds)
    reports = reports[:repeats]
    report.add("setup_s", median(setup_seconds), "s", repeats)
    report.add("index.build_s", median(build_seconds[:repeats]), "s", repeats)
    report.add("precompute.rknnt_s", median([r.rknnt_seconds for r in reports]), "s", repeats)
    report.add("precompute.shortest_path_s", median([r.shortest_path_seconds for r in reports]), "s", repeats)
    # Every set-up sweeps the same stops in the same order, so each stop's
    # query is timed once per set-up; its fastest time is the one least
    # disturbed by other load on the host, whose speed drifts in plateaus
    # of several seconds.
    stops = plain_calls // repeats
    fastest = [
        min(calls[setup * stops + stop][0] for setup in range(repeats)) for stop in range(stops)
    ]
    report.add("query_qps", stops / sum(fastest), "1/s", stops)
    add_latency(report, "query", [elapsed * 1000.0 for elapsed in fastest])
    # Planning memory grows with the pairs a seed draws, like plan latency,
    # so the end-to-end peak is taken once set-up is done.
    report.add("peak_rss_mb", own_peak_rss_mb(), "MB")

    check_sweep(report, city, transitions, index)
    planner = MaxRkNNTPlanner(network, index)
    queries = planning_queries(city, seed)
    latencies_ms: List[float] = []
    totals = dict.fromkeys(
        ("expansions", "pruned_by_reachability", "pruned_by_dominance", "pruned_by_bound", "complete_routes"), 0
    )
    checked = set()
    found = 0
    started = time.perf_counter()
    stop = started + seconds
    for position, query in itertools.cycle(enumerate(queries)):
        if latencies_ms and time.perf_counter() >= stop:
            break
        start, end, tau, objective = query
        with tracer.span("maxrknnt.plan", request=f"plan-{len(latencies_ms)}"):
            began = time.perf_counter()
            route = planner.plan(start, end, tau, objective=objective)
            latencies_ms.append((time.perf_counter() - began) * 1000.0)
        if route is not None:
            found += 1
            for name in totals:
                totals[name] += getattr(route.stats, name)
        if position not in checked:
            checked.add(position)
            check_plan(report, network, index, query, route)
    wall = time.perf_counter() - started
    report.attempted += len(latencies_ms)

    plans = len(latencies_ms)
    report.add("ops_per_s", plans / wall, "1/s", plans)
    add_latency(report, "plan", latencies_ms)
    # ``plan`` returns its statistics only with a route.
    per_plan = max(1, found)
    report.add("maxrknnt.expansions", totals["expansions"] / per_plan, "count", found)
    report.add("maxrknnt.pruned_reachability", totals["pruned_by_reachability"] / per_plan, "count", found)
    report.add("maxrknnt.pruned_dominance", totals["pruned_by_dominance"] / per_plan, "count", found)
    report.add("maxrknnt.pruned_bound", totals["pruned_by_bound"] / per_plan, "count", found)
    report.add(
        "maxrknnt.complete_ratio",
        totals["complete_routes"] / max(1, totals["expansions"]),
        "ratio",
        found,
    )
    return {
        "routes": len(city.routes),
        "transitions": len(transitions),
        "stops": network.vertex_count,
        "planning_queries": len(queries),
        "planned": len(checked),
    }
