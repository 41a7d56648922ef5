"""analytics-batch: offline capacity scoring through serial batches.

The city is the ``nyc`` preset at 1.5 times its size (its own fixed dataset);
the seed draws the query routes.  Each round draws a fresh batch of
Table-4 query routes from ``QueryWorkload.random_query_route`` (k = 10,
|Q| = 5, I = the default interval scaled to the city) and answers it with
one serial ``query_batch(workers=0, backend="auto")`` per method —
filter-refine, Voronoi, divide & conquer.
No pool, server or write is in the path, so the executor stages, the
geometry kernels and the R-tree traversals do nearly all the work.

Traced runs answer every batch twice, on two processors built the same
way: once with the executor stages spanned and once without, alternating
which goes first, so the difference is the tracing overhead.
"""

from __future__ import annotations

import time
from typing import Dict, List

from repro.core.baseline import rknnt_bruteforce
from repro.core.rknnt import DIVIDE_CONQUER, FILTER_REFINE, VORONOI, RkNNTProcessor
from repro.data.workloads import QueryWorkload, make_city
from repro.model.dataset import TransitionDataset

from spans import OFF
from common import (
    INTERVAL,
    K,
    METHOD_LABELS,
    ORACLE_STRIDE,
    QUERY_LENGTH,
    QueryCounters,
    Report,
    add_latency,
    median,
    own_peak_rss_mb,
    self_time_ms,
    stage_metrics,
    timed_setups,
    wrap_executor,
)

PRESET = "nyc"
SCALE = 1.5
METHODS = (FILTER_REFINE, VORONOI, DIVIDE_CONQUER)
#: Queries per batch; every method answers the same batch.
BATCH = 8
#: Rounds whose first query is also checked against the brute-force oracle.
ORACLE_ROUNDS = 2


def answer_batch(processor, queries, tracer, request: str) -> Dict[str, list]:
    answers = {}
    for method in METHODS:
        label = METHOD_LABELS[method]
        with tracer.span("core.query_batch", request=request, method=label):
            answers[method] = processor.query_batch(
                queries, K, method=method, workers=0, backend="auto"
            )
    return answers


def same_answer(first, second) -> bool:
    return (
        first.transition_ids == second.transition_ids
        and first.confirmed_endpoints == second.confirmed_endpoints
    )


def run(seed: int, seconds: float, tracer, report: Report) -> Dict[str, object]:
    city, transitions = make_city(PRESET, scale=SCALE)
    workload = QueryWorkload(city, seed=seed)

    build_seconds: List[float] = []

    def setup():
        started = time.perf_counter()
        processor = RkNNTProcessor(city.routes, transitions)
        build_seconds.append(time.perf_counter() - started)
        # Ready means the lazily built caches exist too: the route matrix
        # and every R-tree node's packed child boxes, which queries would
        # otherwise fill one node at a time for the first few hundred queries.
        processor.engine_context.route_matrix()
        for tree in (processor.route_index.tree, processor.transition_index.tree):
            nodes = [tree.root]
            while nodes:
                node = nodes.pop()
                node.packed_child_boxes()
                if not node.is_leaf:
                    nodes.extend(node.children)
        return processor

    setup_seconds, processor = timed_setups(setup)
    report.add("setup_s", median(setup_seconds), "s", len(setup_seconds))
    report.add("index.build_s", median(build_seconds), "s", len(build_seconds))
    traced_processor = setup() if tracer.enabled else None

    counters = QueryCounters()
    latencies_ms: List[float] = []
    plain_seconds = traced_seconds = 0.0
    answered = 0
    oracle_checks = []
    rounds = 0
    stop = time.perf_counter() + seconds
    while rounds < 2 or time.perf_counter() < stop:
        queries = workload.query_routes(BATCH, QUERY_LENGTH, INTERVAL)
        request = f"round-{rounds}"
        passes = ["plain", "traced"] if tracer.enabled else ["plain"]
        if rounds % 2:
            passes.reverse()
        for which in passes:
            if which == "traced":
                wrap_executor(tracer)
                started = time.perf_counter()
                traced = answer_batch(traced_processor, queries, tracer, request)
                traced_seconds += time.perf_counter() - started
                tracer.restore()
            else:
                started = time.perf_counter()
                answers = answer_batch(processor, queries, OFF, request)
                plain_seconds += time.perf_counter() - started
        answered += len(queries) * len(METHODS)
        report.attempted += len(queries) * len(METHODS)
        for method in METHODS:
            for result in answers[method]:
                latencies_ms.append(result.stats.total_seconds * 1000.0)
                counters.add(METHOD_LABELS[method], result.stats)
        for index in range(len(queries)):
            reference = answers[FILTER_REFINE][index]
            for method in (VORONOI, DIVIDE_CONQUER):
                report.check(
                    same_answer(answers[method][index], reference),
                    f"{request} query {index}: {method} != {FILTER_REFINE}",
                )
            if tracer.enabled:
                for method in METHODS:
                    report.check(
                        same_answer(traced[method][index], answers[method][index]),
                        f"{request} query {index}: traced {method} differs",
                    )
        if rounds < ORACLE_ROUNDS:
            oracle_checks.append((request, queries[0], answers[FILTER_REFINE][0]))
        rounds += 1

    sample = TransitionDataset(list(transitions)[::ORACLE_STRIDE])
    for request, query, answer in oracle_checks:
        oracle = rknnt_bruteforce(city.routes, sample, query, K)
        expected = {tid: frozenset(ends) for tid, ends in oracle.confirmed_endpoints.items()}
        got = {
            tid: frozenset(ends)
            for tid, ends in answer.confirmed_endpoints.items()
            if tid in sample
        }
        report.check(got == expected, f"{request} query 0 != brute force on the sample")

    # Over the whole run, not per round: query cost depends on where in the
    # city a query lies, and a round of 8 queries samples few places.
    report.add("query_qps", answered / plain_seconds, "1/s", answered)
    report.add("ops_per_s", answered / plain_seconds, "1/s", answered)
    add_latency(report, "query", latencies_ms)
    report.add("peak_rss_mb", own_peak_rss_mb(), "MB")
    counters.metrics(report)
    context = processor.engine_context
    report.add("context.subquery_hits", context.subquery_hits, "count")
    report.add("context.subquery_misses", context.subquery_misses, "count")
    if tracer.enabled:
        stage_metrics(report, tracer, counters.queries)
        report.add(
            "core.batch_overhead_ms",
            self_time_ms(tracer, "core.query_batch") / answered,
            "ms",
            answered,
        )
        report.add(
            "trace.overhead_pct",
            (traced_seconds - plain_seconds) / plain_seconds * 100.0,
            "%",
            rounds,
        )
    return {"rounds": rounds, "batch": BATCH, "routes": len(city.routes), "transitions": len(transitions)}

