"""Network serving front-end: micro-batch coalescing vs a lone client.

Not a figure of the paper: this benchmark quantifies the serving-layer win
of the asyncio front-end (PR 8).  The same query workload is pushed through
one :class:`~repro.engine.server.RkNNTServer` two ways —

* **single client**: one blocking :class:`~repro.cli.LineClient` issues
  every query in a loop, so each query pays the full admission window and
  a whole dispatch round-trip by itself;
* **concurrent clients**: ``CLIENT_COUNT`` threaded clients issue the same
  number of queries each, arriving inside shared admission windows, so the
  dispatcher coalesces them into micro-batches and each flush amortises
  the window and the pool round-trip across the whole batch

— and the aggregate QPS ratio is reported.

Correctness is asserted **differentially before any timing is trusted**:
the server records its oplog, every recorded query is replayed serially
through the same processor, and each client's replies must be equal to the
serial answer for exactly the queries that client sent (zero cross-client
leakage), received in strictly increasing dispatch order (per-client
ordering).  The line client itself enforces reply-id matching, so a
misrouted reply fails the run rather than skewing it.

Acceptance bars:

* with ≥ 2 usable CPUs, ``CLIENT_COUNT`` concurrent clients sustain
  ≥ ``COALESCE_SPEEDUP_BAR``× the aggregate QPS of the single-client
  loop;
* the concurrent phase must actually coalesce (max batch > 1).

Results are written as a text table, as JSON rows under
``benchmarks/results/``, and appended to the repo-root ``BENCH_batch.json``
trajectory artifact so per-PR CI runs accumulate comparable numbers.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time

from repro.bench.reporting import append_trajectory, format_table, git_commit
from repro.cli import LineClient
from repro.core.rknnt import VORONOI
from repro.engine import protocol
from repro.engine.parallel import available_cpu_count
from repro.engine.server import ServerThread
from repro.geometry.kernels import numpy_available

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
TRAJECTORY_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_batch.json",
)

SERVE_K = 5
SERVE_WORKERS = 2

#: Concurrent connections in the coalescing phase (the acceptance bar of
#: the issue: 32 clients on >= 2 CPUs).
CLIENT_COUNT = 32

#: Queries each client issues per timed phase.
QUERIES_PER_CLIENT = 4

#: Admission window.  Long enough that concurrent arrivals genuinely share
#: windows on a loaded runner, short enough that the single-client loop
#: (which pays it per query) finishes promptly.
WINDOW_MS = 3.0

#: Required aggregate-QPS win of coalesced concurrent serving over the
#: loop-of-single-client baseline.
COALESCE_SPEEDUP_BAR = 1.5


def _client_queries(workload, bench_scale, client_id):
    """A deterministic per-client query list (distinct across clients, so
    leakage would change answers, not just timings)."""
    queries = workload.query_routes(
        QUERIES_PER_CLIENT, 3, 2.0 * bench_scale.distance_scale
    )
    offset = 0.001 * (client_id + 1)
    return [[(x + offset, y + offset) for x, y in query] for query in queries]


def _run_single_client(handle, queries):
    replies = []
    with LineClient(handle.host, handle.port) as client:
        started = time.perf_counter()
        for points in queries:
            replies.append(client.query(points, k=SERVE_K, method=VORONOI))
        elapsed = time.perf_counter() - started
    return replies, elapsed


def _run_concurrent_clients(handle, per_client_queries):
    replies = [[] for _ in per_client_queries]
    failures = []
    barrier = threading.Barrier(len(per_client_queries) + 1)

    def run(client_id, queries):
        try:
            with LineClient(handle.host, handle.port, timeout=120.0) as client:
                barrier.wait(timeout=120)
                for points in queries:
                    replies[client_id].append(
                        client.query(points, k=SERVE_K, method=VORONOI)
                    )
        except Exception as error:  # noqa: BLE001 — reported by the assert
            failures.append((client_id, error))

    threads = [
        threading.Thread(target=run, args=(client_id, queries), daemon=True)
        for client_id, queries in enumerate(per_client_queries)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=120)
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=300)
    elapsed = time.perf_counter() - started
    assert not failures, failures
    return replies, elapsed


def _serial_answers(processor, oplog):
    """Replay every recorded query serially; answers keyed by dispatch seq."""
    answers = {}
    for kind, entry in oplog:
        if kind != "query":
            continue
        result = processor.query_batch(
            [entry["points"]],
            entry["k"],
            method=entry["method"],
            semantics=entry["semantics"],
            backend=entry["backend"],
            exclude_route_ids=entry["exclude"] or None,
        )[0]
        answers[entry["seq"]] = protocol.result_payload(result)
    return answers


def _assert_differential(per_client_replies, serial_answers):
    """Zero leakage + per-client ordering, against the serial replay."""
    seen = set()
    for client_id, replies in enumerate(per_client_replies):
        seqs = []
        for reply in replies:
            assert reply["ok"], (client_id, reply)
            seqs.append(reply["seq"])
            assert reply["result"] == serial_answers[reply["seq"]], (
                f"client {client_id} got a reply diverging from the serial "
                f"answer for dispatch seq {reply['seq']}"
            )
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs), (
            f"client {client_id} observed replies out of dispatch order"
        )
        assert not (set(seqs) & seen), f"dispatch seq shared across clients"
        seen.update(seqs)


def test_server_coalescing(benchmark, la_bundle, bench_scale, write_result):
    _, _, processor, workload = la_bundle
    cpus = available_cpu_count()
    workers = SERVE_WORKERS if cpus >= 2 else 0

    per_client_queries = [
        _client_queries(workload, bench_scale, client_id)
        for client_id in range(CLIENT_COUNT)
    ]
    single_queries = [q for queries in per_client_queries for q in queries]
    total = len(single_queries)

    with ServerThread(
        processor,
        workers=workers,
        window_ms=WINDOW_MS,
        max_batch=CLIENT_COUNT * 2,
        record_oplog=True,
    ) as handle:
        # Warm the pool (and the indexes) outside every timed region.
        with LineClient(handle.host, handle.port) as client:
            assert client.query(single_queries[0], k=SERVE_K)["ok"]

        single_replies, single_seconds = _run_single_client(
            handle, single_queries
        )
        concurrent_replies, concurrent_seconds = _run_concurrent_clients(
            handle, per_client_queries
        )

        with LineClient(handle.host, handle.port) as client:
            stats = client.stats()
        oplog = list(handle.server.oplog)

    # Correctness before timing: both phases replayed serially.
    serial = _serial_answers(processor, oplog)
    _assert_differential([single_replies], serial)
    _assert_differential(concurrent_replies, serial)

    qps_single = total / single_seconds if single_seconds else math.inf
    qps_concurrent = total / concurrent_seconds if concurrent_seconds else math.inf
    speedup = qps_concurrent / qps_single if qps_single else math.inf

    rows = [
        {
            "mode": "single client loop",
            "clients": 1,
            "queries": total,
            "best_s": single_seconds,
            "qps": qps_single,
        },
        {
            "mode": "concurrent coalesced",
            "clients": CLIENT_COUNT,
            "queries": total,
            "best_s": concurrent_seconds,
            "qps": qps_concurrent,
        },
    ]
    table = format_table(
        rows,
        title=(
            f"micro-batch coalescing ({CLIENT_COUNT} clients, k={SERVE_K}, "
            f"workers={workers}, window={WINDOW_MS}ms, cpus={cpus}, "
            f"speedup {speedup:.2f}x, max batch "
            f"{stats['max_batch_coalesced']})"
        ),
    )
    write_result("server_coalescing", table)

    os.makedirs(RESULTS_DIR, exist_ok=True)
    payload = {
        "benchmark": "server_coalescing",
        "clients": CLIENT_COUNT,
        "queries": total,
        "k": SERVE_K,
        "workers": workers,
        "window_ms": WINDOW_MS,
        "cpus": cpus,
        "numpy": numpy_available(),
        "scale": bench_scale.name,
        "single_s": single_seconds,
        "concurrent_s": concurrent_seconds,
        "qps_single": qps_single,
        "qps_concurrent": qps_concurrent,
        "speedup": speedup,
        "batches": stats["batches"],
        "max_batch_coalesced": stats["max_batch_coalesced"],
    }
    with open(
        os.path.join(RESULTS_DIR, "server_coalescing.json"), "w", encoding="utf-8"
    ) as handle_file:
        json.dump(payload, handle_file, indent=2)
    append_trajectory(
        TRAJECTORY_PATH,
        {
            "commit": git_commit(os.path.dirname(os.path.abspath(__file__))),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            **payload,
        },
    )

    # Acceptance bar: the concurrent phase actually coalesced.
    assert stats["max_batch_coalesced"] > 1, (
        "concurrent clients never shared an admission window"
    )
    if cpus >= 2:
        # Acceptance bar: coalesced concurrent serving must beat the
        # loop-of-single-client baseline.  On single-CPU machines both
        # phases are correctness-checked above but the ratio is noise.
        assert speedup >= COALESCE_SPEEDUP_BAR, (
            f"expected >= {COALESCE_SPEEDUP_BAR}x aggregate QPS from "
            f"{CLIENT_COUNT} coalesced clients, got {speedup:.2f}x "
            f"({qps_concurrent:.0f} vs {qps_single:.0f} qps)"
        )

    # pytest-benchmark datum: one query round-trip through a warm server.
    with ServerThread(processor, workers=0, window_ms=0.5) as handle:
        with LineClient(handle.host, handle.port) as client:
            client.query(single_queries[0], k=SERVE_K)
            benchmark(client.query, single_queries[0], k=SERVE_K)
