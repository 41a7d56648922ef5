"""serve-mixed: online serving with writes beside reads.

The city is the ``nyc`` preset at three quarters of its size; the seed
draws every request.  Set-up packs the indexes to a store file, boots the CLI
``server --store … --workers 2`` in its own process and waits for the
first query reply.  Each of two ``LineClient`` connections registers two
``watch`` subscriptions and then runs a closed loop over a fixed
interleaving of about three Table-4 queries to one transition insert or
delete.  The clients touch disjoint transition ids: client ``c`` inserts
fresh ids of its own range and deletes pre-existing ids ``≡ c (mod 2)``.

This is the only workload that drives the protocol, coalescing, the
update barrier, pool dispatch and delta sync, store attach and the
continuous deltas.

Traced runs then replay the acknowledged operations serially in this
process on two store-booted processors holding the same watches, side by
side: one plain (``core.query_ms`` / ``core.update_ms``) and one with the
executor stages spanned (the stage breakdown and the tracing overhead).
"""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.cli import LineClient
from repro.core.rknnt import VORONOI, RkNNTProcessor
from repro.data.workloads import QueryWorkload, make_city
from repro.engine import protocol, store
from repro.geometry.kernels import BACKEND_PYTHON
from repro.model.dataset import TransitionDataset
from repro.model.transition import Transition

from spans import OFF
from common import (
    INTERVAL,
    K,
    QUERY_LENGTH,
    RESULTS_DIR,
    ROOT,
    QueryCounters,
    Report,
    add_latency,
    median,
    process_tree_peak_rss_mb,
    stage_metrics,
    timed_setups,
    wrap_executor,
)

PRESET = "nyc"
SCALE = 0.75
WORKERS = 2
CLIENTS = 2
WATCHES_PER_CLIENT = 2
#: Share of operations that are updates; the rest are queries.  Updates
#: fall at seeded random positions: with a fixed stride the two clients
#: lock into step (every flush coalesces both queries) or into alternation
#: (every flush holds one), and a run would measure whichever it fell into.
UPDATE_SHARE = 0.25
#: Operations generated per client; a run uses a prefix of them.
OPS_PER_CLIENT = 4000
#: Queries sent both to the server and to an in-process processor after
#: the run, to check the served state.
PROBES = 6
#: Fresh transition ids of client ``c`` start at ``ID_BASE * (c + 1)``.
ID_BASE = 10_000_000
BOOT_TIMEOUT_S = 120.0
#: Operations each client runs before the timed phase.  Around the tenth
#: delete after a boot, deleting a transition condenses a large R-tree
#: subtree (seconds in the dispatcher, then again in every pool worker as
#: it syncs); the warm-up takes the run past it so the timed phase measures
#: steady serving.  ``server.warmup_s`` and ``update_max_ms`` report it.
WARMUP_OPS = 60
#: Timed operations the traced replay runs (a prefix, in the order the
#: server answered them), so a traced run stays well within its time limit.
REPLAY_OPS = 160

Op = Tuple[str, object]


class ServerProcess:
    """The CLI ``server`` in a child process, stopped by SIGTERM."""

    def __init__(self, store_path: str, workdir: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["TMPDIR"] = workdir
        self._stderr = open(os.path.join(workdir, "server.err"), "wb")
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "server",
                "--store",
                store_path,
                "--k",
                str(K),
                "--workers",
                str(WORKERS),
                "--port",
                "0",
            ],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        self.host, self.port = self._read_banner()

    def _read_banner(self) -> Tuple[str, int]:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline().decode("utf-8", "replace")
                if not line:
                    break
                if line.startswith("serving RkNNT on "):
                    address = line.split()[3]
                    host, port = address.rsplit(":", 1)
                    return host, int(port)
            elif self.process.poll() is not None:
                break
        self.stop()
        raise RuntimeError("the server did not come up; see its stderr in the run directory")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._stderr.close()


def make_ops(city, transitions, seed: int) -> List[List[Op]]:
    """Each client's fixed operation sequence."""
    points = [(p.x, p.y) for route in city.routes for p in route.points]
    existing = sorted(t.transition_id for t in transitions)
    plans = []
    for client in range(CLIENTS):
        rng = random.Random(seed * 1000 + client)
        queries = QueryWorkload(city, seed=seed * 1000 + client)
        deletable = [tid for tid in existing if tid % CLIENTS == client]
        rng.shuffle(deletable)
        next_id = ID_BASE * (client + 1)
        ops: List[Op] = []
        for _ in range(OPS_PER_CLIENT):
            if rng.random() >= UPDATE_SHARE:
                ops.append(("query", queries.random_query_route(QUERY_LENGTH, INTERVAL)))
            elif rng.random() < 0.5 and deletable:
                ops.append(("delete", deletable.pop()))
            else:
                origin, destination = rng.sample(points, 2)
                jitter = lambda p: (p[0] + rng.gauss(0, 0.5), p[1] + rng.gauss(0, 0.5))
                ops.append(("insert", (next_id, jitter(origin), jitter(destination))))
                next_id += 1
        plans.append(ops)
    return plans


class ClientRun:
    """What one client did: its op log, replies, watches and events."""

    def __init__(self, client: int):
        self.client = client
        #: (kind, payload, seconds, finished_at, request line, reply, timed)
        self.log: List[tuple] = []
        #: (watch id, points, initial transition ids)
        self.watches: List[tuple] = []
        self.error: Optional[BaseException] = None


def wire(kind: str, payload) -> Tuple[str, Dict[str, object]]:
    """The protocol op and fields of one operation."""
    if kind == "query":
        return "query", {"points": [list(p) for p in payload]}
    if kind == "insert":
        tid, origin, destination = payload
        return "insert", {"transition": {"id": tid, "origin": list(origin), "destination": list(destination)}}
    return "delete", {"transition_id": payload}


def drive(client: LineClient, run: ClientRun, ops: List[Op], stop_at: Optional[float], tracer) -> None:
    """Run ``ops`` in order, until ``stop_at`` when one is given."""
    timed = stop_at is not None
    try:
        for index, (kind, payload) in enumerate(ops):
            if timed and time.perf_counter() >= stop_at:
                break
            op, fields = wire(kind, payload)
            with tracer.span(f"client.{kind}", request=f"c{run.client}-{index}"):
                started = time.perf_counter()
                reply = client.request(op, **fields)
                finished = time.perf_counter()
            line = json.dumps({"id": index, "op": op, **fields})
            run.log.append((kind, payload, finished - started, finished, line, reply, timed))
    except BaseException as error:  # surfaced by the caller after join
        run.error = error


def apply_op(processor, subscriptions, kind: str, payload, tracer, request: str):
    """One operation in process, as the server's dispatcher would apply it."""
    if kind == "query":
        with tracer.span("core.query_batch", request=request, method="vo"):
            (result,) = processor.query_batch([payload], K, method=VORONOI, backend="auto")
        return result
    with tracer.span(f"core.{kind}", request=request):
        if kind == "insert":
            tid, origin, destination = payload
            processor.add_transition(Transition(tid, origin, destination))
        else:
            processor.remove_transition(payload)
        for subscription in subscriptions:
            subscription.poll()
    return None


def replay(store_path: str, watch_points, warmup, timed, tracer):
    """Serial in-process replay on two store-booted processors holding the
    same watches: one plain, one with the executor stages spanned, taking
    turns at going first so drift in the host's speed hits both alike.

    ``warmup`` is applied untimed, then ``timed`` is timed.  Returns the
    plain side's query and update seconds, the spanned side's query
    seconds, and each side's answers.
    """
    sides = []
    for _ in range(2):
        processor = RkNNTProcessor.from_store(store_path)
        subscriptions = [
            processor.watch(points, K, method=VORONOI, semantics="exists", backend=BACKEND_PYTHON)
            for points in watch_points
        ]
        sides.append((processor, subscriptions))
    seconds = {"query": ([], []), "update": ([], [])}
    answers: Tuple[list, list] = ([], [])
    try:
        for index, (kind, payload) in enumerate(warmup):
            for processor, subscriptions in sides:
                apply_op(processor, subscriptions, kind, payload, OFF, f"warmup-{index}")
        for index, (kind, payload) in enumerate(timed):
            for side in ((0, 1) if index % 2 == 0 else (1, 0)):
                processor, subscriptions = sides[side]
                recorder = tracer if side else OFF
                if side:
                    wrap_executor(tracer)
                try:
                    started = time.perf_counter()
                    result = apply_op(processor, subscriptions, kind, payload, recorder, f"replay-{index}")
                    elapsed = time.perf_counter() - started
                finally:
                    tracer.restore()
                seconds["update" if result is None else "query"][side].append(elapsed)
                if result is not None:
                    answers[side].append(result)
    finally:
        for processor, _ in sides:
            processor.close()
    return seconds["query"][0], seconds["update"][0], seconds["query"][1], answers


def run(seed: int, seconds: float, tracer, report: Report) -> Dict[str, object]:
    city, transitions = make_city(PRESET, scale=SCALE)
    plans = make_ops(city, transitions, seed)
    extra = QueryWorkload(city, seed=seed * 1000 + 999)
    first_query = extra.random_query_route(QUERY_LENGTH, INTERVAL)
    probes = extra.query_routes(PROBES, QUERY_LENGTH, INTERVAL)
    watch_points = [extra.query_routes(WATCHES_PER_CLIENT, QUERY_LENGTH, INTERVAL) for _ in range(CLIENTS)]

    os.makedirs(RESULTS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="serve-mixed-", dir=RESULTS_DIR)
    store_path = os.path.join(workdir, "city.store")
    pack_seconds: List[float] = []
    first_reply_seconds: List[float] = []
    servers: List[ServerProcess] = []
    try:

        def setup() -> ServerProcess:
            started = time.perf_counter()
            with tracer.span("store.pack"):
                packed = RkNNTProcessor(city.routes, transitions)
                store.save_indexes(store_path, packed.route_index, packed.transition_index)
            booted = time.perf_counter()
            pack_seconds.append(booted - started)
            with tracer.span("server.boot"):
                server = ServerProcess(store_path, workdir)
                servers.append(server)
                with LineClient(server.host, server.port) as client:
                    reply = client.query(first_query)
            first_reply_seconds.append(time.perf_counter() - booted)
            report.check(reply.get("ok") is True, f"first reply not ok: {reply}")
            return server

        def release(server: ServerProcess) -> None:
            servers.remove(server)
            server.stop()

        setup_seconds, server = timed_setups(setup, release)
        report.add("setup_s", median(setup_seconds), "s", len(setup_seconds))
        report.add("store.pack_s", median(pack_seconds), "s", len(pack_seconds))
        report.add("parallel.first_reply_s", median(first_reply_seconds), "s", len(first_reply_seconds))
        attach_seconds = []
        for _ in range(5):
            started = time.perf_counter()
            RkNNTProcessor.from_store(store_path).close()
            attach_seconds.append(time.perf_counter() - started)
        report.add("store.attach_s", median(attach_seconds), "s", len(attach_seconds))

        clients = [LineClient(server.host, server.port) for _ in range(CLIENTS)]
        runs = [ClientRun(index) for index in range(CLIENTS)]
        try:
            for client, client_run, points_list in zip(clients, runs, watch_points):
                for points in points_list:
                    reply = client.watch(points)
                    report.attempted += 1
                    report.check(reply.get("ok") is True, f"watch not ok: {reply}")
                    client_run.watches.append(
                        (reply.get("watch"), points, reply.get("result", {}).get("transitions", ()))
                    )

            def phase(stop_at, part) -> float:
                started = time.perf_counter()
                threads = [
                    threading.Thread(target=drive, args=(client, client_run, part(ops), stop_at, tracer))
                    for client, client_run, ops in zip(clients, runs, plans)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                for client_run in runs:
                    if client_run.error is not None:
                        raise client_run.error
                return time.perf_counter() - started

            report.add("server.warmup_s", phase(None, lambda ops: ops[:WARMUP_OPS]), "s")
            wall = phase(time.perf_counter() + seconds, lambda ops: ops[WARMUP_OPS:])

            stats = clients[0].stats()
            peak_rss = process_tree_peak_rss_mb(server.process.pid)
            check_served_state(report, city, transitions, runs, clients, probes)
        finally:
            for client in clients:
                client.close()
        server.stop()
        servers.clear()

        everything = [entry for client_run in runs for entry in client_run.log]
        report.attempted += len(everything)
        for entry in everything:
            report.check(entry[5].get("ok") is True, f"{entry[0]} reply not ok: {entry[5]}")
        report.add(
            "update_max_ms",
            max(entry[2] * 1000.0 for entry in everything if entry[0] != "query"),
            "ms",
        )
        log = sorted((entry for entry in everything if entry[6]), key=lambda e: e[3])
        queries_ms = [entry[2] * 1000.0 for entry in log if entry[0] == "query"]
        updates_ms = [entry[2] * 1000.0 for entry in log if entry[0] != "query"]
        report.add("ops_per_s", len(log) / wall, "1/s", len(log))
        report.add("query_qps", len(queries_ms) / wall, "1/s", len(queries_ms))
        add_latency(report, "query", queries_ms)
        add_latency(report, "update", updates_ms)
        report.add("peak_rss_mb", peak_rss, "MB")

        report.add("server.mean_batch", stats["queries"] / max(1, stats["batches"]), "count", stats["batches"])
        report.add("server.max_batch_coalesced", stats["max_batch_coalesced"], "count")
        report.add(
            "continuous.events_per_update",
            stats["events_pushed"] / max(1, stats["updates"]),
            "count",
            stats["updates"],
        )
        report.add("context.subquery_hits", stats["subquery_hits"], "count")
        report.add("context.subquery_misses", stats["subquery_misses"], "count")
        report.add("resilience.degraded", int(bool(stats["degraded"])), "count")
        for name in ("last_seed_nbytes", "store_seeds", "store_fallbacks", "pools_spawned", "shard_fallbacks"):
            report.add(f"parallel.{name}", stats[name], "bytes" if name.endswith("nbytes") else "count")
        report.details["path"] = {
            name: stats[name]
            for name in ("degraded", "store_fallbacks", "shard_fallbacks", "pools_spawned", "store_seeds")
        }
        report.details["path"]["fell_back"] = bool(
            stats["degraded"]
            or stats["store_fallbacks"]
            or stats["shard_fallbacks"]
            or stats["pools_spawned"] > 1
        )

        if tracer.enabled:
            warmup = sorted((entry for entry in everything if not entry[6]), key=lambda e: e[3])
            traced_layers(report, tracer, store_path, watch_points, warmup, log)
        return {
            "routes": len(city.routes),
            "transitions": len(transitions),
            "clients": CLIENTS,
            "workers": WORKERS,
            "watches": CLIENTS * WATCHES_PER_CLIENT,
        }
    finally:
        while servers:
            servers.pop().stop()
        shutil.rmtree(workdir, ignore_errors=True)


def check_served_state(report: Report, city, transitions, runs, clients, probes) -> None:
    """Probes and watches against an in-process processor with the same
    net updates (the clients' ids are disjoint, so order does not matter)."""
    local = RkNNTProcessor(city.routes, TransitionDataset(list(transitions)))
    for client_run in runs:
        for kind, payload, _, _, _, reply, _ in client_run.log:
            if not reply.get("ok"):
                continue
            if kind == "insert":
                tid, origin, destination = payload
                local.add_transition(Transition(tid, origin, destination))
            elif kind == "delete":
                local.remove_transition(payload)
    for index, points in enumerate(probes):
        reply = clients[index % CLIENTS].query(points)
        expected = protocol.result_payload(local.query(points, K, method=VORONOI, backend="auto"))
        report.attempted += 1
        report.check(reply.get("result") == expected, f"probe {index} differs from in-process answer")
    for client, client_run in zip(clients, runs):
        fresh = [client.query(points) for _, points, _ in client_run.watches]
        # Deltas reach a connection before any later reply on it, so every
        # event is buffered by the time the fresh queries have returned.
        current = {watch_id: set(initial) for watch_id, _, initial in client_run.watches}
        for event in client.events():
            result = current[event["watch"]]
            result.difference_update(event["removed"])
            result.update(event["added"])
        for (watch_id, _, _), reply in zip(client_run.watches, fresh):
            report.attempted += 1
            report.check(
                reply.get("ok") is True
                and current[watch_id] == set(reply["result"]["transitions"]),
                f"client {client_run.client} watch {watch_id} differs from a fresh query",
            )


def traced_layers(report: Report, tracer, store_path: str, watch_points, warmup, log) -> None:
    """Per-layer numbers that need this process: replay and protocol codec.

    The replay applies the warm-up's operations untimed, then the first
    ``REPLAY_OPS`` of the timed phase's in the order the server answered
    them; ``server.overhead_ms`` compares the same queries.
    """
    warmup_ops = [(entry[0], entry[1]) for entry in warmup]
    replayed = log[:REPLAY_OPS]
    timed_ops = [(entry[0], entry[1]) for entry in replayed]
    queries_ms = [entry[2] * 1000.0 for entry in replayed if entry[0] == "query"]
    watches = [points for points_list in watch_points for points in points_list]
    plain_q, plain_u, traced_q, (plain_answers, traced_answers) = replay(
        store_path, watches, warmup_ops, timed_ops, tracer
    )
    counters = QueryCounters()
    for result in traced_answers:
        counters.add("vo", result.stats)
    for index, (plain, traced) in enumerate(zip(plain_answers, traced_answers)):
        report.check(
            plain.confirmed_endpoints == traced.confirmed_endpoints,
            f"replay query {index}: traced answer differs",
        )
    core_query_ms = median(plain_q) * 1000.0
    report.add("core.query_ms", core_query_ms, "ms", len(plain_q))
    report.add("core.update_ms", median(plain_u) * 1000.0, "ms", len(plain_u))
    report.add("server.overhead_ms", median(queries_ms) - core_query_ms, "ms", len(queries_ms))
    report.add(
        "trace.overhead_pct", (sum(traced_q) - sum(plain_q)) / sum(plain_q) * 100.0, "%", len(plain_q)
    )
    counters.metrics(report)
    stage_metrics(report, tracer, counters.queries)

    lines = [entry[4] for entry in log]
    replies = [entry[5] for entry in log]
    started = time.perf_counter()
    for line in lines:
        protocol.decode_request(line)
    report.add("protocol.decode_us", (time.perf_counter() - started) / len(lines) * 1e6, "us", len(lines))
    started = time.perf_counter()
    for reply in replies:
        protocol.encode_line(reply)
    report.add("protocol.encode_us", (time.perf_counter() - started) / len(replies) * 1e6, "us", len(replies))
