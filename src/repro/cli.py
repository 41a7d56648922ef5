"""Command-line interface for the RkNNT library.

Eight sub-commands cover the typical workflows without writing any Python:

``generate``
    Build a synthetic city (routes + transitions) and save it as CSV files.
``pack``
    Build both indexes from saved CSV datasets and write them to a single
    persistent store file (:mod:`repro.engine.store`); ``query``, ``serve``
    and ``server`` then boot from it in O(1) via ``--store``.
``query``
    Run one RkNNT query (or a ``--batch-file`` workload) against saved
    datasets and print the matching transitions.
``serve``
    Long-running serving loop: stream query batches (and interleaved
    transition updates) from a file or stdin through one persistent worker
    pool.
``server``
    Network serving front-end: a TCP server speaking the newline-framed
    JSON protocol of :mod:`repro.engine.protocol`, coalescing queries
    from many concurrent client connections into micro-batches over one
    persistent pool (:mod:`repro.engine.server`).
``watch``
    Register a standing query and replay a transition update log against
    it, printing the incremental result deltas (the continuous-query
    subsystem).
``capacity``
    Estimate the demand of every route in a saved dataset (the capacity
    estimation use case).
``plan``
    Run a MaxRkNNT / MinRkNNT planning query between two stops of the
    saved network.

Example session::

    python -m repro.cli generate --preset mini --output-dir ./data
    python -m repro.cli pack --data-dir ./data --output ./data/city.store
    python -m repro.cli query --data-dir ./data --k 5 \\
        --point 3.0 4.0 --point 5.0 4.5
    python -m repro.cli serve --store ./data/city.store --k 5 \\
        --input queries.txt --workers 4
    python -m repro.cli server --store ./data/city.store --k 5 \\
        --port 8765 --workers 4
    python -m repro.cli watch --data-dir ./data --k 5 \\
        --point 3.0 4.0 --updates updates.log
    python -m repro.cli capacity --data-dir ./data --k 5 --top 10
    python -m repro.cli plan --data-dir ./data --k 5 --start 0 --end 17 --ratio 1.4

The module also ships :class:`LineClient`, the reference client for the
``server`` wire protocol (used by the test suite and ``bench_server.py``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.bench.reporting import format_table
from repro.core.rknnt import METHODS, RkNNTProcessor, VORONOI
from repro.data.gtfs import (
    load_routes_csv,
    load_transitions_csv,
    save_routes_csv,
    save_transitions_csv,
)
from repro.data.workloads import CITY_PRESETS, make_city
from repro.engine.resilience import DeadlineExceeded, UpdateStreamError
from repro.planning.graph import BusNetwork
from repro.planning.maxrknnt import MAXIMIZE, MINIMIZE, MaxRkNNTPlanner
from repro.planning.precompute import VertexRkNNTIndex

ROUTES_FILE = "routes.csv"
TRANSITIONS_FILE = "transitions.csv"


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reverse k Nearest Neighbor Search over Trajectories (RkNNT)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate a synthetic city and save it as CSV"
    )
    generate.add_argument(
        "--preset",
        choices=sorted(CITY_PRESETS),
        default="mini",
        help="city preset to generate (default: mini)",
    )
    generate.add_argument("--scale", type=float, default=1.0, help="size multiplier")
    generate.add_argument("--seed", type=int, default=None, help="random seed override")
    generate.add_argument(
        "--output-dir", required=True, help="directory for routes.csv / transitions.csv"
    )

    pack = subparsers.add_parser(
        "pack",
        help="pack saved datasets into a persistent store file (mmap boot)",
    )
    pack.add_argument(
        "--data-dir",
        required=True,
        help="directory containing routes.csv and transitions.csv",
    )
    pack.add_argument(
        "--output",
        required=True,
        help="store file to write (atomic, byte-deterministic)",
    )
    pack.add_argument(
        "--max-entries",
        type=int,
        default=16,
        help="R-tree fanout of the packed indexes (default 16)",
    )

    query = subparsers.add_parser(
        "query", help="run one RkNNT query (or a batch of them)"
    )
    _add_data_arguments(query, store=True)
    query.add_argument(
        "--point",
        dest="points",
        type=float,
        nargs=2,
        action="append",
        metavar=("X", "Y"),
        help="query point; repeat for multi-point queries",
    )
    query.add_argument(
        "--batch-file",
        help=(
            "file with one query per line (whitespace-separated "
            "'x1 y1 x2 y2 ...'; blank lines and #-comments ignored); the "
            "whole workload is answered through the batched execution "
            "engine and per-query plus aggregate throughput is reported"
        ),
    )
    query.add_argument(
        "--method", choices=METHODS, default=VORONOI, help="evaluation strategy"
    )
    query.add_argument(
        "--semantics", choices=("exists", "forall"), default="exists"
    )
    query.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "shard a --batch-file workload across N worker processes "
            "(0 = in-process; results are identical either way)"
        ),
    )

    serve = subparsers.add_parser(
        "serve",
        help="serving loop: stream query batches through a persistent pool",
    )
    _add_data_arguments(serve, store=True)
    serve.add_argument(
        "--input",
        default="-",
        help=(
            "query/update stream ('-' = stdin, the default): one query per "
            "line as whitespace-separated 'x1 y1 x2 y2 ...' coordinates, "
            "interleaved with transition updates '+ ID OX OY DX DY' "
            "(insert) or '- ID' (delete); blank lines and #-comments "
            "ignored"
        ),
    )
    serve.add_argument(
        "--method", choices=METHODS, default=VORONOI, help="evaluation strategy"
    )
    serve.add_argument(
        "--semantics", choices=("exists", "forall"), default="exists"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "size of the persistent serving pool (kept alive across every "
            "dispatched batch; 0 = answer in-process without a pool)"
        ),
    )
    serve.add_argument(
        "--batch-size",
        type=int,
        default=8,
        help=(
            "queries buffered per dispatch (a pending batch is also "
            "flushed before any update is applied, preserving stream "
            "order; default 8)"
        ),
    )
    serve.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help=(
            "multiprocessing start method of the serving pool (default: "
            "RKNNT_START_METHOD, else fork on Linux / platform default; "
            "answers are identical either way — the columnar context "
            "pickle is start-method-agnostic)"
        ),
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help=(
            "per-batch time budget in milliseconds: a batch that misses it "
            "is dropped with a typed error (hung workers are terminated, "
            "the pool reseeds) and serving continues; default: "
            "RKNNT_DEADLINE_MS, unset = no deadline"
        ),
    )

    server = subparsers.add_parser(
        "server",
        help="network front-end: serve many clients over one pool (TCP)",
    )
    _add_data_arguments(server, store=True)
    server.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    server.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 = ephemeral; the bound port is printed on startup)",
    )
    server.add_argument(
        "--method", choices=METHODS, default=VORONOI, help="default query method"
    )
    server.add_argument(
        "--semantics", choices=("exists", "forall"), default="exists"
    )
    server.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "size of the persistent serving pool batches dispatch through "
            "(0 = answer in-process, still micro-batched)"
        ),
    )
    server.add_argument(
        "--window-ms",
        type=float,
        default=None,
        help=(
            "micro-batch coalescing window in milliseconds (default: "
            "RKNNT_SERVER_WINDOW_MS, else 2)"
        ),
    )
    server.add_argument(
        "--max-batch",
        type=int,
        default=None,
        help=(
            "max queries per coalesced batch (default: "
            "RKNNT_SERVER_MAX_BATCH, else 64)"
        ),
    )
    server.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help=(
            "per-batch time budget; queries of a batch that misses it get "
            "typed deadline_exceeded replies (default: RKNNT_DEADLINE_MS)"
        ),
    )
    server.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        help=(
            "max admitted-but-unanswered queries; past it clients get "
            "immediate typed pool_saturated replies instead of unbounded "
            "buffering (default: RKNNT_QUEUE_LIMIT, 0 = unbounded)"
        ),
    )
    server.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocessing start method of the serving pool",
    )

    watch = subparsers.add_parser(
        "watch",
        help="maintain a standing query over a replayed update log",
    )
    _add_data_arguments(watch)
    watch.add_argument(
        "--point",
        dest="points",
        type=float,
        nargs=2,
        action="append",
        metavar=("X", "Y"),
        required=True,
        help="standing query point; repeat for multi-point queries",
    )
    watch.add_argument(
        "--updates",
        required=True,
        help=(
            "update log replayed against the standing query: one operation "
            "per line, either '+ ID OX OY DX DY' (insert a transition) or "
            "'- ID' (delete it); blank lines and #-comments ignored"
        ),
    )
    watch.add_argument(
        "--method", choices=METHODS, default=VORONOI, help="evaluation strategy"
    )
    watch.add_argument(
        "--semantics", choices=("exists", "forall"), default="exists"
    )

    capacity = subparsers.add_parser(
        "capacity", help="estimate the demand of every route"
    )
    _add_data_arguments(capacity)
    capacity.add_argument(
        "--top", type=int, default=10, help="print only the busiest N routes"
    )

    plan = subparsers.add_parser(
        "plan", help="plan the optimal route between two stops (MaxRkNNT)"
    )
    _add_data_arguments(plan)
    plan.add_argument("--start", type=int, required=True, help="start vertex id")
    plan.add_argument("--end", type=int, required=True, help="destination vertex id")
    plan.add_argument(
        "--ratio",
        type=float,
        default=1.4,
        help="distance budget as a multiple of the shortest path (default 1.4)",
    )
    plan.add_argument(
        "--objective", choices=(MAXIMIZE, MINIMIZE), default=MAXIMIZE
    )
    return parser


def _add_data_arguments(
    parser: argparse.ArgumentParser, store: bool = False
) -> None:
    parser.add_argument(
        "--data-dir",
        required=not store,
        default=None,
        help="directory containing routes.csv and transitions.csv",
    )
    if store:
        parser.add_argument(
            "--store",
            default=None,
            metavar="PATH",
            help=(
                "boot from a persistent store file written by `pack` "
                "instead of CSV datasets (O(1) startup, mmap-shared "
                "between workers); mutually exclusive with --data-dir"
            ),
        )
    parser.add_argument("--k", type=int, default=10, help="k of the RkNNT query")


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _load_datasets(data_dir: str):
    routes_path = os.path.join(data_dir, ROUTES_FILE)
    transitions_path = os.path.join(data_dir, TRANSITIONS_FILE)
    for path in (routes_path, transitions_path):
        if not os.path.exists(path):
            raise SystemExit(f"error: missing dataset file {path}; run `generate` first")
    return load_routes_csv(routes_path), load_transitions_csv(transitions_path)


def _boot_processor(args: argparse.Namespace) -> RkNNTProcessor:
    """Build the processor from ``--data-dir`` CSVs or a ``--store`` file."""
    store_path = getattr(args, "store", None)
    if store_path is not None:
        if args.data_dir is not None:
            raise SystemExit("error: --data-dir and --store are mutually exclusive")
        from repro.engine.resilience import StoreError

        try:
            return RkNNTProcessor.from_store(store_path)
        except StoreError as error:
            raise SystemExit(f"error: {error}")
    if args.data_dir is None:
        raise SystemExit("error: provide --data-dir or --store")
    routes, transitions = _load_datasets(args.data_dir)
    return RkNNTProcessor(routes, transitions)


# ----------------------------------------------------------------------
# Sub-commands
# ----------------------------------------------------------------------
def command_generate(args: argparse.Namespace) -> int:
    city, transitions = make_city(args.preset, scale=args.scale, seed=args.seed)
    os.makedirs(args.output_dir, exist_ok=True)
    routes_path = os.path.join(args.output_dir, ROUTES_FILE)
    transitions_path = os.path.join(args.output_dir, TRANSITIONS_FILE)
    save_routes_csv(city.routes, routes_path)
    save_transitions_csv(transitions, transitions_path)
    print(
        f"generated preset {args.preset!r}: {len(city.routes)} routes -> {routes_path}, "
        f"{len(transitions)} transitions -> {transitions_path}"
    )
    print(
        f"bus network: {city.network.vertex_count} stops, "
        f"{city.network.edge_count} links"
    )
    return 0


def _load_batch_file(path: str) -> List[List[tuple]]:
    """Parse a batch file: one query per line, whitespace-separated floats."""
    if not os.path.exists(path):
        raise SystemExit(f"error: batch file {path} does not exist")
    queries: List[List[tuple]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            values = text.replace(",", " ").split()
            if len(values) % 2 != 0:
                raise SystemExit(
                    f"error: {path}:{line_number}: expected an even number "
                    f"of coordinates, got {len(values)}"
                )
            try:
                floats = [float(value) for value in values]
            except ValueError:
                raise SystemExit(
                    f"error: {path}:{line_number}: non-numeric coordinate"
                )
            queries.append(
                [(floats[i], floats[i + 1]) for i in range(0, len(floats), 2)]
            )
    if not queries:
        raise SystemExit(f"error: batch file {path} contains no queries")
    return queries


def command_pack(args: argparse.Namespace) -> int:
    """Pack saved datasets into one persistent store file."""
    from repro.engine import store as store_module
    from repro.engine.resilience import StoreError

    routes, transitions = _load_datasets(args.data_dir)
    processor = RkNNTProcessor(routes, transitions, max_entries=args.max_entries)
    try:
        handle = store_module.save_indexes(
            args.output, processor.route_index, processor.transition_index
        )
    except StoreError as error:
        raise SystemExit(f"error: {error}")
    print(
        f"packed {len(routes)} routes and {len(transitions)} transitions -> "
        f"{handle.path} ({handle.nbytes} bytes, {len(handle.columns)} columns)"
    )
    print(
        "boot with `--store` on query/serve/server: attaches by mmap in O(1), "
        "workers reseed from the file instead of a pickle"
    )
    return 0


def command_query(args: argparse.Namespace) -> int:
    if args.batch_file is None and not args.points:
        raise SystemExit("error: provide --point (repeatable) or --batch-file")
    if args.batch_file is not None and args.points:
        raise SystemExit("error: --point and --batch-file are mutually exclusive")
    if args.workers < 0:
        raise SystemExit("error: --workers must be non-negative")
    if args.workers and args.batch_file is None:
        raise SystemExit("error: --workers requires --batch-file")
    processor = _boot_processor(args)
    transitions = processor.transitions
    if args.batch_file is not None:
        return _run_query_batch(args, processor, transitions)
    query_points = [tuple(point) for point in args.points]
    result = processor.query(
        query_points, args.k, method=args.method, semantics=args.semantics
    )
    print(
        f"RkNNT(|Q|={len(query_points)}, k={args.k}, method={args.method}, "
        f"semantics={args.semantics}): {len(result)} transitions"
    )
    rows = []
    for transition_id in sorted(result.transition_ids):
        transition = transitions.get(transition_id)
        rows.append(
            {
                "transition": transition_id,
                "origin": f"({transition.origin.x:.3f}, {transition.origin.y:.3f})",
                "destination": (
                    f"({transition.destination.x:.3f}, {transition.destination.y:.3f})"
                ),
                "endpoints": "".join(sorted(result.confirmed_endpoints[transition_id])),
            }
        )
    if rows:
        print(format_table(rows))
    print(
        f"filtering {result.stats.filtering_seconds * 1000:.1f} ms, "
        f"verification {result.stats.verification_seconds * 1000:.1f} ms, "
        f"{result.stats.candidates} candidates"
    )
    return 0


def _reuse_stats_line(context) -> str:
    """One-line summary of the context's cross-query reuse counters."""
    return (
        f"subquery cache: {context.subquery_hits} hits, "
        f"{context.subquery_misses} misses; "
        f"shard fallbacks: {context.shard_fallbacks}"
    )


def _run_query_batch(args, processor, transitions) -> int:
    """Answer every query of ``--batch-file`` through the batched engine."""
    import time

    queries = _load_batch_file(args.batch_file)
    started = time.perf_counter()
    results = processor.query_batch(
        queries,
        args.k,
        method=args.method,
        semantics=args.semantics,
        workers=args.workers,
    )
    elapsed = time.perf_counter() - started

    rows = []
    for index, (query, result) in enumerate(zip(queries, results)):
        rows.append(
            {
                "query": index,
                "points": len(query),
                "results": len(result),
                "candidates": result.stats.candidates,
                "ms": result.stats.total_seconds * 1000.0,
            }
        )
    print(
        f"RkNNT batch of {len(queries)} queries (k={args.k}, "
        f"method={args.method}, semantics={args.semantics}, "
        f"workers={args.workers})"
    )
    print(format_table(rows, precision=2))
    throughput = len(queries) / elapsed if elapsed else 0.0
    print(
        f"total {elapsed * 1000:.1f} ms, {throughput:.1f} queries/s, "
        f"{sum(len(result) for result in results)} transitions matched"
    )
    print(_reuse_stats_line(processor.engine_context))
    return 0


def command_serve(args: argparse.Namespace) -> int:
    """Serving loop: stream queries (and updates) through a persistent pool.

    Unlike ``query --batch-file`` — which answers one workload and exits,
    spawning a fresh worker pool per invocation — ``serve`` keeps one pool
    alive for the whole stream:
    every flushed batch dispatches to already-warm workers, and transition
    updates are delta-synced into them instead of forcing respawns.
    """
    import time

    from repro.model.transition import Transition

    if args.workers < 0:
        raise SystemExit("error: --workers must be non-negative")
    if args.batch_size <= 0:
        raise SystemExit("error: --batch-size must be positive")
    processor = _boot_processor(args)
    transitions = processor.transitions

    if args.input == "-":
        stream = sys.stdin
        close_stream = False
    else:
        if not os.path.exists(args.input):
            raise SystemExit(f"error: input stream {args.input} does not exist")
        stream = open(args.input, "r", encoding="utf-8")
        close_stream = True

    stats = {
        "batches": 0,
        "queries": 0,
        "matched": 0,
        "updates": 0,
        "rejected": 0,
        "deadline_misses": 0,
        "dropped": 0,
    }
    latencies: List[float] = []
    batch: List[List[tuple]] = []

    def reject(where: str, error: UpdateStreamError) -> None:
        # A malformed line must never tear the loop (or its pool) down:
        # log the typed rejection to stderr and keep serving.
        stats["rejected"] += 1
        print(f"warning: {where}: rejected line ({error})", file=sys.stderr)

    def flush() -> None:
        if not batch:
            return
        started = time.perf_counter()
        try:
            results = processor.query_batch(
                batch,
                args.k,
                method=args.method,
                semantics=args.semantics,
                workers=args.workers,
                deadline_ms=args.deadline_ms,
            )
        except DeadlineExceeded as error:
            # The budget is a promise to the caller: the batch is dropped
            # with a typed error (any hung workers were terminated; the
            # next flush reseeds the pool) and the stream continues.
            stats["deadline_misses"] += 1
            stats["dropped"] += len(batch)
            print(
                f"warning: batch of {len(batch)} queries dropped: {error}",
                file=sys.stderr,
            )
            batch.clear()
            return
        elapsed = time.perf_counter() - started
        latencies.append(elapsed)
        matched = sum(len(result) for result in results)
        stats["batches"] += 1
        stats["queries"] += len(batch)
        stats["matched"] += matched
        print(
            f"batch {stats['batches']}: {len(batch)} queries -> "
            f"{matched} transitions in {elapsed * 1000:.1f} ms "
            f"({len(batch) / elapsed:.1f} q/s)"
            if elapsed
            else f"batch {stats['batches']}: {len(batch)} queries -> {matched}"
        )
        batch.clear()

    def apply_update(fields: Sequence[str], where: str) -> None:
        # Stream order matters: answer everything buffered so far against
        # the pre-update dataset before mutating it.
        flush()
        try:
            if fields[0] == "+" and len(fields) == 6:
                transition_id = int(fields[1])
                if transition_id in transitions:
                    raise UpdateStreamError(
                        f"transition id {transition_id} already present"
                    )
                processor.add_transition(
                    Transition(
                        transition_id,
                        (float(fields[2]), float(fields[3])),
                        (float(fields[4]), float(fields[5])),
                    )
                )
            elif fields[0] == "-" and len(fields) == 2:
                transition_id = int(fields[1])
                if transition_id not in transitions:
                    raise UpdateStreamError(
                        f"transition id {transition_id} not in dataset"
                    )
                processor.remove_transition(transition_id)
            else:
                raise UpdateStreamError("expected '+ ID OX OY DX DY' or '- ID'")
        except UpdateStreamError:
            raise  # already typed (a ValueError subclass — re-raise first)
        except ValueError:
            raise UpdateStreamError("non-numeric field") from None
        stats["updates"] += 1

    def consume_stream() -> None:
        for line_number, line in enumerate(stream, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.replace(",", " ").split()
            where = f"{args.input}:{line_number}"
            if fields[0] in ("+", "-"):
                try:
                    apply_update(fields, where)
                except UpdateStreamError as error:
                    reject(where, error)
                continue
            if len(fields) % 2 != 0:
                reject(
                    where,
                    UpdateStreamError(
                        f"expected an even number of coordinates, got {len(fields)}"
                    ),
                )
                continue
            try:
                floats = [float(value) for value in fields]
            except ValueError:
                reject(where, UpdateStreamError("non-numeric coordinate"))
                continue
            batch.append(
                [(floats[i], floats[i + 1]) for i in range(0, len(floats), 2)]
            )
            if len(batch) >= args.batch_size:
                flush()
        flush()

    try:
        if args.workers:
            with processor.serving_pool(
                workers=args.workers, start_method=args.start_method
            ) as pool:
                consume_stream()
                pool_line = (
                    f"pool: {pool.workers} workers (persistent, "
                    f"seeded {pool.pools_spawned}x)"
                )
        else:
            consume_stream()
            pool_line = "pool: in-process (workers=0)"
    finally:
        processor.close()
        if close_stream:
            stream.close()

    if not stats["queries"] and not stats["updates"] and not stats["dropped"]:
        raise SystemExit(f"error: input stream {args.input} contains no work")
    total = sum(latencies)
    mean_ms = (total / len(latencies) * 1000.0) if latencies else 0.0
    print(
        f"served {stats['queries']} queries in {stats['batches']} batches "
        f"({stats['matched']} transitions matched, {stats['updates']} "
        f"updates applied)"
    )
    if stats["rejected"]:
        print(f"rejected {stats['rejected']} malformed lines (see stderr)")
    if stats["deadline_misses"]:
        print(
            f"dropped {stats['dropped']} queries in {stats['deadline_misses']} "
            f"batches that missed the {args.deadline_ms} ms deadline"
        )
    print(
        f"dispatch: {total * 1000:.1f} ms total, {mean_ms:.1f} ms/batch mean; "
        f"{pool_line}"
    )
    return 0


class LineClient:
    """Reference client for the ``server`` wire protocol.

    A deliberately boring, dependency-free *blocking* socket client — it
    demonstrates that the protocol needs nothing beyond a line reader
    and a JSON parser.  One instance per connection; safe to use from
    one thread at a time.  Unsolicited ``watch`` events arriving between
    replies are buffered and drained via :meth:`events`.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        import socket

        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0
        self._events: List[dict] = []

    # -- plumbing ------------------------------------------------------
    def request(self, op: str, **fields) -> dict:
        """Send one request and block for its reply (buffering events)."""
        import json

        self._next_id += 1
        request_id = self._next_id
        payload = {"id": request_id, "op": op}
        payload.update(fields)
        self._file.write((json.dumps(payload) + "\n").encode("utf-8"))
        self._file.flush()
        while True:
            line = self._file.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            message = json.loads(line.decode("utf-8"))
            if "event" in message:
                self._events.append(message)
                continue
            if message.get("id") not in (request_id, None):
                raise ConnectionError(
                    f"out-of-order reply: sent id {request_id}, "
                    f"got {message.get('id')}"
                )
            return message

    def events(self) -> List[dict]:
        """Drain the buffered unsolicited events (oldest first)."""
        drained = self._events
        self._events = []
        return drained

    def pump_events(self, minimum: int = 1, attempts: int = 50) -> List[dict]:
        """Ping until at least ``minimum`` events arrived, then drain them.

        Event pushes race the reply stream; a ``ping`` round-trip after
        each check gives the server a serialization point to flush them.
        """
        for _ in range(attempts):
            if len(self._events) >= minimum:
                break
            self.request("ping")
        return self.events()

    # -- typed helpers -------------------------------------------------
    def ping(self) -> dict:
        return self.request("ping")

    def stats(self) -> dict:
        return self.request("stats")["stats"]

    def query(self, points, **fields) -> dict:
        return self.request("query", points=[list(p) for p in points], **fields)

    def insert(self, transition_id: int, origin, destination) -> dict:
        return self.request(
            "insert",
            transition={
                "id": transition_id,
                "origin": list(origin),
                "destination": list(destination),
            },
        )

    def delete(self, transition_id: int) -> dict:
        return self.request("delete", transition_id=transition_id)

    def watch(self, points, **fields) -> dict:
        return self.request("watch", points=[list(p) for p in points], **fields)

    def unwatch(self, watch_id: int) -> dict:
        return self.request("unwatch", watch=watch_id)

    def send_raw(self, line: str) -> dict:
        """Send a raw protocol line verbatim and read one reply."""
        import json

        self._file.write((line.rstrip("\n") + "\n").encode("utf-8"))
        self._file.flush()
        while True:
            raw = self._file.readline()
            if not raw:
                raise ConnectionError("server closed the connection")
            message = json.loads(raw.decode("utf-8"))
            if "event" in message:
                self._events.append(message)
                continue
            return message

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "LineClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def command_server(args: argparse.Namespace) -> int:
    """Network serving front-end (see :mod:`repro.engine.server`)."""
    import asyncio
    import signal

    from repro.engine.server import RkNNTServer

    if args.workers < 0:
        raise SystemExit("error: --workers must be non-negative")
    processor = _boot_processor(args)
    server = RkNNTServer(
        processor,
        host=args.host,
        port=args.port,
        k=args.k,
        method=args.method,
        semantics=args.semantics,
        workers=args.workers,
        window_ms=args.window_ms,
        max_batch=args.max_batch,
        deadline_ms=args.deadline_ms,
        queue_limit=args.queue_limit,
        start_method=args.start_method,
    )

    async def _main() -> None:
        await server.start()
        print(
            f"serving RkNNT on {server.host}:{server.port} "
            f"(workers={server.workers}, window={server.window_ms} ms, "
            f"max-batch={server.max_batch}); stop with SIGINT/SIGTERM",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # platforms without loop signal handlers
        try:
            await stop.wait()
        finally:
            await server.aclose()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        processor.close()
    stats = server.stats
    print(
        f"served {stats['queries']} queries in {stats['batches']} batches "
        f"(largest {stats['max_batch_coalesced']}), {stats['updates']} updates, "
        f"{stats['events_pushed']} events pushed, "
        f"{stats['connections']} connections"
    )
    rejected = (
        stats["rejected_protocol"]
        + stats["rejected_updates"]
        + stats["rejected_saturated"]
    )
    if rejected:
        print(
            f"rejected: {stats['rejected_protocol']} malformed requests, "
            f"{stats['rejected_updates']} bad updates, "
            f"{stats['rejected_saturated']} saturated"
        )
    return 0


def _load_update_log(path: str):
    """Parse an update log: ``+ ID OX OY DX DY`` inserts, ``- ID`` deletes.

    Malformed lines (bad op code, non-numeric fields, truncated tuples)
    are rejected with a typed warning on stderr and the rest of the log
    still replays; a log with *no* valid operation is an error.
    """
    if not os.path.exists(path):
        raise SystemExit(f"error: update log {path} does not exist")
    operations = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.replace(",", " ").split()
            where = f"{path}:{line_number}"
            try:
                if fields[0] == "+" and len(fields) == 6:
                    operations.append(
                        (
                            "insert",
                            int(fields[1]),
                            (float(fields[2]), float(fields[3])),
                            (float(fields[4]), float(fields[5])),
                        )
                    )
                elif fields[0] == "-" and len(fields) == 2:
                    operations.append(("delete", int(fields[1]), None, None))
                else:
                    raise UpdateStreamError(
                        "expected '+ ID OX OY DX DY' or '- ID'"
                    )
            except ValueError:
                print(
                    f"warning: {where}: rejected line (non-numeric field)",
                    file=sys.stderr,
                )
            except UpdateStreamError as error:
                print(
                    f"warning: {where}: rejected line ({error})", file=sys.stderr
                )
    if not operations:
        raise SystemExit(f"error: update log {path} contains no operations")
    return operations


def command_watch(args: argparse.Namespace) -> int:
    from repro.model.transition import Transition

    routes, transitions = _load_datasets(args.data_dir)
    operations = _load_update_log(args.updates)
    processor = RkNNTProcessor(routes, transitions)
    query_points = [tuple(point) for point in args.points]
    subscription = processor.watch(
        query_points, args.k, method=args.method, semantics=args.semantics
    )
    print(
        f"watching RkNNT(|Q|={len(query_points)}, k={args.k}, "
        f"method={args.method}, semantics={args.semantics}): "
        f"{len(subscription.transition_ids)} transitions initially"
    )
    rows = []
    for step, (kind, transition_id, origin, destination) in enumerate(operations):
        # Semantically invalid operations are rejected like malformed
        # lines: a typed warning, and the replay continues.
        if kind == "insert":
            if transition_id in transitions:
                print(
                    f"warning: update {step}: rejected (transition id "
                    f"{transition_id} already present)",
                    file=sys.stderr,
                )
                continue
            processor.add_transition(Transition(transition_id, origin, destination))
        else:
            if transition_id not in transitions:
                print(
                    f"warning: update {step}: rejected (transition id "
                    f"{transition_id} not in dataset)",
                    file=sys.stderr,
                )
                continue
            processor.remove_transition(transition_id)
        for delta in subscription.poll():
            rows.append(
                {
                    "step": step,
                    "op": f"{'+' if kind == 'insert' else '-'}{transition_id}",
                    "cause": delta.cause,
                    "added": ",".join(str(t) for t in sorted(delta.added)) or "-",
                    "removed": (
                        ",".join(str(t) for t in sorted(delta.removed)) or "-"
                    ),
                }
            )
    if rows:
        print(format_table(rows, title="result deltas"))
    else:
        print("(no result deltas: the standing result never changed)")

    standing = subscription.result()
    fresh = processor.query(
        query_points, args.k, method=args.method, semantics=args.semantics
    )
    if standing.transition_ids != fresh.transition_ids:
        print("error: standing result diverged from a fresh query", file=sys.stderr)
        return 1
    stats = subscription.delta_stats
    print(
        f"replayed {len(operations)} updates: "
        f"{stats.inserts_seen} inserts, {stats.deletes_seen} deletes; "
        f"{stats.endpoints_filtered} endpoints rejected by the filter test, "
        f"{stats.endpoints_verified} verified exactly, "
        f"{stats.rebuilds} rebuilds"
    )
    print(
        f"standing result: {len(standing)} transitions "
        f"(verified against a fresh query)"
    )
    return 0


def command_capacity(args: argparse.Namespace) -> int:
    routes, transitions = _load_datasets(args.data_dir)
    processor = RkNNTProcessor(routes, transitions)
    rows = []
    route_list = list(routes)
    # One batch over all routes: the queries share the engine context's
    # caches and the vectorized kernels instead of running in isolation.
    results = processor.query_batch(route_list, args.k, method=VORONOI)
    for route, result in zip(route_list, results):
        rows.append(
            {
                "route": route.route_id,
                "name": route.name or "",
                "stops": len(route),
                "length": route.travel_distance,
                "riders_exists": len(result.exists_ids()),
                "riders_forall": len(result.forall_ids()),
            }
        )
    rows.sort(key=lambda row: -row["riders_exists"])
    print(
        format_table(
            rows[: args.top],
            title=f"estimated demand per route (top {min(args.top, len(rows))}, k={args.k})",
        )
    )
    return 0


def command_plan(args: argparse.Namespace) -> int:
    routes, transitions = _load_datasets(args.data_dir)
    processor = RkNNTProcessor(routes, transitions)
    network = BusNetwork.from_routes(routes)
    if args.start not in network or args.end not in network:
        raise SystemExit(
            f"error: start/end must be vertex ids in [0, {network.vertex_count})"
        )
    vertex_index = VertexRkNNTIndex(network, processor, k=args.k)
    vertex_index.build()
    shortest = vertex_index.shortest_distance(args.start, args.end)
    if shortest == float("inf"):
        raise SystemExit("error: destination is not reachable from the start vertex")
    tau = shortest * args.ratio
    planner = MaxRkNNTPlanner(network, vertex_index)
    planned = planner.plan(args.start, args.end, tau, objective=args.objective)
    if planned is None:
        raise SystemExit("error: no route satisfies the distance budget")
    print(
        f"{args.objective}RkNNT route from {args.start} to {args.end} "
        f"(shortest {shortest:.3f}, budget {tau:.3f}):"
    )
    print(f"  stops:       {' -> '.join(str(v) for v in planned.vertices)}")
    print(f"  distance:    {planned.travel_distance:.3f}")
    print(f"  passengers:  {planned.passengers}")
    print(
        f"  search:      {planned.stats.seconds * 1000:.1f} ms, "
        f"{planned.stats.expansions} expansions"
    )
    print(f"  {_reuse_stats_line(processor.engine_context)}")
    return 0


COMMANDS = {
    "generate": command_generate,
    "pack": command_pack,
    "query": command_query,
    "serve": command_serve,
    "server": command_server,
    "watch": command_watch,
    "capacity": command_capacity,
    "plan": command_plan,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro.cli`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
