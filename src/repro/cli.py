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
``server``
    Network serving front-end (:mod:`repro.engine.server`): one dispatcher
    coalesces the queries of many TCP clients into micro-batches over one
    persistent pool and applies transition updates between batches.
``serve`` / ``watch``
    Clients of that same dispatcher, in-process: ``serve`` streams queries
    and interleaved transition updates from stdin or a file and prints each
    answer; ``watch`` registers a standing query, replays an update log and
    prints the pushed result deltas.
``capacity`` / ``plan``
    Per-route demand estimation, and MaxRkNNT / MinRkNNT route planning
    between two stops of the saved network.

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

:class:`LineClient`, the reference client of the ``server`` wire protocol,
is re-exported here from :mod:`repro.engine.client`.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import os
import sys
import time
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.bench.reporting import format_table
from repro.core.rknnt import METHODS, RkNNTProcessor, VORONOI
from repro.data.gtfs import (
    load_routes_csv,
    load_transitions_csv,
    save_routes_csv,
    save_transitions_csv,
)
from repro.data.workloads import CITY_PRESETS, make_city
from repro.engine import protocol
from repro.engine.client import LineClient  # noqa: F401 (re-exported)
from repro.engine.protocol import ProtocolError, Request
from repro.engine.resilience import RkNNTError, StoreError, UpdateStreamError
from repro.engine.server import LocalConnection, RkNNTServer
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
    _add_point_argument(query, required=False)
    query.add_argument(
        "--batch-file",
        help=(
            "file with one query per line (whitespace-separated "
            "'x1 y1 x2 y2 ...'; blank lines and #-comments ignored); the "
            "whole workload is answered through the batched execution "
            "engine and per-query plus aggregate throughput is reported"
        ),
    )
    _add_query_arguments(query)
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
        help="serve a query/update stream from stdin or a file",
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
    _add_query_arguments(serve)
    _add_serving_arguments(serve)
    serve.add_argument(
        "--batch-size",
        type=int,
        default=8,
        help=(
            "requests in flight, and so the largest batch (queries before "
            "an update are always answered before it applies; default 8)"
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
    _add_query_arguments(server)
    _add_serving_arguments(server)
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
        "--queue-limit",
        type=int,
        default=None,
        help=(
            "max admitted-but-unanswered queries; past it clients get "
            "immediate typed pool_saturated replies instead of unbounded "
            "buffering (default: RKNNT_QUEUE_LIMIT, 0 = unbounded)"
        ),
    )

    watch = subparsers.add_parser(
        "watch",
        help="maintain a standing query over a replayed update log",
    )
    _add_data_arguments(watch)
    _add_point_argument(watch, required=True)
    watch.add_argument(
        "--updates",
        required=True,
        help=(
            "update log replayed against the standing query: one operation "
            "per line, either '+ ID OX OY DX DY' (insert a transition) or "
            "'- ID' (delete it); blank lines and #-comments ignored"
        ),
    )
    _add_query_arguments(watch)

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


def _add_point_argument(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument(
        "--point",
        dest="points",
        type=float,
        nargs=2,
        action="append",
        metavar=("X", "Y"),
        required=required,
        help="query point; repeat for multi-point queries",
    )


def _add_query_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method", choices=METHODS, default=VORONOI, help="evaluation strategy"
    )
    parser.add_argument("--semantics", choices=("exists", "forall"), default="exists")


def _add_serving_arguments(parser: argparse.ArgumentParser) -> None:
    """The dispatcher options ``serve`` and ``server`` share."""
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "size of the persistent serving pool batches dispatch through "
            "(0 = answer in-process, still batched)"
        ),
    )
    parser.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help=(
            "multiprocessing start method of the serving pool (default: "
            "RKNNT_START_METHOD, else fork on Linux; answers are identical "
            "either way)"
        ),
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help=(
            "per-batch time budget in milliseconds: the queries of a batch "
            "that misses it get typed deadline_exceeded errors (hung workers "
            "are terminated, the pool reseeds) and serving continues "
            "(default: RKNNT_DEADLINE_MS, unset = no deadline)"
        ),
    )


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


def _parse_line(text: str) -> Dict[str, Any]:
    """One line of the text format as a wire request without its ``id``.

    ``x1 y1 x2 y2 ...`` is a query, ``+ ID OX OY DX DY`` inserts a
    transition and ``- ID`` deletes one; commas count as spaces.  Raises
    :class:`UpdateStreamError` naming what is wrong with the line.
    """
    fields = text.replace(",", " ").split()
    if fields[0] in ("+", "-"):
        try:
            if fields[0] == "+" and len(fields) == 6:
                x1, y1, x2, y2 = (float(value) for value in fields[2:])
                transition = {
                    "id": int(fields[1]),
                    "origin": [x1, y1],
                    "destination": [x2, y2],
                }
                return {"op": "insert", "transition": transition}
            if fields[0] == "-" and len(fields) == 2:
                return {"op": "delete", "transition_id": int(fields[1])}
        except ValueError:
            raise UpdateStreamError("non-numeric field") from None
        raise UpdateStreamError("expected '+ ID OX OY DX DY' or '- ID'")
    if len(fields) % 2 != 0:
        raise UpdateStreamError(
            f"expected an even number of coordinates, got {len(fields)}"
        )
    try:
        values = [float(value) for value in fields]
    except ValueError:
        raise UpdateStreamError("non-numeric coordinate") from None
    points = [values[i : i + 2] for i in range(0, len(values), 2)]
    return {"op": "query", "points": points}


def _stream_requests(
    handle, name: str
) -> Iterator[Tuple[str, Union[Request, RkNNTError]]]:
    """``(where, request)`` for each line of a ``serve`` stream, ``watch``
    log or batch file, validated by the decoder TCP requests go through.

    Blank lines and #-comments are skipped; ``where`` is ``name:line``.  A
    rejected line carries its typed error in place of the request.
    """
    for line_number, line in enumerate(handle, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        where = f"{name}:{line_number}"
        try:
            request = protocol.decode_object({"id": line_number, **_parse_line(text)})
        except (UpdateStreamError, ProtocolError) as error:
            yield where, error
        else:
            yield where, request


def _warn_rejected(where: str, reason: object) -> None:
    # A rejected line never stops a stream or a replay: log it and go on.
    print(f"warning: {where}: rejected line ({reason})", file=sys.stderr)


def _load_batch_file(path: str) -> List[List[tuple]]:
    """Parse a batch file: one query line of the ``serve`` format per line."""
    if not os.path.exists(path):
        raise SystemExit(f"error: batch file {path} does not exist")
    queries: List[List[tuple]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for where, request in _stream_requests(handle, path):
            if isinstance(request, RkNNTError):
                raise SystemExit(f"error: {where}: {request}")
            if request.op != "query":
                raise SystemExit(f"error: {where}: expected a query line")
            queries.append(request.points)
    if not queries:
        raise SystemExit(f"error: batch file {path} contains no queries")
    return queries


def command_pack(args: argparse.Namespace) -> int:
    """Pack saved datasets into one persistent store file."""
    from repro.engine import store as store_module

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
    """One-line summary of the context's work-reuse counters."""
    return (
        f"divide-conquer sub-queries: {context.subquery_misses} run, "
        f"{context.subquery_hits} repeated points skipped; "
        f"shard fallbacks: {context.shard_fallbacks}"
    )


def _run_query_batch(args, processor, transitions) -> int:
    """Answer every query of ``--batch-file`` through the batched engine."""
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
    """Stream serving: a stdin (or ``--input`` file) client of the server.

    Each line becomes one protocol request for an in-process
    :class:`~repro.engine.server.RkNNTServer`, at most ``--batch-size`` in
    flight.  Its dispatcher does the rest, as for TCP clients: batches of
    at most ``--batch-size`` queries, updates applied between batches in
    stream order, typed replies for missed deadlines and bad updates.
    """
    if args.workers < 0:
        raise SystemExit("error: --workers must be non-negative")
    if args.batch_size <= 0:
        raise SystemExit("error: --batch-size must be positive")
    processor = _boot_processor(args)
    if args.input == "-":
        stream = sys.stdin
    elif os.path.exists(args.input):
        stream = open(args.input, "r", encoding="utf-8")
    else:
        raise SystemExit(f"error: input stream {args.input} does not exist")
    started = time.perf_counter()
    try:
        counts, stats = asyncio.run(_serve_stream(args, processor, stream))
    finally:
        processor.close()
        if stream is not sys.stdin:
            stream.close()
    elapsed = time.perf_counter() - started

    if not counts["queries"] and not counts["updates"] and not counts["dropped"]:
        raise SystemExit(f"error: input stream {args.input} contains no work")
    print(
        f"served {counts['queries']} queries in {stats['batches']} batches "
        f"({counts['matched']} transitions matched, {counts['updates']} "
        f"updates applied)"
    )
    if counts["rejected"]:
        print(f"rejected {counts['rejected']} malformed lines (see stderr)")
    if counts["dropped"]:
        print(
            f"dropped {counts['dropped']} queries in {stats['deadline_misses']} "
            f"batches that missed the {args.deadline_ms} ms deadline"
        )
    pool = (
        f"{stats['workers']} workers (persistent, seeded {stats['pools_spawned']}x)"
        if stats["workers"]
        else "in-process (workers=0)"
    )
    print(f"stream: {elapsed * 1000:.1f} ms wall; pool: {pool}")
    return 0


async def _serve_stream(args, processor, stream) -> Tuple[Dict[str, int], dict]:
    """Feed ``stream`` through the dispatcher; print each reply in order."""
    server = RkNNTServer(
        processor,
        k=args.k,
        method=args.method,
        semantics=args.semantics,
        workers=args.workers,
        window_ms=0,
        max_batch=args.batch_size,
        deadline_ms=args.deadline_ms,
        # The in-flight cap below is this client's backpressure.
        queue_limit=0,
        start_method=args.start_method,
    )
    connection = LocalConnection()
    counts = dict.fromkeys(("queries", "matched", "updates", "rejected", "dropped"), 0)
    in_flight: Deque[Tuple[str, str, "asyncio.Future[dict]"]] = collections.deque()

    def reject(where: str, message: str) -> None:
        counts["rejected"] += 1
        _warn_rejected(where, message)

    async def settle_oldest() -> None:
        where, op, future = in_flight.popleft()
        reply = await future
        if not reply["ok"]:
            error = reply["error"]
            if error["code"] == "deadline_exceeded":
                counts["dropped"] += 1
                print(
                    f"warning: {where}: query dropped ({error['message']})",
                    file=sys.stderr,
                )
            else:
                reject(where, error["message"])
        elif op == "query":
            ids = reply["result"]["transitions"]
            counts["queries"] += 1
            counts["matched"] += len(ids)
            print(
                f"{where}: {len(ids)} transitions (version {reply['version']}): "
                f"{' '.join(str(tid) for tid in ids) or '-'}"
            )
        else:
            counts["updates"] += 1

    await server.start_dispatcher()
    try:
        # Lines are read on the loop thread, so the dispatcher runs only
        # while this client awaits a reply: batches fill to the cap, and no
        # coalescing window is worth waiting for.
        for where, request in _stream_requests(stream, args.input):
            if isinstance(request, RkNNTError):
                reject(where, str(request))
                continue
            in_flight.append((where, request.op, server.submit(request, connection)))
            if len(in_flight) >= args.batch_size:
                await settle_oldest()
        while in_flight:
            await settle_oldest()
        stats = await server.submit(protocol.Request(id=0, op="stats"), connection)
    finally:
        await server.aclose()
    return counts, stats["stats"]


def command_server(args: argparse.Namespace) -> int:
    """Network serving front-end (see :mod:`repro.engine.server`)."""
    import signal

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
    if stats["rejected_protocol"] + stats["rejected_updates"] + stats["rejected_saturated"]:
        print(
            f"rejected: {stats['rejected_protocol']} malformed requests, "
            f"{stats['rejected_updates']} bad updates, "
            f"{stats['rejected_saturated']} saturated"
        )
    return 0


def command_watch(args: argparse.Namespace) -> int:
    """Replay an update log against a standing query, through the server.

    The query is registered and the log replayed as insert/delete requests
    of an in-process :class:`~repro.engine.server.RkNNTServer`; the delta
    events it pushes are printed, folded into the standing result, and
    that result is checked against a fresh query (exit 1 if they differ).
    """
    if not os.path.exists(args.updates):
        raise SystemExit(f"error: update log {args.updates} does not exist")
    updates = []
    with open(args.updates, "r", encoding="utf-8") as handle:
        for where, request in _stream_requests(handle, args.updates):
            if not isinstance(request, RkNNTError) and request.op == "query":
                request = UpdateStreamError("expected '+ ID OX OY DX DY' or '- ID'")
            if isinstance(request, RkNNTError):
                _warn_rejected(where, request)
            else:
                updates.append((where, request))
    if not updates:
        raise SystemExit(f"error: update log {args.updates} contains no operations")
    routes, transitions = _load_datasets(args.data_dir)
    processor = RkNNTProcessor(routes, transitions)
    try:
        return asyncio.run(_watch_log(args, processor, updates))
    finally:
        processor.close()


async def _watch_log(args, processor, updates) -> int:
    server = RkNNTServer(
        processor, k=args.k, method=args.method, semantics=args.semantics, window_ms=0
    )
    connection = LocalConnection()
    points = [list(point) for point in args.points]

    async def request(op: str) -> dict:
        decoded = protocol.decode_object({"id": 0, "op": op, "points": points})
        reply = await server.submit(decoded, connection)
        if not reply["ok"]:
            raise SystemExit(f"error: {op} failed: {reply['error']['message']}")
        return reply

    await server.start_dispatcher()
    try:
        registered = await request("watch")
        standing = set(registered["result"]["transitions"])
        print(
            f"watching RkNNT(|Q|={len(points)}, k={args.k}, "
            f"method={args.method}, semantics={args.semantics}): "
            f"{len(standing)} transitions initially"
        )
        rows = []
        for step, (where, update) in enumerate(updates):
            reply = await server.submit(update, connection)
            if not reply["ok"]:
                _warn_rejected(where, reply["error"]["message"])
                continue
            if update.op == "insert":
                op = f"+{update.transition[0]}"
            else:
                op = f"-{update.transition_id}"
            for event in connection.events:
                standing.update(event["added"])
                standing.difference_update(event["removed"])
                rows.append(
                    {
                        "step": step,
                        "op": op,
                        "cause": event["cause"],
                        "added": ",".join(map(str, event["added"])) or "-",
                        "removed": ",".join(map(str, event["removed"])) or "-",
                    }
                )
            connection.events.clear()
        fresh = await request("query")
        stats = connection.watches[registered["watch"]].delta_stats
    finally:
        await server.aclose()
    if rows:
        print(format_table(rows, title="result deltas"))
    else:
        print("(no result deltas: the standing result never changed)")
    if standing != set(fresh["result"]["transitions"]):
        print("error: standing result diverged from a fresh query", file=sys.stderr)
        return 1
    print(
        f"replayed {len(updates)} updates: "
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
