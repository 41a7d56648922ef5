"""Asyncio network serving front-end: many clients, one pool.

The paper's serving setting is one live dataset answering RkNNT queries
between transition updates, for many simultaneous query and update
clients.  This module multiplexes thousands of client connections onto
the existing serving machinery, and is the one dispatcher of the
package: the CLI ``serve`` (a stdin stream) and ``watch`` (a replayed
update log) are in-process clients of it (:meth:`RkNNTServer.submit`).

* **Transport** — one ``asyncio`` TCP server speaking the newline-framed
  JSON protocol of :mod:`repro.engine.protocol`.  Connections are cheap
  coroutines; a blocked client never costs a thread.
* **Micro-batch coalescing** — queries from *all* connections funnel
  into one arrival-ordered dispatch queue.  The dispatcher opens a batch
  at the first pending query and closes it after ``RKNNT_SERVER_WINDOW_MS``
  milliseconds, at ``RKNNT_SERVER_MAX_BATCH`` queries, or when a
  non-query operation arrives — whichever comes first — then flushes the
  batch through :meth:`~repro.core.rknnt.RkNNTProcessor.query_batch`
  (and its persistent serving pool when ``workers > 0``).  Single-client
  latency stays bounded by the window; aggregate throughput scales with
  the batch, because the pool dispatch and the vectorized kernels
  amortise across every rider of it.
* **Consistency** — the dispatcher is strictly sequential: at most one
  batch is in flight, and ``insert``/``delete`` updates (arrival order
  preserved) apply only *between* flushes.  Every query of a batch
  therefore sees one consistent index version, reported back in its
  reply.  Flushes run on a :class:`~repro.engine.parallel.BatchHandle`
  dispatch thread so the event loop keeps accepting work meanwhile.
* **Resilience, end to end** — the per-batch deadline maps onto
  :class:`~repro.engine.resilience.Deadline` inside the engine; a
  saturated server answers a typed ``pool_saturated`` reply immediately
  (:class:`~repro.engine.resilience.AdmissionGate` backpressure, the
  connection stays open); worker crashes are retried/reseeded by the
  executor and, past the budget, served degraded in-process with
  identical answers.  No failure mode closes a connection.
* **Standing queries** — ``watch`` registers a server-side
  :class:`~repro.engine.continuous.Subscription`; every applied update
  pushes its non-empty :class:`~repro.engine.continuous.ResultDelta`\\ s
  to the owning connection as unsolicited events.  A subscription is
  private to the connection that registered it — ``unwatch`` across
  connections is refused, and a closing connection reaps its own.

``ServerThread`` wraps the server in a background event-loop thread for
tests and benchmarks; the CLI ``server`` command is the operational
entry point.  ``RKNNT_SERVER_LOG`` (a file path) makes the server log
its lifecycle and failures there, which CI uploads on failure.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import os
import threading
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.engine import protocol, resilience
from repro.engine.parallel import BatchHandle
from repro.engine.plan import VORONOI
from repro.engine.protocol import ProtocolError, Request
from repro.engine.resilience import (
    DeadlineExceeded,
    PoolSaturated,
    RkNNTError,
    UpdateStreamError,
)
from repro.geometry.kernels import BACKEND_AUTO, BACKEND_PYTHON
from repro.model.transition import Transition

_LOGGER = logging.getLogger("repro.engine.server")

#: ``RKNNT_SERVER_WINDOW_MS`` — micro-batch coalescing window: how long
#: the dispatcher holds an open batch for more queries to join.  ``0``
#: flushes immediately (still coalescing whatever is already queued).
WINDOW_ENV = "RKNNT_SERVER_WINDOW_MS"
DEFAULT_WINDOW_MS = 2.0

#: ``RKNNT_SERVER_MAX_BATCH`` — hard size cap per coalesced batch.
MAX_BATCH_ENV = "RKNNT_SERVER_MAX_BATCH"
DEFAULT_MAX_BATCH = 64

#: ``RKNNT_SERVER_LOG`` — when set, the server appends its lifecycle /
#: failure log to this file (CI uploads it when a soak test fails).
LOG_FILE_ENV = "RKNNT_SERVER_LOG"


def server_window_ms() -> float:
    """Coalescing window (``RKNNT_SERVER_WINDOW_MS``, default 2 ms)."""
    return float(
        resilience._env_number(WINDOW_ENV, DEFAULT_WINDOW_MS, 0.0, float)
    )


def server_max_batch() -> int:
    """Batch size cap (``RKNNT_SERVER_MAX_BATCH``, default 64)."""
    return int(
        resilience._env_number(MAX_BATCH_ENV, DEFAULT_MAX_BATCH, 1, int)
    )


#: Dispatcher shutdown sentinel (queue item).
_SHUTDOWN = object()


class _Connection:
    """Per-connection state: an outbox queue decouples reply/event writes
    from the dispatcher, so one slow client never stalls the server."""

    _ids = itertools.count()

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.id = next(_Connection._ids)
        self.writer = writer
        self.outbox: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue()
        self.watches: Dict[int, Any] = {}
        self.closed = False

    def send(self, payload: Dict[str, Any]) -> None:
        if not self.closed:
            self.outbox.put_nowait(protocol.encode_line(payload))

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.outbox.put_nowait(None)

    async def writer_loop(self) -> None:
        try:
            while True:
                chunk = await self.outbox.get()
                if chunk is None:
                    break
                self.writer.write(chunk)
                await self.writer.drain()
        except (ConnectionError, OSError):
            pass  # the reader side observes the loss and cleans up
        finally:
            self.closed = True
            try:
                self.writer.close()
            except (ConnectionError, OSError):
                pass


class LocalConnection:
    """An in-process client of the dispatcher (see :meth:`RkNNTServer.submit`).

    It stands where a TCP connection would: it owns the watches it
    registers, and the delta events pushed to them collect in
    :attr:`events` (oldest first) instead of going out on a socket.
    """

    def __init__(self) -> None:
        self.watches: Dict[int, Any] = {}
        self.events: List[Dict[str, Any]] = []

    def send(self, payload: Dict[str, Any]) -> None:
        self.events.append(payload)


#: Whoever a request came from: a TCP connection or an in-process client.
Requester = Union[_Connection, LocalConnection]


class _Pending:
    """One queued request: where it came from and how to answer it."""

    __slots__ = ("request", "connection", "future", "seq")

    def __init__(
        self,
        request: Request,
        connection: Requester,
        future: "asyncio.Future[Dict[str, Any]]",
    ) -> None:
        self.request = request
        self.connection = connection
        self.future = future
        self.seq: Optional[int] = None


class _ConnClosed:
    """Internal queue item: reap a closed connection's subscriptions in
    dispatcher order (never concurrently with a flush)."""

    __slots__ = ("connection",)

    def __init__(self, connection: _Connection) -> None:
        self.connection = connection


class RkNNTServer:
    """The network serving front-end.  One instance per processor.

    Parameters mirror the CLI ``server`` command: ``k``/``method``/
    ``semantics``/``backend`` are the per-request *defaults* (any request
    may override them), ``workers`` sizes the persistent serving pool
    (``0`` answers in-process, still coalesced), ``window_ms`` /
    ``max_batch`` bound the coalescing (defaulting to the
    ``RKNNT_SERVER_WINDOW_MS`` / ``RKNNT_SERVER_MAX_BATCH`` knobs),
    ``deadline_ms`` is the per-batch budget and ``queue_limit`` bounds
    admitted-but-unanswered queries (``None`` defers to
    ``RKNNT_QUEUE_LIMIT``; ``0`` disables backpressure).

    ``record_oplog=True`` keeps an in-order operation log (applied
    updates, flushed queries with their ``seq``, watch registrations) —
    the differential tests replay it serially through a fresh processor
    and demand byte-identical answers.

    Updates live in memory only.  A store file is a frozen snapshot, so a
    store-booted server logs one ``updates are not durable`` WARNING on
    its first applied insert/delete: a restart boots the file as packed.
    """

    def __init__(
        self,
        processor: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        k: int = 10,
        method: str = VORONOI,
        semantics: str = "exists",
        backend: str = BACKEND_AUTO,
        workers: int = 0,
        window_ms: Optional[float] = None,
        max_batch: Optional[int] = None,
        deadline_ms: Optional[float] = None,
        queue_limit: Optional[int] = None,
        start_method: Optional[str] = None,
        record_oplog: bool = False,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative")
        self.processor = processor
        self.host = host
        self.port = port
        self.k = int(k)
        self.method = method
        self.semantics = semantics
        self.backend = backend
        self.workers = int(workers)
        self.window_ms = (
            server_window_ms() if window_ms is None else max(0.0, float(window_ms))
        )
        self.max_batch = (
            server_max_batch() if max_batch is None else max(1, int(max_batch))
        )
        self.deadline_ms = deadline_ms
        self.start_method = start_method
        self._gate = resilience.AdmissionGate(queue_limit)
        self.record_oplog = record_oplog
        #: In-order operation log (see class docstring); only filled when
        #: ``record_oplog`` is set.
        self.oplog: List[Tuple[str, Dict[str, Any]]] = []
        #: Dataset version = number of updates applied since start; every
        #: query reply reports the version its batch ran against.
        self.version = 0

        self.stats: Dict[str, int] = {
            "connections": 0,
            "queries": 0,
            "batches": 0,
            "updates": 0,
            "events_pushed": 0,
            "watches": 0,
            "rejected_protocol": 0,
            "rejected_updates": 0,
            "rejected_saturated": 0,
            "deadline_misses": 0,
            "internal_errors": 0,
            "max_batch_coalesced": 0,
        }

        self._queue: "asyncio.Queue[Any]" = asyncio.Queue()
        self._seq = itertools.count()
        self._watch_ids = itertools.count()
        self._watches: Dict[int, Tuple[Any, Requester]] = {}
        self._connections: set = set()
        self._reader_tasks: set = set()
        self._writer_tasks: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._pool_cm = None
        self._pool = None
        self._log_handler: Optional[logging.Handler] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start_dispatcher(self) -> None:
        """Start the dispatcher (and serving pool) without binding a socket.

        In-process clients then talk to the server through :meth:`submit`;
        :meth:`start` adds the TCP listener on top.
        """
        log_path = os.environ.get(LOG_FILE_ENV, "").strip()
        if log_path:
            self._log_handler = logging.FileHandler(log_path)
            self._log_handler.setFormatter(
                logging.Formatter("%(asctime)s %(levelname)s %(name)s %(message)s")
            )
            _LOGGER.addHandler(self._log_handler)
            _LOGGER.setLevel(logging.INFO)
        if self.workers:
            self._pool_cm = self.processor.serving_pool(
                workers=self.workers,
                start_method=self.start_method,
            )
            self._pool = self._pool_cm.__enter__()
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())

    async def start(self) -> None:
        """Start the dispatcher (and serving pool), then bind the socket."""
        await self.start_dispatcher()
        try:
            self._server = await asyncio.start_server(
                self._handle_client,
                self.host,
                self.port,
                limit=protocol.MAX_LINE_BYTES,
            )
        except BaseException:
            await self.aclose()
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        _LOGGER.info(
            "serving on %s:%s (workers=%d window_ms=%.3f max_batch=%d)",
            self.host,
            self.port,
            self.workers,
            self.window_ms,
            self.max_batch,
        )

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def drain(self) -> None:
        """Block until every queued operation has been fully handled."""
        await self._queue.join()

    async def aclose(self) -> None:
        """Graceful shutdown: stop intake, finish queued work, clean up."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._reader_tasks):
            task.cancel()
        if self._reader_tasks:
            await asyncio.gather(*self._reader_tasks, return_exceptions=True)
        await self._queue.join()
        await self._queue.put(_SHUTDOWN)
        if self._dispatcher is not None:
            await self._dispatcher
        for connection in list(self._connections):
            connection.close()
        if self._writer_tasks:
            await asyncio.gather(*self._writer_tasks, return_exceptions=True)
        if self._pool_cm is not None:
            self._pool_cm.__exit__(None, None, None)
            self._pool_cm = None
            self._pool = None
        _LOGGER.info("closed after %s", self.stats)
        if self._log_handler is not None:
            _LOGGER.removeHandler(self._log_handler)
            self._log_handler.close()
            self._log_handler = None

    # ------------------------------------------------------------------
    # Per-connection protocol loop
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(writer)
        self._connections.add(connection)
        self.stats["connections"] += 1
        writer_task = asyncio.ensure_future(connection.writer_loop())
        self._writer_tasks.add(writer_task)
        writer_task.add_done_callback(self._writer_tasks.discard)
        reader_task = asyncio.current_task()
        if reader_task is not None:
            self._reader_tasks.add(reader_task)
        try:
            while True:
                try:
                    raw = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # An over-long line poisons the framing; answer once
                    # and drop the connection (the only case that does).
                    self.stats["rejected_protocol"] += 1
                    connection.send(
                        protocol.error_reply(
                            None, ProtocolError("request line too long")
                        )
                    )
                    break
                except (ConnectionError, OSError):
                    break
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                try:
                    request = protocol.decode_request(line)
                except ProtocolError as error:
                    self.stats["rejected_protocol"] += 1
                    connection.send(
                        protocol.error_reply(protocol.request_id_of(line), error)
                    )
                    continue
                connection.send(await self.submit(request, connection))
        except asyncio.CancelledError:
            pass  # server shutting down
        finally:
            if reader_task is not None:
                self._reader_tasks.discard(reader_task)
            self._connections.discard(connection)
            if connection.watches:
                self._queue.put_nowait(_ConnClosed(connection))
            connection.close()

    def submit(
        self, request: Request, connection: Requester
    ) -> "asyncio.Future[Dict[str, Any]]":
        """Take one decoded request; the returned future resolves to its reply.

        ``ping`` and ``stats`` are answered at once.  Everything else joins
        the dispatch queue before this returns, so requests submitted in
        order are dispatched in that order, from a socket or in-process
        alike; queries pass the admission gate first.  Must be called on
        the server's event loop.
        """
        future: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        if request.op == "ping":
            future.set_result(
                protocol.ok_reply(
                    request.id, pong=True, protocol=protocol.PROTOCOL_VERSION
                )
            )
            return future
        if request.op == "stats":
            future.set_result(
                protocol.ok_reply(request.id, stats=self._stats_payload())
            )
            return future
        if request.op == "query":
            try:
                self._gate.acquire(1, what="query")
            except PoolSaturated as error:
                self.stats["rejected_saturated"] += 1
                future.set_result(protocol.error_reply(request.id, error))
                return future
            future.add_done_callback(lambda _: self._gate.release(1))
        self._queue.put_nowait(_Pending(request, connection, future))
        return future

    # ------------------------------------------------------------------
    # Dispatcher: the only place state changes
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            item = await self._queue.get()
            if item is _SHUTDOWN:
                self._queue.task_done()
                return
            taken: List[Any] = [item]
            stop = False
            try:
                if isinstance(item, _Pending) and item.request.op == "query":
                    batch, carry = await self._coalesce(item)
                    taken = list(batch)
                    if carry is not None:
                        taken.append(carry)
                    await self._flush(batch)
                    if carry is _SHUTDOWN:
                        stop = True
                    elif carry is not None:
                        self._apply(carry)
                else:
                    self._apply(item)
            except Exception as error:  # pragma: no cover - last-resort guard
                self.stats["internal_errors"] += 1
                _LOGGER.exception("dispatcher error")
                for pending in taken:
                    if isinstance(pending, _Pending) and not pending.future.done():
                        pending.future.set_result(
                            protocol.error_reply(pending.request.id, error)
                        )
            finally:
                for _ in taken:
                    self._queue.task_done()
            if stop:
                return

    async def _coalesce(
        self, first: _Pending
    ) -> Tuple[List[_Pending], Optional[Any]]:
        """Grow a batch from the arrival queue until the window closes.

        Returns the batch plus the first non-query item pulled while
        coalescing (``None`` when the window/size limit closed it) — that
        carry item is handled *after* the flush, preserving arrival order.
        """
        batch = [first]
        carry: Optional[Any] = None
        loop = asyncio.get_running_loop()
        expires = loop.time() + self.window_ms / 1000.0
        while carry is None and len(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                timeout = expires - loop.time()
                if timeout <= 0:
                    break
                try:
                    item = await asyncio.wait_for(self._queue.get(), timeout)
                except asyncio.TimeoutError:
                    break
            if isinstance(item, _Pending) and item.request.op == "query":
                batch.append(item)
            else:
                carry = item
        return batch, carry

    async def _flush(self, batch: List[_Pending]) -> None:
        """Answer one coalesced batch through the engine.

        Queries are grouped by their full parameter signature; each group
        is one ``query_batch`` call (dispatched through the persistent
        pool when ``workers > 0``).  The blocking work runs on a
        :class:`BatchHandle` thread while the event loop keeps accepting
        connections, pings and future work — updates queue behind this
        flush, so the whole batch observes one index version.
        """
        self.stats["batches"] += 1
        self.stats["queries"] += len(batch)
        self.stats["max_batch_coalesced"] = max(
            self.stats["max_batch_coalesced"], len(batch)
        )
        version = self.version
        groups: Dict[Tuple, List[int]] = {}
        for index, item in enumerate(batch):
            item.seq = next(self._seq)
            request = item.request
            key = (
                request.k or self.k,
                request.method or self.method,
                request.semantics or self.semantics,
                request.backend or self.backend,
                request.exclude,
            )
            groups.setdefault(key, []).append(index)
            if self.record_oplog:
                self.oplog.append(
                    (
                        "query",
                        {
                            "seq": item.seq,
                            "points": list(request.points or ()),
                            "k": key[0],
                            "method": key[1],
                            "semantics": key[2],
                            "backend": key[3],
                            "exclude": list(key[4]),
                            "version": version,
                        },
                    )
                )

        processor = self.processor
        workers = self.workers
        deadline_ms = self.deadline_ms

        def runner() -> List[Any]:
            outcomes: List[Any] = [None] * len(batch)
            for key, indexes in groups.items():
                k, method, semantics, backend, exclude = key
                queries = [batch[index].request.points for index in indexes]
                try:
                    results = processor.query_batch(
                        queries,
                        k,
                        method=method,
                        semantics=semantics,
                        backend=backend,
                        exclude_route_ids=exclude or None,
                        workers=workers,
                        deadline_ms=deadline_ms,
                    )
                except Exception as exc:  # typed errors and bugs alike
                    for index in indexes:
                        outcomes[index] = exc
                    continue
                for index, result in zip(indexes, results):
                    outcomes[index] = result
            return outcomes

        handle = BatchHandle(runner, label=f"rknnt-flush-{self.stats['batches']}")
        outcomes = await asyncio.wrap_future(handle.future)
        # One miss per engine call that ran out of time: its queries all
        # carry the same exception.
        missed = {id(exc) for exc in outcomes if isinstance(exc, DeadlineExceeded)}
        self.stats["deadline_misses"] += len(missed)
        for item, outcome in zip(batch, outcomes):
            if isinstance(outcome, BaseException):
                if not isinstance(outcome, RkNNTError):
                    self.stats["internal_errors"] += 1
                    _LOGGER.error("query failed: %r", outcome)
                reply = protocol.error_reply(item.request.id, outcome)
            else:
                reply = protocol.ok_reply(
                    item.request.id,
                    seq=item.seq,
                    version=version,
                    result=protocol.result_payload(outcome),
                )
            if not item.future.done():
                item.future.set_result(reply)

    # ------------------------------------------------------------------
    # Non-query operations (always between flushes)
    # ------------------------------------------------------------------
    def _apply(self, item: Any) -> None:
        if isinstance(item, _ConnClosed):
            for watch_id in list(item.connection.watches):
                registered = self._watches.pop(watch_id, None)
                if registered is not None:
                    self.processor.unwatch(registered[0])
            item.connection.watches.clear()
            return
        request: Request = item.request
        try:
            if request.op in ("insert", "delete"):
                reply = self._apply_update(item)
            elif request.op == "watch":
                reply = self._apply_watch(item)
            elif request.op == "unwatch":
                reply = self._apply_unwatch(item)
            else:  # pragma: no cover - decode_request prevents it
                raise ProtocolError(f"unroutable op {request.op!r}")
        except RkNNTError as error:
            if isinstance(error, UpdateStreamError):
                self.stats["rejected_updates"] += 1
            reply = protocol.error_reply(request.id, error)
        except Exception as error:  # pragma: no cover - last-resort guard
            self.stats["internal_errors"] += 1
            _LOGGER.exception("operation %s failed", request.op)
            reply = protocol.error_reply(request.id, error)
        if not item.future.done():
            item.future.set_result(reply)

    def _apply_update(self, item: _Pending) -> Dict[str, Any]:
        request = item.request
        transitions = self.processor.transitions
        if request.op == "insert":
            assert request.transition is not None
            transition_id, origin, destination = request.transition
            if transition_id in transitions:
                raise UpdateStreamError(
                    f"transition id {transition_id} already present"
                )
            self.processor.add_transition(
                Transition(transition_id, origin, destination)
            )
            if self.record_oplog:
                self.oplog.append(
                    (
                        "insert",
                        {
                            "transition_id": transition_id,
                            "origin": list(origin),
                            "destination": list(destination),
                        },
                    )
                )
        else:
            assert request.transition_id is not None
            if request.transition_id not in transitions:
                raise UpdateStreamError(
                    f"transition id {request.transition_id} not in dataset"
                )
            self.processor.remove_transition(request.transition_id)
            if self.record_oplog:
                self.oplog.append(
                    ("delete", {"transition_id": request.transition_id})
                )
        self.version += 1
        self.stats["updates"] += 1
        handle = self.processor.engine_context.store_handle
        if handle is not None and self.stats["updates"] == 1:
            _LOGGER.warning(
                "updates are not durable: %s is a frozen snapshot, inserts "
                "and deletes since boot are lost on restart",
                handle.path,
            )
        self._push_deltas()
        return protocol.ok_reply(
            request.id, seq=next(self._seq), version=self.version
        )

    def _push_deltas(self) -> None:
        """Forward standing-query deltas born from the last update."""
        for watch_id, (subscription, connection) in list(self._watches.items()):
            for delta in subscription.poll():
                if not delta:
                    continue
                connection.send(protocol.delta_event(watch_id, delta))
                self.stats["events_pushed"] += 1

    def _apply_watch(self, item: _Pending) -> Dict[str, Any]:
        request = item.request
        subscription = self.processor.watch(
            request.points,
            request.k or self.k,
            method=request.method or self.method,
            semantics=request.semantics or self.semantics,
            exclude_route_ids=request.exclude or None,
            # Standing queries default to the scalar backend: delta
            # maintenance is per-endpoint work that never amortises
            # array packing.
            backend=request.backend or BACKEND_PYTHON,
        )
        watch_id = next(self._watch_ids)
        self._watches[watch_id] = (subscription, item.connection)
        item.connection.watches[watch_id] = subscription
        self.stats["watches"] += 1
        if self.record_oplog:
            self.oplog.append(
                (
                    "watch",
                    {
                        "watch": watch_id,
                        "points": list(request.points or ()),
                        "k": request.k or self.k,
                        "method": request.method or self.method,
                        "semantics": request.semantics or self.semantics,
                        "version": self.version,
                    },
                )
            )
        return protocol.ok_reply(
            request.id,
            watch=watch_id,
            version=self.version,
            result=protocol.result_payload(subscription.result()),
        )

    def _apply_unwatch(self, item: _Pending) -> Dict[str, Any]:
        request = item.request
        watch_id = request.watch_id
        registered = self._watches.get(watch_id)
        if registered is None or registered[1] is not item.connection:
            # Refusing cross-connection unwatch is part of the isolation
            # contract: a client can only ever touch its own watches.
            raise ProtocolError(f"unknown watch id {watch_id}", watch=watch_id)
        subscription, _ = self._watches.pop(watch_id)
        item.connection.watches.pop(watch_id, None)
        self.processor.unwatch(subscription)
        if self.record_oplog:
            self.oplog.append(("unwatch", {"watch": watch_id}))
        return protocol.ok_reply(request.id, watch=watch_id)

    def _stats_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = dict(self.stats)
        payload.update(
            {
                "protocol": protocol.PROTOCOL_VERSION,
                "version": self.version,
                "workers": self.workers,
                "window_ms": self.window_ms,
                "max_batch": self.max_batch,
                "open_connections": len(self._connections),
                "open_watches": len(self._watches),
                "degraded": bool(self._pool is not None and self._pool.degraded),
                "pools_spawned": (
                    self._pool.pools_spawned if self._pool is not None else 0
                ),
                "store_seeds": (
                    self._pool.store_seeds if self._pool is not None else 0
                ),
                "store_fallbacks": (
                    self._pool.store_fallbacks if self._pool is not None else 0
                ),
                "last_seed_nbytes": (
                    self._pool.last_seed_nbytes if self._pool is not None else 0
                ),
            }
        )
        # Work-reuse counters live on the execution context; shard workers
        # ship their deltas home after every pool batch, so these reflect
        # the whole serving history regardless of where queries ran.
        context = self.processor.engine_context
        payload.update(
            {
                "subquery_hits": context.subquery_hits,
                "subquery_misses": context.subquery_misses,
                "shard_fallbacks": context.shard_fallbacks,
            }
        )
        return payload


class ServerThread:
    """Run an :class:`RkNNTServer` on a private event-loop thread.

    The test suite and ``bench_server.py`` need a live server inside a
    synchronous process; this context manager owns the loop thread and
    guarantees a graceful ``aclose`` on exit::

        with ServerThread(processor, workers=2) as handle:
            client = LineClient(handle.host, handle.port)
    """

    def __init__(self, processor: Any, **kwargs: Any) -> None:
        self._kwargs = kwargs
        self._processor = processor
        self.server: Optional[RkNNTServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        assert self.server is not None
        return self.server.host

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        server = RkNNTServer(self._processor, **self._kwargs)
        try:
            loop.run_until_complete(server.start())
        except BaseException as error:  # startup failed: surface in __enter__
            self._startup_error = error
            self._started.set()
            loop.close()
            return
        self.server = server
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.aclose())
            loop.close()

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="rknnt-server", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=60)
        if self._startup_error is not None:
            raise self._startup_error
        assert self.server is not None, "server failed to start in time"
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=60)
