"""Tests for the asyncio network serving front-end.

Three layers, bottom up:

* protocol unit tests — :mod:`repro.engine.protocol` request validation
  and canonical reply/event encoding, no socket involved;
* server behaviour over real TCP connections (``ServerThread`` +
  ``LineClient``): micro-batch coalescing, typed error replies
  (``bad_request`` / ``bad_update`` / ``pool_saturated`` /
  ``deadline_exceeded``) that never drop the connection, standing-query
  delta pushes, cross-connection watch isolation, degraded serial mode
  under injected worker crashes;
* the **differential protocol sweep**: N concurrent clients interleave
  queries, updates and watches against the server; the server's oplog is
  then replayed *serially* through a fresh :class:`RkNNTProcessor` and
  every reply each client received must be byte-identical to the serial
  answer — per client, in per-client order, per method × semantics ×
  backend.  Any cross-client result leakage, reordering or
  inconsistent-index-version read would break the equality.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from conftest import BACKENDS

from repro.cli import LineClient
from repro.core.rknnt import METHODS, RkNNTProcessor, VORONOI
from repro.engine import faults, protocol
from repro.engine.protocol import ProtocolError
from repro.engine.server import (
    DEFAULT_MAX_BATCH,
    DEFAULT_WINDOW_MS,
    LocalConnection,
    RkNNTServer,
    ServerThread,
    server_max_batch,
    server_window_ms,
)
from repro.model.dataset import RouteDataset, TransitionDataset
from repro.model.route import Route
from repro.model.transition import Transition

K = 3


@pytest.fixture(autouse=True)
def _no_ambient_faults():
    """Every test starts and ends with no installed fault schedule.

    The chaos leg below installs a schedule lazily from ``RKNNT_FAULTS``;
    without this teardown the cached runtime would outlive the env var
    and leak into later tests (and their pools)."""
    faults.uninstall()
    yield
    faults.uninstall()


# ----------------------------------------------------------------------
# A small private world per test (the server mutates its transitions)
# ----------------------------------------------------------------------
def make_world(seed: int, route_count: int = 10, transition_count: int = 50):
    rng = random.Random(seed)
    routes = []
    for route_id in range(route_count):
        x, y = rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)
        points = [(x, y)]
        for _ in range(rng.randint(3, 5)):
            x = min(10.0, max(0.0, x + rng.uniform(-2.0, 2.0)))
            y = min(10.0, max(0.0, y + rng.uniform(-2.0, 2.0)))
            points.append((x, y))
        routes.append(Route(route_id, points))
    transitions = [
        Transition(
            tid,
            (rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)),
            (rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)),
        )
        for tid in range(transition_count)
    ]
    return RouteDataset(routes), TransitionDataset(transitions)


def fresh_processor(seed: int = 11):
    routes, transitions = make_world(seed)
    return RkNNTProcessor(routes, transitions)


def replay_oplog(oplog, seed: int = 11):
    """Serial oracle: replay a server oplog on a fresh processor.

    Returns (replies by seq, watches) where each reply is the canonical
    :func:`protocol.result_payload` the server should have produced for
    that query, and each watch maps its id to the serially-maintained
    subscription (left registered so callers can read its final state).
    """
    processor = fresh_processor(seed)
    replies = {}
    watches = {}
    for kind, entry in oplog:
        if kind == "query":
            result = processor.query_batch(
                [entry["points"]],
                entry["k"],
                method=entry["method"],
                semantics=entry["semantics"],
                backend=entry["backend"],
                exclude_route_ids=entry["exclude"] or None,
            )[0]
            replies[entry["seq"]] = protocol.result_payload(result)
        elif kind == "insert":
            processor.add_transition(
                Transition(
                    entry["transition_id"],
                    tuple(entry["origin"]),
                    tuple(entry["destination"]),
                )
            )
        elif kind == "delete":
            processor.remove_transition(entry["transition_id"])
        elif kind == "watch":
            watches[entry["watch"]] = processor.watch(
                entry["points"],
                entry["k"],
                method=entry["method"],
                semantics=entry["semantics"],
            )
        elif kind == "unwatch":
            pass  # subscriptions stay live so final membership is readable
    return processor, replies, watches


# ----------------------------------------------------------------------
# Protocol unit tests (no socket)
# ----------------------------------------------------------------------
class TestProtocol:
    def test_valid_query_roundtrip(self):
        request = protocol.decode_request(
            json.dumps(
                {
                    "id": 7,
                    "op": "query",
                    "points": [[1.0, 2.0], [3, 4]],
                    "k": 5,
                    "method": "voronoi",
                    "semantics": "forall",
                    "exclude": [1, 2],
                }
            )
        )
        assert request.id == 7
        assert request.op == "query"
        assert request.points == [(1.0, 2.0), (3.0, 4.0)]
        assert request.k == 5
        assert request.method == "voronoi"
        assert request.semantics == "forall"
        assert request.exclude == (1, 2)

    def test_optional_fields_default_to_none(self):
        request = protocol.decode_request(
            '{"id": 0, "op": "query", "points": [[0, 0]]}'
        )
        assert request.k is None
        assert request.method is None
        assert request.semantics is None
        assert request.backend is None
        assert request.exclude == ()

    def test_insert_and_delete_shapes(self):
        insert = protocol.decode_request(
            json.dumps(
                {
                    "id": 1,
                    "op": "insert",
                    "transition": {
                        "id": 42,
                        "origin": [1, 2],
                        "destination": [3, 4],
                    },
                }
            )
        )
        assert insert.transition == (42, (1.0, 2.0), (3.0, 4.0))
        delete = protocol.decode_request(
            '{"id": 2, "op": "delete", "transition_id": 42}'
        )
        assert delete.transition_id == 42

    @pytest.mark.parametrize(
        "line",
        [
            "not json at all",
            "[1, 2, 3]",  # not an object
            '{"op": "query", "points": [[0, 0]]}',  # missing id
            '{"id": true, "op": "ping"}',  # bool is not an int id
            '{"id": 1, "op": "frobnicate"}',  # unknown op
            '{"id": 1, "op": "query"}',  # missing points
            '{"id": 1, "op": "query", "points": []}',  # empty points
            '{"id": 1, "op": "query", "points": [[1]]}',  # not a pair
            '{"id": 1, "op": "query", "points": [["a", "b"]]}',  # non-numeric
            '{"id": 1, "op": "query", "points": [[0, 0]], "k": 0}',  # k < 1
            '{"id": 1, "op": "query", "points": [[0, 0]], "method": "magic"}',
            '{"id": 1, "op": "query", "points": [[0, 0]], "semantics": "most"}',
            '{"id": 1, "op": "query", "points": [[0, 0]], "exclude": ["r1"]}',
            '{"id": 1, "op": "insert", "transition": [42, 0, 0]}',
            '{"id": 1, "op": "insert", "transition": {"id": 42, "origin": [0, 0]}}',
            '{"id": 1, "op": "delete"}',
            '{"id": 1, "op": "unwatch"}',
        ],
    )
    def test_malformed_requests_raise_typed_error(self, line):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_request(line)
        assert excinfo.value.wire_code == "bad_request"

    def test_request_id_salvage(self):
        assert protocol.request_id_of('{"id": 9, "op": "nope"}') == 9
        assert protocol.request_id_of("garbage") is None
        assert protocol.request_id_of('{"id": "x"}') is None

    def test_encoding_is_canonical(self):
        processor = fresh_processor()
        result = processor.query([(2.0, 2.0)], K)
        payload_a = protocol.encode_line(
            protocol.ok_reply(1, result=protocol.result_payload(result))
        )
        payload_b = protocol.encode_line(
            protocol.ok_reply(1, result=protocol.result_payload(result))
        )
        assert payload_a == payload_b
        assert payload_a.endswith(b"\n")
        decoded = json.loads(payload_a)
        assert decoded["result"]["transitions"] == sorted(
            decoded["result"]["transitions"]
        )
        processor.close()

    def test_env_knob_defaults(self, monkeypatch):
        monkeypatch.delenv("RKNNT_SERVER_WINDOW_MS", raising=False)
        monkeypatch.delenv("RKNNT_SERVER_MAX_BATCH", raising=False)
        assert server_window_ms() == DEFAULT_WINDOW_MS
        assert server_max_batch() == DEFAULT_MAX_BATCH
        monkeypatch.setenv("RKNNT_SERVER_WINDOW_MS", "7.5")
        monkeypatch.setenv("RKNNT_SERVER_MAX_BATCH", "9")
        assert server_window_ms() == 7.5
        assert server_max_batch() == 9
        # Mistyped knobs fall back to defaults, like every other knob.
        monkeypatch.setenv("RKNNT_SERVER_WINDOW_MS", "soon")
        monkeypatch.setenv("RKNNT_SERVER_MAX_BATCH", "-3")
        assert server_window_ms() == DEFAULT_WINDOW_MS
        assert server_max_batch() == DEFAULT_MAX_BATCH


# ----------------------------------------------------------------------
# Server behaviour over real sockets
# ----------------------------------------------------------------------
class TestServerBasics:
    def test_ping_query_and_stats(self):
        processor = fresh_processor()
        try:
            with ServerThread(processor, window_ms=1.0) as handle:
                with LineClient(handle.host, handle.port) as client:
                    pong = client.ping()
                    assert pong["ok"] and pong["pong"]
                    assert pong["protocol"] == protocol.PROTOCOL_VERSION
                    reply = client.query([(2.0, 2.0)], k=K)
                    assert reply["ok"]
                    expected = protocol.result_payload(
                        processor.query([(2.0, 2.0)], K)
                    )
                    assert reply["result"] == expected
                    stats = client.stats()
                    assert stats["queries"] == 1
                    assert stats["batches"] == 1
                    # The work-reuse counters ride along in every stats
                    # reply (worker deltas are merged into the parent
                    # context, so serving batches count too).
                    for counter in (
                        "subquery_hits",
                        "subquery_misses",
                        "shard_fallbacks",
                    ):
                        assert stats[counter] >= 0
        finally:
            processor.close()

    def test_malformed_lines_keep_connection_open(self):
        processor = fresh_processor()
        try:
            with ServerThread(processor, window_ms=1.0) as handle:
                with LineClient(handle.host, handle.port) as client:
                    for bad in (
                        "im not json",
                        '{"id": 1, "op": "conquer"}',
                        '{"id": 2, "op": "query", "points": [[1]]}',
                    ):
                        reply = client.send_raw(bad)
                        assert reply["ok"] is False
                        assert reply["error"]["code"] == "bad_request"
                    # the id is echoed when salvageable, null otherwise
                    assert client.send_raw('{"id": 5, "op": "bad"}')["id"] == 5
                    assert client.send_raw("garbage")["id"] is None
                    assert client.ping()["ok"]
                    stats = client.stats()
                    assert stats["rejected_protocol"] == 5
        finally:
            processor.close()

    def test_updates_apply_in_order_and_are_validated(self):
        processor = fresh_processor()
        try:
            with ServerThread(processor, window_ms=1.0) as handle:
                with LineClient(handle.host, handle.port) as client:
                    before = client.query([(2.0, 2.0)], k=K)
                    assert client.insert(900, (2.0, 2.0), (2.1, 2.1))["ok"]
                    duplicate = client.insert(900, (0.0, 0.0), (1.0, 1.0))
                    assert duplicate["error"]["code"] == "bad_update"
                    missing = client.delete(901)
                    assert missing["error"]["code"] == "bad_update"
                    after = client.query([(2.0, 2.0)], k=K)
                    assert after["version"] == 1
                    assert 900 in after["result"]["transitions"]
                    assert client.delete(900)["ok"]
                    reverted = client.query([(2.0, 2.0)], k=K)
                    assert reverted["result"] == before["result"]
                    assert reverted["version"] == 2
        finally:
            processor.close()

    def test_store_booted_server_warns_once_that_updates_are_not_durable(
        self, tmp_path, caplog
    ):
        from repro.engine import store as store_module

        source = fresh_processor()
        path = str(tmp_path / "world.store")
        store_module.save_indexes(
            path, source.route_index, source.transition_index
        )
        processor = RkNNTProcessor.from_store(path)
        try:
            with caplog.at_level("WARNING", logger="repro.engine.server"):
                with ServerThread(processor, window_ms=1.0) as handle:
                    with LineClient(handle.host, handle.port) as client:
                        assert client.query([(2.0, 2.0)], k=K)["ok"]
                        assert client.insert(900, (2.0, 2.0), (2.1, 2.1))["ok"]
                        assert client.insert(901, (3.0, 3.0), (3.1, 3.1))["ok"]
                        assert client.delete(900)["ok"]
        finally:
            processor.close()
        warnings = [
            record
            for record in caplog.records
            if record.name == "repro.engine.server"
            and "updates are not durable" in record.getMessage()
        ]
        assert len(warnings) == 1
        assert warnings[0].levelname == "WARNING"
        assert path in warnings[0].getMessage()

    def test_in_memory_server_does_not_warn_about_durability(self, caplog):
        processor = fresh_processor()
        try:
            with caplog.at_level("WARNING", logger="repro.engine.server"):
                with ServerThread(processor, window_ms=1.0) as handle:
                    with LineClient(handle.host, handle.port) as client:
                        assert client.insert(900, (2.0, 2.0), (2.1, 2.1))["ok"]
        finally:
            processor.close()
        assert not any(
            "updates are not durable" in record.getMessage()
            for record in caplog.records
        )

    def test_queries_coalesce_into_micro_batches(self):
        processor = fresh_processor()
        clients = 8
        per_client = 4
        try:
            with ServerThread(
                processor, window_ms=25.0, max_batch=64, workers=0
            ) as handle:
                barrier = threading.Barrier(clients)
                failures = []

                def run_client(cid):
                    try:
                        with LineClient(handle.host, handle.port) as client:
                            barrier.wait(timeout=30)
                            for i in range(per_client):
                                reply = client.query(
                                    [(2.0 + 0.1 * cid, 2.0 + 0.1 * i)], k=K
                                )
                                assert reply["ok"], reply
                    except Exception as error:  # pragma: no cover
                        failures.append(error)

                threads = [
                    threading.Thread(target=run_client, args=(cid,))
                    for cid in range(clients)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not failures
                with LineClient(handle.host, handle.port) as client:
                    stats = client.stats()
                assert stats["queries"] == clients * per_client
                # Coalescing must beat one-batch-per-query dispatch.
                assert stats["batches"] < stats["queries"]
                assert stats["max_batch_coalesced"] > 1
        finally:
            processor.close()

    def test_max_batch_caps_coalescing(self):
        processor = fresh_processor()
        try:
            with ServerThread(
                processor, window_ms=200.0, max_batch=2, workers=0
            ) as handle:
                clients = [LineClient(handle.host, handle.port) for _ in range(4)]
                try:
                    threads = [
                        threading.Thread(
                            target=lambda c=c: c.query([(2.0, 2.0)], k=K)
                        )
                        for c in clients
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
                    stats = clients[0].stats()
                    assert stats["max_batch_coalesced"] <= 2
                    assert stats["queries"] == 4
                finally:
                    for client in clients:
                        client.close()
        finally:
            processor.close()


class TestBackpressureAndDeadlines:
    def test_saturation_yields_typed_replies_not_drops(self):
        processor = fresh_processor()
        try:
            # window far longer than the test: the first query holds its
            # admission slot while the others arrive.
            with ServerThread(
                processor, window_ms=1500.0, max_batch=64, queue_limit=1
            ) as handle:
                first_reply = {}

                def first():
                    with LineClient(handle.host, handle.port) as client:
                        first_reply.update(client.query([(2.0, 2.0)], k=K))

                holder = threading.Thread(target=first)
                holder.start()
                time.sleep(0.3)  # let the first query enter the window
                with LineClient(handle.host, handle.port) as client:
                    rejected = client.query([(3.0, 3.0)], k=K)
                    assert rejected["ok"] is False
                    assert rejected["error"]["code"] == "pool_saturated"
                    # the connection survives rejection...
                    assert client.ping()["ok"]
                    holder.join(timeout=60)
                    assert first_reply.get("ok") is True
                    # ...and the same connection's next query is admitted.
                    retried = client.query([(3.0, 3.0)], k=K)
                    assert retried["ok"] is True
                    stats = client.stats()
                    assert stats["rejected_saturated"] == 1
        finally:
            processor.close()

    def test_deadline_miss_is_a_typed_reply(self):
        processor = fresh_processor()
        try:
            with ServerThread(
                processor, window_ms=1.0, deadline_ms=0.000001
            ) as handle:
                with LineClient(handle.host, handle.port) as client:
                    reply = client.query([(2.0, 2.0)], k=K)
                    assert reply["ok"] is False
                    assert reply["error"]["code"] == "deadline_exceeded"
                    assert client.ping()["ok"]
                    stats = client.stats()
                    assert stats["deadline_misses"] == 1
        finally:
            processor.close()


class TestInProcessClients:
    """``start_dispatcher`` plus ``submit``: the entry the CLI ``serve`` and
    ``watch`` commands use, with no socket bound."""

    @staticmethod
    def run(processor, bodies, **kwargs):
        async def scenario():
            server = RkNNTServer(processor, k=K, window_ms=0, **kwargs)
            await server.start_dispatcher()
            connection = LocalConnection()
            try:
                futures = [
                    server.submit(
                        protocol.decode_object({"id": index, **body}), connection
                    )
                    for index, body in enumerate(bodies)
                ]
                replies = [await future for future in futures]
            finally:
                await server.aclose()
            return server, connection, replies

        try:
            return asyncio.run(scenario())
        finally:
            processor.close()

    def test_requests_apply_in_submission_order(self):
        point = [2.0, 2.0]
        query = {"op": "query", "points": [point]}
        delete = {"op": "delete", "transition_id": 900}
        server, connection, replies = self.run(
            fresh_processor(),
            [
                {"op": "watch", "points": [point]},
                query,
                {
                    "op": "insert",
                    "transition": {"id": 900, "origin": point, "destination": point},
                },
                query,
                delete,
                delete,
                query,
            ],
        )
        assert server.port == 0  # no socket was bound
        assert [reply["id"] for reply in replies] == list(range(7))
        assert [reply.get("version") for reply in replies] == [0, 0, 1, 1, 2, None, 2]
        assert 900 not in replies[1]["result"]["transitions"]
        assert 900 in replies[3]["result"]["transitions"]
        assert replies[5]["error"]["code"] == "bad_update"
        assert 900 not in replies[6]["result"]["transitions"]
        # The watch's deltas went to the in-process connection.
        assert [(event["added"], event["removed"]) for event in connection.events] == [
            ([900], []),
            ([], [900]),
        ]

    def test_failed_bind_releases_the_pool(self):
        processor = fresh_processor()
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            with pytest.raises(OSError):
                with ServerThread(processor, port=taken.getsockname()[1], workers=1):
                    pass  # pragma: no cover
        try:
            assert processor.active_serving_pool is None
        finally:
            processor.close()

    def test_a_missed_deadline_counts_once_per_batch(self):
        query = {"op": "query", "points": [[2.0, 2.0]]}
        server, _, replies = self.run(
            fresh_processor(), [query] * 3, deadline_ms=0.000001
        )
        assert [reply["error"]["code"] for reply in replies] == ["deadline_exceeded"] * 3
        assert server.stats["batches"] == 1
        assert server.stats["deadline_misses"] == 1


class TestWatchOverTheWire:
    def test_deltas_push_to_the_owning_connection_only(self):
        processor = fresh_processor()
        try:
            with ServerThread(processor, window_ms=1.0) as handle:
                with LineClient(handle.host, handle.port) as watcher, LineClient(
                    handle.host, handle.port
                ) as updater:
                    registered = watcher.watch([(2.0, 2.0)], k=K)
                    assert registered["ok"]
                    watch_id = registered["watch"]
                    baseline = set(registered["result"]["transitions"])

                    assert updater.insert(900, (2.0, 2.0), (2.05, 2.05))["ok"]
                    assert updater.delete(900)["ok"]
                    # A query is a dispatcher serialization point: its
                    # reply is enqueued after every prior update's events.
                    assert watcher.query([(9.0, 9.0)], k=K)["ok"]
                    events = watcher.events()
                    assert [e["cause"] for e in events] == ["insert", "delete"]
                    assert all(e["watch"] == watch_id for e in events)
                    assert events[0]["added"] == [900]
                    assert events[1]["removed"] == [900]
                    # the updater connection never sees the watcher's events
                    assert updater.query([(9.0, 9.0)], k=K)["ok"]
                    assert updater.events() == []

                    # watches are private: another connection cannot
                    # unwatch them...
                    stolen = updater.unwatch(watch_id)
                    assert stolen["error"]["code"] == "bad_request"
                    # ...while the owner can.
                    assert watcher.unwatch(watch_id)["ok"]
                    assert updater.insert(901, (2.0, 2.0), (2.05, 2.05))["ok"]
                    assert watcher.query([(9.0, 9.0)], k=K)["ok"]
                    assert watcher.events() == []
                    # replaying the deltas over the baseline reproduces a
                    # fresh serial answer at the unwatch point
                    replayed = set(baseline)
                    for event in events:
                        replayed -= set(event["removed"])
                        replayed |= set(event["added"])
                    assert replayed == baseline
        finally:
            processor.close()

    def test_closed_connection_reaps_its_watches(self):
        processor = fresh_processor()
        try:
            with ServerThread(processor, window_ms=1.0) as handle:
                client = LineClient(handle.host, handle.port)
                assert client.watch([(2.0, 2.0)], k=K)["ok"]
                assert client.stats()["open_watches"] == 1
                client.close()
                with LineClient(handle.host, handle.port) as probe:
                    # an update serializes behind the _ConnClosed reaping
                    deadline = time.monotonic() + 30
                    while time.monotonic() < deadline:
                        assert probe.insert(900, (0.0, 0.0), (1.0, 1.0))["ok"]
                        assert probe.delete(900)["ok"]
                        if probe.stats()["open_watches"] == 0:
                            break
                    assert probe.stats()["open_watches"] == 0
        finally:
            processor.close()


# ----------------------------------------------------------------------
# Resilience: injected worker crashes must not change answers
# ----------------------------------------------------------------------
class TestDegradedServing:
    def test_worker_crashes_degrade_but_answers_stay_identical(self, monkeypatch):
        monkeypatch.setenv("RKNNT_FAULTS", "worker_crash:after=0;count=1")
        monkeypatch.setenv("RKNNT_MAX_RESEEDS", "0")
        processor = fresh_processor()
        try:
            with ServerThread(
                processor,
                workers=2,
                window_ms=5.0,
                record_oplog=True,
            ) as handle:
                with LineClient(handle.host, handle.port) as client:
                    replies = [
                        client.query([(2.0 + 0.3 * i, 2.0)], k=K)
                        for i in range(6)
                    ]
                    assert all(reply["ok"] for reply in replies), replies
                    stats = client.stats()
                    assert stats["degraded"] is True
                oplog = list(handle.server.oplog)
        finally:
            processor.close()
        monkeypatch.delenv("RKNNT_FAULTS")
        monkeypatch.delenv("RKNNT_MAX_RESEEDS")
        oracle, serial_replies, _ = replay_oplog(oplog)
        try:
            for reply in replies:
                assert reply["result"] == serial_replies[reply["seq"]]
        finally:
            oracle.close()


# ----------------------------------------------------------------------
# The differential protocol sweep
# ----------------------------------------------------------------------
CLIENTS = 4
OPS_PER_CLIENT = 6


def run_client_script(handle, cid, method, semantics, backend, record, barrier):
    """One client's deterministic interleaving of queries/updates/watches."""
    rng = random.Random(1000 + cid)
    base_id = 100000 + cid * 1000
    inserted = []
    with LineClient(handle.host, handle.port) as client:
        barrier.wait(timeout=60)
        registered = client.watch(
            [(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))],
            k=K,
            method=method,
            semantics=semantics,
        )
        record["watch"] = registered
        for index in range(OPS_PER_CLIENT):
            roll = rng.random()
            if roll < 0.5:
                points = [
                    (rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
                    for _ in range(rng.randint(1, 2))
                ]
                reply = client.query(
                    points, k=K, method=method, semantics=semantics, backend=backend
                )
            elif roll < 0.8 or not inserted:
                new_id = base_id + index
                reply = client.insert(
                    new_id,
                    (rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)),
                    (rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)),
                )
                inserted.append(new_id)
            else:
                reply = client.delete(inserted.pop(0))
            record["replies"].append(reply)
        # Wait for every client to finish mutating, then issue one final
        # query: its reply serializes behind all prior updates, so every
        # delta event owed to this connection is already buffered.
        barrier.wait(timeout=60)
        record["final"] = client.query(
            [(5.0, 5.0)], k=K, method=method, semantics=semantics, backend=backend
        )
        record["events"] = client.events()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("semantics", ["exists", "forall"])
@pytest.mark.parametrize("method", METHODS)
def test_differential_concurrent_clients_vs_serial_replay(
    method, semantics, backend
):
    """Concurrent server ≡ serial replay, per method × semantics × backend."""
    processor = fresh_processor()
    records = [
        {"replies": [], "events": [], "watch": None, "final": None}
        for _ in range(CLIENTS)
    ]
    failures = []
    try:
        with ServerThread(
            processor, window_ms=5.0, max_batch=16, record_oplog=True
        ) as handle:
            barrier = threading.Barrier(CLIENTS)

            def runner(cid):
                try:
                    run_client_script(
                        handle, cid, method, semantics, backend,
                        records[cid], barrier,
                    )
                except Exception as error:  # pragma: no cover
                    failures.append((cid, error))

            threads = [
                threading.Thread(target=runner, args=(cid,))
                for cid in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not failures, failures
            oplog = list(handle.server.oplog)
    finally:
        processor.close()

    oracle, serial_replies, serial_watches = replay_oplog(oplog)
    try:
        for cid, record in enumerate(records):
            seqs = []
            for reply in record["replies"] + [record["final"]]:
                assert reply["ok"], (cid, reply)
                seqs.append(reply["seq"])
                if "result" in reply:
                    # zero leakage/reordering: the answer for THIS seq
                    assert reply["result"] == serial_replies[reply["seq"]], (
                        cid,
                        reply["seq"],
                    )
            # per-client response ordering: seq strictly increases in the
            # order the client observed its replies
            assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs), cid

            # standing query: baseline + received deltas == serial replay
            watch_reply = record["watch"]
            assert watch_reply["ok"], (cid, watch_reply)
            watch_id = watch_reply["watch"]
            assert all(e["watch"] == watch_id for e in record["events"]), cid
            standing = set(watch_reply["result"]["transitions"])
            for event in record["events"]:
                standing -= set(event["removed"])
                standing |= set(event["added"])
            serial_sub = serial_watches[watch_id]
            assert standing == set(serial_sub.transition_ids), cid
            # and the serially-maintained subscription itself matches a
            # fresh query on the replayed dataset
            fresh = oracle.query(
                serial_sub.query_points, K, method=method, semantics=semantics
            )
            assert serial_sub.transition_ids == fresh.transition_ids
    finally:
        oracle.close()


def test_differential_with_persistent_pool():
    """The same differential check with a live 2-worker serving pool."""
    processor = fresh_processor()
    records = [
        {"replies": [], "events": [], "watch": None, "final": None}
        for _ in range(CLIENTS)
    ]
    failures = []
    try:
        with ServerThread(
            processor,
            workers=2,
            window_ms=5.0,
            max_batch=16,
            record_oplog=True,
        ) as handle:
            barrier = threading.Barrier(CLIENTS)

            def runner(cid):
                try:
                    run_client_script(
                        handle, cid, VORONOI, "exists", "auto",
                        records[cid], barrier,
                    )
                except Exception as error:  # pragma: no cover
                    failures.append((cid, error))

            threads = [
                threading.Thread(target=runner, args=(cid,))
                for cid in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not failures, failures
            with LineClient(handle.host, handle.port) as probe:
                stats = probe.stats()
            assert stats["pools_spawned"] >= 1
            assert stats["degraded"] is False
            oplog = list(handle.server.oplog)
    finally:
        processor.close()

    oracle, serial_replies, _ = replay_oplog(oplog)
    try:
        for cid, record in enumerate(records):
            for reply in record["replies"] + [record["final"]]:
                assert reply["ok"], (cid, reply)
                if "result" in reply:
                    assert reply["result"] == serial_replies[reply["seq"]]
    finally:
        oracle.close()


# ----------------------------------------------------------------------
# The CLI front door
# ----------------------------------------------------------------------
def test_cli_server_subprocess(tmp_path):
    from repro.cli import main as cli_main

    data_dir = tmp_path / "data"
    assert cli_main(["generate", "--preset", "mini", "--output-dir", str(data_dir)]) == 0

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.abspath("src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "server",
            "--data-dir",
            str(data_dir),
            "--k",
            "3",
            "--port",
            "0",
            "--window-ms",
            "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        assert "serving RkNNT on" in banner, banner
        address = banner.split("serving RkNNT on ", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        with LineClient(host, int(port)) as client:
            assert client.ping()["ok"]
            reply = client.query([(3.0, 4.0)], k=3)
            assert reply["ok"]
            assert client.insert(999999, (3.0, 4.0), (3.1, 4.1))["ok"]
        process.send_signal(signal.SIGTERM)
        out, err = process.communicate(timeout=60)
        assert process.returncode == 0, (out, err)
        assert "served 1 queries" in out
        assert "1 updates" in out
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
