"""Reference client of the ``server`` wire protocol (:mod:`repro.engine.protocol`).

A deliberately boring, dependency-free *blocking* socket client: it shows
that the protocol needs nothing beyond a line reader and a JSON parser.
The test suite, ``bench_server.py`` and perfbench drive the TCP server
with it; ``repro.cli`` re-exports it as ``repro.cli.LineClient``.
"""

from __future__ import annotations

import json
import socket
from typing import List


class LineClient:
    """One blocking connection to an ``RkNNTServer``.

    Safe to use from one thread at a time.  Unsolicited ``watch`` events
    arriving between replies are buffered and drained via :meth:`events`.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0
        self._events: List[dict] = []

    # -- plumbing ------------------------------------------------------
    def _write_line(self, line: str) -> None:
        self._file.write((line.rstrip("\n") + "\n").encode("utf-8"))
        self._file.flush()

    def _read_reply(self) -> dict:
        """The next reply, buffering the events that arrive before it."""
        while True:
            line = self._file.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            message = json.loads(line.decode("utf-8"))
            if "event" not in message:
                return message
            self._events.append(message)

    def request(self, op: str, **fields) -> dict:
        """Send one request and block for its reply (buffering events)."""
        self._next_id += 1
        request_id = self._next_id
        self._write_line(json.dumps({"id": request_id, "op": op, **fields}))
        message = self._read_reply()
        if message.get("id") not in (request_id, None):
            raise ConnectionError(
                f"out-of-order reply: sent id {request_id}, "
                f"got {message.get('id')}"
            )
        return message

    def send_raw(self, line: str) -> dict:
        """Send a raw protocol line verbatim and read one reply."""
        self._write_line(line)
        return self._read_reply()

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

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "LineClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
