"""Wire protocol of the network serving front-end.

One TCP connection carries a bidirectional stream of **newline-framed
JSON objects** (UTF-8, one object per line, ``\\n`` terminated).  The
framing is deliberately primitive: every language has a socket, a line
reader and a JSON parser, so a client is ~20 lines in anything (see
:class:`repro.cli.LineClient` for the reference implementation).

Client → server, every request carries a client-chosen integer ``id``::

    {"id": 1, "op": "query",  "points": [[3.0, 4.0], [5.0, 4.5]],
     "k": 5, "method": "voronoi", "semantics": "exists"}
    {"id": 2, "op": "insert", "transition":
        {"id": 901, "origin": [1.0, 2.0], "destination": [3.0, 4.0]}}
    {"id": 3, "op": "delete", "transition_id": 901}
    {"id": 4, "op": "watch",  "points": [[3.0, 4.0]], "k": 5}
    {"id": 5, "op": "unwatch", "watch": 0}
    {"id": 6, "op": "ping"}
    {"id": 7, "op": "stats"}

Server → client, exactly one reply per request (``id`` echoed, in
per-connection request order)::

    {"id": 1, "ok": true, "seq": 17, "version": 3, "result":
        {"transitions": [12, 40], "endpoints": {"12": "od", "40": "o"}}}
    {"id": 3, "ok": false, "error":
        {"code": "bad_update", "message": "transition id 901 not in dataset"}}

plus, on connections with live ``watch`` subscriptions, unsolicited
**events** — distinguishable from replies because they carry an
``"event"`` key and no ``"id"``::

    {"event": "delta", "watch": 0, "cause": "insert",
     "added": [901], "removed": [], "version": 4}

Error replies never close the connection and never leak Python class
names: the ``code`` is the stable
:func:`~repro.engine.resilience.wire_code` of the failure
(``bad_request``, ``bad_update``, ``pool_saturated``,
``deadline_exceeded``, ``internal``, …).

This module is the *pure* half of the protocol — request validation and
reply/event encoding with no I/O — so it is testable without a socket
and reusable by any future transport.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.plan import METHODS
from repro.engine.resilience import RkNNTError, wire_code
from repro.geometry.kernels import BACKEND_AUTO, BACKEND_NUMPY, BACKEND_PYTHON

#: Protocol revision, reported by ``ping``/``stats`` replies.  Bump only
#: on incompatible changes; additive fields are free.
PROTOCOL_VERSION = 1

#: Hard bound on one request line (bytes, before parsing).  A line this
#: long is a broken or hostile client, not a query.
MAX_LINE_BYTES = 1 << 20

SEMANTICS_NAMES = ("exists", "forall")
BACKEND_NAMES = (BACKEND_AUTO, BACKEND_NUMPY, BACKEND_PYTHON)

#: Every operation a request may carry.
OPS = ("query", "insert", "delete", "watch", "unwatch", "ping", "stats")


class ProtocolError(RkNNTError):
    """A request line that violates the wire contract (not valid JSON,
    unknown op, malformed fields).  The line is answered with a typed
    ``bad_request`` error reply and the connection stays open."""

    wire_code = "bad_request"


@dataclass(frozen=True)
class Request:
    """One validated client request.

    Field presence depends on ``op``: ``points``/``k``/``method``/
    ``semantics``/``backend``/``exclude`` for ``query`` and ``watch``,
    ``transition`` for ``insert``, ``transition_id`` for ``delete``,
    ``watch_id`` for ``unwatch``.  ``ping``/``stats`` carry nothing.
    """

    id: int
    op: str
    points: Optional[List[Tuple[float, float]]] = None
    k: Optional[int] = None
    method: Optional[str] = None
    semantics: Optional[str] = None
    backend: Optional[str] = None
    exclude: Tuple[int, ...] = ()
    transition: Optional[Tuple[int, Tuple[float, float], Tuple[float, float]]] = None
    transition_id: Optional[int] = None
    watch_id: Optional[int] = None
    raw: Dict[str, Any] = field(default_factory=dict, repr=False)


def _require_int(obj: Dict[str, Any], key: str, minimum: Optional[int] = None) -> int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"field {key!r} must be an integer", field=key)
    if minimum is not None and value < minimum:
        raise ProtocolError(f"field {key!r} must be >= {minimum}", field=key)
    return value


def _coerce_point(value: Any, key: str) -> Tuple[float, float]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in value)
    ):
        raise ProtocolError(f"field {key!r} must be an [x, y] number pair", field=key)
    return (float(value[0]), float(value[1]))


def _coerce_points(obj: Dict[str, Any]) -> List[Tuple[float, float]]:
    value = obj.get("points")
    if not isinstance(value, list) or not value:
        raise ProtocolError(
            "field 'points' must be a non-empty list of [x, y] pairs",
            field="points",
        )
    return [_coerce_point(point, "points") for point in value]


def _coerce_choice(obj: Dict[str, Any], key: str, choices: Tuple[str, ...]) -> Optional[str]:
    value = obj.get(key)
    if value is None:
        return None
    if value not in choices:
        raise ProtocolError(
            f"field {key!r} must be one of {sorted(choices)}", field=key
        )
    return value


def _coerce_exclude(obj: Dict[str, Any]) -> Tuple[int, ...]:
    value = obj.get("exclude")
    if value is None:
        return ()
    if not isinstance(value, list) or any(
        isinstance(route_id, bool) or not isinstance(route_id, int)
        for route_id in value
    ):
        raise ProtocolError(
            "field 'exclude' must be a list of integer route ids",
            field="exclude",
        )
    return tuple(value)


def _coerce_transition(
    obj: Dict[str, Any],
) -> Tuple[int, Tuple[float, float], Tuple[float, float]]:
    value = obj.get("transition")
    if not isinstance(value, dict):
        raise ProtocolError(
            "field 'transition' must be an object with id/origin/destination",
            field="transition",
        )
    transition_id = _require_int(value, "id")
    origin = _coerce_point(value.get("origin"), "transition.origin")
    destination = _coerce_point(value.get("destination"), "transition.destination")
    return (transition_id, origin, destination)


def request_id_of(line: str) -> Optional[int]:
    """Best-effort ``id`` extraction from a raw line, for error replies.

    When :func:`decode_request` rejects a line the server still wants to
    echo the client's ``id`` if one is salvageable, so the client can
    correlate the failure; returns ``None`` when it is not.
    """
    try:
        obj = json.loads(line)
    except (ValueError, TypeError):
        return None
    if isinstance(obj, dict):
        value = obj.get("id")
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    return None


def decode_request(line: str) -> Request:
    """Parse and validate one request line.

    Raises :class:`ProtocolError` on any violation — never returns a
    partially-valid request, so downstream code can trust every field.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("request line too long", limit=MAX_LINE_BYTES)
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    return decode_object(obj)


def decode_object(obj: Any) -> Request:
    """Validate one request that is already a JSON value, not a line.

    :func:`decode_request` ends here after parsing; the CLI ``serve`` and
    ``watch`` commands build the same objects from their text formats, so
    every request meets one validator.
    """
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    op = obj.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {sorted(OPS)}")
    request_id = _require_int(obj, "id", minimum=0)

    if op in ("query", "watch"):
        return Request(
            id=request_id,
            op=op,
            points=_coerce_points(obj),
            k=(None if obj.get("k") is None else _require_int(obj, "k", minimum=1)),
            method=_coerce_choice(obj, "method", METHODS),
            semantics=_coerce_choice(obj, "semantics", SEMANTICS_NAMES),
            backend=_coerce_choice(obj, "backend", BACKEND_NAMES),
            exclude=_coerce_exclude(obj),
            raw=obj,
        )
    if op == "insert":
        return Request(
            id=request_id, op=op, transition=_coerce_transition(obj), raw=obj
        )
    if op == "delete":
        return Request(
            id=request_id,
            op=op,
            transition_id=_require_int(obj, "transition_id"),
            raw=obj,
        )
    if op == "unwatch":
        return Request(
            id=request_id, op=op, watch_id=_require_int(obj, "watch", minimum=0), raw=obj
        )
    return Request(id=request_id, op=op, raw=obj)


# ----------------------------------------------------------------------
# Encoding (server → client)
# ----------------------------------------------------------------------
def encode_line(payload: Dict[str, Any]) -> bytes:
    """One reply/event as a newline-terminated UTF-8 JSON line.

    Keys are sorted so the encoding is deterministic — the differential
    tests compare raw reply payloads across runs.
    """
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def result_payload(result: Any) -> Dict[str, Any]:
    """Serialize an :class:`~repro.core.result.RkNNTResult`.

    Transition ids are sorted and the per-endpoint map uses string keys
    (JSON objects cannot carry integer keys) with the endpoint labels
    joined in sorted order — the encoding is canonical, so two equal
    results always serialize identically.
    """
    return {
        "transitions": sorted(result.transition_ids),
        "endpoints": {
            str(tid): "".join(sorted(labels))
            for tid, labels in sorted(result.confirmed_endpoints.items())
        },
    }


def ok_reply(request_id: int, **fields: Any) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"id": request_id, "ok": True}
    payload.update(fields)
    return payload


def error_reply(request_id: Optional[int], error: BaseException) -> Dict[str, Any]:
    """A typed error reply: stable ``code`` plus a human-readable message.

    ``str(error)`` of an :class:`~repro.engine.resilience.RkNNTError`
    includes its structured context, so the shard/attempt detail crosses
    the wire without any schema for it.
    """
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": wire_code(error), "message": str(error)},
    }


def delta_event(watch_id: int, delta: Any) -> Dict[str, Any]:
    """Serialize a :class:`~repro.engine.continuous.ResultDelta` push."""
    return {
        "event": "delta",
        "watch": watch_id,
        "cause": delta.cause,
        "added": sorted(delta.added),
        "removed": sorted(delta.removed),
        "version": delta.version,
    }
