"""Resilience primitives for the serving runtime.

The serving stack (:mod:`repro.engine.parallel`, the processor's
``serving_pool`` and the CLI ``serve`` loop) crosses process boundaries,
maps store files and replays delta logs — every one of those seams
can fail independently of query correctness.  This module collects the
*policy* half of surviving those failures; the mechanisms (reseed, replay,
serial fallback) stay where the state lives, in
:class:`~repro.engine.parallel.ShardedExecutor`.

* a typed error taxonomy rooted at :class:`RkNNTError`.  Every failure the
  runtime can recover from (or must surface) carries structured context —
  which shard, which attempt, which deadline — instead of a bare
  ``RuntimeError`` string.  The errors pickle losslessly across the
  worker → parent boundary (:func:`_rebuild_error`), so context attached
  in a pool worker survives ``future.result()`` re-raising it in the
  parent;
* :class:`Deadline` — a monotonic per-query/per-batch time budget.
  Checked between pipeline stages and between sub-queries, and used as the
  ``future.result`` timeout on the pool path, so a hung worker can never
  stall a caller past its budget;
* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *decorrelated jitter* (each pause is drawn uniformly from ``[base,
  3 × previous]``, capped), the shape recommended for contended recovery
  because synchronized retry storms cannot form;
* :class:`AdmissionGate` — explicit backpressure.  In-flight task slots
  are bounded by ``RKNNT_QUEUE_LIMIT``; a batch that would overflow the
  bound while other work is in flight is rejected *immediately* with
  :class:`PoolSaturated` instead of buffering without bound;
* the environment knobs of the resilience runtime
  (:func:`max_reseeds`, :func:`default_deadline_ms`,
  :func:`default_queue_limit`).  Like every other tuning knob in the
  library, a mistyped value falls back to the default — it must never
  change answers or crash a query.

Degradation contract: when the pool path exhausts its reseed budget the
executor answers **in process** — the identical code path ``workers=0``
runs — so a degraded system returns bitwise-identical results at reduced
throughput.  ``tests/test_resilience.py`` asserts this differentially
under every injected fault.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Type

# ----------------------------------------------------------------------
# Environment knobs
# ----------------------------------------------------------------------
#: ``RKNNT_MAX_RESEEDS`` — consecutive pool failures (crash, corrupt sync
#: log, failed reseed) tolerated within one batch before the executor
#: degrades to in-process serial execution.  ``0`` degrades on the first
#: failure.
MAX_RESEEDS_ENV = "RKNNT_MAX_RESEEDS"
DEFAULT_MAX_RESEEDS = 3

#: ``RKNNT_DEADLINE_MS`` — ambient per-batch deadline applied when a call
#: does not pass ``deadline_ms`` explicitly.  Unset / ``0`` means no
#: deadline.
DEADLINE_ENV = "RKNNT_DEADLINE_MS"

#: ``RKNNT_QUEUE_LIMIT`` — bound on in-flight shard tasks per executor.
#: ``0`` (the default) means unbounded, restoring the pre-resilience
#: buffering behaviour.
QUEUE_LIMIT_ENV = "RKNNT_QUEUE_LIMIT"


def _env_number(
    name: str, default: float, minimum: float, cast: Callable[[str], float]
) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = cast(raw)
    except ValueError:
        return default
    if value < minimum:
        return default
    return value


def max_reseeds() -> int:
    """Reseed budget before degradation (``RKNNT_MAX_RESEEDS``, default 3)."""
    return int(_env_number(MAX_RESEEDS_ENV, DEFAULT_MAX_RESEEDS, 0, int))


def default_deadline_ms() -> Optional[float]:
    """Ambient deadline in ms (``RKNNT_DEADLINE_MS``), ``None`` when unset."""
    value = _env_number(DEADLINE_ENV, 0.0, 0.0, float)
    return value if value > 0 else None


def default_queue_limit() -> int:
    """In-flight task bound (``RKNNT_QUEUE_LIMIT``), ``0`` = unbounded."""
    return int(_env_number(QUEUE_LIMIT_ENV, 0, 0, int))


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------
def _rebuild_error(
    cls: Type["RkNNTError"], args: Tuple[Any, ...], state: Dict[str, Any]
) -> "RkNNTError":
    """Reconstruct a typed error on unpickle, context intact.

    The default ``BaseException`` reduction only round-trips ``args`` —
    structured context attached in a pool worker would silently vanish
    when ``future.result()`` re-raises the error in the parent.
    """
    error = cls.__new__(cls)
    error.args = args
    error.__dict__.update(state)
    return error


class RkNNTError(RuntimeError):
    """Base of every typed runtime failure.

    ``context`` carries structured key/value detail (shard index, attempt
    number, versions, …); it is rendered into ``str(error)`` and survives
    pickling across the worker → parent process boundary.

    ``wire_code`` is the *stable* machine-readable identifier the network
    protocol (:mod:`repro.engine.protocol`) puts in error replies.  Class
    names may be refactored; wire codes are a compatibility contract and
    must never change once shipped.
    """

    wire_code: str = "internal"

    def __init__(self, message: str, **context: Any):
        super().__init__(message)
        self.context: Dict[str, Any] = dict(context)

    def __reduce__(self):
        return (_rebuild_error, (type(self), self.args, self.__dict__.copy()))

    def __str__(self) -> str:
        base = super().__str__()
        if self.context:
            detail = ", ".join(
                f"{key}={value!r}" for key, value in sorted(self.context.items())
            )
            return f"{base} [{detail}]"
        return base


class WorkerCrashError(RkNNTError):
    """A pool worker died mid-task and the reseed budget is exhausted."""

    wire_code = "worker_crash"


class ReseedError(RkNNTError):
    """Re-seeding the pool (context pickle, spawn) failed."""

    wire_code = "reseed_failed"


class SyncLogError(RkNNTError):
    """The delta-sync replay could not reproduce the parent's version —
    a gap or truncation in the shipped log.  Recoverable by reseeding."""

    wire_code = "sync_log_corrupt"


class StoreError(RkNNTError):
    """A persistent store file could not be written, opened or validated
    (missing file, truncated header, checksum mismatch, unsupported
    format version).  Recoverable: the caller degrades
    to the columnar pickle path and answers stay identical."""

    wire_code = "store_attach_failed"


class DeadlineExceeded(RkNNTError):
    """The query/batch ran past its :class:`Deadline`.  Never retried —
    retrying cannot make a missed budget reappear."""

    wire_code = "deadline_exceeded"


class PoolSaturated(RkNNTError):
    """Admission was refused: accepting the batch would overflow the
    bounded in-flight queue (``RKNNT_QUEUE_LIMIT``).  Explicit
    backpressure — the caller sheds load or retries later."""

    wire_code = "pool_saturated"


class UpdateStreamError(RkNNTError, ValueError):
    """A malformed line in a ``serve``/``watch`` update stream (bad op
    code, non-numeric id, truncated tuple).  The line is rejected and
    logged; serving continues."""

    wire_code = "bad_update"


def wire_code(error: BaseException) -> str:
    """Stable wire-facing code for *any* exception.

    Typed runtime errors carry their own ``wire_code``; everything else —
    a plain ``ValueError`` from request validation, an unexpected bug —
    collapses to ``"internal"`` so the protocol never leaks class names.
    """
    code = getattr(error, "wire_code", None)
    return code if isinstance(code, str) and code else "internal"


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class Deadline:
    """A monotonic time budget for one query or batch.

    Constructed from a millisecond budget; :meth:`check` raises
    :class:`DeadlineExceeded` once the budget is spent, :meth:`remaining`
    feeds ``future.result(timeout=…)`` on the pool path.  The clock is
    injectable so chaos tests can drive expiry deterministically.
    """

    __slots__ = ("budget_ms", "_clock", "_expires_at")

    def __init__(self, budget_ms: float, clock: Callable[[], float] = time.monotonic):
        if budget_ms <= 0:
            raise ValueError(f"deadline budget must be positive, got {budget_ms}")
        self.budget_ms = float(budget_ms)
        self._clock = clock
        self._expires_at = clock() + self.budget_ms / 1000.0

    @classmethod
    def from_ms(
        cls,
        deadline_ms: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> Optional["Deadline"]:
        """``None``-propagating constructor: no budget, no deadline."""
        if deadline_ms is None:
            return None
        return cls(deadline_ms, clock=clock)

    def remaining(self) -> float:
        """Seconds left in the budget (may be negative once expired)."""
        return self._expires_at - self._clock()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, what: str = "query") -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        remaining = self.remaining()
        if remaining <= 0:
            raise DeadlineExceeded(
                f"{what} exceeded its deadline",
                budget_ms=self.budget_ms,
                overrun_ms=round(-remaining * 1000.0, 3),
            )

    def __repr__(self) -> str:
        return f"Deadline(budget_ms={self.budget_ms}, remaining={self.remaining():.3f}s)"


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
class RetryPolicy:
    """Exponential backoff with decorrelated jitter.

    Each pause is drawn uniformly from ``[base, 3 × previous]`` and capped
    — successive failures back off roughly exponentially, while the
    jitter decorrelates concurrent retriers (no synchronized retry
    storms).  ``sleep`` is injectable so tests never actually wait, and
    the generator is seeded so a chaos run's pause schedule is
    reproducible.
    """

    def __init__(
        self,
        base_ms: float = 25.0,
        cap_ms: float = 2000.0,
        seed: Optional[int] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if base_ms <= 0 or cap_ms < base_ms:
            raise ValueError(f"invalid backoff range [{base_ms}, {cap_ms}]")
        self.base_ms = float(base_ms)
        self.cap_ms = float(cap_ms)
        self.sleep = sleep
        self._rng = random.Random(seed)
        self._previous_ms = self.base_ms

    def reset(self) -> None:
        """Forget the escalation state (call after a successful attempt)."""
        self._previous_ms = self.base_ms

    def pause(self, deadline: Optional[Deadline] = None) -> float:
        """Sleep one backoff step; returns the pause actually taken (ms).

        The pause is clipped to the deadline's remaining budget — backing
        off must never be the reason a deadline is missed.
        """
        delay_ms = min(
            self.cap_ms, self._rng.uniform(self.base_ms, self._previous_ms * 3.0)
        )
        self._previous_ms = delay_ms
        if deadline is not None:
            delay_ms = min(delay_ms, max(0.0, deadline.remaining() * 1000.0))
        if delay_ms > 0:
            self.sleep(delay_ms / 1000.0)
        return delay_ms


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class AdmissionGate:
    """Bounded admission with explicit backpressure.

    Tracks in-flight task slots across every holder of one executor.  A
    request that would push the total past ``limit`` while other work is
    in flight raises :class:`PoolSaturated` immediately — callers shed
    load instead of queueing without bound.  A *lone* batch larger than
    the limit is admitted (rejecting it could never succeed); the
    executor then windows its submissions so no more than ``limit``
    futures are ever buffered at once.  ``limit <= 0`` disables the gate.
    """

    def __init__(self, limit: Optional[int] = None):
        self.limit = default_queue_limit() if limit is None else int(limit)
        self._lock = threading.Lock()
        self._in_flight = 0

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def acquire(self, count: int, what: str = "batch") -> None:
        with self._lock:
            if (
                self.limit > 0
                and self._in_flight > 0
                and self._in_flight + count > self.limit
            ):
                raise PoolSaturated(
                    f"{what} refused admission",
                    requested=count,
                    in_flight=self._in_flight,
                    limit=self.limit,
                )
            self._in_flight += count

    def release(self, count: int) -> None:
        with self._lock:
            self._in_flight = max(0, self._in_flight - count)

    @contextmanager
    def admitted(self, count: int, what: str = "batch") -> Iterator[None]:
        self.acquire(count, what)
        try:
            yield
        finally:
            self.release(count)

    def __repr__(self) -> str:
        return f"AdmissionGate(limit={self.limit}, in_flight={self.in_flight})"
