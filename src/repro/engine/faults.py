"""Deterministic fault injection for the serving stack.

Production faults — a worker OOM-killed mid-task, a store file vanishing
between pack and attach, a truncated delta-sync log — are
rare, racy and unreproducible.  This module turns each of them into a
*named injection point* that fires on a deterministic, seeded schedule,
so the chaos suite (``tests/test_resilience.py``) and the CI chaos job
can prove the resilience runtime recovers from every failure mode on
every run, byte-for-byte reproducibly.

Spec grammar (``RKNNT_FAULTS`` or :func:`injected`)::

    spec     := clause ("," clause)*
    clause   := point [":" option (";" option)*]
    option   := key "=" value
    point    := worker_crash | task_delay | task_hang | store_attach
              | sync_corrupt | reseed_fail
    key      := after     (skip the first N occurrences;          default 0)
              | count     (fire at most N times, 0 = unlimited;   default 1)
              | prob      (per-occurrence fire probability;       default 1.0)
              | seed      (seeds the per-occurrence prob draws;   default 0)
              | delay_ms  (sleep length for task_delay/task_hang)

e.g. ``worker_crash:after=3;count=2`` — crash the worker running the 4th
and 5th shard tasks.  Unlike the tuning knobs, a malformed spec raises
:class:`FaultSpecError` loudly: a chaos run that silently injected
nothing would *pass* CI while proving nothing.

Determinism model: every injection point keeps one **shared** occurrence
counter per clause (a :func:`multiprocessing.Value`, shipped to pool
workers through the initializer), so "the Nth task" means the Nth across
the whole pool regardless of which worker runs it or how the OS schedules
them.  Probabilistic clauses draw from ``random.Random`` seeded with
``(seed, point, occurrence)`` — the decision for occurrence *i* is a pure
function of the spec, independent of arrival order.  Every fire is
appended as a JSON line to ``RKNNT_FAULT_TRACE`` (when set); CI uploads
that schedule on failure so any chaos failure replays exactly.

The injection points and what they simulate:

=================  =====================================================
``worker_crash``   ``os._exit`` in a pool worker (OOM kill, segfault)
``task_delay``     a slow worker (sleeps ``delay_ms`` before the task)
``task_hang``      a hung worker (sleeps ``delay_ms``, default 60 s)
``store_attach``   store-file attach failure (file vanished / corrupt)
``sync_corrupt``   delta-sync log truncation (parent drops newest delta)
``reseed_fail``    pool reseed failure (pickle/spawn breaks)
=================  =====================================================

All hooks are no-ops (one ``None`` check) when no runtime is installed —
the production path pays nothing.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.engine.resilience import RkNNTError

#: ``RKNNT_FAULTS`` — the ambient fault spec (parsed strictly).
FAULTS_ENV = "RKNNT_FAULTS"
#: ``RKNNT_FAULT_TRACE`` — path receiving one JSON line per fire.
FAULT_TRACE_ENV = "RKNNT_FAULT_TRACE"

#: Exit status of an injected worker crash (distinctive in waitpid logs).
CRASH_EXIT_CODE = 17
#: Default sleep of ``task_hang`` when the clause sets no ``delay_ms`` —
#: far past any reasonable deadline, short enough that a leaked worker
#: cannot outlive a CI job.
HANG_DEFAULT_MS = 60_000.0

WORKER_CRASH = "worker_crash"
TASK_DELAY = "task_delay"
TASK_HANG = "task_hang"
STORE_ATTACH = "store_attach"
SYNC_CORRUPT = "sync_corrupt"
RESEED_FAIL = "reseed_fail"

#: Every named injection point threaded through the serving stack.
POINTS = frozenset(
    {
        WORKER_CRASH,
        TASK_DELAY,
        TASK_HANG,
        STORE_ATTACH,
        SYNC_CORRUPT,
        RESEED_FAIL,
    }
)

_OPTION_KEYS = frozenset({"after", "count", "prob", "seed", "delay_ms"})


class FaultSpecError(ValueError):
    """A malformed ``RKNNT_FAULTS`` spec.  Deliberately loud — a chaos
    run that silently injects nothing proves nothing."""


class FaultInjected(RkNNTError):
    """The error raised by raise-kind injection points (``store_attach``,
    ``reseed_fail``).  A subclass of :class:`~repro.engine.resilience
    .RkNNTError`, so it flows through the same recovery paths a real
    failure would."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed clause of a fault spec."""

    point: str
    after: int = 0
    count: int = 1
    prob: float = 1.0
    seed: int = 0
    delay_ms: Optional[float] = None

    def render(self) -> str:
        """The clause back in spec syntax (used by the fire trace)."""
        options = [f"after={self.after}", f"count={self.count}"]
        if self.prob < 1.0:
            options.append(f"prob={self.prob}")
            options.append(f"seed={self.seed}")
        if self.delay_ms is not None:
            options.append(f"delay_ms={self.delay_ms}")
        return f"{self.point}:{';'.join(options)}"


def parse_spec(text: str) -> Tuple[FaultSpec, ...]:
    """Parse a fault spec string into clauses (strict — see grammar above)."""
    specs: List[FaultSpec] = []
    for raw_clause in text.split(","):
        clause = raw_clause.strip()
        if not clause:
            continue
        point, _, raw_options = clause.partition(":")
        point = point.strip()
        if point not in POINTS:
            raise FaultSpecError(
                f"unknown injection point {point!r} "
                f"(expected one of {sorted(POINTS)})"
            )
        options: Dict[str, Any] = {}
        if raw_options.strip():
            for raw_option in raw_options.split(";"):
                option = raw_option.strip()
                if not option:
                    continue
                key, sep, value = option.partition("=")
                key = key.strip()
                if not sep or key not in _OPTION_KEYS:
                    raise FaultSpecError(
                        f"bad option {option!r} in clause {clause!r} "
                        f"(expected key=value with key in {sorted(_OPTION_KEYS)})"
                    )
                try:
                    if key in ("after", "count", "seed"):
                        options[key] = int(value)
                    else:
                        options[key] = float(value)
                except ValueError:
                    raise FaultSpecError(
                        f"non-numeric value for {key!r} in clause {clause!r}"
                    ) from None
        spec = FaultSpec(point=point, **options)
        if spec.after < 0 or spec.count < 0:
            raise FaultSpecError(f"after/count must be >= 0 in clause {clause!r}")
        if not 0.0 <= spec.prob <= 1.0:
            raise FaultSpecError(f"prob must be in [0, 1] in clause {clause!r}")
        if spec.delay_ms is not None and spec.delay_ms < 0:
            raise FaultSpecError(f"delay_ms must be >= 0 in clause {clause!r}")
        specs.append(spec)
    if not specs:
        raise FaultSpecError(f"fault spec {text!r} contains no clauses")
    return tuple(specs)


class _ClauseState:
    """One clause plus its shared occurrence/fire counters.

    The counters are :func:`multiprocessing.Value` cells so a schedule
    like ``after=3`` counts occurrences across *all* pool workers; the
    whole state ships to workers through the pool initializer (shared
    cells pickle during process spawning — and only then)."""

    def __init__(self, spec: FaultSpec, ctx):
        self.spec = spec
        self.occurrences = ctx.Value("i", 0)
        self.fires = ctx.Value("i", 0)

    def consume(self) -> Optional[int]:
        """Record one occurrence; return its index when the clause fires."""
        spec = self.spec
        with self.occurrences.get_lock():
            occurrence = self.occurrences.value
            self.occurrences.value = occurrence + 1
        if occurrence < spec.after:
            return None
        if spec.prob < 1.0:
            # Seeded per occurrence: the draw for occurrence i is a pure
            # function of the spec, independent of scheduling order.
            rng = random.Random(f"{spec.seed}:{spec.point}:{occurrence}")
            if rng.random() >= spec.prob:
                return None
        with self.fires.get_lock():
            if spec.count and self.fires.value >= spec.count:
                return None
            self.fires.value += 1
        return occurrence


class FaultRuntime:
    """An installed fault schedule: parsed clauses plus shared counters.

    Create one per chaos scenario (``FaultRuntime.from_spec(...)`` or the
    :func:`injected` context manager) and install it; the serving stack
    consults the installed runtime at each injection point via
    :func:`fire`.  Ship it to pool workers by passing it through the pool
    initializer — the counters stay shared, so schedules are pool-global.
    """

    def __init__(self, specs: Tuple[FaultSpec, ...], mp_context=None):
        # Default the shared counters to the *spawn* context: its named
        # semaphores pickle into spawn/forkserver pools and fork children
        # inherit them, so one runtime is safe under every start method.
        # A fork-context SemLock by contrast raises at pickling time the
        # moment an env-installed schedule meets a spawn pool.
        ctx = mp_context if mp_context is not None else multiprocessing.get_context("spawn")
        self.specs = tuple(specs)
        self._states: Dict[str, List[_ClauseState]] = {}
        for spec in self.specs:
            self._states.setdefault(spec.point, []).append(_ClauseState(spec, ctx))

    @classmethod
    def from_spec(cls, text: str, mp_context=None) -> "FaultRuntime":
        return cls(parse_spec(text), mp_context=mp_context)

    # -- introspection (tests, trace) ----------------------------------
    def occurrences(self, point: str) -> int:
        return sum(state.occurrences.value for state in self._states.get(point, ()))

    def fire_count(self, point: str) -> int:
        return sum(state.fires.value for state in self._states.get(point, ()))

    def schedule(self) -> List[str]:
        return [spec.render() for spec in self.specs]

    # -- the hot path --------------------------------------------------
    def fire(self, point: str) -> bool:
        """Consume one occurrence of ``point``; act if a clause fires.

        Crash points never return; delay points sleep; raise points raise
        :class:`FaultInjected`.  ``sync_corrupt`` (and any point whose
        effect lives in the caller) returns ``True`` and lets the caller
        apply the corruption.  Returns ``False`` when nothing fired.
        """
        fired: List[_ClauseState] = []
        for state in self._states.get(point, ()):
            occurrence = state.consume()
            if occurrence is not None:
                fired.append(state)
                _trace(point, state.spec, occurrence)
        if not fired:
            return False
        if point == WORKER_CRASH:
            os._exit(CRASH_EXIT_CODE)
        if point in (TASK_DELAY, TASK_HANG):
            default_ms = HANG_DEFAULT_MS if point == TASK_HANG else 0.0
            delay_ms = max(
                state.spec.delay_ms if state.spec.delay_ms is not None else default_ms
                for state in fired
            )
            if delay_ms > 0:
                time.sleep(delay_ms / 1000.0)
            return True
        if point in (STORE_ATTACH, RESEED_FAIL):
            raise FaultInjected(
                f"injected fault at {point}",
                point=point,
                spec=fired[0].spec.render(),
            )
        return True

    def __repr__(self) -> str:
        return f"FaultRuntime({', '.join(self.schedule())})"


def _trace(point: str, spec: FaultSpec, occurrence: int) -> None:
    """Append one fire to the ``RKNNT_FAULT_TRACE`` JSONL schedule."""
    path = os.environ.get(FAULT_TRACE_ENV, "").strip()
    if not path:
        return
    entry = {
        "point": point,
        "occurrence": occurrence,
        "spec": spec.render(),
        "pid": os.getpid(),
        "time": time.time(),
    }
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")
    except OSError:  # tracing must never become its own fault
        pass


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
_RUNTIME: Optional[FaultRuntime] = None
_ENV_CHECKED = False


def install(runtime: Optional[FaultRuntime]) -> None:
    """Install ``runtime`` as the process's fault schedule (``None`` clears)."""
    global _RUNTIME, _ENV_CHECKED
    _RUNTIME = runtime
    _ENV_CHECKED = True


def uninstall() -> None:
    """Clear the installed schedule and re-arm the env check."""
    global _RUNTIME, _ENV_CHECKED
    _RUNTIME = None
    _ENV_CHECKED = False


def current() -> Optional[FaultRuntime]:
    """The installed runtime; lazily built from ``RKNNT_FAULTS`` once.

    Pool parents ship this to workers through the initializer, so the
    worker-side schedule shares the parent's counters even under spawn.
    """
    global _RUNTIME, _ENV_CHECKED
    if _RUNTIME is None and not _ENV_CHECKED:
        text = os.environ.get(FAULTS_ENV, "").strip()
        if text:
            # Mark the env checked only on success: a malformed spec must
            # raise on *every* lookup, not once and then inject nothing.
            _RUNTIME = FaultRuntime.from_spec(text)
        _ENV_CHECKED = True
    return _RUNTIME


def fire(point: str) -> bool:
    """Consume one occurrence of ``point`` on the installed runtime.

    The production no-op: without an installed runtime (and with
    ``RKNNT_FAULTS`` unset) this is one ``None`` check.
    """
    runtime = current()
    if runtime is None:
        return False
    return runtime.fire(point)


@contextmanager
def injected(spec: str, mp_context=None) -> Iterator[FaultRuntime]:
    """Install a fault schedule for the scope of a chaos test.

    >>> from repro.engine import faults
    >>> with faults.injected("task_delay:delay_ms=0;count=1") as runtime:
    ...     faults.fire(faults.TASK_DELAY)
    True
    >>> faults.fire(faults.TASK_DELAY)
    False
    """
    runtime = FaultRuntime.from_spec(spec, mp_context=mp_context)
    previous = _RUNTIME
    install(runtime)
    try:
        yield runtime
    finally:
        install(previous)
        if previous is None:
            uninstall()
