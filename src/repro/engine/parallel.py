"""Parallel sharded execution of RkNNT workloads over a worker pool.

The single-process batch path (:meth:`repro.core.rknnt.RkNNTProcessor
.query_batch`) answers queries one after another against a shared
:class:`~repro.engine.context.ExecutionContext`.  Queries are independent,
so a workload shards trivially — what does *not* shard trivially in Python
is the state: the indexes and caches live in one process, and the GIL
serialises any thread-based attempt.  :class:`ShardedExecutor` therefore
distributes shards across a :class:`concurrent.futures.ProcessPoolExecutor`:

* every worker is seeded **once**, through the pool's *initializer*, so
  per-query messages carry only the query itself, never the dataset.  The
  seed is one of two things, chosen by what the parent can observe:

  - the context's :class:`~repro.engine.store.StoreHandle` when the
    context is store-backed and its indexes are still at the packed
    versions — the worker attaches the file in O(1) and every worker
    shares its pages through the OS page cache;
  - otherwise the **columnar pickle** of the context (derived caches
    stripped — see :meth:`~repro.engine.context.ExecutionContext
    .__getstate__`; the indexes encode themselves as packed columns).
    This is the seed after churn and the fallback when a store attach
    fails.

  Either way each worker builds its route matrix and packed box blocks
  privately and lazily, on first use;
* shards are round-trip tagged with their position, so results always come
  back in workload order regardless of completion order — ``query_batch``
  output is deterministic and element-wise identical to the serial path
  (``tests/test_parallel.py`` asserts this against the brute-force oracle).

**Serving (persistent) use.**  An executor is reusable across :meth:`run`
calls and is what :meth:`repro.core.rknnt.RkNNTProcessor.serving_pool`
keeps alive between batches.  Reuse is safe under dynamic updates:

* *transition churn* is forwarded to the workers as the typed
  :class:`~repro.index.transition_index.TransitionDelta` stream the parent
  records from the index.  Each task carries the (tiny) tail of deltas the
  worker may not have applied yet; the worker replays them onto its
  replica, reproducing the parent's version counters exactly, and its own
  version-guarded caches invalidate (or delta-patch) instead of being
  rebuilt from scratch;
* *route churn* changes the geometry every cached structure was built
  against, so the pool is reseeded with a fresh columnar pickle — route
  mutations are rare on the serving path, transition churn is the common
  case.

**Resilience.**  Faults on the pool path are recovered by policy, never by
luck (:mod:`repro.engine.resilience` holds the primitives,
``tests/test_resilience.py`` drives every failure mode through
:mod:`repro.engine.faults`):

* a worker *crash* mid-task (OOM kill, segfault) breaks the pool; the
  executor reseeds and replays the workload — shard tasks are pure and
  sync replay is idempotent — under a bounded retry loop with
  exponentially backed-off, jittered pauses;
* a *corrupted sync log* (a worker's delta replay cannot reproduce the
  parent's version) surfaces as a typed
  :class:`~repro.engine.resilience.SyncLogError` and is recovered the
  same way: a fresh seed carries the current state, no replay needed;
* after ``RKNNT_MAX_RESEEDS`` consecutive pool failures the executor
  **degrades**: it answers in process through the identical serial code
  path, so answers never change — only throughput.  Degradation is sticky
  until :meth:`~ShardedExecutor.close`;
* a :class:`~repro.engine.resilience.Deadline` bounds every batch; on the
  pool path it becomes the ``future.result`` timeout, and on expiry the
  pool is torn down hard (hung workers are terminated) and
  :class:`~repro.engine.resilience.DeadlineExceeded` is raised — a hung
  worker can never stall a caller past its budget;
* admission is bounded by ``RKNNT_QUEUE_LIMIT``: a batch that would
  overflow the in-flight window while other work is queued is refused
  with :class:`~repro.engine.resilience.PoolSaturated`, and submission is
  windowed so at most that many futures are ever buffered.

Worker processes are started with the ``fork`` method where available (the
context transfer is then practically free for the OS) and ``spawn``
otherwise; both paths still ship the pickled context explicitly so the
semantics never depend on the start method.
"""

from __future__ import annotations

import concurrent.futures
import logging
import math
import multiprocessing
import os
import pickle
import sys
import threading
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Callable,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.result import RkNNTResult
from repro.core.semantics import EXISTS, Semantics
from repro.engine import faults, resilience
from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryExecutor, execute_batch
from repro.engine.plan import QueryPlan
from repro.engine.resilience import (
    Deadline,
    DeadlineExceeded,
    PoolSaturated,
    ReseedError,
    RkNNTError,
    StoreError,
    SyncLogError,
    WorkerCrashError,
)
from repro.index.transition_index import DELTA_INSERT, TransitionDelta

_LOGGER = logging.getLogger("repro.engine.parallel")

#: One job of a sharded workload: normalised query points plus the route ids
#: excluded for that query (per-query self-exclusion happens in the parent,
#: exactly as the serial path does it).
ShardJob = Tuple[Sequence[Tuple[float, float]], FrozenSet[int]]

#: Transition-churn sync attached to every task: the transition-index
#: version the worker must reach, plus the delta tail that takes it there.
Sync = Optional[Tuple[int, Tuple[TransitionDelta, ...]]]

#: Pending sync deltas retained while a pool is alive.  A longer backlog
#: means per-task sync payloads (and worker replay) stop being cheap, so
#: past this limit the executor reseeds the pool instead.
SYNC_DELTA_LIMIT = 4096

# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------
#: The worker's private execution context, installed by the pool
#: initializer.  Module-level because ProcessPoolExecutor tasks can only
#: reach state through module globals.
_WORKER_CONTEXT: Optional[ExecutionContext] = None
#: The store attach failure (a :class:`~repro.engine.resilience.StoreError`)
#: recorded when a store-handle seed could not be attached.  The first task
#: re-raises it so the parent can reseed with a full pickle — initializers
#: themselves must never raise (``ProcessPoolExecutor`` would just mark the
#: pool broken without the typed cause).
_WORKER_STORE_ERROR: Optional[StoreError] = None


def _initialize_worker(
    context_payload: Optional[bytes],
    fault_runtime=None,
    store_handle=None,
) -> None:
    """Pool initializer: build the worker's private context exactly once.

    Store-backed seeding (``store_handle`` set, ``context_payload`` None)
    attaches the persistent store file in O(1); the pickle path unpickles
    the shipped columnar context.  The parent's installed fault schedule
    rides along so chaos counters are pool-global (the Nth task means the
    Nth across all workers)."""
    global _WORKER_CONTEXT, _WORKER_STORE_ERROR
    if fault_runtime is not None:
        faults.install(fault_runtime)
    _WORKER_CONTEXT = None
    _WORKER_STORE_ERROR = None
    if store_handle is not None:
        from repro.engine import store as store_module

        try:
            _WORKER_CONTEXT = store_module.attach_context(store_handle)
        except StoreError as exc:
            # Recorded, not raised: the first task surfaces it as a typed
            # StoreError and the parent reseeds with the full pickle.
            _WORKER_STORE_ERROR = exc
        except Exception as exc:  # pragma: no cover - defensive
            _WORKER_STORE_ERROR = StoreError(
                "store attach failed", path=store_handle.path, cause=repr(exc)
            )
    if _WORKER_CONTEXT is None and context_payload is not None:
        _WORKER_CONTEXT = pickle.loads(context_payload)


def _worker_context() -> ExecutionContext:
    context = _WORKER_CONTEXT
    if context is None:
        if _WORKER_STORE_ERROR is not None:
            raise _WORKER_STORE_ERROR
        # pragma: no cover - initializer contract violation
        raise RuntimeError("pool worker used before initialization")
    return context


def _apply_sync(context: ExecutionContext, sync: Sync) -> None:
    """Replay the parent's transition churn onto the worker's replica.

    Deltas the worker already applied (version ≤ its index version) are
    skipped, so the same sync payload is idempotent across the tasks of one
    run and across runs.  Replaying through the index's own mutation API
    reproduces the parent's version counters exactly and lets the worker's
    version-guarded caches invalidate — or delta-patch — like any other
    consumer of the stream.  A log that cannot reproduce the target version
    (a gap, or a truncated tail) raises a typed
    :class:`~repro.engine.resilience.SyncLogError`; the parent recovers it
    by reseeding, which ships the current state wholesale.
    """
    if sync is None:
        return
    target, deltas = sync
    index = context.transition_index
    if index.version >= target:
        return
    for delta in deltas:
        if delta.version <= index.version:
            continue
        if delta.version != index.version + 1:
            raise SyncLogError(
                "worker sync gap",
                at_version=index.version,
                next_delta=delta.version,
                target=target,
            )
        transition = delta.transition
        if delta.kind == DELTA_INSERT:
            index.transitions.add(transition)
            index.add_transition(transition)
        else:
            index.transitions.remove(transition.transition_id)
            index.remove_transition(transition)
    if index.version != target:
        raise SyncLogError(
            "worker sync fell short",
            reached=index.version,
            target=target,
            deltas=len(deltas),
        )


def _fire_task_faults() -> None:
    """The per-task injection points, in severity order."""
    faults.fire(faults.WORKER_CRASH)
    faults.fire(faults.TASK_HANG)
    faults.fire(faults.TASK_DELAY)


def _run_shard(task):
    """Answer one shard of a batch workload against the worker's context.

    Runs the shard through the plain batch loop and ships the worker's
    counter delta home so the parent context's counters cover the whole
    batch.
    """
    base_index, (jobs, k, plan, semantics), sync = task
    context = _worker_context()
    _fire_task_faults()
    _apply_sync(context, sync)
    before = context.counter_snapshot()
    results = execute_batch(context, jobs, k, plan, semantics)
    after = context.counter_snapshot()
    delta = {name: after[name] - before[name] for name in after}
    return base_index, results, delta


def standing_parts(context: ExecutionContext, job) -> List[Any]:
    """Rebuild one standing query against ``context``: run its sub-queries
    and return, per sub-query, ``(confirmed map, stats, filter set)`` —
    everything :class:`~repro.engine.continuous.Subscription` needs to
    re-install its retained filter structures.  Shared by the pool worker
    task and the degraded in-process fallback, so both produce identical
    parts."""
    sub_queries, k, plan, excluded = job
    parts = []
    for sub in sub_queries:
        executor = QueryExecutor(
            context,
            k,
            use_voronoi=plan.use_voronoi,
            exclude_route_ids=excluded,
            backend=plan.backend,
        )
        confirmed = executor.run(sub)
        filter_set = executor.filter_set
        filter_set._packed = None  # derived arrays; the parent repacks lazily
        parts.append((confirmed, executor.stats, filter_set))
    return parts


def _run_standing(task):
    """Pool task wrapper around :func:`standing_parts`."""
    base_index, job, sync = task
    context = _worker_context()
    _fire_task_faults()
    _apply_sync(context, sync)
    return base_index, standing_parts(context, job)


# ----------------------------------------------------------------------
# Parent-process side
# ----------------------------------------------------------------------
def resolve_worker_count(workers: Optional[int]) -> int:
    """Normalise a ``workers`` knob into a concrete worker count.

    ``None`` means "pick for me": one worker per available CPU (respecting
    the process's affinity mask where exposed).  ``0`` is rejected: on
    every other surface of the library (``query_batch``, the CLI) zero
    means "in-process, no pool", and a pool executor cannot honour that —
    treating it as "all CPUs" here would silently invert the caller's
    intent.  Negative values are rejected outright.
    """
    if workers is None:
        return available_cpu_count()
    if workers <= 0:
        raise ValueError(
            f"workers must be positive for a sharded executor (got {workers}); "
            "use the serial path (workers=0 at the processor/CLI level) or "
            "None for one worker per CPU"
        )
    return int(workers)


def available_cpu_count() -> int:
    """CPUs this process may actually use (affinity-aware where possible)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return max(1, os.cpu_count() or 1)


#: ``RKNNT_START_METHOD`` — overrides the default multiprocessing start
#: method (``fork`` / ``spawn`` / ``forkserver``).  An explicit
#: ``start_method=`` argument still wins; unknown values are ignored (a
#: mistyped tuning knob must never change answers or crash a query).
START_METHOD_ENV = "RKNNT_START_METHOD"

#: The smallest batch worth spawning a per-call worker pool for.
#: ``query_batch(workers=N)`` answers smaller batches serially instead (and
#: likewise whenever fewer than two CPUs are available — pool setup then
#: costs more than it buys; the batch benchmark measured a 0.42x "speedup"
#: on one CPU).  Persistent serving pools are exempt: their setup cost is
#: already paid.  ``0`` disables the fallback entirely, CPU guard included;
#: the differential tests patch it to 0 to exercise the real pool path on
#: single-CPU runners.
MIN_SHARD_BATCH = 2


def _preferred_start_method() -> str:
    """Default start method: env override, else ``fork`` on Linux, else the
    platform default.

    Fork makes the context transfer practically free, but it is only safe
    on Linux — macOS lists it as available yet aborts forked children that
    touch framework state (which is why CPython switched the macOS default
    to spawn).  Since the columnar dataset core, the context pickle is the
    same compact column payload under every start method, so ``spawn``
    serving (macOS/Windows, or ``RKNNT_START_METHOD=spawn`` anywhere) runs
    the identical protocol — the CI spawn leg asserts answer equality.
    """
    requested = os.environ.get(START_METHOD_ENV, "").strip().lower()
    if requested and requested in multiprocessing.get_all_start_methods():
        return requested
    if sys.platform.startswith("linux"):
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return "fork"
    return multiprocessing.get_start_method(allow_none=False)


class BatchHandle:
    """A flushed batch in flight on its own dispatch thread.

    The network front-end (:mod:`repro.engine.server`) must keep its
    event loop responsive while a batch blocks in ``future.result`` /
    serial execution, so each flush runs ``runner`` on a dedicated daemon
    thread and exposes the outcome through a
    :class:`concurrent.futures.Future` (``asyncio.wrap_future`` awaits it
    without polling).

    Deliberately *not* tied to :meth:`ShardedExecutor.close`: the
    executor's crash-recovery retry loop calls ``close()`` mid-batch to
    reseed the pool, and tearing the dispatch thread down with it would
    abort the very retry that is saving the batch.
    """

    _counter = 0
    _counter_lock = threading.Lock()

    def __init__(self, runner: Callable[[], Any], label: Optional[str] = None):
        with BatchHandle._counter_lock:
            BatchHandle._counter += 1
            number = BatchHandle._counter
        self.future: "concurrent.futures.Future[Any]" = concurrent.futures.Future()
        self._thread = threading.Thread(
            target=self._drive,
            args=(runner,),
            name=label or f"rknnt-batch-{number}",
            daemon=True,
        )
        self._thread.start()

    def _drive(self, runner: Callable[[], Any]) -> None:
        if not self.future.set_running_or_notify_cancel():
            return
        try:
            self.future.set_result(runner())
        except BaseException as exc:  # noqa: BLE001 — relayed, not swallowed
            self.future.set_exception(exc)

    def done(self) -> bool:
        return self.future.done()

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block for the batch outcome (re-raising its failure, if any)."""
        return self.future.result(timeout=timeout)


class ShardedExecutor:
    """Shards RkNNT workloads across a process pool, one context per worker.

    Parameters
    ----------
    context:
        The execution context to replicate into every worker.  Its derived
        caches are never serialised; each worker rebuilds them privately.
    workers:
        Number of worker processes; ``None`` selects the available CPU
        count.  ``0`` is rejected — it means "in-process" on every other
        surface of the library, which a pool cannot honour.
    chunk_size:
        Queries per shard task.  Smaller shards balance load better,
        larger shards amortise inter-process messaging; the default aims
        at roughly four shards per worker.
    start_method:
        Multiprocessing start method override (``fork`` where available by
        default; the context is shipped explicitly either way).
    queue_limit:
        Bound on in-flight shard tasks (admission + submission window);
        ``None`` defers to ``RKNNT_QUEUE_LIMIT``, ``0`` is unbounded.

    The executor owns one pool across all of its :meth:`run` calls — reuse
    it (it is a context manager, and the processor's ``serving_pool`` keeps
    one alive) when issuing several batches, so workers keep their contexts
    and warmed caches between batches.  Dynamic updates
    never produce stale answers: transition churn is delta-synced into the
    workers, route churn reseeds the pool.

    Failure policy (see the module docstring): pool failures inside one
    batch are retried with reseed-and-replay up to ``RKNNT_MAX_RESEEDS``
    times with jittered backoff; past the budget the executor turns
    :attr:`degraded` and answers in process (identical results).  A
    successful batch resets the consecutive-failure count; :meth:`close`
    resets degradation.
    """

    def __init__(
        self,
        context: ExecutionContext,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        start_method: Optional[str] = None,
        queue_limit: Optional[int] = None,
    ):
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.context = context
        self.workers = resolve_worker_count(workers)
        self.chunk_size = chunk_size
        self.start_method = start_method or _preferred_start_method()
        self.queue_limit = (
            resilience.default_queue_limit()
            if queue_limit is None
            else max(0, int(queue_limit))
        )
        self._gate = resilience.AdmissionGate(self.queue_limit)
        #: Backoff between reseed attempts; seeded so a chaos run's pause
        #: schedule reproduces.  Tests may swap ``retry_policy.sleep``.
        self.retry_policy = resilience.RetryPolicy(seed=0)
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._pool_versions: Tuple[int, int] = (-1, -1)
        self._sync_log: List[TransitionDelta] = []
        self._sync_overflow = False
        self._listener_attached = False
        self._degraded = False
        #: The typed error that forced degradation (``None`` while healthy).
        self.last_failure: Optional[RkNNTError] = None
        #: Pools spawned over this executor's lifetime (1 = never reseeded);
        #: the serving tests and benchmark read it to prove reuse.
        self.pools_spawned = 0
        #: Worker-crash recoveries performed by the retry loop.
        self.crash_recoveries = 0
        #: Sync-log corruptions recovered by reseeding.
        self.sync_recoveries = 0
        #: Failed pool reseeds (pickle / spawn broke).
        self.reseed_failures = 0
        #: Batches answered in process after degradation.
        self.degraded_runs = 0
        #: Pools seeded with a :class:`~repro.engine.store.StoreHandle`
        #: instead of a context pickle (O(1) worker boot).
        self.store_seeds = 0
        #: Store seeds that failed in a worker and were recovered by
        #: reseeding with the full pickle (answers identical).
        self.store_fallbacks = 0
        #: Bytes of the last pool seed's per-worker payload (the pickled
        #: store handle, or the pickled context); benchmarks and the
        #: payload-size tests read it.
        self.last_seed_nbytes = 0
        #: Sticky until :meth:`close`: once a store seed failed, every
        #: reseed of this executor ships the full pickle.
        self._store_seed_failed = False

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _context_versions(self) -> Tuple[int, int]:
        return (
            self.context.route_index.version,
            self.context.transition_index.version,
        )

    def _on_transition_delta(self, delta: TransitionDelta) -> None:
        """Record parent-side transition churn for worker sync."""
        if self._sync_overflow:
            return
        self._sync_log.append(delta)
        if len(self._sync_log) > SYNC_DELTA_LIMIT:
            self._sync_overflow = True
            self._sync_log.clear()

    def _attach_listener(self) -> None:
        if not self._listener_attached:
            self.context.transition_index.add_listener(self._on_transition_delta)
            self._listener_attached = True

    def _detach_listener(self) -> None:
        if self._listener_attached:
            self.context.transition_index.remove_listener(self._on_transition_delta)
            self._listener_attached = False

    def _store_seed_handle(self):
        """The store handle a reseed may ship instead of the context pickle.

        ``None`` unless the context is store-backed, the indexes are still
        at the handle's packed versions (dynamic updates since the pack
        invalidate the file's view of the world), and no earlier store
        seed failed on this executor.
        """
        if self._store_seed_failed:
            return None
        handle = getattr(self.context, "store_handle", None)
        if handle is None or not handle.matches(self.context):
            return None
        return handle

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        route_version = self.context.route_index.version
        if self._pool is not None and (
            route_version != self._pool_versions[0] or self._sync_overflow
        ):
            # Route mutations change the geometry every worker-side cache
            # was built against, and an overflowed sync log
            # can no longer prove delta coverage: reseed.  Transition-only
            # churn never lands here — it is delta-synced per task.
            self.close()
        if self._pool is None:
            # Listen *before* pickling: a delta recorded here and also
            # baked into the pickle is harmless (workers skip already-
            # applied versions), a delta missed entirely would not be.
            self._attach_listener()
            self._sync_log = []
            self._sync_overflow = False
            try:
                faults.fire(faults.RESEED_FAIL)
                store_handle = self._store_seed_handle()
                if store_handle is not None:
                    # O(1) seed: workers attach the persistent store file
                    # instead of unpickling the whole context.
                    payload = None
                    self.last_seed_nbytes = len(
                        pickle.dumps(store_handle, protocol=pickle.HIGHEST_PROTOCOL)
                    )
                    self.store_seeds += 1
                else:
                    payload = pickle.dumps(
                        self.context, protocol=pickle.HIGHEST_PROTOCOL
                    )
                    self.last_seed_nbytes = len(payload)
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context(self.start_method),
                    initializer=_initialize_worker,
                    initargs=(payload, faults.current(), store_handle),
                )
            except Exception as exc:
                # Roll the half-seeded state back so the next attempt (or
                # the degraded fallback) starts clean.
                self._detach_listener()
                if isinstance(exc, faults.FaultSpecError):
                    # A malformed RKNNT_FAULTS spec must stay loud — were
                    # it wrapped as a ReseedError the retry loop would
                    # swallow it and the chaos run would inject nothing.
                    raise
                raise ReseedError(
                    "pool reseed failed",
                    workers=self.workers,
                    start_method=self.start_method,
                ) from exc
            self._pool_versions = (route_version, self.context.transition_index.version)
            self.pools_spawned += 1
        return self._pool

    def _current_sync(self) -> Sync:
        """Sync payload bringing any worker up to the current transition
        version (``None`` when the pool seed is already current)."""
        target = self.context.transition_index.version
        if target == self._pool_versions[1] and not self._sync_log:
            return None
        deltas = tuple(self._sync_log)
        if deltas and faults.fire(faults.SYNC_CORRUPT):
            # Injected log corruption: drop the newest delta, so the worker
            # replay deterministically falls short of the target version.
            deltas = deltas[:-1]
        return (target, deltas)

    @property
    def degraded(self) -> bool:
        """True once the executor answers in process (reseed budget spent)."""
        return self._degraded

    def close(self) -> None:
        """Shut the pool down (idempotent).

        Also resets degradation: a closed executor starts its next batch
        healthy, on a fresh pool.
        """
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self._reset_pool_state()
        self._degraded = False
        self.last_failure = None
        self._store_seed_failed = False

    def _reset_pool_state(self) -> None:
        self._detach_listener()
        self._sync_log = []
        self._sync_overflow = False
        self._pool_versions = (-1, -1)

    def _abort_pool(self) -> None:
        """Tear the pool down *hard*: cancel queued tasks and terminate
        workers instead of waiting for them — the deadline path must not
        block behind a worker that may never return."""
        pool, self._pool = self._pool, None
        if pool is not None:
            processes = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                process.join(timeout=1.0)
        self._reset_pool_state()

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _shard_payloads(
        self, jobs: List[ShardJob], k: int, plan: QueryPlan, semantics: Semantics
    ) -> List[Tuple[int, Any]]:
        """Cut the workload into ``(base_index, payload)`` shard tasks."""
        if self.chunk_size is not None:
            chunk = self.chunk_size
        else:
            # ~4 shards per worker: enough slack that an unlucky shard of
            # expensive queries does not leave the other workers idle.
            chunk = max(1, math.ceil(len(jobs) / (self.workers * 4)))
        payloads: List[Tuple[int, Any]] = []
        for start in range(0, len(jobs), chunk):
            payloads.append(
                (start, (jobs[start : start + chunk], k, plan, semantics))
            )
        return payloads

    def _collect(
        self,
        pool: concurrent.futures.ProcessPoolExecutor,
        fn: Callable,
        payloads: List[Tuple[int, Any]],
        sync: Sync,
        deadline: Optional[Deadline],
    ) -> List[Tuple[int, Any]]:
        """Submit every task and gather results, windowed and time-bounded.

        Submission happens in windows of at most ``queue_limit`` futures
        (all at once when unbounded), so a bounded executor never buffers
        more than its admission limit.  Each ``future.result`` wait is
        capped by the deadline's remaining budget; on expiry the pool is
        aborted (hung workers terminated) and
        :class:`~repro.engine.resilience.DeadlineExceeded` raised.
        """
        window = self.queue_limit if self.queue_limit > 0 else len(payloads)
        gathered: List[Tuple[int, Any]] = []
        with self._gate.admitted(len(payloads), what="batch"):
            for start in range(0, len(payloads), window):
                if deadline is not None:
                    deadline.check("batch")
                futures = [
                    pool.submit(fn, (base_index, payload, sync))
                    for base_index, payload in payloads[start : start + window]
                ]
                for future in futures:
                    timeout = (
                        None if deadline is None else max(0.0, deadline.remaining())
                    )
                    try:
                        gathered.append(future.result(timeout=timeout))
                    except concurrent.futures.TimeoutError:
                        self._abort_pool()
                        raise DeadlineExceeded(
                            "batch exceeded its deadline with tasks in flight",
                            budget_ms=deadline.budget_ms,
                            completed=len(gathered),
                            tasks=len(payloads),
                        ) from None
        return gathered

    def _submit_all(
        self,
        fn: Callable,
        payloads: List[Tuple[int, Any]],
        deadline: Optional[Deadline] = None,
    ) -> List[Tuple[int, Any]]:
        """Run every ``(base_index, payload)`` task under the retry policy.

        A worker dying mid-task (OOM kill, segfault, ``os._exit``) breaks
        the whole ``ProcessPoolExecutor``; a corrupted sync log surfaces as
        a :class:`~repro.engine.resilience.SyncLogError` from the replay.
        Tasks are pure and sync replay is idempotent, so both recover the
        same way: reseed the pool and replay the workload, up to
        ``RKNNT_MAX_RESEEDS`` consecutive times with jittered backoff
        between attempts.  Past the budget the last typed failure
        propagates (the caller degrades to in-process execution).
        """
        budget = resilience.max_reseeds()
        attempt = 0
        while True:
            if deadline is not None:
                deadline.check("batch")
            failure: RkNNTError
            try:
                pool = self._ensure_pool()
                sync = self._current_sync()
                # A pool broken by an earlier crash raises at submit time,
                # one broken mid-run raises from result(): both recover.
                results = self._collect(pool, fn, payloads, sync, deadline)
                self.retry_policy.reset()
                return results
            except BrokenProcessPool as exc:
                self.close()
                self.crash_recoveries += 1
                failure = WorkerCrashError(
                    "pool worker crashed mid-batch",
                    attempt=attempt,
                    tasks=len(payloads),
                )
                failure.__cause__ = exc
            except StoreError as exc:
                # A worker could not attach the store file this pool was
                # seeded with (file vanished/corrupted since, or an injected
                # ``store_attach`` fault).  Recover exactly like a sync-log
                # corruption — reseed and replay — but ship the full pickle
                # from now on: the file is evidently not trustworthy.
                self.close()
                self._store_seed_failed = True
                self.store_fallbacks += 1
                _LOGGER.warning(
                    "store seed failed, reseeding with the pickle path: %s", exc
                )
                failure = exc
            except SyncLogError as exc:
                self.close()
                self.sync_recoveries += 1
                failure = exc
            except ReseedError as exc:
                self.reseed_failures += 1
                failure = exc
            if attempt >= budget:
                raise failure
            attempt += 1
            self.retry_policy.pause(deadline)

    def _degrade(self, failure: RkNNTError) -> None:
        """Give up on the pool for this executor's remaining lifetime (until
        :meth:`close`) and answer in process — identical results, reduced
        throughput."""
        self.close()
        self._degraded = True
        self.last_failure = failure
        _LOGGER.warning(
            "serving pool degraded to in-process execution after %s", failure
        )

    def run(
        self,
        jobs: Sequence[ShardJob],
        k: int,
        plan: QueryPlan,
        semantics: Union[Semantics, str] = EXISTS,
        deadline: Optional[Deadline] = None,
    ) -> List[RkNNTResult]:
        """Answer every job of the workload, preserving workload order.

        ``jobs`` pairs each query's normalised points with its excluded
        route ids.  The return list is index-aligned with ``jobs`` — shard
        completion order never leaks into the results.  ``deadline`` bounds
        the whole batch; :class:`~repro.engine.resilience.DeadlineExceeded`
        and :class:`~repro.engine.resilience.PoolSaturated` propagate to
        the caller, every other pool failure is absorbed by retrying and,
        past the budget, by degrading to the identical in-process path.
        """
        semantics = Semantics.coerce(semantics)
        # Resolve every "auto" knob in the parent so each worker runs the
        # exact plan the serial path would have run.
        plan = plan.resolved()
        job_list = list(jobs)
        if not job_list:
            return []
        if self._degraded:
            return self._run_serial(job_list, k, plan, semantics, deadline)
        payloads = self._shard_payloads(job_list, k, plan, semantics)
        try:
            shard_results = self._submit_all(_run_shard, payloads, deadline=deadline)
        except (DeadlineExceeded, PoolSaturated):
            raise
        except (RkNNTError, BrokenProcessPool) as exc:
            self._degrade(exc)
            return self._run_serial(job_list, k, plan, semantics, deadline)
        results: List[Optional[RkNNTResult]] = [None] * len(job_list)
        # Counter deltas are merged only here, after ``_submit_all`` has
        # fully succeeded — its internal crash retry replays whole
        # workloads, so merging inside the loop could double-count.
        for base_index, shard, delta in shard_results:
            results[base_index : base_index + len(shard)] = shard
            self.context.merge_counters(delta)
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def run_handle(
        self,
        jobs: Sequence[ShardJob],
        k: int,
        plan: QueryPlan,
        semantics: Union[Semantics, str] = EXISTS,
        deadline: Optional[Deadline] = None,
    ) -> BatchHandle:
        """:meth:`run` on a background dispatch thread.

        Returns immediately with a :class:`BatchHandle` whose future
        resolves to the workload-ordered result list (or the typed
        failure :meth:`run` would have raised).  Callers must not start a
        second handle before the first resolves — the executor serialises
        batches by design, and the server's dispatcher enforces exactly
        that.
        """
        return BatchHandle(
            lambda: self.run(jobs, k, plan, semantics, deadline=deadline)
        )

    def _run_serial(
        self,
        job_list: List[ShardJob],
        k: int,
        plan: QueryPlan,
        semantics: Semantics,
        deadline: Optional[Deadline],
    ) -> List[RkNNTResult]:
        """The degraded path: the exact code ``workers=0`` runs, in process.

        One ``execute`` call per job, deadline-checked between jobs, like
        the processor's serial path.
        """
        self.degraded_runs += 1
        return execute_batch(
            self.context, job_list, k, plan, semantics, deadline=deadline
        )

    def run_standing(
        self,
        jobs: Sequence[Tuple[Any, ...]],
        deadline: Optional[Deadline] = None,
    ) -> List[Any]:
        """Rebuild a batch of standing queries in the pool, workload-ordered.

        Each job is ``(sub_queries, k, plan, excluded)`` — one per
        subscription; the per-subscription result is a list of
        ``(confirmed map, stats, filter set)`` tuples ready for
        :meth:`repro.engine.continuous.Subscription` to re-install.  One
        task per subscription: standing rebuilds are heavyweight, so load
        balance beats batching.  The failure policy matches :meth:`run`.
        """
        job_list = list(jobs)
        if not job_list:
            return []
        if self._degraded:
            return self._standing_serial(job_list, deadline)
        payloads = [
            (index, (sub_queries, k, plan.resolved(), excluded))
            for index, (sub_queries, k, plan, excluded) in enumerate(job_list)
        ]
        try:
            gathered = self._submit_all(_run_standing, payloads, deadline=deadline)
        except (DeadlineExceeded, PoolSaturated):
            raise
        except (RkNNTError, BrokenProcessPool) as exc:
            self._degrade(exc)
            return self._standing_serial(job_list, deadline)
        results: List[Any] = [None] * len(job_list)
        for base_index, parts in gathered:
            results[base_index] = parts
        return results

    def _standing_serial(
        self, job_list: List[Tuple[Any, ...]], deadline: Optional[Deadline]
    ) -> List[Any]:
        self.degraded_runs += 1
        results = []
        for sub_queries, k, plan, excluded in job_list:
            if deadline is not None:
                deadline.check("standing rebuild")
            results.append(
                standing_parts(self.context, (sub_queries, k, plan.resolved(), excluded))
            )
        return results

    def __repr__(self) -> str:
        state = "degraded" if self._degraded else (
            "open" if self._pool is not None else "idle"
        )
        return (
            f"ShardedExecutor(workers={self.workers}, "
            f"start_method={self.start_method!r}, {state})"
        )
