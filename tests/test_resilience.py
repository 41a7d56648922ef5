"""Chaos suite: the resilience runtime under every injected fault.

The contract under test (ISSUE 7): with any fault injected via
:mod:`repro.engine.faults`, a batch either returns answers bitwise
identical to the fault-free run or raises a typed
:class:`~repro.engine.resilience.RkNNTError` — never a wrong answer,
never a hang past its deadline.  Every named injection point is
exercised at least once, and the degraded (in-process) path is asserted
differentially against the healthy pool.
"""

import json
import os
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rknnt import RkNNTProcessor
from repro.data.checkins import TransitionGenerator
from repro.model.dataset import RouteDataset
from repro.engine import faults, resilience
from repro.engine.faults import FaultRuntime, FaultSpec, FaultSpecError, parse_spec
from repro.engine.parallel import ShardedExecutor
from repro.engine.plan import QueryPlan
from repro.engine.resilience import (
    AdmissionGate,
    Deadline,
    DeadlineExceeded,
    PoolSaturated,
    ReseedError,
    RetryPolicy,
    RkNNTError,
    SyncLogError,
    UpdateStreamError,
    WorkerCrashError,
)

K = 3
WORKERS = 2


@pytest.fixture(autouse=True)
def _no_ambient_faults():
    """Every test starts and ends with no installed fault schedule."""
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture()
def chaos_processor(mini_city):
    """A private processor over a private route-dataset copy — chaos
    tests churn routes, and the session fixtures must not see it."""
    routes = RouteDataset(mini_city.routes)
    transitions = TransitionGenerator(routes, seed=23).generate(100)
    processor = RkNNTProcessor(routes, transitions)
    yield processor
    processor.close()


@pytest.fixture()
def chaos_jobs(mini_workload):
    queries = mini_workload.query_routes(3, length=4, interval=0.8)
    return [
        ([(float(x), float(y)) for x, y in query], frozenset())
        for query in queries
    ]


def _plan():
    return QueryPlan.for_method("voronoi", share_subquery_cache=True)


def _endpoints(results):
    return [result.confirmed_endpoints for result in results]


def _serial(processor, jobs):
    plan = _plan().resolved()
    from repro.engine.executor import execute

    return [
        execute(processor.engine_context, points, K, plan, "exists",
                exclude_route_ids=excluded)
        for points, excluded in jobs
    ]


# ----------------------------------------------------------------------
# Fault spec grammar
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_parse_clause_with_options(self):
        (spec,) = parse_spec("worker_crash:after=3;count=2")
        assert spec == FaultSpec("worker_crash", after=3, count=2)

    def test_parse_multiple_clauses(self):
        specs = parse_spec("task_delay:delay_ms=5, sync_corrupt")
        assert [s.point for s in specs] == ["task_delay", "sync_corrupt"]
        assert specs[0].delay_ms == 5.0

    @pytest.mark.parametrize(
        "bad",
        [
            "warp_core_breach",          # unknown point
            "worker_crash:when=later",   # unknown option key
            "worker_crash:after",        # option without value
            "worker_crash:after=soon",   # non-numeric value
            "worker_crash:count=-1",     # negative count
            "worker_crash:prob=1.5",     # prob out of range
            "task_delay:delay_ms=-2",    # negative delay
            " , ",                       # no clauses at all
        ],
    )
    def test_malformed_specs_raise_loudly(self, bad):
        with pytest.raises(FaultSpecError):
            parse_spec(bad)

    def test_render_roundtrips(self):
        (spec,) = parse_spec("task_hang:after=1;count=3;delay_ms=250")
        assert parse_spec(spec.render()) == (spec,)

    def test_after_and_count_gate_occurrences(self):
        runtime = FaultRuntime.from_spec("task_delay:delay_ms=0;after=2;count=2")
        fired = [runtime.fire(faults.TASK_DELAY) for _ in range(6)]
        assert fired == [False, False, True, True, False, False]
        assert runtime.occurrences(faults.TASK_DELAY) == 6
        assert runtime.fire_count(faults.TASK_DELAY) == 2

    def test_probabilistic_schedule_is_seed_deterministic(self):
        spec = "task_delay:delay_ms=0;prob=0.4;seed=7;count=0"
        first = [FaultRuntime.from_spec(spec).fire(faults.TASK_DELAY)
                 for _ in range(1)]
        runs = []
        for _ in range(2):
            runtime = FaultRuntime.from_spec(spec)
            runs.append([runtime.fire(faults.TASK_DELAY) for _ in range(32)])
        assert runs[0] == runs[1]
        assert True in runs[0] and False in runs[0]
        del first

    def test_env_spec_installs_lazily(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "task_delay:delay_ms=0")
        faults.uninstall()
        assert faults.fire(faults.TASK_DELAY) is True
        assert faults.fire(faults.TASK_DELAY) is False  # count defaults to 1

    def test_malformed_env_spec_raises_not_ignores(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "quietly_do_nothing")
        faults.uninstall()
        with pytest.raises(FaultSpecError):
            faults.current()
        # It stays loud on every lookup — not once and then nothing.
        with pytest.raises(FaultSpecError):
            faults.current()

    def test_malformed_env_spec_stays_loud_through_the_pool(
        self, chaos_processor, chaos_jobs, monkeypatch
    ):
        """The pool seed path must not launder a FaultSpecError into a
        silently-retried ReseedError: a chaos run whose spec was mistyped
        would otherwise pass while injecting nothing."""
        monkeypatch.setenv(faults.FAULTS_ENV, "wrker_crash:count=2")
        faults.uninstall()
        with chaos_processor.serving_pool(workers=1) as pool:
            with pytest.raises(FaultSpecError):
                chaos_processor.query_batch(
                    [points for points, _ in chaos_jobs], K, workers=1
                )
            assert pool.reseed_failures == 0
            assert not pool.degraded

    def test_injected_scope_restores_previous_runtime(self):
        assert faults.current() is None
        with faults.injected("task_delay:delay_ms=0") as runtime:
            assert faults.current() is runtime
        assert faults.current() is None

    def test_fire_trace_is_replayable_jsonl(self, tmp_path, monkeypatch):
        trace = tmp_path / "faults.jsonl"
        monkeypatch.setenv(faults.FAULT_TRACE_ENV, str(trace))
        with faults.injected("task_delay:delay_ms=0;count=2") as runtime:
            runtime.fire(faults.TASK_DELAY)
            runtime.fire(faults.TASK_DELAY)
        entries = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [e["point"] for e in entries] == ["task_delay", "task_delay"]
        assert [e["occurrence"] for e in entries] == [0, 1]
        assert all(e["pid"] == os.getpid() for e in entries)


# ----------------------------------------------------------------------
# Fault-spec grammar properties (hypothesis)
# ----------------------------------------------------------------------
_IDENT_ALPHABET = "abcdefghijklmnopqrstuvwxyz_"
_OPTION_KEYS = sorted(faults._OPTION_KEYS)


def _normalize(spec: FaultSpec) -> FaultSpec:
    # ``render()`` omits prob/seed for always-fire clauses, so a seed on a
    # prob=1 clause is unobservable; canonicalize it away for round-trips.
    if spec.prob >= 1.0 and spec.seed != 0:
        return FaultSpec(
            spec.point, spec.after, spec.count, spec.prob, 0, spec.delay_ms
        )
    return spec


def valid_clauses() -> st.SearchStrategy:
    return st.builds(
        FaultSpec,
        point=st.sampled_from(sorted(faults.POINTS)),
        after=st.integers(min_value=0, max_value=10_000),
        count=st.integers(min_value=0, max_value=10_000),
        prob=st.one_of(
            st.just(1.0),
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                      allow_nan=False),
        ),
        seed=st.integers(min_value=0, max_value=2**31),
        delay_ms=st.one_of(
            st.none(),
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
                      allow_infinity=False),
        ),
    ).map(_normalize)


def _identifiers(excluding=frozenset()) -> st.SearchStrategy:
    return st.text(alphabet=_IDENT_ALPHABET, min_size=1, max_size=20).filter(
        lambda name: name not in excluding
    )


class TestFaultSpecGrammarProperties:
    """The ``RKNNT_FAULTS`` grammar, property-tested from both sides:
    every valid spec survives parse → render → parse unchanged, and every
    malformed spec raises :class:`FaultSpecError` — never a silent no-op
    (a chaos run that injects nothing must not look like a green run)."""

    @settings(max_examples=100, deadline=None)
    @given(spec=valid_clauses())
    def test_single_clause_roundtrips(self, spec):
        assert parse_spec(spec.render()) == (spec,)

    @settings(max_examples=50, deadline=None)
    @given(specs=st.lists(valid_clauses(), min_size=1, max_size=5))
    def test_multi_clause_roundtrips(self, specs):
        text = ",".join(spec.render() for spec in specs)
        assert parse_spec(text) == tuple(specs)

    @settings(max_examples=50, deadline=None)
    @given(
        specs=st.lists(valid_clauses(), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_whitespace_and_empty_clauses_are_insignificant(self, specs, data):
        padded = []
        for spec in specs:
            left = data.draw(st.sampled_from(["", " ", "  ", "\t"]))
            right = data.draw(st.sampled_from(["", " ", "  "]))
            padded.append(f"{left}{spec.render()}{right}")
            if data.draw(st.booleans()):
                padded.append(" ")  # a blank clause between real ones
        assert parse_spec(",".join(padded)) == tuple(specs)

    @settings(max_examples=60, deadline=None)
    @given(point=_identifiers(excluding=faults.POINTS))
    def test_unknown_points_always_raise(self, point):
        with pytest.raises(FaultSpecError):
            parse_spec(point)
        with pytest.raises(FaultSpecError):
            parse_spec(f"{point}:after=1")

    @settings(max_examples=60, deadline=None)
    @given(
        spec=valid_clauses(),
        key=_identifiers(excluding=faults._OPTION_KEYS),
        value=st.integers(min_value=0, max_value=100),
    )
    def test_unknown_option_keys_always_raise(self, spec, key, value):
        with pytest.raises(FaultSpecError):
            parse_spec(f"{spec.point}:{key}={value}")

    @settings(max_examples=60, deadline=None)
    @given(spec=valid_clauses(), key=st.sampled_from(_OPTION_KEYS),
           value=st.text(alphabet=_IDENT_ALPHABET, min_size=1, max_size=10))
    def test_non_numeric_values_always_raise(self, spec, key, value):
        # "inf"/"nan" spell valid floats; everything else alphabetic must
        # fail loudly rather than default.
        try:
            float(value)
        except ValueError:
            pass
        else:
            return
        with pytest.raises(FaultSpecError):
            parse_spec(f"{spec.point}:{key}={value}")

    @settings(max_examples=60, deadline=None)
    @given(spec=valid_clauses(), data=st.data())
    def test_out_of_range_values_always_raise(self, spec, data):
        key, value = data.draw(
            st.one_of(
                st.tuples(st.sampled_from(["after", "count"]),
                          st.integers(max_value=-1)),
                st.tuples(st.just("prob"),
                          st.one_of(
                              st.floats(max_value=0.0, exclude_max=True,
                                        allow_nan=False, allow_infinity=False),
                              st.floats(min_value=1.0, exclude_min=True,
                                        allow_nan=False, allow_infinity=False),
                          )),
                st.tuples(st.just("delay_ms"),
                          st.floats(max_value=0.0, exclude_max=True,
                                    allow_nan=False, allow_infinity=False)),
            )
        )
        with pytest.raises(FaultSpecError):
            parse_spec(f"{spec.point}:{key}={value}")

    @settings(max_examples=30, deadline=None)
    @given(filler=st.text(alphabet=" \t,", max_size=12))
    def test_specs_with_no_clauses_always_raise(self, filler):
        with pytest.raises(FaultSpecError):
            parse_spec(filler)

    @settings(max_examples=30, deadline=None)
    @given(point=_identifiers(excluding=faults.POINTS))
    def test_runtime_construction_is_never_a_silent_noop(self, point):
        with pytest.raises(FaultSpecError):
            FaultRuntime.from_spec(point)


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_context_renders_and_survives_pickling(self):
        error = SyncLogError("worker sync gap", at_version=4, target=7)
        assert "worker sync gap [at_version=4, target=7]" == str(error)
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is SyncLogError
        assert clone.context == {"at_version": 4, "target": 7}
        assert str(clone) == str(error)

    def test_every_failure_is_an_rknnt_error(self):
        for cls in (WorkerCrashError, ReseedError, SyncLogError,
                    DeadlineExceeded, PoolSaturated, UpdateStreamError,
                    faults.FaultInjected):
            assert issubclass(cls, RkNNTError)
            assert issubclass(cls, RuntimeError)
        # Stream errors are also ValueErrors, for callers that predate the
        # taxonomy and catch the stdlib type.
        assert issubclass(UpdateStreamError, ValueError)


# ----------------------------------------------------------------------
# Deadlines, backoff, admission
# ----------------------------------------------------------------------
class TestDeadline:
    def test_check_raises_once_budget_spent(self):
        now = [0.0]
        deadline = Deadline(50.0, clock=lambda: now[0])
        deadline.check("stage")  # well inside the budget
        now[0] = 0.049
        deadline.check("stage")
        now[0] = 0.051
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("stage")
        assert excinfo.value.context["budget_ms"] == 50.0
        assert excinfo.value.context["overrun_ms"] > 0
        assert deadline.expired()

    def test_from_ms_propagates_none(self):
        assert Deadline.from_ms(None) is None
        assert Deadline.from_ms(10.0).budget_ms == 10.0

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


class TestRetryPolicy:
    def test_backoff_escalates_with_decorrelated_jitter(self):
        pauses = []
        policy = RetryPolicy(base_ms=10.0, cap_ms=100.0, seed=1,
                             sleep=pauses.append)
        taken = [policy.pause() for _ in range(8)]
        assert all(10.0 <= ms <= 100.0 for ms in taken)
        assert max(taken) > taken[0]  # escalated at least once
        assert len(pauses) == 8
        # Seeded: an identical policy reproduces the exact schedule.
        replay = RetryPolicy(base_ms=10.0, cap_ms=100.0, seed=1,
                             sleep=lambda s: None)
        assert [replay.pause() for _ in range(8)] == taken

    def test_reset_forgets_escalation(self):
        policy = RetryPolicy(base_ms=10.0, cap_ms=100.0, seed=2,
                             sleep=lambda s: None)
        for _ in range(5):
            policy.pause()
        policy.reset()
        assert policy.pause() <= 30.0  # back in the [base, 3*base] band

    def test_pause_clipped_to_deadline(self):
        now = [0.0]
        deadline = Deadline(5.0, clock=lambda: now[0])
        slept = []
        policy = RetryPolicy(base_ms=50.0, cap_ms=500.0, seed=0,
                             sleep=slept.append)
        taken = policy.pause(deadline)
        assert taken <= 5.0  # never the reason the deadline is missed
        now[0] = 10.0  # already expired: no sleep at all
        assert policy.pause(deadline) == 0.0


class TestAdmissionGate:
    def test_unbounded_by_default(self):
        gate = AdmissionGate(0)
        gate.acquire(10_000)
        assert gate.in_flight == 10_000

    def test_overflow_rejected_with_context(self):
        gate = AdmissionGate(4)
        gate.acquire(3)
        with pytest.raises(PoolSaturated) as excinfo:
            gate.acquire(2)
        assert excinfo.value.context == {
            "requested": 2, "in_flight": 3, "limit": 4,
        }
        gate.release(3)
        gate.acquire(2)  # drained: admitted again

    def test_lone_oversized_batch_admitted(self):
        gate = AdmissionGate(4)
        with gate.admitted(9):  # rejecting it could never succeed
            assert gate.in_flight == 9
        assert gate.in_flight == 0


class TestEnvKnobs:
    def test_max_reseeds(self, monkeypatch):
        monkeypatch.setenv(resilience.MAX_RESEEDS_ENV, "1")
        assert resilience.max_reseeds() == 1
        monkeypatch.setenv(resilience.MAX_RESEEDS_ENV, "lots")
        assert resilience.max_reseeds() == resilience.DEFAULT_MAX_RESEEDS
        monkeypatch.setenv(resilience.MAX_RESEEDS_ENV, "-2")
        assert resilience.max_reseeds() == resilience.DEFAULT_MAX_RESEEDS

    def test_default_deadline(self, monkeypatch):
        monkeypatch.delenv(resilience.DEADLINE_ENV, raising=False)
        assert resilience.default_deadline_ms() is None
        monkeypatch.setenv(resilience.DEADLINE_ENV, "250")
        assert resilience.default_deadline_ms() == 250.0
        monkeypatch.setenv(resilience.DEADLINE_ENV, "0")
        assert resilience.default_deadline_ms() is None

    def test_queue_limit_flows_into_executor(self, monkeypatch, mini_processor):
        monkeypatch.setenv(resilience.QUEUE_LIMIT_ENV, "6")
        executor = ShardedExecutor(mini_processor.engine_context, workers=1)
        assert executor.queue_limit == 6
        explicit = ShardedExecutor(
            mini_processor.engine_context, workers=1, queue_limit=2
        )
        assert explicit.queue_limit == 2


# ----------------------------------------------------------------------
# Chaos: the pool under every injection point
# ----------------------------------------------------------------------
class TestChaosPool:
    def test_worker_crash_twice_recovers_within_budget(
        self, chaos_processor, chaos_jobs
    ):
        """Regression for the one-shot recovery: two consecutive crashes
        (the second mid-replay) must still produce the fault-free batch."""
        expected = _endpoints(_serial(chaos_processor, chaos_jobs))
        with faults.injected("worker_crash:count=2") as runtime:
            with ShardedExecutor(
                chaos_processor.engine_context, workers=1
            ) as pool:
                pool.retry_policy.sleep = lambda seconds: None
                results = pool.run(chaos_jobs, K, _plan())
                assert _endpoints(results) == expected
                assert pool.crash_recoveries == 2
                assert not pool.degraded
                assert pool.pools_spawned == 3  # seed + two reseeds
        assert runtime.fire_count(faults.WORKER_CRASH) == 2

    def test_task_delay_never_changes_answers(self, chaos_processor, chaos_jobs):
        expected = _endpoints(_serial(chaos_processor, chaos_jobs))
        with faults.injected("task_delay:delay_ms=5;count=0"):
            with ShardedExecutor(
                chaos_processor.engine_context, workers=WORKERS
            ) as pool:
                assert _endpoints(pool.run(chaos_jobs, K, _plan())) == expected
                assert pool.crash_recoveries == 0

    def test_env_schedule_ships_into_a_spawn_pool(
        self, chaos_processor, chaos_jobs, monkeypatch
    ):
        """Regression: the runtime built lazily from ``RKNNT_FAULTS`` used
        to create its counters in the default (fork) context, and pickling
        a fork-context lock into a spawn pool's initializer raises
        ``RuntimeError`` — the schedule must work under every start method."""
        expected = _endpoints(_serial(chaos_processor, chaos_jobs))
        monkeypatch.setenv(faults.FAULTS_ENV, "task_delay:delay_ms=1;count=0")
        runtime = faults.current()
        assert runtime is not None
        with ShardedExecutor(
            chaos_processor.engine_context, workers=WORKERS,
            start_method="spawn",
        ) as pool:
            assert _endpoints(pool.run(chaos_jobs, K, _plan())) == expected
            assert not pool.degraded
        assert runtime.fire_count(faults.TASK_DELAY) >= 1

    def test_task_hang_is_cut_off_by_the_deadline(
        self, chaos_processor, chaos_jobs
    ):
        """A hung worker must surface as DeadlineExceeded within the
        budget — never a wrong answer, never an unbounded wait."""
        with faults.injected("task_hang:delay_ms=30000;count=1"):
            with ShardedExecutor(
                chaos_processor.engine_context, workers=WORKERS
            ) as pool:
                started = time.monotonic()
                with pytest.raises(DeadlineExceeded) as excinfo:
                    pool.run(chaos_jobs, K, _plan(), deadline=Deadline(400.0))
                elapsed = time.monotonic() - started
                assert elapsed < 15.0, "deadline abort must not block"
                assert excinfo.value.context["budget_ms"] == 400.0
                assert not pool.degraded  # deadlines are not pool failures
                # The aborted pool is gone; the next (hang-free) batch
                # reseeds and answers exactly.
                expected = _endpoints(_serial(chaos_processor, chaos_jobs))
                assert _endpoints(pool.run(chaos_jobs, K, _plan())) == expected

    def test_sync_corruption_recovered_by_reseed(self, chaos_processor, chaos_jobs):
        from repro.model.transition import Transition

        with faults.injected("sync_corrupt:count=1") as runtime:
            with ShardedExecutor(
                chaos_processor.engine_context, workers=WORKERS
            ) as pool:
                pool.retry_policy.sleep = lambda seconds: None
                pool.run(chaos_jobs, K, _plan())  # seed the pool
                new_id = chaos_processor.transitions.next_id()
                chaos_processor.add_transition(
                    Transition(new_id, (2.0, 2.1), (2.4, 2.6))
                )
                # The shipped sync log loses its newest delta; the worker
                # replay falls short of the target version, raises a typed
                # SyncLogError (context intact across the process
                # boundary) and the batch recovers by reseeding.
                after = pool.run(chaos_jobs, K, _plan())
                assert pool.sync_recoveries == 1
                assert pool.pools_spawned == 2
                assert runtime.fire_count(faults.SYNC_CORRUPT) == 1
                fresh = _endpoints(_serial(chaos_processor, chaos_jobs))
                assert _endpoints(after) == fresh

    def test_reseed_failure_retried_with_backoff(self, chaos_processor, chaos_jobs):
        expected = _endpoints(_serial(chaos_processor, chaos_jobs))
        with faults.injected("reseed_fail:count=2"):
            with ShardedExecutor(
                chaos_processor.engine_context, workers=1
            ) as pool:
                pauses = []
                pool.retry_policy.sleep = pauses.append
                results = pool.run(chaos_jobs, K, _plan())
                assert _endpoints(results) == expected
                assert pool.reseed_failures == 2
                assert len(pauses) == 2  # backed off between attempts
                assert not pool.degraded

    def test_reseed_budget_exhaustion_degrades_identically(
        self, chaos_processor, chaos_jobs
    ):
        """Past RKNNT_MAX_RESEEDS consecutive failures the executor turns
        degraded and answers in process — bitwise identical results."""
        expected = _endpoints(_serial(chaos_processor, chaos_jobs))
        with faults.injected("reseed_fail:count=0"):  # every reseed fails
            with ShardedExecutor(
                chaos_processor.engine_context, workers=1
            ) as pool:
                pool.retry_policy.sleep = lambda seconds: None
                results = pool.run(chaos_jobs, K, _plan())
                assert _endpoints(results) == expected
                assert pool.degraded
                assert isinstance(pool.last_failure, ReseedError)
                assert pool.degraded_runs == 1
                # Sticky: later batches stay in process (and stay right).
                again = pool.run(chaos_jobs, K, _plan())
                assert _endpoints(again) == expected
                assert pool.degraded_runs == 2
                # close() heals: the executor starts its next batch fresh.
                pool.close()
                assert not pool.degraded
                assert pool.last_failure is None

    def test_degraded_standing_rebuilds_match_serial(self, chaos_processor):
        queries = [[(2.0, 2.0), (3.0, 2.5)], [(1.0, 1.5)]]
        subscriptions = [chaos_processor.watch(q, K) for q in queries]
        from repro.model.route import Route

        route_id = chaos_processor.routes.next_id()
        chaos_processor.add_route(
            Route(route_id, [(1.5, 1.6), (2.5, 2.1), (3.2, 2.3)])
        )
        assert all(s.is_stale() for s in subscriptions)
        # Every pool rebuild fails: refresh falls back to the serial path
        # and the standing results still match a fresh query exactly.
        with faults.injected("reseed_fail:count=0"):
            with chaos_processor.serving_pool(workers=1) as pool:
                pool.retry_policy.sleep = lambda seconds: None
                chaos_processor.refresh_subscriptions()
        assert not any(s.is_stale() for s in subscriptions)
        for subscription, query in zip(subscriptions, queries):
            fresh = chaos_processor.query(query, K)
            assert subscription.transition_ids == fresh.transition_ids

    def test_saturated_pool_rejects_second_batch(self, chaos_processor, chaos_jobs):
        with ShardedExecutor(
            chaos_processor.engine_context, workers=1, queue_limit=2
        ) as pool:
            # A concurrent caller holds both slots; new work is shed with
            # typed backpressure instead of queueing without bound.
            pool._gate.acquire(2, what="concurrent batch")
            with pytest.raises(PoolSaturated):
                pool.run(chaos_jobs, K, _plan())
            pool._gate.release(2)
            expected = _endpoints(_serial(chaos_processor, chaos_jobs))
            assert _endpoints(pool.run(chaos_jobs, K, _plan())) == expected


# ----------------------------------------------------------------------
# Deadlines end to end (query_batch and the serial path)
# ----------------------------------------------------------------------
class TestDeadlineEndToEnd:
    def test_serial_query_batch_honours_deadline_ms(self, chaos_processor):
        with pytest.raises(DeadlineExceeded):
            chaos_processor.query_batch(
                [[(2.0, 2.0)]], K, deadline_ms=1e-6
            )

    def test_ambient_deadline_env(self, chaos_processor, monkeypatch):
        monkeypatch.setenv(resilience.DEADLINE_ENV, "0.000001")
        with pytest.raises(DeadlineExceeded):
            chaos_processor.query_batch([[(2.0, 2.0)]], K)
        monkeypatch.delenv(resilience.DEADLINE_ENV)
        results = chaos_processor.query_batch([[(2.0, 2.0)]], K)
        assert len(results) == 1

    def test_generous_deadline_changes_nothing(self, chaos_processor, chaos_jobs):
        queries = [points for points, _ in chaos_jobs]
        free = chaos_processor.query_batch(queries, K)
        bounded = chaos_processor.query_batch(queries, K, deadline_ms=60_000.0)
        assert _endpoints(bounded) == _endpoints(free)
