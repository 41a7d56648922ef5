"""Shared fixtures for the test suite.

Two families of fixtures exist:

* tiny hand-built datasets (``toy_routes`` / ``toy_transitions``) whose
  correct answers can be worked out on paper and are asserted explicitly;
* a small generated city (``mini_city`` and friends, session-scoped because
  index construction is the expensive part) used for cross-checking the
  optimised algorithms against the brute-force oracle on less trivial data.

Property tests run under a derandomized Hypothesis profile with no example
database, so a run's outcome depends only on the code, not on the day or on
examples a stale ``.hypothesis/`` directory replays.
"""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import settings

from repro.core.rknnt import RkNNTProcessor
from repro.data.workloads import QueryWorkload, make_city
from repro.index.route_index import RouteIndex
from repro.index.transition_index import TransitionIndex
from repro.model.dataset import RouteDataset, TransitionDataset
from repro.model.route import Route
from repro.model.transition import Transition

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

#: Both executor backends: the scalar predicates and the numpy batch kernels.
#: Test modules import this (``from conftest import BACKENDS``) to run each
#: differential check on both.
BACKENDS = ["python", "numpy"]

# ----------------------------------------------------------------------
# Hand-built toy datasets
# ----------------------------------------------------------------------
@pytest.fixture
def toy_routes() -> RouteDataset:
    """Three horizontal bus routes at y = 0, 4 and 8 plus one vertical route.

    The vertical route (id 3) crosses route 0 at (4, 0) and route 1 at
    (4, 4), giving those stops crossover degree 2.
    """
    return RouteDataset(
        [
            Route(0, [(0.0, 0.0), (2.0, 0.0), (4.0, 0.0), (6.0, 0.0), (8.0, 0.0)]),
            Route(1, [(0.0, 4.0), (2.0, 4.0), (4.0, 4.0), (6.0, 4.0), (8.0, 4.0)]),
            Route(2, [(0.0, 8.0), (2.0, 8.0), (4.0, 8.0), (6.0, 8.0), (8.0, 8.0)]),
            Route(3, [(4.0, 0.0), (4.0, 2.0), (4.0, 4.0)]),
        ]
    )


@pytest.fixture
def toy_transitions() -> TransitionDataset:
    """Six transitions spread over the toy city.

    * 0 — both endpoints hug route 0,
    * 1 — both endpoints hug route 1,
    * 2 — both endpoints hug route 2,
    * 3 — origin near route 0, destination near route 2,
    * 4 — both endpoints near the crossover stop (4, 4),
    * 5 — far away from every route (background noise).
    """
    return TransitionDataset(
        [
            Transition(0, (1.0, 0.3), (7.0, -0.2)),
            Transition(1, (1.0, 4.2), (7.0, 3.8)),
            Transition(2, (1.0, 8.3), (7.0, 7.8)),
            Transition(3, (2.0, 0.5), (6.0, 7.5)),
            Transition(4, (3.8, 4.3), (4.3, 3.7)),
            Transition(5, (20.0, 20.0), (22.0, 21.0)),
        ]
    )


@pytest.fixture
def toy_processor(toy_routes, toy_transitions) -> RkNNTProcessor:
    return RkNNTProcessor(toy_routes, toy_transitions)


@pytest.fixture
def toy_route_index(toy_routes) -> RouteIndex:
    return RouteIndex(toy_routes, max_entries=4)


@pytest.fixture
def toy_transition_index(toy_transitions) -> TransitionIndex:
    return TransitionIndex(toy_transitions, max_entries=4)


# ----------------------------------------------------------------------
# Generated mini city (session scoped — index construction dominates)
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def mini_city_bundle():
    city, transitions = make_city("mini")
    processor = RkNNTProcessor(city.routes, transitions)
    workload = QueryWorkload(city, seed=99)
    return city, transitions, processor, workload


@pytest.fixture(scope="session")
def mini_city(mini_city_bundle):
    return mini_city_bundle[0]


@pytest.fixture(scope="session")
def mini_transitions(mini_city_bundle):
    return mini_city_bundle[1]


@pytest.fixture(scope="session")
def mini_processor(mini_city_bundle):
    return mini_city_bundle[2]


@pytest.fixture(scope="session")
def mini_workload(mini_city_bundle):
    return mini_city_bundle[3]


# ----------------------------------------------------------------------
# Misc
# ----------------------------------------------------------------------
@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240614)


@pytest.fixture
def collections_during():
    """``collections_during(call)`` returns ``(call(), n)``, where ``n``
    counts the cyclic-GC collections that started inside the call.

    Generation 0 is emptied first, so a collection in the window can only
    come from the call's own allocations.  The window closes as the call
    returns: the one generation-0 pass a pause defers (see
    :func:`repro.index.rtree.paused_gc`) falls on the caller's next
    allocation, after it.
    """
    started = []

    def on_gc(phase, info):
        if phase == "start":
            started.append(info)

    def run(call):
        gc.collect()
        started.clear()
        gc.callbacks.append(on_gc)
        try:
            result = call()
        finally:
            gc.callbacks.remove(on_gc)
        return result, len(started)

    return run
