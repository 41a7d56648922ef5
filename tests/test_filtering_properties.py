"""Property-based tests of the filter-refine engine's safety invariants.

The framework is only exact because its pruning rules are *safe*: a pruned
R-tree node or transition endpoint must never belong to the final answer.
These tests generate random datasets and queries with hypothesis and check
that safety directly against exhaustive distance computations, independently
of the end-to-end equivalence tests in test_rknnt_correctness.py.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryExecutor
from repro.core.knn import count_routes_within_sq, query_distance_sq
from repro.geometry.bbox import BoundingBox
from repro.index.route_index import RouteIndex
from repro.index.transition_index import TransitionIndex
from repro.model.dataset import RouteDataset, TransitionDataset
from repro.model.route import Route
from repro.model.transition import Transition

# Coordinates are full-precision float64 draws.  The framework's predicates
# mix the linear half-plane corner test (filtering) with squared-distance
# comparisons (verification, oracle); the two are algebraically equivalent
# but can round to different sides of a *tie*, and subnormal coordinates
# (hypothesis happily draws 5e-324) make the squared/product terms
# underflow to 0.0, turning true orderings into exact squared-space ties.
# The oracles below therefore compare in the same squared space as the
# engine and skip squared-space near-ties (``squared_near_tie``), instead
# of dodging the issue by narrowing the strategies to float32 as PR 3 did.
coord = st.floats(min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord)


def squared_near_tie(d2_a, d2_b):
    """True when two squared distances are close enough that differently
    rounded expressions of the same comparison may disagree."""
    return abs(d2_a - d2_b) <= 1e-9 * (1.0 + d2_a + d2_b)


@st.composite
def random_scenario(draw):
    """A small random (routes, transitions, query, k) scenario."""
    route_count = draw(st.integers(min_value=2, max_value=6))
    routes = RouteDataset()
    for route_id in range(route_count):
        points = draw(st.lists(point, min_size=2, max_size=6))
        routes.add(Route(route_id, points))
    transition_count = draw(st.integers(min_value=1, max_value=12))
    transitions = TransitionDataset()
    for transition_id in range(transition_count):
        origin = draw(point)
        destination = draw(point)
        transitions.add(Transition(transition_id, origin, destination))
    query = draw(st.lists(point, min_size=1, max_size=4))
    k = draw(st.integers(min_value=1, max_value=route_count))
    return routes, transitions, query, k


@settings(max_examples=40, deadline=None)
@given(scenario=random_scenario())
def test_is_filtered_never_prunes_a_result_endpoint(scenario):
    """Safety: a pruned (degenerate) node contains no answer endpoint."""
    routes, transitions, query, k = scenario
    route_index = RouteIndex(routes, max_entries=4)
    transition_index = TransitionIndex(transitions, max_entries=4)
    context = ExecutionContext(route_index, transition_index)
    engine = QueryExecutor(context, k, backend="python")
    engine.filter_routes([tuple(q) for q in query])

    for transition in transitions:
        for endpoint in transition.points:
            box = BoundingBox.from_point(endpoint)
            if engine.is_filtered(box, query):
                # The endpoint must have at least k routes strictly closer
                # than the query, i.e. it cannot be part of the answer.
                threshold_sq = query_distance_sq(endpoint, query)
                distances_sq = [
                    route.squared_distance_to_point(endpoint) for route in routes
                ]
                if any(squared_near_tie(d2, threshold_sq) for d2 in distances_sq):
                    # Geometric tie: different floating-point expressions
                    # of the same comparison may disagree.
                    continue
                closer = count_routes_within_sq(route_index, endpoint, threshold_sq)
                assert closer >= k


@settings(max_examples=30, deadline=None)
@given(scenario=random_scenario())
def test_candidates_plus_pruned_cover_all_endpoints_in_answers(scenario):
    """Completeness: every answer endpoint survives pruning as a candidate."""
    routes, transitions, query, k = scenario
    route_index = RouteIndex(routes, max_entries=4)
    transition_index = TransitionIndex(transitions, max_entries=4)
    context = ExecutionContext(route_index, transition_index)
    engine = QueryExecutor(context, k, use_voronoi=True, backend="python")
    normalised_query = [tuple(q) for q in query]
    engine.filter_routes(normalised_query)
    candidates = engine.prune_transitions(normalised_query)
    candidate_keys = {(tag.transition_id, tag.endpoint) for _, tag in candidates}

    for transition in transitions:
        for label, endpoint in (("o", transition.origin), ("d", transition.destination)):
            threshold_sq = query_distance_sq(endpoint, normalised_query)
            distances_sq = [
                route.squared_distance_to_point(endpoint) for route in routes
            ]
            if any(squared_near_tie(d2, threshold_sq) for d2 in distances_sq):
                # Geometric tie — see the note in the test above.
                continue
            closer = count_routes_within_sq(route_index, endpoint, threshold_sq)
            if closer < k:
                assert (transition.transition_id, label) in candidate_keys


@settings(max_examples=30, deadline=None)
@given(scenario=random_scenario())
def test_verification_confirms_exactly_the_true_endpoints(scenario):
    """The verify step equals the per-endpoint brute-force predicate."""
    routes, transitions, query, k = scenario
    route_index = RouteIndex(routes, max_entries=4)
    transition_index = TransitionIndex(transitions, max_entries=4)
    context = ExecutionContext(route_index, transition_index)
    engine = QueryExecutor(context, k, backend="python")
    normalised_query = [tuple(q) for q in query]
    confirmed = engine.run(normalised_query)

    for transition in transitions:
        for label, endpoint in (("o", transition.origin), ("d", transition.destination)):
            threshold_sq = query_distance_sq(endpoint, normalised_query)
            distances_sq = [
                route.squared_distance_to_point(endpoint) for route in routes
            ]
            if any(squared_near_tie(d2, threshold_sq) for d2 in distances_sq):
                # Geometric tie between a route and the query: the engine
                # and this re-computation use different (equally valid)
                # floating-point expressions, so skip the comparison.
                continue
            closer = sum(1 for d2 in distances_sq if d2 < threshold_sq)
            engine_says_yes = label in confirmed.get(transition.transition_id, set())
            assert engine_says_yes == (closer < k)


@settings(max_examples=25, deadline=None)
@given(scenario=random_scenario(), seed=st.integers(min_value=0, max_value=10_000))
def test_dynamic_insertions_preserve_exactness(scenario, seed):
    """After random insert/remove churn the engine still matches brute force."""
    from repro.core.baseline import rknnt_bruteforce
    from repro.core.rknnt import RkNNTProcessor

    routes, transitions, query, k = scenario
    processor = RkNNTProcessor(routes, transitions)
    rng = random.Random(seed)

    # Random churn: add a few transitions, remove a few existing ones.
    next_id = transitions.next_id()
    for offset in range(rng.randint(1, 4)):
        processor.add_transition(
            Transition(
                next_id + offset,
                (rng.uniform(0, 20), rng.uniform(0, 20)),
                (rng.uniform(0, 20), rng.uniform(0, 20)),
            )
        )
    existing = list(transitions.transition_ids)
    for transition_id in rng.sample(existing, min(2, len(existing))):
        processor.remove_transition(transition_id)

    oracle = rknnt_bruteforce(routes, transitions, query, k)
    result = processor.query(query, k, method="voronoi")
    assert result.transition_ids == oracle.transition_ids
