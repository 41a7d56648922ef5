"""End-to-end correctness of the RkNNT framework against the brute force oracle.

These are the most important tests in the suite: every optimised evaluation
strategy (filter-refine, Voronoi, divide & conquer) must return exactly the
same transitions as the exhaustive per-endpoint kNN check, for both the ∃ and
∀ semantics, across hand-built and generated datasets.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BACKENDS

from repro.core.baseline import rknnt_bruteforce
from repro.core.rknnt import (
    DIVIDE_CONQUER,
    FILTER_REFINE,
    METHODS,
    RkNNTProcessor,
    VORONOI,
    rknnt_query,
)
from repro.model.dataset import RouteDataset, TransitionDataset
from repro.model.route import Route
from repro.model.transition import Transition

coord = st.floats(min_value=-2, max_value=12, allow_nan=False, allow_infinity=False)
query_strategy = st.lists(st.tuples(coord, coord), min_size=1, max_size=6)


class TestToyScenario:
    """Hand-checkable answers on the toy city (three parallel routes)."""

    def test_query_along_route0_attracts_its_riders(self, toy_processor):
        # A query overlapping route 0 exactly: transitions hugging route 0
        # tie with it and (ties favour the query) are returned for k=1.
        query = [(0.0, 0.0), (4.0, 0.0), (8.0, 0.0)]
        result = toy_processor.query(query, k=1)
        assert 0 in result
        assert 2 not in result
        assert 5 not in result

    def test_query_midway_between_routes(self, toy_processor):
        # Halfway between routes 0 and 1: closer to every endpoint of
        # transitions 0, 1 and 4 than any existing route for k=1? The
        # endpoints of transition 0 hug route 0 (distance < 1), while the
        # query is ~1.7+ away, so transition 0 must NOT be returned with k=1.
        query = [(0.0, 2.0), (4.0, 2.0), (8.0, 2.0)]
        result_k1 = toy_processor.query(query, k=1)
        assert 0 not in result_k1
        # With k=2 the query only needs to beat all but one route.
        result_k2 = toy_processor.query(query, k=2)
        assert 0 in result_k2
        # Transition 4 sits on the crossover stop (4, 4) shared by routes 1
        # and 3, so two routes always beat the query; it appears at k=3.
        assert 4 not in result_k2
        assert 4 in toy_processor.query(query, k=3)

    def test_far_away_transition_never_matches_small_k(self, toy_processor):
        query = [(0.0, 2.0), (8.0, 2.0)]
        result = toy_processor.query(query, k=1)
        assert 5 not in result

    def test_far_away_transition_matches_when_k_covers_all_routes(
        self, toy_processor, toy_routes
    ):
        query = [(0.0, 2.0), (8.0, 2.0)]
        result = toy_processor.query(query, k=len(toy_routes))
        # With k = |DR| every transition takes every route (and the query).
        assert 5 in result

    def test_all_methods_agree_on_toy(self, toy_processor, toy_routes, toy_transitions):
        for k in (1, 2, 3, 4):
            for query in (
                [(0.0, 0.0), (8.0, 0.0)],
                [(4.0, -1.0)],
                [(0.0, 6.0), (8.0, 6.0)],
            ):
                oracle = rknnt_bruteforce(toy_routes, toy_transitions, query, k)
                for method in METHODS:
                    result = toy_processor.query(query, k, method=method)
                    assert result.transition_ids == oracle.transition_ids, (
                        method,
                        k,
                        query,
                    )


class TestSemanticsAgreement:
    def test_forall_subset_of_exists(self, toy_processor):
        query = [(0.0, 2.0), (8.0, 2.0)]
        exists = toy_processor.query(query, k=2, semantics="exists")
        forall = toy_processor.query(query, k=2, semantics="forall")
        assert forall.transition_ids <= exists.transition_ids

    def test_forall_matches_bruteforce(self, toy_processor, toy_routes, toy_transitions):
        query = [(0.0, 2.0), (4.0, 2.0), (8.0, 2.0)]
        for k in (1, 2, 3):
            oracle = rknnt_bruteforce(
                toy_routes, toy_transitions, query, k, semantics="forall"
            )
            for method in METHODS:
                result = toy_processor.query(query, k, method=method, semantics="forall")
                assert result.transition_ids == oracle.transition_ids

    def test_result_exposes_both_semantics(self, toy_processor):
        query = [(0.0, 2.0), (8.0, 2.0)]
        result = toy_processor.query(query, k=2, semantics="exists")
        assert result.forall_ids() <= result.exists_ids()
        assert result.exists_ids() == result.transition_ids


class TestMiniCityAgreement:
    """Cross-check the three methods on generated data."""

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_methods_match_bruteforce(self, mini_city_bundle, k):
        city, transitions, processor, workload = mini_city_bundle
        for query in workload.query_routes(3, 4, 1.5):
            oracle = rknnt_bruteforce(city.routes, transitions, query, k)
            for method in METHODS:
                result = processor.query(query, k, method=method)
                assert result.transition_ids == oracle.transition_ids, (method, k)

    def test_single_point_queries(self, mini_city_bundle):
        city, transitions, processor, workload = mini_city_bundle
        for query in workload.query_routes(3, 1, 1.0):
            oracle = rknnt_bruteforce(city.routes, transitions, query, 2)
            for method in METHODS:
                result = processor.query(query, 2, method=method)
                assert result.transition_ids == oracle.transition_ids

    @settings(max_examples=15, deadline=None)
    @given(query=query_strategy, k=st.integers(min_value=1, max_value=6))
    def test_property_random_queries(self, mini_city_bundle, query, k):
        city, transitions, processor, _ = mini_city_bundle
        oracle = rknnt_bruteforce(city.routes, transitions, query, k)
        for method in (FILTER_REFINE, VORONOI, DIVIDE_CONQUER):
            result = processor.query(query, k, method=method)
            assert result.transition_ids == oracle.transition_ids


class TestExistingRouteQueries:
    """The "real route query" workflow: the query is a route of the dataset."""

    def test_query_route_is_excluded_from_competition(self, toy_processor, toy_routes):
        route = toy_routes.get(0)
        result = toy_processor.query(route, k=1)
        # Route 0's own riders take it as their nearest route, so when it is
        # excluded from the index the query (same geometry) wins them.
        assert 0 in result

    def test_exclusion_matches_bruteforce(self, mini_city_bundle):
        city, transitions, processor, _ = mini_city_bundle
        route = next(iter(city.routes))
        oracle = rknnt_bruteforce(
            city.routes, transitions, route, 3, exclude_route_ids={route.route_id}
        )
        for method in METHODS:
            result = processor.query(route, 3, method=method)
            assert result.transition_ids == oracle.transition_ids


class TestEdgeCases:
    def test_empty_transition_set(self, toy_routes):
        processor = RkNNTProcessor(toy_routes, TransitionDataset())
        result = processor.query([(1.0, 1.0)], k=1)
        assert len(result) == 0

    def test_empty_route_set(self, toy_transitions):
        processor = RkNNTProcessor(RouteDataset(), toy_transitions)
        result = processor.query([(1.0, 1.0)], k=1)
        # With no competing routes, every transition takes the query.
        assert result.transition_ids == frozenset(toy_transitions.transition_ids)

    def test_unknown_method_rejected(self, toy_processor):
        with pytest.raises(ValueError):
            toy_processor.query([(0.0, 0.0)], k=1, method="magic")

    def test_unknown_semantics_rejected(self, toy_processor):
        with pytest.raises(ValueError):
            toy_processor.query([(0.0, 0.0)], k=1, semantics="most")

    def test_one_shot_helper(self, toy_routes, toy_transitions):
        result = rknnt_query(toy_routes, toy_transitions, [(4.0, 2.0)], k=2)
        oracle = rknnt_bruteforce(toy_routes, toy_transitions, [(4.0, 2.0)], 2)
        assert result.transition_ids == oracle.transition_ids

    def test_duplicate_query_points(self, toy_processor, toy_routes, toy_transitions):
        query = [(4.0, 2.0), (4.0, 2.0), (4.0, 2.0)]
        oracle = rknnt_bruteforce(toy_routes, toy_transitions, query, 2)
        for method in METHODS:
            assert (
                toy_processor.query(query, 2, method=method).transition_ids
                == oracle.transition_ids
            )

    def test_k_larger_than_route_count(self, toy_processor, toy_routes, toy_transitions):
        query = [(100.0, 100.0)]
        k = len(toy_routes) + 5
        oracle = rknnt_bruteforce(toy_routes, toy_transitions, query, k)
        result = toy_processor.query(query, k)
        assert result.transition_ids == oracle.transition_ids
        assert result.transition_ids == frozenset(toy_transitions.transition_ids)


class TestFloatTieReproducer:
    """ROADMAP open item 1: R1's second point is closer to the query in
    exact arithmetic, but the float64 squared distances tie, so the oracle
    (which compares squared distances) keeps T2 and T3.  The half-plane
    prune does not see the tie and discards them."""

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: the linear half-plane prune is not "
        "conservative against the oracle's float64 squared-distance ties",
    )
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", METHODS)
    def test_methods_follow_the_float_oracle(self, method, backend):
        routes = RouteDataset(
            [
                Route(0, [(0.0, 0.0), (0.0, 0.0)]),
                Route(1, [(0.0, 0.0), (0.0, 1.5112441903382607e-232)]),
            ]
        )
        transitions = TransitionDataset(
            [
                Transition(0, (0.0, 0.0), (0.0, 0.0)),
                Transition(
                    2,
                    (8.098682749008287, 15.675971780695452),
                    (6.066254521578549, 9.531939083047117),
                ),
                Transition(
                    3,
                    (11.667640789100624, 18.162257703906704),
                    (10.093737116347805, 5.636756887994077),
                ),
            ]
        )
        query = [(0.0, 0.0)]
        assert rknnt_bruteforce(routes, transitions, query, 1).transition_ids == {0, 2, 3}
        processor = RkNNTProcessor(routes, transitions)
        result = processor.query(query, 1, method=method, backend=backend)
        assert result.transition_ids == {0, 2, 3}
