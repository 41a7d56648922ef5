"""Tests for MaxRkNNT / MinRkNNT planning (Algorithm 6 and the baselines)."""

import pytest

from repro.core.rknnt import RkNNTProcessor
from repro.planning.bruteforce import maxrknnt_bruteforce, maxrknnt_pre
from repro.planning.maxrknnt import (
    DOMINANCE_LEMMA4,
    DOMINANCE_SUBSET,
    MAXIMIZE,
    MINIMIZE,
    MaxRkNNTPlanner,
)
from repro.planning.precompute import VertexRkNNTIndex
from repro.planning.shortest_path import enumerate_paths_within_distance


@pytest.fixture(scope="module")
def planning_setup(request):
    """Mini-city planning fixture: network, processor, vertex index, planner."""
    from repro.data.workloads import make_city

    city, transitions = make_city("mini")
    processor = RkNNTProcessor(city.routes, transitions)
    network = city.network
    vertex_index = VertexRkNNTIndex(network, processor, k=3)
    vertex_index.build()
    planner = MaxRkNNTPlanner(network, vertex_index)
    return city, transitions, processor, network, vertex_index, planner


def pick_query(network, vertex_index, min_distance=3.0, max_distance=8.0):
    """A (start, end, tau) triple with a reachable pair of vertices."""
    vertices = sorted(network.vertices())
    for start in vertices:
        for end in reversed(vertices):
            if start == end:
                continue
            distance = vertex_index.shortest_distance(start, end)
            if min_distance <= distance <= max_distance:
                return start, end, distance * 1.3
    raise RuntimeError("no suitable planning query found in the fixture network")


class TestPlannerBasics:
    def test_returns_feasible_route(self, planning_setup):
        _, _, _, network, vertex_index, planner = planning_setup
        start, end, tau = pick_query(network, vertex_index)
        route = planner.plan(start, end, tau)
        assert route is not None
        assert route.vertices[0] == start
        assert route.vertices[-1] == end
        assert route.travel_distance <= tau + 1e-9
        assert len(route.vertices) == len(set(route.vertices))
        assert route.travel_distance == pytest.approx(
            network.path_distance(route.vertices)
        )

    def test_unreachable_within_budget_returns_none(self, planning_setup):
        _, _, _, network, vertex_index, planner = planning_setup
        start, end, _ = pick_query(network, vertex_index)
        shortest = vertex_index.shortest_distance(start, end)
        assert planner.plan(start, end, shortest * 0.5) is None

    def test_start_equals_destination(self, planning_setup):
        _, _, _, network, vertex_index, planner = planning_setup
        vertex = next(iter(network.vertices()))
        route = planner.plan(vertex, vertex, 1.0)
        assert route is not None
        assert route.vertices == (vertex,)
        assert route.travel_distance == 0.0

    def test_invalid_objective(self, planning_setup):
        _, _, _, network, vertex_index, planner = planning_setup
        start, end, tau = pick_query(network, vertex_index)
        with pytest.raises(ValueError):
            planner.plan(start, end, tau, objective="median")

    def test_unknown_vertex(self, planning_setup):
        _, _, _, _, _, planner = planning_setup
        with pytest.raises(KeyError):
            planner.plan(10**9, 0, 5.0)

    def test_planned_route_properties(self, planning_setup):
        _, _, _, network, vertex_index, planner = planning_setup
        start, end, tau = pick_query(network, vertex_index)
        route = planner.plan(start, end, tau)
        assert route.passengers == len(route.transition_ids)
        assert route.stop_count == len(route.vertices)
        assert "PlannedRoute" in repr(route)
        assert route.stats.expansions > 0
        assert route.stats.seconds >= 0.0
        assert isinstance(route.stats.as_dict(), dict)


class TestOptimality:
    def test_max_matches_exhaustive_without_dominance(self, planning_setup):
        _, _, _, network, vertex_index, planner = planning_setup
        start, end, tau = pick_query(network, vertex_index)
        best = None
        for distance, path in enumerate_paths_within_distance(network, start, end, tau):
            count = len(
                VertexRkNNTIndex.exists_ids(vertex_index.route_endpoints(path))
            )
            if best is None or count > best:
                best = count
        planned = planner.plan(start, end, tau, use_dominance=False)
        assert planned is not None
        assert planned.passengers == best

    def test_min_matches_exhaustive_without_dominance(self, planning_setup):
        _, _, _, network, vertex_index, planner = planning_setup
        start, end, tau = pick_query(network, vertex_index)
        best = None
        for distance, path in enumerate_paths_within_distance(network, start, end, tau):
            count = len(
                VertexRkNNTIndex.exists_ids(vertex_index.route_endpoints(path))
            )
            if best is None or count < best:
                best = count
        planned = planner.plan(start, end, tau, objective=MINIMIZE, use_dominance=False)
        assert planned is not None
        assert planned.passengers == best

    def test_dominance_result_is_feasible_and_not_better_than_optimum(
        self, planning_setup
    ):
        _, _, _, network, vertex_index, planner = planning_setup
        start, end, tau = pick_query(network, vertex_index)
        optimum = planner.plan(start, end, tau, use_dominance=False)
        for mode in (DOMINANCE_SUBSET, DOMINANCE_LEMMA4):
            pruned = planner.plan(start, end, tau, dominance_mode=mode)
            assert pruned is not None
            assert pruned.travel_distance <= tau + 1e-9
            assert pruned.passengers <= optimum.passengers

    def test_subset_dominance_matches_optimum_on_fixture(self, planning_setup):
        # On this fixture the sound subset rule should not lose the optimum.
        _, _, _, network, vertex_index, planner = planning_setup
        start, end, tau = pick_query(network, vertex_index)
        optimum = planner.plan(start, end, tau, use_dominance=False)
        pruned = planner.plan(start, end, tau, dominance_mode=DOMINANCE_SUBSET)
        assert pruned.passengers == optimum.passengers

    def test_min_le_max(self, planning_setup):
        _, _, _, network, vertex_index, planner = planning_setup
        start, end, tau = pick_query(network, vertex_index)
        maximum = planner.plan(start, end, tau, objective=MAXIMIZE)
        minimum = planner.plan(start, end, tau, objective=MINIMIZE)
        assert minimum.passengers <= maximum.passengers

    def test_larger_budget_never_hurts_max(self, planning_setup):
        _, _, _, network, vertex_index, planner = planning_setup
        start, end, tau = pick_query(network, vertex_index)
        small = planner.plan(start, end, tau, use_dominance=False)
        large = planner.plan(start, end, tau * 1.2, use_dominance=False)
        assert large.passengers >= small.passengers


class TestBaselinesAgree:
    def test_bf_pre_and_planner_agree_on_max(self, planning_setup):
        city, transitions, processor, network, vertex_index, planner = planning_setup
        start, end, tau = pick_query(network, vertex_index)
        bf = maxrknnt_bruteforce(network, processor, start, end, tau, k=3)
        pre = maxrknnt_pre(network, vertex_index, start, end, tau)
        planned = planner.plan(start, end, tau, use_dominance=False)
        assert bf is not None and pre is not None and planned is not None
        assert bf.passengers == pre.passengers == planned.passengers

    def test_bf_pre_agree_on_min(self, planning_setup):
        city, transitions, processor, network, vertex_index, planner = planning_setup
        start, end, tau = pick_query(network, vertex_index)
        bf = maxrknnt_bruteforce(
            network, processor, start, end, tau, k=3, objective=MINIMIZE
        )
        pre = maxrknnt_pre(network, vertex_index, start, end, tau, objective=MINIMIZE)
        planned = planner.plan(start, end, tau, objective=MINIMIZE, use_dominance=False)
        assert bf.passengers == pre.passengers == planned.passengers

    def test_infeasible_budget_returns_none_everywhere(self, planning_setup):
        city, transitions, processor, network, vertex_index, planner = planning_setup
        start, end, _ = pick_query(network, vertex_index)
        tiny = vertex_index.shortest_distance(start, end) * 0.1
        assert maxrknnt_bruteforce(network, processor, start, end, tiny, k=3) is None
        assert maxrknnt_pre(network, vertex_index, start, end, tiny) is None
        assert planner.plan(start, end, tiny) is None

    def test_invalid_objective_rejected(self, planning_setup):
        city, transitions, processor, network, vertex_index, _ = planning_setup
        with pytest.raises(ValueError):
            maxrknnt_bruteforce(network, processor, 0, 1, 5.0, k=3, objective="avg")
        with pytest.raises(ValueError):
            maxrknnt_pre(network, vertex_index, 0, 1, 5.0, objective="avg")


class TestPruningStatistics:
    def test_reachability_pruning_reduces_expansions(self, planning_setup):
        _, _, _, network, vertex_index, planner = planning_setup
        start, end, tau = pick_query(network, vertex_index)
        with_pruning = planner.plan(start, end, tau, use_dominance=False)
        without_pruning = planner.plan(
            start, end, tau, use_dominance=False, use_reachability=False
        )
        assert with_pruning.passengers == without_pruning.passengers
        assert with_pruning.stats.expansions <= without_pruning.stats.expansions

    def test_dominance_counter_incremented_when_used(self, planning_setup):
        _, _, _, network, vertex_index, planner = planning_setup
        start, end, tau = pick_query(network, vertex_index)
        planned = planner.plan(start, end, tau)
        # The counter may legitimately be zero on tiny instances, but the
        # field must exist and be non-negative.
        assert planned.stats.pruned_by_dominance >= 0
        assert planned.stats.pruned_by_reachability >= 0
