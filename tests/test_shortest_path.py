"""Tests for Dijkstra, Floyd–Warshall, Yen's kSP and bounded path enumeration."""

import heapq
import math
from array import array

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.workloads import make_city
from repro.geometry import kernels
from repro.planning.graph import BusNetwork
from repro.planning.shortest_path import (
    all_pairs_shortest_distances,
    dijkstra,
    enumerate_paths_within_distance,
    floyd_warshall,
    shortest_distance_rows,
    shortest_path,
    yen_k_shortest_paths,
)


@pytest.fixture
def grid_network():
    network = BusNetwork()
    size = 4
    for row in range(size):
        for column in range(size):
            network.add_vertex(row * size + column, (float(column), float(row)))
    for row in range(size):
        for column in range(size):
            vertex = row * size + column
            if column + 1 < size:
                network.add_edge(vertex, vertex + 1)
            if row + 1 < size:
                network.add_edge(vertex, vertex + size)
    return network


def to_networkx(network: BusNetwork) -> nx.Graph:
    graph = nx.Graph()
    for vertex in network.vertices():
        graph.add_node(vertex)
    for u, v, weight in network.edges():
        graph.add_edge(u, v, weight=weight)
    return graph


def random_network(seed: int, vertices: int = 12, extra_edges: int = 8) -> BusNetwork:
    import random

    rng = random.Random(seed)
    network = BusNetwork()
    for vertex in range(vertices):
        network.add_vertex(vertex, (rng.uniform(0, 10), rng.uniform(0, 10)))
    # Chain for connectivity plus random chords.
    for vertex in range(vertices - 1):
        network.add_edge(vertex, vertex + 1)
    for _ in range(extra_edges):
        u, v = rng.sample(range(vertices), 2)
        if not network.has_edge(u, v):
            network.add_edge(u, v)
    return network


class TestDijkstra:
    def test_distances_on_grid(self, grid_network):
        distances, _ = dijkstra(grid_network, 0)
        assert distances[0] == 0.0
        assert distances[3] == pytest.approx(3.0)
        assert distances[15] == pytest.approx(6.0)

    def test_early_exit_with_target(self, grid_network):
        distances, _ = dijkstra(grid_network, 0, target=5)
        assert 5 in distances

    def test_unknown_source_raises(self, grid_network):
        with pytest.raises(KeyError):
            dijkstra(grid_network, 999)

    def test_forbidden_vertices(self, grid_network):
        # Block most of the second row; the path to vertex 8 must detour all
        # the way around via the last column.
        distances, _ = dijkstra(grid_network, 0, forbidden_vertices={4, 5, 6})
        assert distances[8] == pytest.approx(8.0)

    def test_forbidden_source_returns_empty(self, grid_network):
        distances, predecessors = dijkstra(grid_network, 0, forbidden_vertices={0})
        assert distances == {}
        assert predecessors == {}

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_matches_networkx(self, seed):
        network = random_network(seed)
        reference = to_networkx(network)
        distances, _ = dijkstra(network, 0)
        expected = nx.single_source_dijkstra_path_length(reference, 0)
        assert set(distances) == set(expected)
        for vertex, distance in expected.items():
            assert distances[vertex] == pytest.approx(distance)


class TestShortestPath:
    def test_path_endpoints_and_distance(self, grid_network):
        distance, path = shortest_path(grid_network, 0, 15)
        assert path[0] == 0 and path[-1] == 15
        assert distance == pytest.approx(6.0)
        assert grid_network.path_distance(path) == pytest.approx(distance)

    def test_unreachable_target(self):
        network = BusNetwork()
        network.add_vertex(0, (0, 0))
        network.add_vertex(1, (5, 5))
        distance, path = shortest_path(network, 0, 1)
        assert math.isinf(distance)
        assert path == ()

    def test_source_equals_target(self, grid_network):
        distance, path = shortest_path(grid_network, 3, 3)
        assert distance == 0.0
        assert path == (3,)


class TestAllPairs:
    def test_matches_floyd_warshall(self):
        network = random_network(5, vertices=9, extra_edges=6)
        dijkstra_matrix = all_pairs_shortest_distances(network)
        fw_matrix = floyd_warshall(network)
        for u in network.vertices():
            for v in network.vertices():
                assert dijkstra_matrix[u].get(v, math.inf) == pytest.approx(
                    fw_matrix[u][v]
                )

    def test_restricted_sources(self, grid_network):
        matrix = all_pairs_shortest_distances(grid_network, sources=[0, 15])
        assert set(matrix) == {0, 15}

    def test_symmetry(self, grid_network):
        matrix = all_pairs_shortest_distances(grid_network)
        for u in grid_network.vertices():
            for v in grid_network.vertices():
                assert matrix[u][v] == pytest.approx(matrix[v][u])


@st.composite
def sparse_networks(draw):
    """Random networks with shuffled, non-contiguous vertex ids, possibly
    disconnected, with tied (including zero) and irrational edge weights."""
    count = draw(st.integers(min_value=1, max_value=14))
    ids = draw(st.permutations([3 * i + 7 for i in range(count)]))
    network = BusNetwork()
    for vertex in ids:
        network.add_vertex(
            vertex,
            (draw(st.integers(0, 9)) * 1.1, draw(st.integers(0, 9)) * 0.7),
        )
    weight = st.one_of(
        st.none(),  # Euclidean distance
        st.sampled_from([0.0, 1.0, 0.1, 0.2, 0.30000000000000004]),
    )
    if count > 1:
        pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
        for u, v in draw(st.lists(pairs, max_size=3 * count)):
            if u != v:
                network.add_edge(u, v, draw(weight))
    return network, ids


def assert_rows_equal_dijkstra(network, sources):
    """Every entry of ``M_ψ`` is :func:`dijkstra`'s float, bit for bit."""
    column_of, rows = shortest_distance_rows(network, sources)
    assert len(rows) == len(sources)
    for source, row in zip(sources, rows):
        distances, _ = dijkstra(network, source)
        for vertex, column in column_of.items():
            assert row[column] == distances.get(vertex, math.inf)
    return column_of, rows


@pytest.fixture(
    scope="class",
    params=[1, 3, kernels.SHORTEST_PATH_BLOCK],
    ids=lambda block: f"block{block}",
)
def source_block(request):
    """Relax this many sources together: one at a time, a size that leaves a
    partial last block, and the default (one block for these small graphs)."""
    saved = kernels.SHORTEST_PATH_BLOCK
    kernels.SHORTEST_PATH_BLOCK = request.param
    yield request.param
    kernels.SHORTEST_PATH_BLOCK = saved


@pytest.mark.usefixtures("source_block")
class TestShortestDistanceRows:
    @settings(max_examples=80, deadline=None)
    @given(case=sparse_networks(), data=st.data())
    def test_every_entry_equals_dijkstra_exactly(self, case, data):
        network, ids = case
        sources = data.draw(
            st.one_of(st.none(), st.lists(st.sampled_from(ids), max_size=len(ids)))
        )
        column_of, rows = shortest_distance_rows(network, sources)
        expected_sources = ids if sources is None else sources
        assert sorted(column_of) == sorted(ids)
        assert len(rows) == len(expected_sources)
        for source, row in zip(expected_sources, rows):
            distances, _ = dijkstra(network, source)
            for vertex in ids:
                assert row[column_of[vertex]] == distances.get(vertex, math.inf)

    @settings(max_examples=40, deadline=None)
    @given(case=sparse_networks())
    def test_dict_view_equals_dijkstra_exactly(self, case):
        network, ids = case
        expected = {source: dijkstra(network, source)[0] for source in ids}
        assert all_pairs_shortest_distances(network) == expected

    def test_unknown_source_raises(self, grid_network):
        with pytest.raises(KeyError):
            shortest_distance_rows(grid_network, [0, 999])

    def test_duplicate_sources_repeat_rows(self, grid_network):
        _, rows = assert_rows_equal_dijkstra(grid_network, [5, 0, 5, 5])
        assert rows[0] == rows[2] == rows[3]
        assert rows[0] is not rows[2]

    def test_empty_sources(self, grid_network):
        column_of, rows = shortest_distance_rows(grid_network, [])
        assert sorted(column_of) == sorted(grid_network.vertices())
        assert rows == []
        empty = BusNetwork()
        assert shortest_distance_rows(empty) == ({}, [])

    def test_disconnected_components(self):
        network = BusNetwork()
        for vertex in range(6):
            network.add_vertex(vertex, (float(vertex), 0.0))
        network.add_edge(0, 1)
        network.add_edge(1, 2)
        network.add_edge(3, 4)  # vertex 5 is isolated
        column_of, rows = assert_rows_equal_dijkstra(network, list(range(6)))
        assert math.isinf(rows[0][column_of[3]])
        assert rows[5][column_of[5]] == 0.0
        assert [d for d in rows[5] if d != math.inf] == [0.0]

    def test_zero_weight_edges(self):
        network = BusNetwork()
        for vertex in range(5):
            network.add_vertex(vertex, (float(vertex), 0.0))
        for u, v, weight in [(0, 1, 0.0), (1, 2, 0.0), (2, 3, 0.1), (0, 3, 0.1), (3, 4, 0.0)]:
            network.add_edge(u, v, weight)
        column_of, rows = assert_rows_equal_dijkstra(network, list(range(5)))
        assert rows[0][column_of[2]] == 0.0
        assert rows[0][column_of[4]] == 0.1



@pytest.mark.parametrize("preset", ["la", "nyc", "mini"])
def test_preset_networks_equal_dijkstra_bitwise(preset):
    """On the benchmark cities every row of ``M_ψ`` equals :func:`dijkstra`,
    byte for byte."""
    network = make_city(preset)[0].network
    sources = list(network.vertices())
    column_of, rows = shortest_distance_rows(network, sources)
    for source, row in zip(sources, rows):
        distances, _ = dijkstra(network, source)
        expected = array("d", [distances.get(vertex, math.inf) for vertex in column_of])
        assert row.tobytes() == expected.tobytes()


def heap_dijkstra(adjacency, source):
    """Textbook Dijkstra over a directed index adjacency list."""
    distances = [math.inf] * len(adjacency)
    distances[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        distance, vertex = heapq.heappop(heap)
        if distance > distances[vertex]:
            continue
        for head, weight in adjacency[vertex]:
            candidate = distance + weight
            if candidate < distances[head]:
                distances[head] = candidate
                heapq.heappush(heap, (candidate, head))
    return distances


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_multi_source_distances_on_directed_graphs(data):
    """The kernel follows edges one way only, and parallel edges keep the
    lightest weight: each row equals a heap Dijkstra's, bit for bit."""
    count = data.draw(st.integers(min_value=1, max_value=10))
    vertex = st.integers(min_value=0, max_value=count - 1)
    weight = st.sampled_from([0.0, 0.1, 0.2, 0.30000000000000004, 1.0, 2.5])
    adjacency = [[] for _ in range(count)]
    for tail, head, w in data.draw(
        st.lists(st.tuples(vertex, vertex, weight), max_size=3 * count)
    ):
        adjacency[tail].append((head, w))
    sources = data.draw(st.lists(vertex, max_size=2 * count))
    rows = kernels.multi_source_distances(adjacency, sources)
    assert len(rows) == len(sources)
    for source, row in zip(sources, rows):
        expected = array("d", heap_dijkstra(adjacency, source))
        assert row.tobytes() == expected.tobytes()


class TestYen:
    def test_first_path_is_shortest(self, grid_network):
        paths = yen_k_shortest_paths(grid_network, 0, 15, 3)
        assert len(paths) == 3
        best_distance, best_path = paths[0]
        reference_distance, _ = shortest_path(grid_network, 0, 15)
        assert best_distance == pytest.approx(reference_distance)

    def test_paths_sorted_and_loopless(self, grid_network):
        paths = yen_k_shortest_paths(grid_network, 0, 15, 6)
        distances = [d for d, _ in paths]
        assert distances == sorted(distances)
        for _, path in paths:
            assert len(path) == len(set(path))
            assert path[0] == 0 and path[-1] == 15

    def test_paths_are_distinct(self, grid_network):
        paths = yen_k_shortest_paths(grid_network, 0, 15, 8)
        assert len({path for _, path in paths}) == len(paths)

    def test_matches_networkx_ranking(self, grid_network):
        reference = to_networkx(grid_network)
        expected = []
        generator = nx.shortest_simple_paths(reference, 0, 15, weight="weight")
        for _ in range(5):
            path = next(generator)
            expected.append(
                sum(
                    reference[u][v]["weight"]
                    for u, v in zip(path, path[1:])
                )
            )
        actual = [d for d, _ in yen_k_shortest_paths(grid_network, 0, 15, 5)]
        assert actual == pytest.approx(expected)

    def test_disconnected_returns_empty(self):
        network = BusNetwork()
        network.add_vertex(0, (0, 0))
        network.add_vertex(1, (1, 1))
        assert yen_k_shortest_paths(network, 0, 1, 3) == []

    def test_invalid_k(self, grid_network):
        with pytest.raises(ValueError):
            yen_k_shortest_paths(grid_network, 0, 1, 0)


class TestEnumeratePathsWithinDistance:
    def test_all_paths_respect_budget(self, grid_network):
        budget = 8.0
        paths = list(enumerate_paths_within_distance(grid_network, 0, 15, budget))
        assert paths
        for distance, path in paths:
            assert distance <= budget + 1e-9
            assert path[0] == 0 and path[-1] == 15
            assert len(path) == len(set(path))
            assert grid_network.path_distance(path) == pytest.approx(distance)

    def test_matches_networkx_simple_paths(self, grid_network):
        budget = 8.0
        reference = to_networkx(grid_network)
        expected = set()
        for path in nx.all_simple_paths(reference, 0, 15):
            distance = sum(
                reference[u][v]["weight"] for u, v in zip(path, path[1:])
            )
            if distance <= budget:
                expected.add(tuple(path))
        actual = {
            path for _, path in enumerate_paths_within_distance(grid_network, 0, 15, budget)
        }
        assert actual == expected

    def test_budget_below_shortest_yields_nothing(self, grid_network):
        assert list(enumerate_paths_within_distance(grid_network, 0, 15, 5.9)) == []

    def test_max_paths_cap(self, grid_network):
        paths = list(
            enumerate_paths_within_distance(grid_network, 0, 15, 10.0, max_paths=3)
        )
        assert len(paths) == 3

    def test_unknown_vertices_raise(self, grid_network):
        with pytest.raises(KeyError):
            list(enumerate_paths_within_distance(grid_network, 0, 999, 5.0))
