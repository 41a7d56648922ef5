"""Shortest-path machinery for the bus network.

MaxRkNNT needs three ingredients from classical graph search:

* single-source Dijkstra (:func:`dijkstra`) — reachability bounds and the
  seed path of Yen's algorithm;
* all-pairs shortest distances (:func:`shortest_distance_rows`, with
  :func:`all_pairs_shortest_distances` as its dict view) — the matrix
  ``M_ψ`` of Algorithm 5 used by the ``checkReachability`` pruning.  It
  relaxes all sources at once in one label-correcting pass
  (:func:`repro.geometry.kernels.multi_source_distances`), bitwise equal
  to :func:`dijkstra`, the readable reference.  A textbook Floyd–Warshall
  (:func:`floyd_warshall`) is provided as the paper's reference algorithm;
* loopless path enumeration — Yen's k shortest paths
  (:func:`yen_k_shortest_paths`) and the threshold-bounded variant
  (:func:`enumerate_paths_within_distance`) that the brute-force MaxRkNNT
  baseline uses to collect every candidate route with ``ψ(R) ≤ τ``.
"""

from __future__ import annotations

import heapq
import math
from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.geometry import kernels
from repro.planning.graph import BusNetwork

Path = Tuple[int, ...]


def dijkstra(
    network: BusNetwork,
    source: int,
    target: Optional[int] = None,
    forbidden_vertices: Optional[Set[int]] = None,
    forbidden_edges: Optional[Set[Tuple[int, int]]] = None,
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Single-source shortest distances and predecessors.

    Parameters
    ----------
    source:
        Start vertex.
    target:
        Optional early-exit vertex: the search stops once the target is
        settled.
    forbidden_vertices / forbidden_edges:
        Vertices and (directed) edges the search must avoid; used by Yen's
        algorithm when computing spur paths.

    Returns
    -------
    (distances, predecessors)
        ``distances`` maps every settled vertex to its shortest distance from
        ``source``; ``predecessors`` maps each settled vertex (except the
        source) to the previous vertex on one shortest path.
    """
    if source not in network:
        raise KeyError(f"source vertex {source} not in network")
    forbidden_vertices = forbidden_vertices or set()
    forbidden_edges = forbidden_edges or set()
    if source in forbidden_vertices:
        return {}, {}

    distances: Dict[int, float] = {}
    predecessors: Dict[int, int] = {}
    tentative: Dict[int, float] = {source: 0.0}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        dist, vertex = heapq.heappop(heap)
        if vertex in distances:
            continue
        distances[vertex] = dist
        if target is not None and vertex == target:
            break
        for neighbor in network.neighbors(vertex):
            if neighbor in distances or neighbor in forbidden_vertices:
                continue
            if (vertex, neighbor) in forbidden_edges:
                continue
            candidate = dist + network.edge_weight(vertex, neighbor)
            if candidate < tentative.get(neighbor, math.inf):
                tentative[neighbor] = candidate
                predecessors[neighbor] = vertex
                heapq.heappush(heap, (candidate, neighbor))
    # Drop predecessor entries of unsettled vertices.
    predecessors = {v: p for v, p in predecessors.items() if v in distances}
    return distances, predecessors


def shortest_path(
    network: BusNetwork, source: int, target: int
) -> Tuple[float, Path]:
    """Shortest distance and one shortest vertex path from source to target.

    Returns ``(inf, ())`` when the target is unreachable.
    """
    distances, predecessors = dijkstra(network, source, target=target)
    if target not in distances:
        return math.inf, ()
    path: List[int] = [target]
    while path[-1] != source:
        path.append(predecessors[path[-1]])
    path.reverse()
    return distances[target], tuple(path)


def shortest_distance_rows(
    network: BusNetwork,
    sources: Optional[Sequence[int]] = None,
) -> Tuple[Dict[int, int], List[array]]:
    """All-pairs shortest distances ``M_ψ`` (Algorithm 5) as compact rows.

    Returns ``(column_of, rows)``: ``column_of`` maps every vertex to its
    column, and ``rows[i]`` is an ``array('d')`` of the shortest distances
    from ``sources[i]`` to every vertex (``inf`` when unreachable).  Blocks
    of sources are relaxed at once over an index-based adjacency list,
    label-correcting (:func:`repro.geometry.kernels.multi_source_distances`).
    That reaches the minimum over paths of the left-to-right
    ``distance + weight`` float sum, so every entry equals
    :func:`dijkstra`'s exactly.

    Parameters
    ----------
    sources:
        Restrict the computation to these source vertices (all by default).

    Raises
    ------
    KeyError
        If a source is not a vertex of the network.
    """
    vertices = list(network.vertices())
    column_of = {vertex: column for column, vertex in enumerate(vertices)}
    starts = []
    for source in vertices if sources is None else sources:
        if source not in column_of:
            raise KeyError(f"source vertex {source} not in network")
        starts.append(column_of[source])
    adjacency = [
        [
            (column_of[neighbor], network.edge_weight(vertex, neighbor))
            for neighbor in network.neighbors(vertex)
        ]
        for vertex in vertices
    ]
    return column_of, kernels.multi_source_distances(adjacency, starts)


def all_pairs_shortest_distances(
    network: BusNetwork,
    sources: Optional[Sequence[int]] = None,
) -> Dict[int, Dict[int, float]]:
    """All-pairs shortest distances ``M_ψ`` as ``{source: {vertex: d}}``.

    The dict view of :func:`shortest_distance_rows`: like :func:`dijkstra`,
    each row lists only the vertices reachable from its source.
    :func:`floyd_warshall` is provided separately as the paper's reference
    algorithm for small graphs.

    Parameters
    ----------
    sources:
        Restrict the computation to these source vertices (all by default).
    """
    vertices = list(sources) if sources is not None else list(network.vertices())
    column_of, rows = shortest_distance_rows(network, vertices)
    return {
        source: {
            vertex: row[column]
            for vertex, column in column_of.items()
            if row[column] != math.inf
        }
        for source, row in zip(vertices, rows)
    }


def floyd_warshall(network: BusNetwork) -> Dict[int, Dict[int, float]]:
    """Classic Floyd–Warshall all-pairs shortest distances (O(V^3)).

    Intended for small graphs and for cross-checking
    :func:`all_pairs_shortest_distances` in the test suite.
    """
    vertices = list(network.vertices())
    dist: Dict[int, Dict[int, float]] = {
        u: {v: (0.0 if u == v else math.inf) for v in vertices} for u in vertices
    }
    for u, v, weight in network.edges():
        if weight < dist[u][v]:
            dist[u][v] = weight
            dist[v][u] = weight
    for mid in vertices:
        dist_mid = dist[mid]
        for u in vertices:
            du_mid = dist[u][mid]
            if du_mid is math.inf:
                continue
            dist_u = dist[u]
            for v in vertices:
                candidate = du_mid + dist_mid[v]
                if candidate < dist_u[v]:
                    dist_u[v] = candidate
    return dist


def _path_distance(network: BusNetwork, path: Sequence[int]) -> float:
    return network.path_distance(path)


def yen_k_shortest_paths(
    network: BusNetwork, source: int, target: int, k: int
) -> List[Tuple[float, Path]]:
    """Yen's algorithm: the k shortest loopless paths from source to target.

    Returns at most ``k`` paths sorted by increasing travel distance.  Used by
    the brute-force MaxRkNNT baseline, which keeps requesting the next
    shortest path until the distance threshold ``τ`` is exceeded.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    best_distance, best_path = shortest_path(network, source, target)
    if not best_path:
        return []
    results: List[Tuple[float, Path]] = [(best_distance, best_path)]
    candidates: List[Tuple[float, Path]] = []
    seen_candidates: Set[Path] = {best_path}

    while len(results) < k:
        _, previous_path = results[-1]
        for spur_index in range(len(previous_path) - 1):
            spur_vertex = previous_path[spur_index]
            root_path = previous_path[: spur_index + 1]

            forbidden_edges: Set[Tuple[int, int]] = set()
            for _, accepted_path in results:
                if accepted_path[: spur_index + 1] == root_path and len(
                    accepted_path
                ) > spur_index + 1:
                    forbidden_edges.add(
                        (accepted_path[spur_index], accepted_path[spur_index + 1])
                    )
            forbidden_vertices = set(root_path[:-1])

            spur_distances, spur_predecessors = dijkstra(
                network,
                spur_vertex,
                target=target,
                forbidden_vertices=forbidden_vertices,
                forbidden_edges=forbidden_edges,
            )
            if target not in spur_distances:
                continue
            spur_path: List[int] = [target]
            while spur_path[-1] != spur_vertex:
                spur_path.append(spur_predecessors[spur_path[-1]])
            spur_path.reverse()
            total_path = root_path[:-1] + tuple(spur_path)
            if total_path in seen_candidates:
                continue
            seen_candidates.add(total_path)
            heapq.heappush(
                candidates, (_path_distance(network, total_path), total_path)
            )
        if not candidates:
            break
        results.append(heapq.heappop(candidates))
    return results


def enumerate_paths_within_distance(
    network: BusNetwork,
    source: int,
    target: int,
    max_distance: float,
    max_paths: Optional[int] = None,
) -> Iterator[Tuple[float, Path]]:
    """Every loopless path from source to target with ``ψ(path) ≤ max_distance``.

    This is the candidate generator of the brute-force MaxRkNNT baseline:
    "find all the candidate routes which meet the travel distance threshold
    constraint".  The enumeration is a depth-first search pruned by the
    shortest remaining distance to the target, so a prefix is abandoned as
    soon as it provably cannot reach the target within budget.

    Paths are yielded in depth-first order (not sorted by distance).

    Parameters
    ----------
    max_paths:
        Optional safety cap on the number of yielded paths.
    """
    if source not in network or target not in network:
        raise KeyError("source and target must be vertices of the network")
    if max_distance < 0:
        return
    # Lower bounds to the target prune hopeless prefixes.
    to_target, _ = dijkstra(network, target)
    if source not in to_target or to_target[source] > max_distance:
        return

    yielded = 0
    stack: List[Tuple[int, Tuple[int, ...], float]] = [(source, (source,), 0.0)]
    while stack:
        vertex, path, distance = stack.pop()
        if vertex == target:
            yield distance, path
            yielded += 1
            if max_paths is not None and yielded >= max_paths:
                return
            continue
        for neighbor in network.neighbors(vertex):
            if neighbor in path:
                continue
            new_distance = distance + network.edge_weight(vertex, neighbor)
            remaining = to_target.get(neighbor, math.inf)
            if new_distance + remaining > max_distance:
                continue
            stack.append((neighbor, path + (neighbor,), new_distance))
