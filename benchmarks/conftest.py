"""Shared fixtures for the benchmark suite.

Every benchmark reproduces one table or figure of the paper (see DESIGN.md
for the index).  Datasets are scaled-down synthetic stand-ins for the paper's
NYC / LA data; the scale is controlled by the ``REPRO_BENCH_SCALE``
environment variable (``smoke`` by default, ``small`` / ``full`` for more
faithful runs).

Each benchmark writes the rows/series it reproduces to
``benchmarks/results/<name>.txt`` so the shapes can be compared against the
paper after the run (EXPERIMENTS.md records one such comparison).
"""

from __future__ import annotations

import os
from typing import Callable

import pytest

from repro.bench.harness import build_benchmark_city
from repro.bench.parameters import get_scale
from repro.planning.maxrknnt import MaxRkNNTPlanner
from repro.planning.precompute import VertexRkNNTIndex

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: k used for the planning benchmarks (the paper pre-computes k = 10; the
#: scaled cities have fewer routes so a smaller default keeps results
#: non-degenerate).
PLANNING_K = 5


@pytest.fixture(scope="session")
def bench_scale():
    return get_scale()


@pytest.fixture(scope="session")
def la_bundle(bench_scale):
    """(city, transitions, processor, workload) for the LA-like dataset."""
    return build_benchmark_city("la", bench_scale)


@pytest.fixture(scope="session")
def nyc_bundle(bench_scale):
    """(city, transitions, processor, workload) for the NYC-like dataset."""
    return build_benchmark_city("nyc", bench_scale)


@pytest.fixture(scope="session")
def la_vertex_index(la_bundle):
    """Pre-computed per-vertex RkNNT index for the LA-like network."""
    city, _, processor, _ = la_bundle
    index = VertexRkNNTIndex(city.network, processor, k=PLANNING_K)
    index.build()
    return index


@pytest.fixture(scope="session")
def nyc_vertex_index(nyc_bundle):
    """Pre-computed per-vertex RkNNT index for the NYC-like network."""
    city, _, processor, _ = nyc_bundle
    index = VertexRkNNTIndex(city.network, processor, k=PLANNING_K)
    index.build()
    return index


@pytest.fixture(scope="session")
def la_planner(la_bundle, la_vertex_index):
    city, _, _, _ = la_bundle
    return MaxRkNNTPlanner(city.network, la_vertex_index)


@pytest.fixture(scope="session")
def nyc_planner(nyc_bundle, nyc_vertex_index):
    city, _, _, _ = nyc_bundle
    return MaxRkNNTPlanner(city.network, nyc_vertex_index)


@pytest.fixture(scope="session")
def write_result() -> Callable[[str, str], str]:
    """Write a reproduction artefact to benchmarks/results/<name>.txt."""

    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _write(name: str, text: str) -> str:
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.rstrip() + "\n")
        # Also echo to stdout so `pytest -s` shows it inline.
        print(f"\n--- {name} ---")
        print(text)
        return path

    return _write


def _planning_query_for(bundle, vertex_index, straight_distance, ratio=1.4):
    """A (start, end, tau) planning query scaled to the benchmark city."""
    city, _, _, workload = bundle
    scale = get_scale()
    target = straight_distance * scale.distance_scale
    for _ in range(30):
        start, end = workload.planning_query(target, tolerance=0.5)
        shortest = vertex_index.shortest_distance(start, end)
        if shortest != float("inf"):
            return start, end, shortest * ratio
    # Fall back to any pair on the same connected component.
    for start in city.network.vertices():
        for end in city.network.vertices():
            if start == end:
                continue
            shortest = vertex_index.shortest_distance(start, end)
            if shortest != float("inf") and shortest >= target / 2:
                return start, end, shortest * ratio
    raise RuntimeError("could not build a reachable planning query")


@pytest.fixture(scope="session")
def planning_query_for():
    """Callable fixture: (bundle, vertex_index, ψ(se)[, ratio]) → (start, end, τ)."""
    return _planning_query_for


@pytest.fixture(scope="session")
def planning_k():
    return PLANNING_K
