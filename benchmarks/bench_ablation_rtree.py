"""Ablation: STR bulk loading vs incremental insertion for the RR-tree.

DESIGN.md builds the RR-tree / TR-tree with Sort-Tile-Recursive packing and
uses Guttman insertion only for transitions that arrive later.  This ablation
quantifies that choice: it builds the same route index both ways and compares
(a) construction cost and (b) query cost of the best-first traversal that the
RkNNT filter phase relies on.

Invariants asserted (deterministic, scale-independent):

* both trees index exactly the same entries and answer nearest-neighbour
  queries identically;
* the bulk-loaded tree is never taller than the incrementally built one.
"""

from __future__ import annotations

import time

from repro.bench.reporting import format_table
from repro.index.inverted import point_key
from repro.index.rtree import RTree, RTreeEntry


def route_point_entries(routes):
    """Deduplicated route-point entries exactly as RouteIndex builds them."""
    routes_by_point = {}
    for route in routes:
        for point in route.points:
            routes_by_point.setdefault(point_key(point), set()).add(route.route_id)
    return [
        RTreeEntry(location, frozenset(ids))
        for location, ids in routes_by_point.items()
    ]


def build_bulk(entries):
    return RTree.bulk_load(entries, max_entries=16, track_payload_union=True)


def build_incremental(entries):
    # No payload unions: a tree that keeps them is static and refuses
    # inserts.  Neither traversal below reads them.
    tree = RTree(max_entries=16)
    for entry in entries:
        tree.insert(RTreeEntry(entry.point, entry.payload))
    return tree


def test_ablation_bulk_load_vs_incremental(benchmark, la_bundle, write_result):
    city, _, _, workload = la_bundle
    entries = route_point_entries(city.routes)

    started = time.perf_counter()
    bulk_tree = build_bulk(entries)
    bulk_seconds = time.perf_counter() - started

    started = time.perf_counter()
    incremental_tree = build_incremental(entries)
    incremental_seconds = time.perf_counter() - started

    # Both trees hold the same data and give identical answers.
    assert len(bulk_tree) == len(incremental_tree) == len(entries)
    probes = [q[0] for q in workload.query_routes(10, 1, 1.0)]
    for probe in probes:
        bulk_nearest = bulk_tree.nearest_neighbors(probe, k=3)
        incremental_nearest = incremental_tree.nearest_neighbors(probe, k=3)
        assert [round(d, 9) for d, _ in bulk_nearest] == [
            round(d, 9) for d, _ in incremental_nearest
        ]
    assert bulk_tree.height() <= incremental_tree.height()

    # Query cost of the best-first traversal over both trees.
    def drain(tree):
        total = 0
        for probe in probes:
            for _ in tree.iter_nearest(probe):
                total += 1
        return total

    started = time.perf_counter()
    drain(bulk_tree)
    bulk_query_seconds = time.perf_counter() - started
    started = time.perf_counter()
    drain(incremental_tree)
    incremental_query_seconds = time.perf_counter() - started

    rows = [
        {
            "strategy": "STR bulk load",
            "build_s": bulk_seconds,
            "height": bulk_tree.height(),
            "full_scan_s": bulk_query_seconds,
        },
        {
            "strategy": "incremental insert",
            "build_s": incremental_seconds,
            "height": incremental_tree.height(),
            "full_scan_s": incremental_query_seconds,
        },
    ]
    write_result(
        "ablation_rtree_bulk_load",
        format_table(
            rows, title="Ablation — RR-tree construction: STR bulk load vs insertion"
        ),
    )

    benchmark(build_bulk, entries)
