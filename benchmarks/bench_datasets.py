"""Tables 2 and 3: dataset statistics (routes, graph size, transitions).

The paper reports |DR|, |G.E| and |G.V| per route dataset (Table 2) and
|DT| plus the bounding box per transition dataset (Table 3).  The synthetic
stand-ins are smaller, but the *relative* relationship must hold: the NYC
dataset has more routes, more graph vertices/edges and more transitions than
the LA dataset.
"""

from __future__ import annotations

from repro.bench.reporting import format_table


def dataset_rows(name, bundle):
    city, transitions, _, _ = bundle
    box = transitions.bbox
    return {
        "dataset": name,
        "|DR|": len(city.routes),
        "|G.E|": city.network.edge_count,
        "|G.V|": city.network.vertex_count,
        "|DT|": len(transitions),
        "bbox": f"[{box.min_x:.1f},{box.min_y:.1f}]x[{box.max_x:.1f},{box.max_y:.1f}]",
    }


def test_table2_table3_dataset_statistics(benchmark, la_bundle, nyc_bundle, write_result):
    la_row = dataset_rows("LA-like", la_bundle)
    nyc_row = dataset_rows("NYC-like", nyc_bundle)

    # Relative shape of Tables 2-3: NYC is the larger dataset on every axis.
    assert nyc_row["|DR|"] > la_row["|DR|"]
    assert nyc_row["|DT|"] > la_row["|DT|"]
    assert nyc_row["|G.V|"] > 0 and nyc_row["|G.E|"] > 0

    text = format_table(
        [la_row, nyc_row],
        title="Tables 2 & 3 — dataset statistics (scaled synthetic stand-ins)",
    )
    write_result("table2_table3_datasets", text)

    # Benchmark the cost of building the route index (the operation the
    # dataset statistics feed into).
    from repro.index.route_index import RouteIndex

    city, _, _, _ = la_bundle
    benchmark(lambda: RouteIndex(city.routes, max_entries=16))
