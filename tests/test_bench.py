"""Tests for the benchmark support package (parameters, harness, reporting)."""

import pytest

from repro.bench.harness import (
    METHOD_LABELS,
    build_benchmark_city,
    sweep_parameter,
    time_rknnt_methods,
)
from repro.bench.heatmap import DENSITY_RAMP, density_grid, format_density_grid
from repro.bench.parameters import (
    DEFAULT_K,
    DEFAULT_QUERY_LENGTH,
    K_VALUES,
    QUERY_LENGTH_VALUES,
    BenchmarkScale,
    get_scale,
)
from repro.bench.reporting import (
    format_histogram,
    format_series,
    format_table,
    summarize_distribution,
)
from repro.core.rknnt import FILTER_REFINE, METHODS, VORONOI


class TestParameters:
    def test_defaults_are_in_grids(self):
        assert DEFAULT_K in K_VALUES
        assert DEFAULT_QUERY_LENGTH in QUERY_LENGTH_VALUES

    def test_get_scale_known_names(self):
        for name in ("smoke", "small", "full"):
            scale = get_scale(name)
            assert isinstance(scale, BenchmarkScale)
            assert scale.name == name

    def test_get_scale_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
        assert get_scale().name == "small"
        monkeypatch.delenv("REPRO_BENCH_SCALE")
        assert get_scale().name == "smoke"

    def test_get_scale_unknown(self):
        with pytest.raises(ValueError):
            get_scale("galactic")

    def test_scales_are_ordered(self):
        assert (
            get_scale("smoke").queries_per_point
            <= get_scale("small").queries_per_point
            <= get_scale("full").queries_per_point
        )


class TestHarness:
    @pytest.fixture(scope="class")
    def bench_bundle(self):
        return build_benchmark_city("mini", get_scale("smoke"))

    def test_build_benchmark_city(self, bench_bundle):
        city, transitions, processor, workload = bench_bundle
        assert len(city.routes) > 0
        assert len(transitions) > 0
        assert processor.routes is city.routes

    def test_time_rknnt_methods(self, bench_bundle):
        _, _, processor, workload = bench_bundle
        queries = workload.query_routes(2, 3, 1.0)
        timings = time_rknnt_methods(processor, queries, k=2)
        assert [t.method for t in timings] == list(METHODS)
        for timing in timings:
            assert timing.total_seconds >= 0.0
            assert timing.label in METHOD_LABELS.values()
            row = timing.as_row()
            assert set(row) == {
                "method",
                "total_s",
                "filter_s",
                "verify_s",
                "candidates",
                "avg_results",
            }

    def test_methods_return_same_result_sizes(self, bench_bundle):
        _, _, processor, workload = bench_bundle
        queries = workload.query_routes(2, 3, 1.0)
        timings = time_rknnt_methods(processor, queries, k=2)
        sizes = {round(t.result_size, 6) for t in timings}
        assert len(sizes) == 1

    def test_sweep_parameter_k(self, bench_bundle):
        _, _, processor, workload = bench_bundle
        sweep = sweep_parameter(
            processor,
            workload,
            parameter="k",
            values=[1, 4],
            queries_per_value=1,
            k=2,
            query_length=3,
            interval=1.0,
            methods=(FILTER_REFINE, VORONOI),
        )
        assert sweep.values == [1, 4]
        rows = sweep.rows()
        assert len(rows) == 4  # two values × two methods
        series = sweep.series(FILTER_REFINE)
        assert [value for value, _ in series] == [1, 4]

    def test_sweep_parameter_validation(self, bench_bundle):
        _, _, processor, workload = bench_bundle
        with pytest.raises(ValueError):
            sweep_parameter(
                processor,
                workload,
                parameter="walk_radius",
                values=[1],
                queries_per_value=1,
                k=1,
                query_length=3,
                interval=1.0,
            )


class TestReporting:
    def test_format_table_alignment(self):
        rows = [
            {"k": 1, "time": 0.5},
            {"k": 10, "time": 12.25},
        ]
        text = format_table(rows, title="Figure 9")
        lines = text.splitlines()
        assert lines[0] == "Figure 9"
        assert "k" in lines[1] and "time" in lines[1]
        assert len(lines) == 2 + 2 + 1  # title + header + separator + rows

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_series(self):
        series = {"FR": [(1, 0.1), (5, 0.5)], "VO": [(1, 0.05), (5, 0.2)]}
        text = format_series(series, x_label="k", y_label="s")
        assert "FR s" in text and "VO s" in text
        assert text.count("\n") >= 3

    def test_format_histogram_bins(self):
        text = format_histogram([1, 1, 2, 3, 10], bins=3, title="dist")
        assert text.startswith("dist")
        assert text.count("\n") == 3
        assert "#" in text

    def test_format_histogram_empty_and_constant(self):
        assert "(no values)" in format_histogram([])
        assert "≈" in format_histogram([2.0, 2.0, 2.0])

    def test_summarize_distribution(self):
        summary = summarize_distribution([1.0, 2.0, 3.0, 4.0])
        assert summary["count"] == 4
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["median"] == pytest.approx(2.5)
        assert summarize_distribution([]) == {"count": 0}


class TestHeatmap:
    def test_density_grid_counts_all_points(self):
        points = [(0.1, 0.1), (0.9, 0.9), (0.5, 0.5), (2.0, 2.0)]  # last is clamped
        grid = density_grid(points, bounds=(0, 0, 1, 1), rows=2, columns=2)
        assert sum(sum(row) for row in grid) == 4

    def test_density_grid_validation(self):
        with pytest.raises(ValueError):
            density_grid([], bounds=(0, 0, 1, 1), rows=0, columns=5)
        with pytest.raises(ValueError):
            density_grid([], bounds=(1, 1, 0, 0))

    def test_format_density_grid(self):
        grid = [[0, 1], [5, 0]]
        text = format_density_grid(grid, title="routes")
        lines = text.splitlines()
        assert lines[0] == "routes"
        assert len(lines) == 3
        assert any(ch in DENSITY_RAMP[1:] for ch in "".join(lines[1:]))

    def test_format_empty_grid(self):
        assert "(no points)" in format_density_grid([[0, 0], [0, 0]])
