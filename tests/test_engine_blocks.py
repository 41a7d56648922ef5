"""Block-expansion traversal and chunked route-matrix equivalence tests.

The block-expansion filter traversal must make *identical* decisions on
both backends: same confirmed endpoints, same node visit counts, same
pruning counts, same filter set — per method.  Likewise the chunked
verification matrix must confirm exactly the same endpoints for any
block-row bound, and the block-expanding kNN traversals must agree with the
brute-force count.
"""

import pytest

from repro.core.baseline import rknnt_bruteforce
from repro.core.knn import count_routes_within, count_routes_within_sq
from repro.core.rknnt import METHODS, RkNNTProcessor
from repro.engine.context import (
    DEFAULT_MATRIX_BLOCK_ROWS,
    MATRIX_BLOCK_ROWS_ENV,
    matrix_block_rows,
)
from repro.engine.executor import run_stages
from repro.engine.plan import QueryPlan
from repro.geometry import kernels
from repro.geometry.bbox import BoundingBox
from repro.index.route_index import RouteIndex

K = 3

#: Traversal counters that must match exactly between the two backends.
TRAVERSAL_COUNTERS = (
    "route_nodes_visited",
    "transition_nodes_visited",
    "filter_points",
    "nodes_pruned",
    "candidates",
    "confirmed_points",
    "subqueries",
)


@pytest.fixture(scope="module")
def block_queries(mini_workload):
    queries = mini_workload.query_routes(5, length=4, interval=0.8)
    queries.append(queries[0][:1])
    return queries


class TestBlockTraversalEquivalence:
    @pytest.mark.parametrize("method", METHODS)
    def test_results_and_visit_counts_identical(
        self, mini_processor, block_queries, method
    ):
        context = mini_processor.engine_context
        for query in block_queries:
            confirmed_python, stats_python = run_stages(
                context, query, K, QueryPlan.for_method(method, backend="python")
            )
            confirmed_numpy, stats_numpy = run_stages(
                context, query, K, QueryPlan.for_method(method, backend="numpy")
            )
            assert confirmed_numpy == confirmed_python
            for counter in TRAVERSAL_COUNTERS:
                assert getattr(stats_numpy, counter) == getattr(
                    stats_python, counter
                ), counter


class TestBlockKernels:
    def test_boxes_min_max_match_scalar_bbox(self, rng):
        boxes = []
        for _ in range(40):
            x0, y0 = rng.uniform(-10, 10), rng.uniform(-10, 10)
            boxes.append(
                (x0, y0, x0 + rng.uniform(0, 5), y0 + rng.uniform(0, 5))
            )
        boxes.append((1.0, 1.0, 1.0, 1.0))  # degenerate
        for _ in range(10):
            point = (rng.uniform(-12, 12), rng.uniform(-12, 12))
            mins, maxs = kernels.boxes_min_max_dist_sq_to_point(boxes, point)
            for box, got_min, got_max in zip(boxes, mins, maxs):
                bbox = BoundingBox(*box)
                assert got_min == bbox.min_dist_sq(point)
                assert got_max == bbox.max_dist_sq(point)

    def test_points_dist_sq_matches_scalar(self, rng):
        points = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(25)]
        target = (0.5, -1.25)
        distances = kernels.points_dist_sq_to_point(points, target)
        for (x, y), got in zip(points, distances):
            dx, dy = x - target[0], y - target[1]
            assert got == dx * dx + dy * dy

    def test_empty_blocks(self):
        mins, maxs = kernels.boxes_min_max_dist_sq_to_point([], (0.0, 0.0))
        assert len(mins) == 0 and len(maxs) == 0
        assert len(kernels.points_dist_sq_to_point([], (0.0, 0.0))) == 0


class TestBlockKnnTraversal:
    def test_count_matches_bruteforce(self, mini_city, rng):
        index = RouteIndex(mini_city.routes, max_entries=8)
        for _ in range(25):
            point = (rng.uniform(-2, 12), rng.uniform(-2, 12))
            threshold = rng.uniform(0.2, 8.0)
            expected = sum(
                1
                for route in mini_city.routes
                if route.distance_to_point(point) < threshold
            )
            assert count_routes_within(index, point, threshold) == expected
            assert (
                count_routes_within_sq(index, point, threshold * threshold)
                == expected
            )

    def test_python_backend_never_touches_kernels(self, mini_city, monkeypatch):
        # The scalar verification path promises to stay off the numpy
        # machinery; make any kernel call explode to prove it does.
        def boom(*args, **kwargs):
            raise AssertionError("kernel touched on the python backend")

        monkeypatch.setattr(kernels, "points_dist_sq_to_point", boom)
        monkeypatch.setattr(kernels, "boxes_min_max_dist_sq_to_point", boom)
        index = RouteIndex(mini_city.routes, max_entries=8)
        point, threshold = (3.0, 3.0), 4.0
        expected = sum(
            1
            for route in mini_city.routes
            if route.distance_to_point(point) < threshold
        )
        assert (
            count_routes_within_sq(
                index, point, threshold * threshold, backend="python"
            )
            == expected
        )

    def test_stop_at_and_exclusions(self, mini_city):
        index = RouteIndex(mini_city.routes, max_entries=8)
        point = (5.0, 5.0)
        full = count_routes_within_sq(index, point, 100.0)
        assert full == len(mini_city.routes)
        capped = count_routes_within_sq(index, point, 100.0, stop_at=2)
        assert capped >= 2
        one_excluded = count_routes_within_sq(
            index,
            point,
            100.0,
            exclude_route_ids={next(iter(mini_city.routes)).route_id},
        )
        assert one_excluded == full - 1


class TestChunkedRouteMatrix:
    def test_block_rows_knob(self, monkeypatch):
        monkeypatch.delenv(MATRIX_BLOCK_ROWS_ENV, raising=False)
        assert matrix_block_rows() == DEFAULT_MATRIX_BLOCK_ROWS
        monkeypatch.setenv(MATRIX_BLOCK_ROWS_ENV, "64")
        assert matrix_block_rows() == 64
        monkeypatch.setenv(MATRIX_BLOCK_ROWS_ENV, "not-a-number")
        assert matrix_block_rows() == DEFAULT_MATRIX_BLOCK_ROWS
        monkeypatch.setenv(MATRIX_BLOCK_ROWS_ENV, "-5")
        assert matrix_block_rows() == DEFAULT_MATRIX_BLOCK_ROWS

    def test_blocks_cover_every_route_once(self, mini_city, mini_transitions, monkeypatch):
        monkeypatch.setenv(MATRIX_BLOCK_ROWS_ENV, "16")
        processor = RkNNTProcessor(mini_city.routes, mini_transitions)
        matrix = processor.engine_context.route_matrix()
        assert len(matrix.blocks) > 1
        seen = [
            route_id
            for block in matrix.blocks
            for route_id in block.column_route_ids
        ]
        assert len(seen) == len(set(seen)) == matrix.route_count
        # No block exceeds the bound unless a single route alone does.
        for block in matrix.blocks:
            if block.route_count > 1:
                assert len(block.points) <= 16

    def test_chunked_answers_identical(
        self, mini_city, mini_transitions, block_queries, monkeypatch
    ):
        processor = RkNNTProcessor(mini_city.routes, mini_transitions)
        baseline = processor.query_batch(block_queries, K, backend="numpy")
        monkeypatch.setenv(MATRIX_BLOCK_ROWS_ENV, "8")
        processor.engine_context.clear_caches()
        chunked = processor.query_batch(block_queries, K, backend="numpy")
        assert len(processor.engine_context.route_matrix().blocks) > 1
        for query, expected, actual in zip(block_queries, baseline, chunked):
            assert actual.confirmed_endpoints == expected.confirmed_endpoints
            oracle = rknnt_bruteforce(
                mini_city.routes, mini_transitions, query, K
            )
            assert actual.transition_ids == oracle.transition_ids
