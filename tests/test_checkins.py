"""Tests for the transition (check-in) generator."""

import statistics

import pytest

from repro.data.checkins import TransitionGenerator
from repro.data.synthetic import CityGenerator
from repro.model.dataset import RouteDataset


@pytest.fixture(scope="module")
def routes():
    return CityGenerator(width=10, height=10, grid_spacing=1.5, seed=5).generate(8).routes


class TestValidation:
    def test_empty_routes_rejected(self):
        with pytest.raises(ValueError):
            TransitionGenerator(RouteDataset())

    def test_bad_fractions_rejected(self, routes):
        with pytest.raises(ValueError):
            TransitionGenerator(routes, noise_fraction=1.5)
        with pytest.raises(ValueError):
            TransitionGenerator(routes, same_route_probability=-0.1)

    def test_negative_count_rejected(self, routes):
        generator = TransitionGenerator(routes)
        with pytest.raises(ValueError):
            list(generator.iter_transitions(-1))


class TestGeneration:
    def test_count_and_ids(self, routes):
        generator = TransitionGenerator(routes, seed=1)
        dataset = generator.generate(200, start_id=10)
        assert len(dataset) == 200
        assert min(dataset.transition_ids) == 10
        assert max(dataset.transition_ids) == 209

    def test_timestamps_optional(self, routes):
        generator = TransitionGenerator(routes, seed=1)
        with_ts = generator.generate(5, timestamps=True)
        without_ts = generator.generate(5)
        assert all(t.timestamp is not None for t in with_ts)
        assert all(t.timestamp is None for t in without_ts)

    def test_reproducibility(self, routes):
        a = TransitionGenerator(routes, seed=3).generate(50)
        b = TransitionGenerator(routes, seed=3).generate(50)
        for first, second in zip(a, b):
            assert first.origin == second.origin
            assert first.destination == second.destination

    def test_streaming_matches_generate(self, routes):
        streamed = list(TransitionGenerator(routes, seed=4).iter_transitions(30))
        materialised = list(TransitionGenerator(routes, seed=4).generate(30))
        assert [t.origin for t in streamed] == [t.origin for t in materialised]

    def test_transitions_cluster_near_routes(self, routes):
        """The structural property RkNNT pruning relies on (Figure 8)."""
        generator = TransitionGenerator(routes, walk_radius=0.3, noise_fraction=0.0, seed=6)
        dataset = generator.generate(300)
        distances = []
        for transition in dataset:
            for point in transition.points:
                distances.append(
                    min(route.distance_to_point(point) for route in routes)
                )
        # With a 0.3 walk radius the median endpoint is within ~2 sigma of a stop.
        assert statistics.median(distances) < 1.0

    def test_noise_fraction_spreads_points(self, routes):
        clustered = TransitionGenerator(
            routes, walk_radius=0.2, noise_fraction=0.0, seed=7
        ).generate(200)
        noisy = TransitionGenerator(
            routes, walk_radius=0.2, noise_fraction=1.0, seed=7
        ).generate(200)

        def mean_distance(dataset):
            total, count = 0.0, 0
            for transition in dataset:
                for point in transition.points:
                    total += min(route.distance_to_point(point) for route in routes)
                    count += 1
            return total / count

        assert mean_distance(noisy) > mean_distance(clustered)


class TestTrajectories:
    def test_trajectory_length_validation(self, routes):
        generator = TransitionGenerator(routes, seed=1)
        with pytest.raises(ValueError):
            generator.generate_trajectory(1)
        with pytest.raises(ValueError):
            generator.generate_from_trajectories(3, min_length=1)

    def test_split_counts(self, routes):
        generator = TransitionGenerator(routes, seed=2)
        dataset = generator.generate_from_trajectories(
            10, min_length=3, max_length=3, start_id=100
        )
        # Ten 3-point trajectories yield 20 transitions with consecutive ids.
        assert len(dataset) == 20
        assert min(dataset.transition_ids) == 100
        assert max(dataset.transition_ids) == 119

    def test_trajectory_points_count(self, routes):
        generator = TransitionGenerator(routes, seed=3)
        assert len(generator.generate_trajectory(5)) == 5
