"""Unit tests for the TOPSProblem facade and the query/result types."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.preference import BinaryPreference
from repro.core.problem import TOPSProblem
from repro.core.query import TOPSQuery, TOPSResult, utility_tuple
from repro.trajectory.model import TrajectoryDataset


class TestTOPSQuery:
    def test_defaults_to_binary_preference(self):
        query = TOPSQuery(k=3, tau_km=1.0)
        assert isinstance(query.preference, BinaryPreference)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TOPSQuery(k=0, tau_km=1.0)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            TOPSQuery(k=1, tau_km=-1.0)


class TestTOPSResult:
    def test_utility_percent(self):
        result = TOPSResult(sites=(1, 2), utility=30.0)
        assert result.utility_percent(60) == pytest.approx(50.0)

    def test_covered_count(self):
        result = TOPSResult(sites=(1,), utility=2.0, per_trajectory_utility=(1.0, 0.0, 1.0))
        assert result.covered_count() == 2

    def test_num_sites(self):
        assert TOPSResult(sites=(1, 2, 3), utility=0.0).num_sites == 3


class TestUtilityTuple:
    """The one constructor of ``per_trajectory_utility`` boxes like ``float(u)``."""

    @pytest.mark.parametrize(
        "array",
        [
            np.asarray([0.0, -0.0, 5e-324, 1e308, -1e308, 0.1, 1.5], dtype=np.float64),
            np.asarray([0.0, -0.0, 1e-45, 1e-40, 3.4e38, 0.1, 1.5], dtype=np.float32),
            np.asarray([0, -3, 7, 2**53 + 1, -(2**62)], dtype=np.int64),
            np.asarray([True, False, True], dtype=bool),
            np.asarray([], dtype=np.float64),
        ],
        ids=["float64", "float32", "int64", "bool", "empty"],
    )
    def test_matches_float_generator_by_repr(self, array):
        boxed = utility_tuple(array)
        expected = tuple(float(u) for u in array)
        assert type(boxed) is tuple
        assert [repr(x) for x in boxed] == [repr(x) for x in expected]
        assert all(type(x) is float for x in boxed)


class TestTOPSProblem:
    def test_defaults_sites_to_all_nodes(self, medium_grid, grid_trajectories):
        problem = TOPSProblem(medium_grid, grid_trajectories)
        assert problem.num_sites == medium_grid.num_nodes

    def test_empty_dataset_rejected(self, medium_grid):
        with pytest.raises(ValueError):
            TOPSProblem(medium_grid, TrajectoryDataset())

    def test_oracle_cached(self, grid_problem):
        assert grid_problem.oracle is grid_problem.oracle

    def test_detour_matrix_cached_and_shaped(self, grid_problem):
        matrix = grid_problem.detour_matrix()
        assert matrix.shape == (grid_problem.num_trajectories, grid_problem.num_sites)
        assert grid_problem.detour_matrix() is matrix

    def test_solve_methods_agree_on_shape(self, grid_problem, binary_query):
        for method in ("inc-greedy", "fm-greedy"):
            result = grid_problem.solve(binary_query, method=method)
            assert len(result.sites) == binary_query.k

    def test_fm_greedy_refuses_existing_sites(self, grid_problem, binary_query):
        """FM-greedy cannot seed services; it must not answer as if none existed."""
        with pytest.raises(ValueError, match="existing sites"):
            grid_problem.solve(binary_query, method="fm-greedy", existing_sites=[0, 11])

    def test_optimal_refuses_existing_sites(self, medium_grid, grid_trajectories):
        problem = TOPSProblem(medium_grid, grid_trajectories, sites=medium_grid.node_ids()[:8])
        with pytest.raises(ValueError, match="existing sites"):
            problem.solve(TOPSQuery(k=2, tau_km=1.0), method="optimal", existing_sites=[3])

    def test_unknown_method_rejected(self, grid_problem, binary_query):
        with pytest.raises(ValueError):
            grid_problem.solve(binary_query, method="magic")

    def test_solve_includes_preprocess_time(self, grid_problem, binary_query):
        result = grid_problem.solve(binary_query)
        assert "preprocess_seconds" in result.metadata
        assert result.elapsed_seconds >= result.metadata["preprocess_seconds"]

    def test_evaluate_matches_solve_utility(self, grid_problem, binary_query):
        result = grid_problem.solve(binary_query)
        exact, per_traj = grid_problem.evaluate(result.sites, binary_query)
        assert exact == pytest.approx(result.utility)
        assert len(per_traj) == grid_problem.num_trajectories

    def test_utility_percent_bounds(self, grid_problem, binary_query):
        result = grid_problem.solve(binary_query)
        pct = grid_problem.utility_percent(result.sites, binary_query)
        assert 0.0 <= pct <= 100.0

    def test_restricting_sites_reduces_or_keeps_utility(
        self, medium_grid, grid_trajectories, binary_query
    ):
        full = TOPSProblem(medium_grid, grid_trajectories)
        restricted = TOPSProblem(
            medium_grid, grid_trajectories, sites=medium_grid.node_ids()[:20]
        )
        assert (
            restricted.solve(binary_query).utility
            <= full.solve(binary_query).utility + 1e-9
        )

    def test_build_netclus_index(self, grid_problem):
        index = grid_problem.build_netclus_index(
            tau_min_km=0.4, tau_max_km=2.0, max_instances=3
        )
        assert index.num_instances <= 3
        result = index.query(TOPSQuery(k=3, tau_km=0.8))
        assert len(result.sites) == 3
