"""Unit tests for the FM-sketch accelerated greedy (FMG)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coverage import CoverageIndex
from repro.core.fm_greedy import FMGreedy
from repro.core.greedy import IncGreedy
from repro.core.preference import BinaryPreference, LinearPreference
from repro.core.query import TOPSQuery
from repro.sketch.fm import hash_items


class TestSiteSketches:
    @staticmethod
    def _expected(coverage, num_sketches):
        ids = np.asarray(coverage.trajectory_ids)
        return np.array(
            [
                np.bitwise_or.reduce(
                    hash_items(ids[coverage.trajectories_covered(col)], num_sketches), axis=0
                )
                for col in range(coverage.num_sites)
            ]
        )

    def test_rows_are_the_or_of_covered_trajectories(self, grid_coverage):
        fmg = FMGreedy(grid_coverage, num_sketches=12)
        assert np.array_equal(fmg._bits, self._expected(grid_coverage, 12))

    def test_sites_covering_nothing_get_empty_rows(self):
        detours = np.asarray([[np.inf, 0.1, np.inf, np.inf], [np.inf, 0.5, np.inf, 0.2]])
        coverage = CoverageIndex(detours, 1.0, BinaryPreference(), trajectory_ids=[40, 7])
        bits = FMGreedy(coverage, num_sketches=6)._bits
        assert not bits[[0, 2]].any()
        assert np.array_equal(bits, self._expected(coverage, 6))


class TestFMGreedy:
    def test_requires_binary_preference(self, grid_problem):
        query = TOPSQuery(k=3, tau_km=1.0, preference=LinearPreference())
        coverage = grid_problem.coverage(query)
        with pytest.raises(ValueError):
            FMGreedy(coverage)

    def test_selects_k_distinct_sites(self, grid_coverage):
        columns, _, _ = FMGreedy(grid_coverage, num_sketches=20).select(5)
        assert len(columns) == 5
        assert len(set(columns)) == 5

    def test_solve_reports_exact_utility(self, grid_coverage, binary_query):
        result = FMGreedy(grid_coverage, num_sketches=20).solve(binary_query)
        exact = grid_coverage.utility_of(grid_coverage.columns_for_labels(result.sites))
        assert result.utility == pytest.approx(exact)

    def test_close_to_inc_greedy(self, grid_coverage, binary_query):
        """With f=60 copies FMG should land within 25% of Inc-Greedy's utility."""
        incg = IncGreedy(grid_coverage).solve(binary_query)
        fmg = FMGreedy(grid_coverage, num_sketches=60).solve(binary_query)
        assert fmg.utility >= 0.75 * incg.utility

    def test_never_better_than_incg_by_much(self, grid_coverage, binary_query):
        """FMG cannot exceed Inc-Greedy's utility by more than numerical noise
        ... actually it can (both are heuristics), but it can never exceed the
        best possible utility of k sites; sanity-check against total mass."""
        fmg = FMGreedy(grid_coverage, num_sketches=30).solve(binary_query)
        assert fmg.utility <= grid_coverage.num_trajectories

    def test_deterministic(self, grid_coverage, binary_query):
        a = FMGreedy(grid_coverage, num_sketches=16).solve(binary_query)
        b = FMGreedy(grid_coverage, num_sketches=16).solve(binary_query)
        assert a.sites == b.sites

    def test_storage_bytes(self, grid_coverage):
        fmg = FMGreedy(grid_coverage, num_sketches=10)
        assert fmg.storage_bytes() == 4 * 10 * grid_coverage.num_sites

    def test_metadata_contains_estimate(self, grid_coverage, binary_query):
        result = FMGreedy(grid_coverage, num_sketches=20).solve(binary_query)
        assert "estimated_utility" in result.metadata
        assert result.metadata["num_sketches"] == 20

    def test_invalid_k(self, grid_coverage):
        with pytest.raises(ValueError):
            FMGreedy(grid_coverage).select(0)

    def test_single_site_problem(self):
        detours = np.asarray([[0.1], [0.5], [np.inf]])
        coverage = CoverageIndex(detours, 1.0, BinaryPreference())
        columns, _, _ = FMGreedy(coverage, num_sketches=8).select(3)
        assert columns == [0]
