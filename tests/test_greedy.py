"""Unit tests for Inc-Greedy (Algorithm 1) and the CELF lazy greedy."""

from __future__ import annotations

import numpy as np
import pytest
from greedy_oracle import assert_matches_oracle, recompute_select

from repro.core.coverage import CoverageIndex, SparseCoverageIndex
from repro.core.greedy import IncGreedy, LazyGreedy, greedy_max_coverage_columns
from repro.core.preference import (
    BinaryPreference,
    ConvexProbabilityPreference,
    ExponentialPreference,
    LinearPreference,
)


def coverage_from_scores(scores, tau=1.0):
    """Build a CoverageIndex whose ψ-scores equal the given matrix.

    Uses the linear preference with τ=1 and detours ``1 − score`` so that
    ψ(d) = 1 − d = score.
    """
    scores = np.asarray(scores, dtype=float)
    detours = 1.0 - scores
    detours[scores == 0.0] = np.inf
    return CoverageIndex(detours, tau, LinearPreference())


@pytest.fixture
def paper_example():
    """Example 1 / Table 2 of the paper: 2 trajectories, 3 sites."""
    scores = np.asarray([[0.4, 0.11, 0.0], [0.0, 0.5, 0.6]])
    return coverage_from_scores(scores)


class TestPaperExample:
    def test_greedy_matches_table3(self, paper_example):
        """Inc-Greedy picks {s2, s1} for a utility of 0.9 (Table 3)."""
        greedy = IncGreedy(paper_example)
        columns, utilities, _ = greedy.select(k=2)
        assert set(columns) == {0, 1}
        assert float(np.sum(utilities)) == pytest.approx(0.9, abs=1e-9)

    def test_first_pick_is_s2(self, paper_example):
        greedy = IncGreedy(paper_example)
        columns, _, _ = greedy.select(k=1)
        assert columns == [1]

    def test_optimal_differs(self, paper_example):
        """The optimal {s1, s3} achieves 1.0 — greedy is sub-optimal here."""
        assert paper_example.utility_of([0, 2]) == pytest.approx(1.0, abs=1e-9)


class TestStrategiesAgree:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_incremental_equals_recompute(self, grid_coverage, k):
        assert_matches_oracle(
            IncGreedy(grid_coverage).select(k), recompute_select(grid_coverage, k)
        )


class TestSelection:
    def test_selects_k_sites(self, grid_coverage):
        columns, _, _ = IncGreedy(grid_coverage).select(5)
        assert len(columns) == 5
        assert len(set(columns)) == 5

    def test_marginal_gains_non_increasing(self, grid_coverage):
        _, _, gains = IncGreedy(grid_coverage).select(8)
        assert all(b <= a + 1e-9 for a, b in zip(gains, gains[1:]))

    def test_utility_monotone_in_k(self, grid_coverage):
        utilities = []
        for k in (1, 3, 5, 8):
            _, per_traj, _ = IncGreedy(grid_coverage).select(k)
            utilities.append(float(np.sum(per_traj)))
        assert all(b >= a - 1e-9 for a, b in zip(utilities, utilities[1:]))

    def test_k_larger_than_sites(self):
        cov = coverage_from_scores([[1.0, 0.5], [0.5, 1.0]])
        columns, _, _ = IncGreedy(cov).select(10)
        assert len(columns) <= 2

    def test_invalid_k(self, grid_coverage):
        with pytest.raises(ValueError):
            IncGreedy(grid_coverage).select(0)

    def test_tie_break_prefers_higher_index(self):
        scores = np.asarray([[1.0, 1.0]])
        cov = coverage_from_scores(scores)
        columns, _, _ = IncGreedy(cov).select(1)
        assert columns == [1]


class TestExistingServices:
    def test_existing_services_seed_utility(self, grid_coverage):
        greedy = IncGreedy(grid_coverage)
        plain_cols, plain_util, _ = greedy.select(3)
        seeded_cols, seeded_util, _ = greedy.select(3, existing_columns=plain_cols[:1])
        assert plain_cols[0] not in seeded_cols
        assert float(np.sum(seeded_util)) >= float(np.sum(plain_util)) - 1e-9

    def test_solve_with_existing_sites(self, grid_coverage, binary_query):
        first = IncGreedy(grid_coverage).solve(binary_query)
        seeded = IncGreedy(grid_coverage).solve(
            binary_query, existing_sites=[first.sites[0]]
        )
        assert first.sites[0] not in seeded.sites
        assert seeded.utility >= first.utility - 1e-9


class TestCapacities:
    def test_zero_capacity_site_never_helps(self):
        scores = np.asarray([[1.0, 0.9], [1.0, 0.9], [0.0, 0.9]])
        cov = coverage_from_scores(scores)
        capacities = np.asarray([0, 10])
        columns, utilities, _ = IncGreedy(cov).select(1, capacities=capacities)
        assert columns == [1]

    def test_capacity_limits_served_count(self):
        scores = np.ones((5, 1))
        cov = coverage_from_scores(scores)
        _, utilities, _ = IncGreedy(cov).select(1, capacities=np.asarray([2]))
        assert float(np.sum(utilities)) == pytest.approx(2.0)


class TestSolve:
    def test_solve_returns_result(self, grid_coverage, binary_query):
        result = IncGreedy(grid_coverage).solve(binary_query)
        assert result.algorithm == "inc-greedy"
        assert list(result.metadata) == ["marginal_gains"]
        assert len(result.sites) == binary_query.k
        assert result.utility == pytest.approx(sum(result.per_trajectory_utility))
        assert result.elapsed_seconds >= 0.0

    def test_sites_are_labels_not_columns(self, grid_problem, binary_query):
        coverage = grid_problem.coverage(binary_query)
        result = IncGreedy(coverage).solve(binary_query)
        for site in result.sites:
            assert grid_problem.network.has_node(site)


def random_instance(rng):
    """A random (detours, τ) pair with mixed density for property tests."""
    m = int(rng.integers(5, 60))
    n = int(rng.integers(3, 40))
    density = float(rng.uniform(0.05, 0.6))
    detours = np.where(rng.random((m, n)) < density, rng.random((m, n)) * 2.0, np.inf)
    tau = float(rng.uniform(0.3, 1.5))
    return detours, tau


PREFERENCES = [
    BinaryPreference(),
    LinearPreference(),
    ExponentialPreference(),
    ConvexProbabilityPreference(),
]


class TestLazyGreedyEquivalence:
    """Both loops return exactly the recompute oracle's selections."""

    def test_paper_example(self, paper_example):
        columns, utilities, _ = LazyGreedy(paper_example).select(2)
        assert set(columns) == {0, 1}
        assert float(np.sum(utilities)) == pytest.approx(0.9, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("preference", PREFERENCES)
    def test_matches_recompute_on_random_instances(self, seed, preference):
        rng = np.random.default_rng(seed)
        detours, tau = random_instance(rng)
        dense = CoverageIndex(detours, tau, preference)
        sparse = SparseCoverageIndex(detours, tau, preference)
        k = int(rng.integers(1, 8))
        expected = recompute_select(dense, k)
        for coverage in (dense, sparse):
            assert_matches_oracle(IncGreedy(coverage).select(k), expected)
            assert_matches_oracle(LazyGreedy(coverage).select(k), expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_with_weighted_trajectories(self, seed):
        rng = np.random.default_rng(100 + seed)
        detours, tau = random_instance(rng)
        weights = rng.uniform(0.5, 3.0, detours.shape[0])
        dense = CoverageIndex(detours, tau, LinearPreference(), trajectory_weights=weights)
        sparse = SparseCoverageIndex(
            detours, tau, LinearPreference(), trajectory_weights=weights
        )
        expected = recompute_select(dense, 5)
        for coverage in (dense, sparse):
            assert_matches_oracle(IncGreedy(coverage).select(5), expected)
            assert_matches_oracle(LazyGreedy(coverage).select(5), expected)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("preference", [BinaryPreference(), LinearPreference()])
    def test_matches_with_capacities(self, seed, preference):
        rng = np.random.default_rng(200 + seed)
        detours, tau = random_instance(rng)
        m, n = detours.shape
        capacities = rng.integers(0, m + 3, n)
        dense = CoverageIndex(detours, tau, preference)
        sparse = SparseCoverageIndex(detours, tau, preference)
        k = int(rng.integers(1, 8))
        expected = recompute_select(dense, k, capacities=capacities)
        for coverage in (dense, sparse):
            assert_matches_oracle(
                IncGreedy(coverage).select(k, capacities=capacities), expected
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_with_existing_columns(self, seed):
        rng = np.random.default_rng(300 + seed)
        detours, tau = random_instance(rng)
        n = detours.shape[1]
        existing = list(rng.choice(n, size=min(2, n), replace=False))
        dense = CoverageIndex(detours, tau, LinearPreference())
        sparse = SparseCoverageIndex(detours, tau, LinearPreference())
        expected = recompute_select(dense, 4, existing_columns=list(existing))
        for coverage in (dense, sparse):
            assert_matches_oracle(
                IncGreedy(coverage).select(4, existing_columns=list(existing)), expected
            )
            assert_matches_oracle(
                LazyGreedy(coverage).select(4, existing_columns=list(existing)), expected
            )

    def test_matches_incremental_utility_on_grid(self, grid_coverage):
        incremental = IncGreedy(grid_coverage)
        for k in (1, 3, 5):
            _, util_inc, _ = incremental.select(k)
            _, util_lazy, _ = LazyGreedy(grid_coverage).select(k)
            assert float(np.sum(util_lazy)) == pytest.approx(
                float(np.sum(util_inc)), rel=1e-9
            )

    def test_tie_break_prefers_weight_then_index(self):
        # two identical columns (tie on gain and weight -> larger index) and
        # one lighter column
        scores = np.asarray([[1.0, 1.0, 0.4], [1.0, 1.0, 0.0]])
        cov = coverage_from_scores(scores)
        assert LazyGreedy(cov).select(1)[0] == [1]
        assert IncGreedy(cov).select(1)[0] == [1]
        assert recompute_select(cov, 1)[0] == [1]


class TestLazyGreedyBehaviour:
    def test_query_picks_the_loop(self, grid_coverage, monkeypatch):
        """Every engine runs the incremental loop; only capacities reach CELF."""
        sparse = SparseCoverageIndex(
            grid_coverage.detours, grid_coverage.tau_km, grid_coverage.preference
        )
        celf_calls = []
        celf_select = LazyGreedy.select

        def recording_select(self, *args, **kwargs):
            celf_calls.append(kwargs.get("capacities"))
            return celf_select(self, *args, **kwargs)

        monkeypatch.setattr(LazyGreedy, "select", recording_select)
        for coverage in (grid_coverage, sparse):
            IncGreedy(coverage).select(5)
        assert celf_calls == []
        capacities = np.full(sparse.num_sites, 4)
        IncGreedy(sparse).select(5, capacities=capacities)
        assert len(celf_calls) == 1 and celf_calls[0] is capacities

    def test_empty_coverage_selects_one_site(self):
        """On a fully empty instance both loops pick exactly one zero-gain site."""
        detours = np.full((3, 4), np.inf)
        dense = CoverageIndex(detours, 1.0, BinaryPreference())
        sparse = SparseCoverageIndex(detours, 1.0, BinaryPreference())
        expected = recompute_select(dense, 3)
        assert len(expected[0]) == 1
        assert float(np.sum(expected[1])) == 0.0
        assert_matches_oracle(IncGreedy(sparse).select(3), expected)
        assert_matches_oracle(LazyGreedy(sparse).select(3), expected)


class TestGreedyMaxCoverage:
    def test_columns_and_utilities(self):
        scores = np.asarray([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        columns, utilities = greedy_max_coverage_columns(scores, 1)
        assert columns == [0]
        assert float(np.sum(utilities)) == 2.0

    def test_selects_min_of_k_and_columns(self):
        scores = np.ones((3, 2))
        columns, _ = greedy_max_coverage_columns(scores, 5)
        assert len(columns) == 2
