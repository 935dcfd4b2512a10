"""Unit tests for the TOPS extensions and variants (Section 7)."""

from __future__ import annotations

import numpy as np
import pytest
from greedy_oracle import ORACLE_CASES, recompute_select

from repro.core.coverage import GAIN_RTOL, CoverageIndex
from repro.core.greedy import IncGreedy
from repro.core.preference import (
    BinaryPreference,
    ConvexProbabilityPreference,
    InconveniencePreference,
    LinearPreference,
    make_preference,
)
from repro.core.query import TOPSQuery
from repro.core.variants import (
    solve_tops_capacity,
    solve_tops_cost,
    solve_tops_market_share,
    solve_tops_min_inconvenience,
    solve_tops_with_existing,
)
from repro.datasets.workloads import site_capacities_normal, site_costs_normal


class TestTopsCost:
    def test_budget_respected(self, grid_coverage):
        costs = site_costs_normal(grid_coverage.num_sites, std=0.5, seed=1)
        result = solve_tops_cost(grid_coverage, budget=3.0, site_costs=costs)
        spent = sum(costs[grid_coverage.columns_for_labels(result.sites)])
        assert spent <= 3.0 + 1e-9

    def test_unit_costs_budget_k_equals_tops(self, grid_coverage, binary_query):
        """With unit costs and B = k, TOPS-COST selects k sites like TOPS."""
        costs = np.ones(grid_coverage.num_sites)
        result = solve_tops_cost(grid_coverage, budget=binary_query.k, site_costs=costs)
        greedy = IncGreedy(grid_coverage).solve(binary_query)
        assert len(result.sites) == binary_query.k
        # the cost-ratio greedy equals plain greedy here, so utilities match
        assert result.utility == pytest.approx(greedy.utility, rel=0.05)

    def test_larger_budget_no_worse(self, grid_coverage):
        costs = site_costs_normal(grid_coverage.num_sites, std=0.3, seed=2)
        small = solve_tops_cost(grid_coverage, budget=2.0, site_costs=costs)
        large = solve_tops_cost(grid_coverage, budget=8.0, site_costs=costs)
        assert large.utility >= small.utility - 1e-9

    def test_cheaper_sites_allow_more_selections(self, grid_coverage):
        expensive = np.full(grid_coverage.num_sites, 2.0)
        cheap = np.full(grid_coverage.num_sites, 0.5)
        few = solve_tops_cost(grid_coverage, budget=4.0, site_costs=expensive)
        many = solve_tops_cost(grid_coverage, budget=4.0, site_costs=cheap)
        assert len(many.sites) >= len(few.sites)

    def test_invalid_inputs(self, grid_coverage):
        with pytest.raises(ValueError):
            solve_tops_cost(grid_coverage, budget=0.0, site_costs=np.ones(grid_coverage.num_sites))
        with pytest.raises(ValueError):
            solve_tops_cost(grid_coverage, budget=1.0, site_costs=np.ones(3))
        with pytest.raises(ValueError):
            solve_tops_cost(
                grid_coverage, budget=1.0, site_costs=np.zeros(grid_coverage.num_sites)
            )

    def test_single_best_site_safeguard(self):
        """When one expensive site beats many cheap ones, it must be chosen."""
        detours = np.full((10, 3), np.inf)
        detours[:, 0] = 0.1  # site 0 covers everything but costs 5
        detours[0, 1] = 0.1  # sites 1, 2 cover one trajectory each, cost 1
        detours[1, 2] = 0.1
        coverage = CoverageIndex(detours, 1.0, BinaryPreference())
        result = solve_tops_cost(coverage, budget=5.0, site_costs=np.asarray([5.0, 1.0, 1.0]))
        assert result.utility == pytest.approx(10.0)


class TestTopsCapacity:
    def test_infinite_capacity_equals_tops(self, grid_coverage, binary_query):
        caps = np.full(grid_coverage.num_sites, grid_coverage.num_trajectories + 1)
        capped = solve_tops_capacity(grid_coverage, binary_query, caps)
        plain = IncGreedy(grid_coverage).solve(binary_query)
        assert capped.utility == pytest.approx(plain.utility)

    def test_utility_increases_with_capacity(self, grid_coverage, binary_query):
        m = grid_coverage.num_trajectories
        utilities = []
        for fraction in (0.02, 0.2, 1.0):
            caps = site_capacities_normal(
                grid_coverage.num_sites, m, mean_fraction=fraction, seed=3
            )
            utilities.append(solve_tops_capacity(grid_coverage, binary_query, caps).utility)
        assert utilities[0] <= utilities[1] <= utilities[2] + 1e-9

    def test_utility_bounded_by_total_capacity(self, grid_coverage, binary_query):
        caps = np.full(grid_coverage.num_sites, 2.0)
        result = solve_tops_capacity(grid_coverage, binary_query, caps)
        assert result.utility <= binary_query.k * 2.0 + 1e-9

    def test_length_mismatch_rejected(self, grid_coverage, binary_query):
        with pytest.raises(ValueError):
            solve_tops_capacity(grid_coverage, binary_query, np.ones(3))


class TestTopsWithExisting:
    def test_existing_sites_not_reselected(self, grid_coverage, binary_query):
        plain = IncGreedy(grid_coverage).solve(binary_query)
        existing = list(plain.sites[:2])
        result = solve_tops_with_existing(grid_coverage, binary_query, existing)
        assert not set(existing) & set(result.sites)

    def test_utility_includes_existing(self, grid_coverage, binary_query):
        plain = IncGreedy(grid_coverage).solve(binary_query)
        existing = list(plain.sites[:2])
        result = solve_tops_with_existing(grid_coverage, binary_query, existing)
        existing_only = grid_coverage.utility_of(grid_coverage.columns_for_labels(existing))
        assert result.utility >= existing_only - 1e-9

    def test_metadata_records_existing(self, grid_coverage, binary_query):
        result = solve_tops_with_existing(grid_coverage, binary_query, [0])
        assert result.metadata["existing_sites"] == (0,)


class TestTopsMarketShare:
    def test_reaches_target_coverage(self, grid_coverage):
        result = solve_tops_market_share(grid_coverage, beta=0.5)
        assert result.utility >= 0.5 * grid_coverage.num_trajectories - 1e-9

    def test_higher_beta_needs_no_fewer_sites(self, grid_coverage):
        low = solve_tops_market_share(grid_coverage, beta=0.3)
        high = solve_tops_market_share(grid_coverage, beta=0.8)
        assert len(high.sites) >= len(low.sites)

    def test_max_sites_cap(self, grid_coverage):
        result = solve_tops_market_share(grid_coverage, beta=1.0, max_sites=2)
        assert len(result.sites) <= 2

    def test_requires_binary_preference(self, grid_problem):
        query = TOPSQuery(k=3, tau_km=1.0, preference=LinearPreference())
        coverage = grid_problem.coverage(query)
        with pytest.raises(ValueError):
            solve_tops_market_share(coverage, beta=0.5)

    def test_invalid_beta(self, grid_coverage):
        with pytest.raises(ValueError):
            solve_tops_market_share(grid_coverage, beta=1.5)


class TestTopsMinInconvenience:
    @pytest.fixture
    def inconvenience_coverage(self, grid_problem):
        query = TOPSQuery(k=3, tau_km=1e9, preference=InconveniencePreference())
        return grid_problem.coverage(query)

    def test_selects_k_sites(self, inconvenience_coverage):
        query = TOPSQuery(k=3, tau_km=1e9, preference=InconveniencePreference())
        result = solve_tops_min_inconvenience(inconvenience_coverage, query)
        assert len(result.sites) == 3

    def test_total_deviation_decreases_with_k(self, inconvenience_coverage):
        deviations = []
        for k in (1, 3, 6):
            query = TOPSQuery(k=k, tau_km=1e9, preference=InconveniencePreference())
            result = solve_tops_min_inconvenience(inconvenience_coverage, query)
            deviations.append(result.metadata["total_deviation_km"])
        assert deviations[0] >= deviations[1] >= deviations[2] - 1e-9

    def test_deviation_is_non_negative(self, inconvenience_coverage):
        query = TOPSQuery(k=2, tau_km=1e9, preference=InconveniencePreference())
        result = solve_tops_min_inconvenience(inconvenience_coverage, query)
        assert result.metadata["total_deviation_km"] >= 0.0


class TestTops2ConvexPreference:
    def test_convex_preference_end_to_end(self, grid_problem):
        query = TOPSQuery(k=5, tau_km=1.0, preference=ConvexProbabilityPreference())
        result = grid_problem.solve(query)
        assert len(result.sites) == 5
        assert 0.0 < result.utility <= grid_problem.num_trajectories

    def test_convex_utility_below_binary(self, grid_problem):
        binary = grid_problem.solve(TOPSQuery(k=5, tau_km=1.0, preference=BinaryPreference()))
        convex = grid_problem.solve(
            TOPSQuery(k=5, tau_km=1.0, preference=ConvexProbabilityPreference())
        )
        assert convex.utility <= binary.utility + 1e-9


class TestVariantsOnSparseEngine:
    """Every variant driver (except TOPS3) runs on the sparse coverage index
    and returns the dense driver's selections."""

    @pytest.fixture
    def engines(self, grid_problem, binary_query):
        dense = grid_problem.coverage(binary_query, engine="dense")
        sparse = grid_problem.coverage(binary_query, engine="sparse")
        return dense, sparse

    def test_cost_matches_dense(self, engines):
        dense, sparse = engines
        costs = site_costs_normal(dense.num_sites, seed=5)
        a = solve_tops_cost(dense, budget=3.0, site_costs=costs)
        b = solve_tops_cost(sparse, budget=3.0, site_costs=costs)
        assert a.sites == b.sites
        assert a.utility == pytest.approx(b.utility)

    def test_capacity_matches_dense(self, engines, binary_query):
        dense, sparse = engines
        caps = site_capacities_normal(
            dense.num_sites, dense.num_trajectories, seed=5
        )
        a = solve_tops_capacity(dense, binary_query, caps)
        b = solve_tops_capacity(sparse, binary_query, caps)
        assert a.sites == b.sites
        assert a.utility == pytest.approx(b.utility)

    def test_existing_matches_dense(self, engines, binary_query):
        dense, sparse = engines
        base = IncGreedy(dense).solve(binary_query)
        seed_sites = list(base.sites[:2])
        a = solve_tops_with_existing(dense, binary_query, seed_sites)
        b = solve_tops_with_existing(sparse, binary_query, seed_sites)
        assert a.sites == b.sites
        assert a.utility == pytest.approx(b.utility)

    def test_market_share_matches_dense(self, engines):
        dense, sparse = engines
        a = solve_tops_market_share(dense, beta=0.6)
        b = solve_tops_market_share(sparse, beta=0.6)
        assert a.sites == b.sites
        assert a.utility == pytest.approx(b.utility)

    def test_min_inconvenience_requires_dense(self, grid_problem):
        query = TOPSQuery(k=3, tau_km=1.0, preference=InconveniencePreference())
        sparse = grid_problem.coverage(
            TOPSQuery(k=3, tau_km=1.0, preference=LinearPreference()), engine="sparse"
        )
        with pytest.raises(ValueError):
            solve_tops_min_inconvenience(sparse, query)


@pytest.mark.parametrize(("engine", "pref_name"), ORACLE_CASES)
class TestGreedyDriversMatchOracle:
    """The greedy-based drivers equal the full-recompute reference greedy."""

    @staticmethod
    def _setup(grid_problem, engine, pref_name):
        query = TOPSQuery(k=6, tau_km=1.0, preference=make_preference(pref_name))
        dense = grid_problem.coverage(query, engine="dense")
        return query, dense, grid_problem.coverage(query, engine=engine)

    @staticmethod
    def _assert_matches(result, dense, expected):
        columns, utilities, gains = expected
        assert result.sites == tuple(int(dense.site_labels[c]) for c in columns)
        assert np.asarray(result.per_trajectory_utility).tobytes() == utilities.tobytes()
        np.testing.assert_allclose(
            result.metadata["marginal_gains"], gains, rtol=GAIN_RTOL, atol=GAIN_RTOL
        )

    def test_capacity(self, grid_problem, engine, pref_name):
        query, dense, coverage = self._setup(grid_problem, engine, pref_name)
        caps = site_capacities_normal(dense.num_sites, dense.num_trajectories, seed=7)
        expected = recompute_select(dense, query.k, capacities=caps)
        self._assert_matches(solve_tops_capacity(coverage, query, caps), dense, expected)

    def test_with_existing(self, grid_problem, engine, pref_name):
        query, dense, coverage = self._setup(grid_problem, engine, pref_name)
        first = recompute_select(dense, 2)[0]
        existing = [int(dense.site_labels[c]) for c in first]
        expected = recompute_select(dense, query.k, existing_columns=first)
        self._assert_matches(
            solve_tops_with_existing(coverage, query, existing), dense, expected
        )
