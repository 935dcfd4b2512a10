"""Every solver returns ``per_trajectory_utility`` as a tuple of plain floats.

Each producer's field must be a ``tuple`` whose elements are ``float`` (not
``np.float64`` or ``int``) and whose doubles are byte-equal to the float64
utilities array of the selected sites. The HTTP payload built from such a
result must encode to the same JSON bytes as the per-element ``float(u)``
list it always carried.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.baselines import random_sites, static_demand_greedy, top_k_by_traffic
from repro.core.coverage import CoverageIndex
from repro.core.fm_greedy import FMGreedy
from repro.core.greedy import IncGreedy
from repro.core.optimal import OptimalSolver
from repro.core.preference import BinaryPreference, InconveniencePreference
from repro.core.query import TOPSQuery
from repro.core.variants import (
    solve_tops_capacity,
    solve_tops_cost,
    solve_tops_market_share,
    solve_tops_min_inconvenience,
)
from repro.service import PlacementService, QuerySpec
from repro.service.server import PlacementServer


def assert_plain_floats(values, source):
    """*values* is a tuple of ``float`` byte-equal to the float64 *source*."""
    source = np.asarray(source)
    assert source.dtype == np.float64
    assert type(values) is tuple
    assert all(type(x) is float for x in values)
    assert np.asarray(values, dtype=np.float64).tobytes() == source.tobytes()
    assert [repr(x) for x in values] == [repr(float(u)) for u in source]


def selected_utilities(coverage, result):
    """The float64 utilities of *result*'s sites on *coverage*."""
    return coverage.per_trajectory_utility(coverage.columns_for_labels(result.sites))


# ---------------------------------------------------------------------- #
# flat-space solvers
# ---------------------------------------------------------------------- #
def test_inc_greedy_and_celf(grid_coverage, binary_query):
    columns, utilities, _ = IncGreedy(grid_coverage).select(binary_query.k)
    result = IncGreedy(grid_coverage).solve(binary_query)
    assert_plain_floats(result.per_trajectory_utility, utilities)
    assert_plain_floats(
        result.per_trajectory_utility, grid_coverage.per_trajectory_utility(columns)
    )
    capacities = np.full(grid_coverage.num_sites, 4.0)
    _, capped, _ = IncGreedy(grid_coverage).select(binary_query.k, capacities=capacities)
    capacity = solve_tops_capacity(grid_coverage, binary_query, capacities)
    assert_plain_floats(capacity.per_trajectory_utility, capped)


def test_fm_greedy(grid_coverage, binary_query):
    result = FMGreedy(grid_coverage, num_sketches=8).solve(binary_query)
    utilities = selected_utilities(grid_coverage, result)
    assert_plain_floats(result.per_trajectory_utility, utilities)


def test_baselines(grid_coverage, binary_query):
    endpoint_detours = np.random.default_rng(3).uniform(
        0.0, 2.0, size=(grid_coverage.num_trajectories, grid_coverage.num_sites)
    )
    for result in (
        top_k_by_traffic(grid_coverage, binary_query),
        random_sites(grid_coverage, binary_query, seed=4),
        static_demand_greedy(grid_coverage, binary_query, endpoint_detours),
    ):
        assert_plain_floats(
            result.per_trajectory_utility, selected_utilities(grid_coverage, result)
        )


def test_variants(grid_problem, grid_coverage):
    costs = np.random.default_rng(5).uniform(0.5, 1.5, size=grid_coverage.num_sites)
    for result in (
        solve_tops_cost(grid_coverage, budget=3.0, site_costs=costs),
        solve_tops_market_share(grid_coverage, beta=0.5),
    ):
        assert_plain_floats(
            result.per_trajectory_utility, selected_utilities(grid_coverage, result)
        )
    query = TOPSQuery(k=3, tau_km=1e9, preference=InconveniencePreference())
    coverage = grid_problem.coverage(query)
    result = solve_tops_min_inconvenience(coverage, query)
    detours = coverage.detours[:, coverage.columns_for_labels(result.sites)]
    assert np.isfinite(detours).all()
    assert_plain_floats(result.per_trajectory_utility, -np.min(detours, axis=1))


def test_optimal_solvers(small_instance):
    coverage = small_instance.problem().coverage(TOPSQuery(k=2, tau_km=1.0))
    solver = OptimalSolver(coverage)
    query = TOPSQuery(k=2, tau_km=1.0)
    for result in (
        solver.solve(query), solver.solve_ilp(query), solver.solve_exhaustive(query)
    ):
        assert_plain_floats(result.per_trajectory_utility, selected_utilities(coverage, result))


def test_optimal_ilp_with_nothing_covered():
    coverage = CoverageIndex(np.full((4, 3), np.inf), tau_km=1.0, preference=BinaryPreference())
    result = OptimalSolver(coverage).solve_ilp(TOPSQuery(k=2, tau_km=1.0))
    assert result.sites == ()
    assert_plain_floats(result.per_trajectory_utility, np.zeros(4))


# ---------------------------------------------------------------------- #
# NetClus and the placement service
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("preference", ["binary", "linear"])
def test_netclus_and_service_paths(tiny_netclus, preference):
    fresh_spec = QuerySpec(k=6, tau_km=0.8, preference=preference)
    coverage = tiny_netclus.prepare_coverage(0.8, fresh_spec.preference_fn()).coverage

    direct = tiny_netclus.query(fresh_spec.to_query())
    assert_plain_floats(direct.per_trajectory_utility, selected_utilities(coverage, direct))

    service = PlacementService(tiny_netclus)
    fresh = service.query(fresh_spec)
    runs = service.stats.greedy_runs
    hit = service.query(QuerySpec(k=3, tau_km=0.8, preference=preference))
    assert service.stats.greedy_runs == runs  # answered from the cached order
    resumed = service.query(QuerySpec(k=9, tau_km=0.8, preference=preference))
    assert service.stats.greedy_runs == runs + 1
    budgeted = service.query(QuerySpec(k=4, tau_km=0.8, preference=preference, budget=3.0))
    for result in (fresh, hit, resumed, budgeted):
        assert_plain_floats(result.per_trajectory_utility, selected_utilities(coverage, result))
    assert hit.sites == fresh.sites[:3]
    assert resumed.sites[:6] == fresh.sites


@pytest.mark.parametrize("preference", ["binary", "linear"])
def test_result_payload_json_bytes(tiny_netclus, preference):
    spec = QuerySpec(k=5, tau_km=1.6, preference=preference)
    result = PlacementService(tiny_netclus).query(spec)
    coverage = tiny_netclus.prepare_coverage(1.6, spec.preference_fn()).coverage
    utilities = selected_utilities(coverage, result)
    payload = PlacementServer._result_payload(spec, result)
    before = dict(payload, per_trajectory_utility=list(tuple(float(u) for u in utilities)))
    assert json.dumps(payload).encode() == json.dumps(before).encode()
