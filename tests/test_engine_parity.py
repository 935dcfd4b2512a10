"""Coverage-engine parity: dense, sparse and bitset answer every query alike.

The contract under test: the sparse (CSR/CSC) and bitset (packed uint64)
engines expose the same coverage structures, gain vectors, absorbed
utilities and greedy selections as the dense reference engine, for every
preference each engine supports — across both greedy loops (checked
against the full-recompute oracle), the TOPS variant drivers, FM-greedy,
the NetClus clustered space, dynamically updated indexes, and the
placement service.  The clustered space builds only the view ψ picks, so
its tests compare that view against dense and sparse references built
from the same canonical entries (``coverage_reference.py``).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from coverage_reference import reference_kinds, reference_view, seed_reference_views
from greedy_oracle import ORACLE_CASES, assert_matches_oracle, recompute_select

from repro.core.bitcov import BitsetCoverageIndex
from repro.core.coverage import CoverageIndex, SparseCoverageIndex
from repro.core.fm_greedy import FMGreedy
from repro.core.greedy import IncGreedy, LazyGreedy
from repro.core.netclus import UpdateBatch
from repro.core.preference import (
    BinaryPreference,
    InconveniencePreference,
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
from repro.service.placement import PlacementService
from repro.service.specs import QuerySpec
from repro.trajectory.model import Trajectory

ENGINE_CLASSES = {
    "dense": CoverageIndex,
    "sparse": SparseCoverageIndex,
    "bitset": BitsetCoverageIndex,
}

#: (engine, preference) pairs each compared against the dense engine; the
#: bitset engine is defined for binary ψ only
ENGINE_CASES = [
    pytest.param("sparse", "binary", id="sparse-binary"),
    pytest.param("sparse", "linear", id="sparse-linear"),
    pytest.param("sparse", "exponential", id="sparse-exponential"),
    pytest.param("bitset", "binary", id="bitset-binary"),
]

#: fraction of (trajectory, site) pairs with a finite detour; "none" leaves
#: every column empty, 130 rows straddle two uint64 word boundaries
COVERAGE_FRACTIONS = [
    pytest.param(0.0, id="none"),
    pytest.param(0.1, id="thin"),
    pytest.param(0.6, id="thick"),
]

NUM_TRAJECTORIES = 130
NUM_SITES = 30
TAU_KM = 1.2


def _random_detours(rng, m=NUM_TRAJECTORIES, n=NUM_SITES, coverage_fraction=0.5, max_km=3.0):
    detours = rng.uniform(0.0, max_km, size=(m, n))
    detours[rng.random((m, n)) >= coverage_fraction] = np.inf
    return detours


def _pair(detours, engine, pref_name):
    preference = make_preference(pref_name)
    dense = CoverageIndex(detours, TAU_KM, preference)
    other = ENGINE_CLASSES[engine](detours, TAU_KM, preference)
    return dense, other


def _utilities(rng, coverage, high=1.0):
    """A utility vector in the regime *coverage* serves.

    Binary ψ keeps utilities in {0, 1} (the only values a binary greedy
    ever produces, and the popcount regime of the bitset engine); graded
    preferences get arbitrary values in ``[0, high)``.
    """
    m = coverage.num_trajectories
    if coverage.preference.is_binary:
        return (rng.random(m) < 0.4).astype(np.float64)
    return rng.uniform(0.0, high, m)


def _assert_same_selection(actual, expected):
    assert actual[0] == expected[0]
    assert actual[1].tobytes() == expected[1].tobytes()


def _assert_same_result(actual, expected):
    assert actual.sites == expected.sites
    assert actual.per_trajectory_utility == expected.per_trajectory_utility


# ---------------------------------------------------------------------- #
# coverage-protocol parity against the dense engine
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("coverage_fraction", COVERAGE_FRACTIONS)
@pytest.mark.parametrize(("engine", "pref_name"), ENGINE_CASES)
class TestProtocolParity:
    def test_structure_and_weights(self, rng, engine, pref_name, coverage_fraction):
        detours = _random_detours(rng, coverage_fraction=coverage_fraction)
        dense, other = _pair(detours, engine, pref_name)
        assert other.num_trajectories == dense.num_trajectories
        assert other.num_sites == dense.num_sites
        assert other.covered_pairs() == dense.covered_pairs()
        assert np.array_equal(other.coverage_mask(), dense.coverage_mask())
        np.testing.assert_allclose(
            other.site_weights, dense.site_weights, rtol=1e-12, atol=1e-12
        )
        assert list(other.site_labels) == list(dense.site_labels)

    def test_site_columns_list_rows_in_order(self, rng, engine, pref_name, coverage_fraction):
        detours = _random_detours(rng, coverage_fraction=coverage_fraction)
        dense, other = _pair(detours, engine, pref_name)
        for col in range(dense.num_sites):
            dense_rows, dense_values = dense.site_column(col)
            rows, values = other.site_column(col)
            assert np.array_equal(np.asarray(rows), np.asarray(dense_rows))
            np.testing.assert_array_equal(values, dense_values)
            assert np.array_equal(
                other.trajectories_covered(col), dense.trajectories_covered(col)
            )

    def test_sites_covering_every_row(self, rng, engine, pref_name, coverage_fraction):
        detours = _random_detours(rng, coverage_fraction=coverage_fraction)
        dense, other = _pair(detours, engine, pref_name)
        for row in range(dense.num_trajectories):
            assert np.array_equal(
                np.sort(np.asarray(other.sites_covering(row))),
                np.sort(np.asarray(dense.sites_covering(row))),
            )

    def test_gains_match(self, rng, engine, pref_name, coverage_fraction):
        detours = _random_detours(rng, coverage_fraction=coverage_fraction)
        dense, other = _pair(detours, engine, pref_name)
        for _ in range(3):
            utilities = _utilities(rng, dense)
            np.testing.assert_allclose(
                other.marginal_gains(utilities),
                dense.marginal_gains(utilities),
                rtol=1e-12,
                atol=1e-12,
            )
            for col in (0, dense.num_sites // 2, dense.num_sites - 1):
                for capacity in (None, 0, 1, 5, 1000):
                    assert other.marginal_gain(col, utilities, capacity) == pytest.approx(
                        dense.marginal_gain(col, utilities, capacity), rel=1e-12, abs=1e-12
                    )

    def test_absorb_and_replay_are_bit_exact(self, rng, engine, pref_name, coverage_fraction):
        detours = _random_detours(rng, coverage_fraction=coverage_fraction)
        dense, other = _pair(detours, engine, pref_name)
        utilities = _utilities(rng, dense, high=0.5)
        for col in (1, dense.num_sites // 2):
            for capacity in (None, 0, 7):
                assert (
                    other.absorb(utilities, col, capacity).tobytes()
                    == dense.absorb(utilities, col, capacity).tobytes()
                )
        columns = [0, 3, 9]
        assert (
            other.utilities_for_selection(columns, capacity=6, seed_columns=[2]).tobytes()
            == dense.utilities_for_selection(columns, capacity=6, seed_columns=[2]).tobytes()
        )
        assert (
            other.per_trajectory_utility(columns).tobytes()
            == dense.per_trajectory_utility(columns).tobytes()
        )
        assert other.utility_of(columns) == dense.utility_of(columns)
        assert other.utility_of([]) == dense.utility_of([]) == 0.0

    def test_gain_updates_match(self, rng, engine, pref_name, coverage_fraction):
        detours = _random_detours(rng, coverage_fraction=coverage_fraction)
        dense, other = _pair(detours, engine, pref_name)
        rows = np.sort(
            rng.choice(dense.num_trajectories, size=20, replace=False)
        ).astype(np.int64)
        if dense.preference.is_binary:
            # a binary greedy only ever lifts a trajectory from 0 to 1
            old = np.zeros(len(rows))
            new = np.ones(len(rows))
        else:
            old = rng.uniform(0.0, 0.4, len(rows))
            new = old + rng.uniform(0.01, 0.5, len(rows))
        np.testing.assert_allclose(
            other.gain_updates(rows, old, new),
            dense.gain_updates(rows, old, new),
            rtol=1e-12,
            atol=1e-12,
        )
        empty = np.empty(0, dtype=np.int64)
        assert np.array_equal(
            other.gain_updates(empty, np.empty(0), np.empty(0)),
            np.zeros(dense.num_sites),
        )


# ---------------------------------------------------------------------- #
# greedy selection parity
# ---------------------------------------------------------------------- #
def _with_near_ties(detours):
    """Plant exact and near ties: columns 10–14 copy 0–4 exactly, and
    columns 15–19 copy 5–9 shifted by 1e-13 km — gains that differ far
    below ``GAIN_RTOL``, which every loop must treat as ties."""
    planted = detours.copy()
    planted[:, 10:15] = detours[:, 0:5]
    planted[:, 15:20] = detours[:, 5:10] + 1e-13
    return planted


@pytest.mark.parametrize("capacity", [None, 9], ids=["uncapacitated", "cap9"])
@pytest.mark.parametrize("existing", [(), (2, 5)], ids=["fresh", "existing"])
@pytest.mark.parametrize("near_ties", [False, True], ids=["random", "near-ties"])
@pytest.mark.parametrize(("engine", "pref_name"), ORACLE_CASES)
def test_select_matches_recompute_oracle(rng, engine, pref_name, near_ties, existing, capacity):
    """``IncGreedy.select`` equals the recompute oracle on every engine and ψ,
    with and without existing sites, capacities and near-tied gains."""
    detours = _random_detours(rng)
    if near_ties:
        detours = _with_near_ties(detours)
    dense, coverage = _pair(detours, engine, pref_name)
    capacities = None if capacity is None else np.full(dense.num_sites, capacity)
    expected = recompute_select(
        dense, 8, existing_columns=list(existing), capacities=capacities
    )
    assert_matches_oracle(
        IncGreedy(coverage).select(8, existing_columns=list(existing), capacities=capacities),
        expected,
    )
    # the CELF heap (the capacity loop) also answers uncapacitated queries
    assert_matches_oracle(
        LazyGreedy(coverage).select(8, existing_columns=list(existing), capacities=capacities),
        expected,
    )


@pytest.mark.parametrize("pref_name", ["binary", "linear", "exponential"])
class TestSelectionParity:
    def test_dense_strategies_agree(self, rng, pref_name):
        detours = _random_detours(rng)
        dense = CoverageIndex(detours, TAU_KM, make_preference(pref_name))
        expected = recompute_select(dense, 8)
        assert_matches_oracle(IncGreedy(dense).select(8), expected)
        assert_matches_oracle(LazyGreedy(dense).select(8), expected)

    def test_sparse_lazy_matches_dense(self, rng, pref_name):
        detours = _random_detours(rng)
        preference = make_preference(pref_name)
        dense = CoverageIndex(detours, TAU_KM, preference)
        sparse = SparseCoverageIndex(detours, TAU_KM, preference)
        expected = IncGreedy(dense).select(8)
        _assert_same_selection(IncGreedy(sparse).select(8), expected)
        _assert_same_selection(LazyGreedy(sparse).select(8), expected)
        query = TOPSQuery(k=8, tau_km=TAU_KM, preference=preference)
        _assert_same_result(IncGreedy(sparse).solve(query), IncGreedy(dense).solve(query))

    def test_capacities_and_existing_sites(self, rng, pref_name):
        detours = _random_detours(rng)
        preference = make_preference(pref_name)
        dense = CoverageIndex(detours, TAU_KM, preference)
        sparse = SparseCoverageIndex(detours, TAU_KM, preference)
        capacities = np.full(dense.num_sites, 11)
        expected = recompute_select(dense, 6, existing_columns=[2, 5], capacities=capacities)
        actual = IncGreedy(sparse).select(6, existing_columns=[2, 5], capacities=capacities)
        assert_matches_oracle(actual, expected)


@pytest.mark.parametrize("loop", [IncGreedy, LazyGreedy], ids=["incremental", "lazy"])
def test_bitset_strategies_match_dense(rng, loop):
    detours = _random_detours(rng)
    dense = CoverageIndex(detours, TAU_KM, BinaryPreference())
    bitset = BitsetCoverageIndex(detours, TAU_KM, BinaryPreference())
    assert_matches_oracle(loop(bitset).select(8), recompute_select(dense, 8))
    assert_matches_oracle(
        loop(bitset).select(8, existing_columns=[4]),
        recompute_select(dense, 8, existing_columns=[4]),
    )


@pytest.mark.parametrize("tau_km", [0.4, 0.8, 1.6])
def test_flat_space_dense_sparse_parity_on_beijing_like(tiny_problem, tau_km):
    """Dense and sparse Inc-Greedy select alike on a Beijing-like detour matrix."""
    detours = tiny_problem.detour_matrix()
    query = TOPSQuery(k=10, tau_km=tau_km)
    dense = CoverageIndex(detours, tau_km, query.preference)
    sparse = SparseCoverageIndex(detours, tau_km, query.preference)
    _assert_same_selection(IncGreedy(sparse).select(10), IncGreedy(dense).select(10))


# ---------------------------------------------------------------------- #
# variant drivers
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("engine", ["sparse", "bitset"])
class TestVariantDriverParity:
    def test_tops_cost(self, rng, engine):
        dense, other = _pair(_random_detours(rng), engine, "binary")
        costs = np.linspace(1.0, 3.0, dense.num_sites)
        _assert_same_result(
            solve_tops_cost(other, budget=10.0, site_costs=costs),
            solve_tops_cost(dense, budget=10.0, site_costs=costs),
        )

    def test_tops_capacity(self, rng, engine):
        pref_name = "linear" if engine == "sparse" else "binary"
        dense, other = _pair(_random_detours(rng), engine, pref_name)
        query = TOPSQuery(k=5, tau_km=TAU_KM, preference=make_preference(pref_name))
        capacities = np.full(dense.num_sites, 9.0)
        _assert_same_result(
            solve_tops_capacity(other, query, capacities),
            solve_tops_capacity(dense, query, capacities),
        )

    def test_tops_with_existing(self, rng, engine):
        dense, other = _pair(_random_detours(rng), engine, "binary")
        query = TOPSQuery(k=4, tau_km=TAU_KM)
        existing = [int(dense.site_labels[3]), int(dense.site_labels[8])]
        _assert_same_result(
            solve_tops_with_existing(other, query, existing),
            solve_tops_with_existing(dense, query, existing),
        )

    def test_tops_market_share(self, rng, engine):
        dense, other = _pair(_random_detours(rng), engine, "binary")
        _assert_same_result(
            solve_tops_market_share(other, beta=0.6),
            solve_tops_market_share(dense, beta=0.6),
        )

    def test_fm_greedy(self, rng, engine):
        dense, other = _pair(_random_detours(rng), engine, "binary")
        query = TOPSQuery(k=5, tau_km=TAU_KM)
        _assert_same_result(
            FMGreedy(other, num_sketches=12).solve(query),
            FMGreedy(dense, num_sketches=12).solve(query),
        )


def test_min_inconvenience_refuses_sparse_coverage(rng):
    detours = _random_detours(rng)
    sparse = SparseCoverageIndex(detours, 1e9, InconveniencePreference())
    with pytest.raises(ValueError, match="dense engine"):
        solve_tops_min_inconvenience(sparse, TOPSQuery(k=3, tau_km=1e9))
    dense = CoverageIndex(detours, 1e9, InconveniencePreference())
    assert len(solve_tops_min_inconvenience(dense, TOPSQuery(k=3, tau_km=1e9)).sites) == 3


# ---------------------------------------------------------------------- #
# NetClus clustered space and the flat problem
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("tau_km", [0.9, 1.6])
@pytest.mark.parametrize("pref_name", ["binary", "linear", "exponential"])
def test_netclus_query_parity_against_references(tiny_netclus, pref_name, tau_km):
    """The ψ-chosen view answers like dense (and, for binary ψ, sparse)
    references built from the same canonical entries."""
    query = TOPSQuery(k=6, tau_km=tau_km, preference=make_preference(pref_name))
    prepared = tiny_netclus.prepare_coverage(query.tau_km, query.preference)
    chosen = BitsetCoverageIndex if query.preference.is_binary else SparseCoverageIndex
    assert type(prepared.coverage) is chosen
    answers = (
        tiny_netclus.query(query),
        tiny_netclus.query(query, prepared=prepared),
    )
    for kind in reference_kinds(query.preference):
        reference = reference_view(tiny_netclus, tau_km, query.preference, kind)
        baseline = tiny_netclus.query(query, prepared=reference)
        for result in answers:
            _assert_same_result(result, baseline)
            assert "shards" not in result.metadata


@pytest.mark.parametrize("pref_name", ["binary", "linear"])
def test_warm_view_is_the_cold_build(tiny_netclus, pref_name):
    """A view materialised from cached entries is the cold build."""
    preference = make_preference(pref_name)
    cold_index = copy.deepcopy(tiny_netclus)
    cold_index.coverage_cache = None
    cold = cold_index.prepare_coverage(0.8, preference).coverage
    warm_index = copy.deepcopy(tiny_netclus)
    warm_index.coverage_cache = None
    warm_index.enable_coverage_cache()
    warm_index.prepare_coverage(0.8, preference)
    warm_index = copy.deepcopy(warm_index)  # keeps the entries, drops the view
    warm = warm_index.prepare_coverage(0.8, preference).coverage
    assert warm_index.coverage_cache.stats()["materialisations"] == 1
    assert type(warm) is type(cold)
    assert warm.site_weights.tobytes() == cold.site_weights.tobytes()
    for column in range(cold.num_sites):
        for got, want in zip(warm.site_column(column), cold.site_column(column)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("engine", ["sparse", "bitset", "auto"])
def test_problem_coverage_engine_parity(grid_problem, binary_query, engine):
    dense = grid_problem.coverage(binary_query, engine="dense")
    other = grid_problem.coverage(binary_query, engine=engine)
    _assert_same_selection(IncGreedy(other).select(5), IncGreedy(dense).select(5))
    _assert_same_result(
        grid_problem.solve(binary_query, engine=engine),
        grid_problem.solve(binary_query, engine="dense"),
    )


# ---------------------------------------------------------------------- #
# dynamic updates
# ---------------------------------------------------------------------- #
def test_engine_parity_survives_apply_updates(tiny_bundle):
    problem = tiny_bundle.problem()
    index = problem.build_netclus_index(tau_max_km=2.0, max_instances=3)
    network = tiny_bundle.network
    # a fresh trajectory along real edges plus site churn, as one batch
    start = next(iter(index.sites))
    neighbor = next(iter(network.successors(start)))
    new_id = max(index.trajectory_ids) + 101
    trajectory = Trajectory.from_nodes(new_id, [start, neighbor, start], network)
    removable = sorted(index.sites)[:2]
    index.apply_updates(
        UpdateBatch(
            add_trajectories=(trajectory,),
            remove_sites=tuple(removable),
        )
    )
    assert new_id in index.trajectory_ids
    for preference in (BinaryPreference(), make_preference("linear")):
        query = TOPSQuery(k=5, tau_km=0.8, preference=preference)
        result = index.query(query)
        assert not set(result.sites) & set(removable)
        for kind in reference_kinds(preference):
            reference = reference_view(index, query.tau_km, preference, kind)
            _assert_same_result(result, index.query(query, prepared=reference))


# ---------------------------------------------------------------------- #
# placement service
# ---------------------------------------------------------------------- #
def _mixed_specs():
    return [
        QuerySpec(k=3, tau_km=0.8),
        QuerySpec(k=7, tau_km=0.8),  # shares the k=7 run
        QuerySpec(k=4, tau_km=0.8, preference="linear"),
        QuerySpec(k=3, tau_km=0.8, capacity=12),
        QuerySpec(k=1, tau_km=0.8, budget=4.0),
        QuerySpec(k=3, tau_km=1.6, existing_sites=(0,)),
    ]


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_service_batch_results_identical_to_reference_views(tiny_netclus, kind):
    """Service answers equal those served from *kind* views of the same
    coverage-cache parts' entries (sparse references for binary ψ only)."""
    specs = _mixed_specs()
    index = copy.deepcopy(tiny_netclus)
    index.coverage_cache = None
    expected = PlacementService(index, coverage_cache=True).batch_query(specs)
    reference_index = copy.deepcopy(index)
    parts = reference_index.coverage_cache.parts
    if kind == "sparse":
        for key in [key for key, part in parts.items() if not part.preference_fn().is_binary]:
            del parts[key]
    seeded = seed_reference_views(reference_index, kind)
    assert seeded >= 2
    reference = PlacementService(reference_index, cache_size=0)
    results = reference.batch_query(specs)
    assert len(results) == len(expected)
    for spec, got, want in zip(specs, results, expected):
        if kind == "sparse" and not spec.preference_fn().is_binary:
            continue
        _assert_same_result(got, want)
        assert "shards" not in want.metadata
    assert reference.stats.coverage_cache_hits == seeded
