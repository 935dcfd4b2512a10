"""Property-based tests (hypothesis) for the core invariants.

These cover the mathematical properties the paper's guarantees rest on:
monotonicity and submodularity of the utility, the greedy approximation bound
against the exact optimum, resumed and replayed greedy runs against fresh
ones, the FM-sketch union/monotonicity laws, the detour
prefix-minimum equivalence, and the NetClus estimate/cover containment.
"""

from __future__ import annotations

import numpy as np
import pytest
from coverage_reference import reference_view
from greedy_oracle import assert_matches_oracle, recompute_select
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.bitcov import BitsetCoverageIndex
from repro.core.coverage import CoverageIndex, SparseCoverageIndex
from repro.core.greedy import IncGreedy
from repro.core.optimal import OptimalSolver
from repro.core.preference import BinaryPreference, ExponentialPreference, LinearPreference
from repro.core.query import TOPSQuery
from repro.sketch.fm import estimate_rows, hash_items

# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #

SMALL_DETOURS = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 10), st.integers(2, 8)),
    elements=st.one_of(
        st.floats(min_value=0.0, max_value=3.0),
        st.just(np.inf),
    ),
)

PREFERENCES = st.sampled_from(
    [BinaryPreference(), LinearPreference(), ExponentialPreference()]
)


def make_coverage(detours, preference, tau=1.0):
    return CoverageIndex(np.asarray(detours), tau_km=tau, preference=preference)


# ---------------------------------------------------------------------- #
# utility function properties
# ---------------------------------------------------------------------- #


class TestUtilityProperties:
    @given(detours=SMALL_DETOURS, preference=PREFERENCES, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotonicity(self, detours, preference, data):
        """U(Q) ≤ U(R) whenever Q ⊆ R (Theorem 2, non-decreasing)."""
        coverage = make_coverage(detours, preference)
        n = coverage.num_sites
        subset_size = data.draw(st.integers(0, n - 1))
        subset = list(range(subset_size))
        superset = subset + [data.draw(st.integers(subset_size, n - 1))]
        assert coverage.utility_of(superset) >= coverage.utility_of(subset) - 1e-12

    @given(detours=SMALL_DETOURS, preference=PREFERENCES, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_submodularity(self, detours, preference, data):
        """U(Q∪{s}) − U(Q) ≥ U(R∪{s}) − U(R) for Q ⊆ R, s ∉ R (Theorem 2)."""
        coverage = make_coverage(detours, preference)
        n = coverage.num_sites
        if n < 3:
            return
        columns = list(range(n))
        data_rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        data_rng.shuffle(columns)
        split_q = data.draw(st.integers(0, n - 2))
        split_r = data.draw(st.integers(split_q, n - 2))
        q_set = columns[:split_q]
        r_set = columns[:split_r]
        extra = columns[-1]
        gain_q = coverage.utility_of(q_set + [extra]) - coverage.utility_of(q_set)
        gain_r = coverage.utility_of(r_set + [extra]) - coverage.utility_of(r_set)
        assert gain_q >= gain_r - 1e-9

    @given(detours=SMALL_DETOURS, preference=PREFERENCES)
    @settings(max_examples=40, deadline=None)
    def test_utility_bounded_by_trajectory_count(self, detours, preference):
        coverage = make_coverage(detours, preference)
        full = coverage.utility_of(list(range(coverage.num_sites)))
        assert 0.0 <= full <= coverage.num_trajectories + 1e-9


class TestGreedyProperties:
    @given(detours=SMALL_DETOURS, k=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_greedy_bound_vs_optimal(self, detours, k):
        """Greedy achieves at least (1 − 1/e)·OPT (Lemma 1)."""
        coverage = make_coverage(detours, BinaryPreference())
        k = min(k, coverage.num_sites)
        greedy = IncGreedy(coverage).solve(TOPSQuery(k=k, tau_km=1.0))
        optimal = OptimalSolver(coverage).solve(TOPSQuery(k=k, tau_km=1.0))
        assert greedy.utility >= (1 - 1 / np.e) * optimal.utility - 1e-9

    @given(detours=SMALL_DETOURS, k=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_greedy_k_over_n_bound(self, detours, k):
        """Greedy achieves at least (k/n)·U(S) (Lemma 2/3)."""
        coverage = make_coverage(detours, LinearPreference())
        n = coverage.num_sites
        k = min(k, n)
        greedy = IncGreedy(coverage).solve(TOPSQuery(k=k, tau_km=1.0))
        full = coverage.utility_of(list(range(n)))
        assert greedy.utility >= (k / n) * full - 1e-9

    @given(detours=SMALL_DETOURS, preference=PREFERENCES, k=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_incremental_matches_recompute(self, detours, preference, k):
        coverage = make_coverage(detours, preference)
        sparse = SparseCoverageIndex(np.asarray(detours), 1.0, preference)
        expected = recompute_select(coverage, k)
        assert_matches_oracle(IncGreedy(coverage).select(k), expected)
        assert_matches_oracle(IncGreedy(sparse).select(k), expected)

    @given(detours=SMALL_DETOURS, k=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_greedy_marginal_gains_non_increasing(self, detours, k):
        coverage = make_coverage(detours, LinearPreference())
        _, _, gains = IncGreedy(coverage).select(min(k, coverage.num_sites))
        assert all(b <= a + 1e-9 for a, b in zip(gains, gains[1:]))


ENGINES = {"dense": CoverageIndex, "sparse": SparseCoverageIndex, "bitset": BitsetCoverageIndex}


def _engine_and_preference(data):
    """A (coverage class, ψ) pair the engine supports: bitset is binary-only."""
    engine = data.draw(st.sampled_from(sorted(ENGINES)))
    if engine == "bitset":
        return ENGINES[engine], BinaryPreference()
    return ENGINES[engine], data.draw(PREFERENCES)


def _existing(data, num_sites):
    """No existing sites, or up to two distinct seed columns."""
    count = data.draw(st.integers(0, min(2, num_sites - 1)))
    return data.draw(
        st.lists(st.integers(0, num_sites - 1), min_size=count, max_size=count, unique=True)
    )


def _same_selection(got, want):
    columns, utilities, gains = got
    assert columns == want[0]
    assert gains == want[2]
    assert utilities.tobytes() == want[1].tobytes()


class TestGreedyRunProperties:
    @given(detours=SMALL_DETOURS, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_resumed_run_equals_fresh_run(self, detours, data):
        """Resuming a run from k1 to k2 answers exactly as a fresh run at k2:
        columns, gains and per-trajectory utility bytes, on every engine."""
        engine, preference = _engine_and_preference(data)
        coverage = engine(np.asarray(detours), 1.0, preference)
        existing = _existing(data, coverage.num_sites)
        k1 = data.draw(st.integers(1, coverage.num_sites))
        k2 = data.draw(st.integers(k1, coverage.num_sites + 1))
        first = IncGreedy(coverage)
        first.select(k1, existing_columns=existing)
        resumed = IncGreedy.resuming(coverage, first.run)
        got = resumed.select(k2, existing_columns=existing)
        fresh = IncGreedy(coverage)
        _same_selection(got, fresh.select(k2, existing_columns=existing))
        assert resumed.run.marginal.tobytes() == fresh.run.marginal.tobytes()
        assert resumed.run.exhausted == fresh.run.exhausted
        # the resume worked on copies: the first run still replays as before
        assert first.run.utilities.tobytes() == IncGreedy(coverage).select(
            k1, existing_columns=existing
        )[1].tobytes()

    @given(detours=SMALL_DETOURS, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_replayed_prefix_equals_fresh_run(self, detours, data):
        """A run at k answers every smaller k by prefix replay, byte for
        byte, with and without capacities."""
        engine, preference = _engine_and_preference(data)
        coverage = engine(np.asarray(detours), 1.0, preference)
        existing = _existing(data, coverage.num_sites)
        capacity = data.draw(st.one_of(st.none(), st.integers(1, 4)))
        capacities = None if capacity is None else np.full(coverage.num_sites, capacity)
        k = data.draw(st.integers(1, coverage.num_sites))
        solver = IncGreedy(coverage)
        solver.select(k, existing_columns=existing, capacities=capacities)
        run = solver.run
        for smaller in range(1, len(run.columns) + 1):
            want = IncGreedy(coverage).select(
                smaller, existing_columns=existing, capacities=capacities
            )
            assert list(run.columns[:smaller]) == want[0]
            assert run.prefix_utilities(smaller).tobytes() == want[1].tobytes()


def fm_sketch(items: list[int], copies: int) -> np.ndarray:
    """The ``(copies,)`` FM sketch row of a set: the OR of its items' rows."""
    return np.bitwise_or.reduce(hash_items(np.array(items, dtype=np.int64), copies), axis=0)


class TestFMSketchProperties:
    @given(
        items_a=st.lists(st.integers(0, 10_000), max_size=100, unique=True),
        items_b=st.lists(st.integers(0, 10_000), max_size=100, unique=True),
        copies=st.integers(4, 32),
    )
    @settings(max_examples=50, deadline=None)
    def test_union_is_or(self, items_a, items_b, copies):
        """The sketch of A ∪ B is the bitwise OR of the sketches of A and B."""
        union = sorted(set(items_a) | set(items_b))
        assert np.array_equal(
            fm_sketch(union, copies), fm_sketch(items_a, copies) | fm_sketch(items_b, copies)
        )

    @given(
        items_a=st.lists(st.integers(0, 10_000), max_size=100, unique=True),
        items_b=st.lists(st.integers(0, 10_000), max_size=100, unique=True),
        copies=st.integers(4, 32),
    )
    @settings(max_examples=50, deadline=None)
    def test_union_estimate_monotone(self, items_a, items_b, copies):
        """The union's estimate is at least each part's estimate (bits only grow)."""
        a, b = fm_sketch(items_a, copies), fm_sketch(items_b, copies)
        union, part_a, part_b = estimate_rows(np.vstack([a | b, a, b]))
        assert union >= part_a
        assert union >= part_b

    @given(
        items=st.lists(st.integers(0, 10_000), max_size=150, unique=True),
        copies=st.integers(4, 32),
    )
    @settings(max_examples=50, deadline=None)
    def test_insertion_order_invariance(self, items, copies):
        forward = fm_sketch(items, copies)
        assert np.array_equal(forward, fm_sketch(list(reversed(items)), copies))


class TestDetourProperties:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 1_000))
    def test_prefix_min_equals_bruteforce(self, seed):
        """The O(l) detour evaluation equals the O(l²) reference definition."""
        from repro.core.distances import DistanceOracle
        from repro.network.generators import random_planar_network
        from repro.trajectory.generators import random_route_trajectories

        network = random_planar_network(25, area_km=4.0, seed=seed % 17)
        oracle = DistanceOracle(network, network.node_ids()[:10])
        dataset = random_route_trajectories(network, 3, seed=seed)
        for trajectory in dataset:
            fast = oracle.detour_vector(trajectory)
            for site in oracle.sites[:5]:
                assert fast[oracle.site_index[int(site)]] == pytest.approx(
                    oracle.detour_bruteforce(trajectory, int(site)), abs=1e-9
                )

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 1_000))
    def test_netclus_estimate_never_undershoots(self, seed):
        """d̂r ≥ dr and therefore T̂C ⊆ TC, on random small instances."""
        from repro.core.netclus import NetClusIndex
        from repro.core.distances import DistanceOracle
        from repro.network.generators import random_planar_network
        from repro.trajectory.generators import random_route_trajectories

        network = random_planar_network(30, area_km=4.0, seed=seed % 13)
        dataset = random_route_trajectories(network, 5, seed=seed)
        sites = network.node_ids()
        index = NetClusIndex.build(
            network, dataset, sites, gamma=0.75, tau_min_km=0.4, tau_max_km=2.0
        )
        oracle = DistanceOracle(network, sites)
        tau = 0.9
        instance = index.instance_for(tau)
        rows = {tid: i for i, tid in enumerate(dataset.ids())}
        # an effectively infinite τ keeps every estimate, not just the covers
        entry_rows, entry_cols, estimates = instance.coverage_entries(rows, 1e9)
        rep_sites = instance.reps[instance.representative_clusters()]
        exact = np.stack(
            [
                oracle.detour_vector(t)[[oracle.site_index[s] for s in rep_sites]]
                for t in dataset
            ]
        )
        assert np.all(estimates >= exact[entry_rows, entry_cols] - 1e-6)

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 1_000), tau=st.sampled_from([0.5, 0.9, 1.6, 3.0]))
    def test_coverage_entries_contract(self, seed, tau):
        """The coverage kernel is the Section 5.1 estimate, restricts exactly
        to rows × columns, accepts any trajectory id, and its τ = 1e9 dense
        view is the minimum over every neighbour cluster (what TOPS3 reads)."""
        from repro.core.coverage import canonical_entries
        from repro.core.netclus import NetClusIndex
        from repro.core.preference import InconveniencePreference
        from repro.network.generators import random_planar_network
        from repro.trajectory.generators import random_route_trajectories
        from repro.trajectory.model import Trajectory, TrajectoryDataset

        rng = np.random.default_rng(seed)
        network = random_planar_network(30, area_km=4.0, seed=seed % 13)
        routes = list(random_route_trajectories(network, 8, seed=seed))
        # ids ≥ 2**40, sparse and registered out of id order
        big_ids = (1 << 40) + 7 * rng.permutation(len(routes))
        dataset = TrajectoryDataset(
            Trajectory(int(tid), t.nodes, t.cumulative_km, t.timestamps)
            for tid, t in zip(big_ids, routes)
        )
        index = NetClusIndex.build(
            network,
            dataset,
            network.node_ids()[::2],
            gamma=0.75,
            tau_min_km=0.4,
            tau_max_km=2.0,
        )
        registry = {tid: row for row, tid in enumerate(dataset.ids())}

        def reference(instance, tau):
            """d̂r per cell: one Python loop per (representative, source)."""
            clusters = instance.clusters
            reps = [cluster for cluster in clusters if cluster.has_representative]
            matrix = np.full((len(registry), len(reps)), np.inf)
            for col, cluster in enumerate(reps):
                for source, center in [(cluster.cluster_id, 0.0), *cluster.neighbors]:
                    if center > tau:
                        continue
                    members = clusters[source].trajectory_list
                    for tid, leg in members.items():
                        estimate = leg + center + cluster.representative_round_trip_km
                        row = registry[tid]
                        if estimate <= tau:
                            matrix[row, col] = min(matrix[row, col], estimate)
            return matrix

        instance = index.instance_for(tau)
        rows, cols, estimates = instance.coverage_entries(registry, tau)
        rep_clusters = instance.representative_clusters().tolist()
        full = canonical_entries(rows, cols, estimates, tau)
        dense = np.full((len(registry), len(rep_clusters)), np.inf)
        dense[full[0], full[1]] = full[2]
        assert dense.tobytes() == reference(instance, tau).tobytes()

        subset = {tid: row for tid, row in registry.items() if rng.random() < 0.5}
        cluster_ids = [c.cluster_id for c in instance.clusters if rng.random() < 0.5]
        rows, cols, estimates = instance.coverage_entries(subset, tau, cluster_ids)
        restricted = canonical_entries(rows, cols, estimates, tau)
        wanted = set(cluster_ids)
        columns = [col for col, cid in enumerate(rep_clusters) if cid in wanted]
        inside = np.isin(full[0], list(subset.values())) & np.isin(full[1], columns)
        for got, expected in zip(restricted, full):
            assert got.tobytes() == expected[inside].tobytes()

        # the ψ-chosen view at τ = 1e9 against a dense reference of the
        # same canonical entries
        chosen = index.prepare_coverage(1e9, InconveniencePreference()).coverage
        dense = reference_view(index, 1e9, InconveniencePreference(), "dense").coverage
        assert dense.detours.tobytes() == reference(index.instance_for(1e9), 1e9).tobytes()
        assert np.array_equal(chosen.coverage_mask(), dense.coverage_mask())
        for col in range(dense.num_sites):
            for got, want in zip(chosen.site_column(col), dense.site_column(col)):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# ---------------------------------------------------------------------- #
# coverage-part splice
# ---------------------------------------------------------------------- #

#: triple values: within τ = 1, above it, exactly τ and non-finite
SPLICE_VALUES = st.one_of(
    st.floats(min_value=0.0, max_value=2.0),
    st.just(1.0),
    st.just(np.inf),
    st.just(np.nan),
)
SPLICE_MODES = (
    "random",
    "empty_carried",
    "no_new",
    "all_columns_recomputed",
    "all_rows_removed",
)


def _triples(cells_and_values):
    """``(rows, cols, estimates)`` arrays of ``[((row, col), value), ...]``."""
    rows = np.asarray([cell[0] for cell, _ in cells_and_values], dtype=np.int64)
    cols = np.asarray([cell[1] for cell, _ in cells_and_values], dtype=np.int64)
    values = np.asarray([value for _, value in cells_and_values], dtype=np.float64)
    return rows, cols, values


class TestSpliceProperties:
    @pytest.mark.parametrize("mode", SPLICE_MODES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_splice_equals_full_canonicalisation(self, mode, data):
        """Splicing canonicalised raw new triples into a canonical carried
        part equals canonicalising the concatenation, byte for byte, whenever the new
        cells lie in recomputed columns or added rows (what a patch
        produces)."""
        from repro.core.covcache import splice_entries
        from repro.core.coverage import canonical_entries

        tau = 1.0
        surviving = 0 if mode == "all_rows_removed" else data.draw(st.integers(0, 12))
        added = data.draw(st.integers(0, 4))
        num_rows = surviving + added
        num_cols = data.draw(st.integers(1, 8))
        if mode == "all_columns_recomputed":
            recomputed = set(range(num_cols))
        else:
            recomputed = data.draw(st.sets(st.integers(0, num_cols - 1)))
        carried_cols = [c for c in range(num_cols) if c not in recomputed]

        carried_cells = [(r, c) for c in carried_cols for r in range(surviving)]
        carried_raw = []
        if carried_cells and mode != "empty_carried":
            carried_raw = data.draw(
                st.lists(st.tuples(st.sampled_from(carried_cells), SPLICE_VALUES))
            )
        carried = canonical_entries(*_triples(carried_raw), tau)

        new_cells = [(r, c) for c in sorted(recomputed) for r in range(num_rows)]
        new_cells += [(r, c) for c in carried_cols for r in range(surviving, num_rows)]
        new_raw = []
        if new_cells and mode != "no_new":
            # few distinct cells, many triples: duplicates are the rule
            new_raw = data.draw(
                st.lists(st.tuples(st.sampled_from(new_cells), SPLICE_VALUES), max_size=30)
            )
        new = _triples(new_raw)

        got = splice_entries(carried, canonical_entries(*new, tau), num_rows + 1)
        want = canonical_entries(
            *(np.concatenate(pair) for pair in zip(carried, new)), tau
        )
        for got_array, want_array in zip(got, want):
            assert got_array.dtype == want_array.dtype
            assert got_array.tobytes() == want_array.tobytes()
