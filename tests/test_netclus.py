"""Unit tests for the NetClus index: construction, instance selection, querying."""

from __future__ import annotations

import math

import numpy as np
import pytest
from coverage_reference import reference_kinds, reference_view

from repro.core.fm_greedy import FMGreedy
from repro.core.preference import BinaryPreference, LinearPreference
from repro.core.query import TOPSQuery
from repro.experiments.runner import fm_netclus


@pytest.fixture(scope="module")
def index(tiny_problem):
    return tiny_problem.build_netclus_index(gamma=0.75, tau_min_km=0.4, tau_max_km=4.0)


class TestConstruction:
    def test_instance_count_formula(self, index):
        expected = int(math.floor(math.log(4.0 / 0.4, 1.75))) + 1
        assert index.num_instances == expected

    def test_radii_ladder(self, index):
        radii = [instance.radius_km for instance in index.instances]
        assert radii[0] == pytest.approx(0.1)
        for prev, nxt in zip(radii, radii[1:]):
            assert nxt == pytest.approx(prev * 1.75)

    def test_cluster_count_decreases_with_radius(self, index):
        counts = [instance.num_clusters for instance in index.instances]
        assert counts[-1] < counts[0]
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_every_node_clustered_in_every_instance(self, tiny_problem, index):
        all_nodes = set(tiny_problem.network.node_ids())
        for instance in index.instances:
            clustered = set()
            for cluster in instance.clusters:
                clustered.update(cluster.nodes)
            assert clustered == all_nodes

    def test_cluster_radius_invariant(self, index):
        for instance in index.instances:
            for cluster in instance.clusters:
                for round_trip in cluster.nodes.values():
                    assert round_trip <= 2.0 * instance.radius_km + 1e-9

    def test_representative_is_site_in_cluster(self, index, tiny_problem):
        sites = set(tiny_problem.sites)
        for instance in index.instances:
            for cluster in instance.clusters:
                if cluster.has_representative:
                    assert cluster.representative in sites
                    assert cluster.representative in cluster.nodes

    def test_representative_is_closest_site_to_center(self, index, tiny_problem):
        sites = set(tiny_problem.sites)
        for instance in index.instances:
            for cluster in instance.clusters:
                if not cluster.has_representative:
                    continue
                site_distances = [
                    rt for node, rt in cluster.nodes.items() if node in sites
                ]
                assert cluster.representative_round_trip_km == pytest.approx(
                    min(site_distances)
                )

    def test_trajectory_lists_reference_real_trajectories(self, index, tiny_problem):
        traj_ids = set(tiny_problem.trajectories.ids())
        for instance in index.instances:
            for cluster in instance.clusters:
                assert set(cluster.trajectory_list) <= traj_ids

    def test_trajectory_list_distance_bounded(self, index):
        """dr(T, c_i) is the round trip of a member node, hence at most 2R."""
        for instance in index.instances:
            for cluster in instance.clusters:
                for distance in cluster.trajectory_list.values():
                    assert distance <= 2.0 * instance.radius_km + 1e-9

    def test_every_trajectory_registered_somewhere(self, index, tiny_problem):
        for instance in index.instances:
            registered = set()
            for cluster in instance.clusters:
                registered.update(cluster.trajectory_list)
            assert registered == set(tiny_problem.trajectories.ids())

    def test_neighbor_threshold(self, index):
        for instance in index.instances:
            threshold = 4.0 * instance.radius_km * (1.0 + instance.gamma)
            for cluster in instance.clusters:
                for neighbor_id, distance in cluster.neighbors:
                    assert distance <= threshold + 1e-9
                    assert neighbor_id != cluster.cluster_id

    def test_neighbors_sorted_by_distance(self, index):
        for instance in index.instances:
            for cluster in instance.clusters:
                distances = [d for _, d in cluster.neighbors]
                assert distances == sorted(distances)

    def test_construction_statistics(self, index):
        stats = index.construction_statistics()
        assert len(stats) == index.num_instances
        for row in stats:
            assert row["num_clusters"] >= 1
            assert row["storage_bytes"] > 0

    def test_storage_and_build_time(self, index):
        assert index.storage_bytes() > 0
        assert index.build_seconds() > 0.0

    def test_invalid_parameters(self, tiny_problem):
        with pytest.raises(ValueError):
            tiny_problem.build_netclus_index(gamma=-0.5)
        with pytest.raises(ValueError):
            tiny_problem.build_netclus_index(tau_min_km=2.0, tau_max_km=1.0)


class TestInstanceSelection:
    def test_tau_within_supported_range(self, index):
        for tau in (0.5, 0.8, 1.3, 2.0, 3.5):
            instance = index.instance_for(tau)
            low, high = instance.tau_range
            # τ must not be below the instance's lower bound (upper bound may
            # be exceeded only for the coarsest instance)
            if instance.instance_id < index.num_instances - 1:
                assert low <= tau < high or tau < low

    def test_formula(self, index):
        tau = 1.0
        expected = int(math.floor(math.log(tau / index.tau_min_km, 1.0 + index.gamma)))
        assert index.instance_for(tau).instance_id == expected

    def test_below_minimum_uses_finest(self, index):
        assert index.instance_for(0.05).instance_id == 0

    def test_above_maximum_uses_coarsest(self, index):
        assert index.instance_for(100.0).instance_id == index.num_instances - 1

    def test_invalid_tau(self, index):
        with pytest.raises(ValueError):
            index.instance_for(0.0)


class TestEstimatedDetours:
    def test_estimates_upper_bound_exact(self, index, tiny_problem):
        """d̂r(T, r_i) ≥ dr(T, r_i): the clustered estimate never undershoots."""
        instance = index.instance_for(0.8)
        rows = {tid: i for i, tid in enumerate(tiny_problem.trajectories.ids())}
        # an effectively infinite τ keeps every estimate, not just the covers
        entry_rows, entry_cols, estimates = instance.coverage_entries(rows, 1e9)
        rep_sites = instance.reps[instance.representative_clusters()]
        oracle = tiny_problem.oracle
        exact = np.stack(
            [
                oracle.detour_vector(trajectory)[[oracle.site_index[s] for s in rep_sites]]
                for trajectory in tiny_problem.trajectories
            ]
        )
        assert len(estimates) > 0
        assert np.all(estimates >= exact[entry_rows, entry_cols] - 1e-6)

    def test_approximate_cover_subset_of_exact(self, index, tiny_problem):
        """T̂C(r_i) ⊆ TC(r_i) (Section 5.1)."""
        query_tau = 0.8
        instance = index.instance_for(query_tau)
        rows = {tid: i for i, tid in enumerate(tiny_problem.trajectories.ids())}
        entry_rows, entry_cols, _ = instance.coverage_entries(rows, query_tau)
        rep_sites = instance.reps[instance.representative_clusters()].tolist()
        oracle = tiny_problem.oracle
        for col, site in enumerate(rep_sites):
            approx_cover = set(entry_rows[entry_cols == col].tolist())
            exact_cover = {
                row
                for row, trajectory in enumerate(tiny_problem.trajectories)
                if oracle.detour(trajectory, site) <= query_tau + 1e-9
            }
            assert approx_cover <= exact_cover

class TestQuery:
    def test_returns_k_sites(self, index):
        result = index.query(TOPSQuery(k=5, tau_km=0.8))
        assert len(result.sites) == 5

    def test_sites_are_candidate_sites(self, index, tiny_problem):
        result = index.query(TOPSQuery(k=5, tau_km=0.8))
        assert set(result.sites) <= set(tiny_problem.sites)

    def test_quality_close_to_inc_greedy(self, index, tiny_problem):
        query = TOPSQuery(k=5, tau_km=0.8)
        incg = tiny_problem.solve(query)
        incg_pct = tiny_problem.utility_percent(incg.sites, query)
        netclus_pct = tiny_problem.utility_percent(index.query(query).sites, query)
        assert netclus_pct >= 0.75 * incg_pct

    def test_metadata_records_instance(self, index):
        result = index.query(TOPSQuery(k=3, tau_km=1.5))
        assert result.metadata["instance_id"] == index.instance_for(1.5).instance_id
        assert result.algorithm == "netclus"

    def test_fm_variant(self, index):
        query = TOPSQuery(k=3, tau_km=0.8)
        result = fm_netclus(index, query)
        assert result.algorithm == "fm-netclus"
        assert len(result.sites) == 3
        assert result.metadata["instance_id"] == index.instance_for(0.8).instance_id
        coverage = index.prepare_coverage(query.tau_km, query.preference).coverage
        assert result.utility == coverage.utility_of(coverage.columns_for_labels(result.sites))

    def test_fm_variant_refuses_graded_preference(self, index):
        query = TOPSQuery(k=3, tau_km=0.8, preference=LinearPreference())
        with pytest.raises(ValueError, match="binary"):
            fm_netclus(index, query)

    def test_graded_preference_query(self, index, tiny_problem):
        query = TOPSQuery(k=4, tau_km=1.0, preference=LinearPreference())
        result = index.query(query)
        assert len(result.sites) == 4
        exact, _ = tiny_problem.evaluate(result.sites, query)
        assert exact > 0.0

    def test_existing_sites_excluded(self, index):
        query = TOPSQuery(k=3, tau_km=0.8)
        plain = index.query(query)
        seeded = index.query(query, existing_sites=[plain.sites[0]])
        assert plain.sites[0] not in seeded.sites

    def test_utility_monotone_in_k(self, index):
        utilities = [index.query(TOPSQuery(k=k, tau_km=0.8)).utility for k in (1, 3, 6)]
        assert utilities == sorted(utilities)


class TestCoverageView:
    """ψ picks the clustered coverage (bitset for binary, sparse otherwise);
    it must answer like dense and sparse references of the same entries."""

    @staticmethod
    def _references(index, query):
        for kind in reference_kinds(query.preference):
            yield reference_view(index, query.tau_km, query.preference, kind)

    @pytest.mark.parametrize("tau", [0.4, 0.8, 1.6, 3.0])
    @pytest.mark.parametrize(
        "preference", [BinaryPreference(), LinearPreference()], ids=["binary", "linear"]
    )
    def test_views_agree(self, index, tau, preference):
        query = TOPSQuery(k=5, tau_km=tau, preference=preference)
        chosen = index.query(query)
        for reference in self._references(index, query):
            expected = index.query(query, prepared=reference)
            assert chosen.sites == expected.sites
            assert chosen.utility == pytest.approx(expected.utility)
        assert "engine" not in chosen.metadata

    def test_views_agree_with_fm_sketches(self, index):
        query = TOPSQuery(k=4, tau_km=0.8)
        chosen = fm_netclus(index, query)
        for reference in self._references(index, query):
            expected = FMGreedy(reference.coverage).solve(query)
            assert chosen.sites == expected.sites

    def test_views_agree_with_existing_sites(self, index, tiny_problem):
        query = TOPSQuery(k=3, tau_km=0.8)
        seed_sites = list(tiny_problem.sites[:2])
        chosen = index.query(query, existing_sites=seed_sites)
        for reference in self._references(index, query):
            expected = index.query(query, existing_sites=seed_sites, prepared=reference)
            assert chosen.sites == expected.sites

    def test_engine_option_is_gone(self, index):
        with pytest.raises(TypeError):
            index.query(TOPSQuery(k=2, tau_km=0.8), engine="sparse")
        with pytest.raises(TypeError):
            index.prepare_coverage(0.8, BinaryPreference(), engine="dense")
