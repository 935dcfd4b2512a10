"""Unit tests for NetClus dynamic updates (Section 6)."""

from __future__ import annotations

import pytest

from repro.core.netclus import NetClusIndex, UpdateBatch
from repro.core.query import TOPSQuery
from repro.network.generators import grid_network
from repro.service.serialization import load_index, save_index
from repro.trajectory.generators import commuter_trajectories


@pytest.fixture
def setup():
    """A fresh, mutable index over half the trajectories and half the sites."""
    network = grid_network(8, 8, spacing_km=0.5)
    all_trajectories = commuter_trajectories(network, 60, seed=17)
    base = all_trajectories.sample(40, seed=1)
    held_out = [t for t in all_trajectories if t.traj_id not in set(base.ids())]
    sites = network.node_ids()[::2]
    index = NetClusIndex.build(
        network, base, sites, gamma=0.75, tau_min_km=0.4, tau_max_km=3.0
    )
    return network, base, held_out, sites, index


class TestAddTrajectory:
    def test_add_registers_in_every_instance(self, setup):
        network, base, held_out, sites, index = setup
        new = held_out[0]
        index.add_trajectory(new)
        for instance in index.instances:
            registered = set()
            for cluster in instance.clusters:
                registered.update(cluster.trajectory_list)
            assert new.traj_id in registered

    def test_add_increases_count(self, setup):
        _, _, held_out, _, index = setup
        before = index.num_trajectories
        index.add_trajectory(held_out[0])
        assert index.num_trajectories == before + 1

    def test_duplicate_id_rejected(self, setup):
        _, base, _, _, index = setup
        with pytest.raises(ValueError):
            index.add_trajectory(base[0])

    def test_added_trajectory_affects_queries(self, setup):
        network, base, held_out, sites, index = setup
        query = TOPSQuery(k=3, tau_km=0.8)
        before = index.query(query).utility
        for trajectory in held_out:
            index.add_trajectory(trajectory)
        after = index.query(query).utility
        assert after >= before

    def test_matches_rebuilt_index(self, setup):
        """Adding trajectories incrementally == building the index from scratch."""
        network, base, held_out, sites, index = setup
        for trajectory in held_out:
            index.add_trajectory(trajectory)
        from repro.trajectory.model import TrajectoryDataset

        full = TrajectoryDataset(list(base) + list(held_out))
        rebuilt = NetClusIndex.build(
            network, full, sites, gamma=0.75, tau_min_km=0.4, tau_max_km=3.0
        )
        query = TOPSQuery(k=5, tau_km=0.8)
        assert index.query(query).utility == pytest.approx(
            rebuilt.query(query).utility, rel=1e-9
        )


class TestRemoveTrajectory:
    def test_remove_clears_all_instances(self, setup):
        _, base, _, _, index = setup
        victim = base[0].traj_id
        index.remove_trajectory(victim)
        for instance in index.instances:
            for cluster in instance.clusters:
                assert victim not in cluster.trajectory_list

    def test_remove_unknown_raises(self, setup):
        _, _, _, _, index = setup
        with pytest.raises(KeyError):
            index.remove_trajectory(10_000)

    def test_add_then_remove_is_noop(self, setup):
        _, _, held_out, _, index = setup
        query = TOPSQuery(k=3, tau_km=0.8)
        before = index.query(query).utility
        index.add_trajectory(held_out[0])
        index.remove_trajectory(held_out[0].traj_id)
        assert index.query(query).utility == pytest.approx(before)


class TestAddSite:
    def test_add_site_registers(self, setup):
        network, _, _, sites, index = setup
        new_site = next(n for n in network.node_ids() if n not in index.sites)
        index.add_site(new_site)
        assert new_site in index.sites

    def test_add_existing_site_is_noop(self, setup):
        _, _, _, sites, index = setup
        before = set(index.sites)
        index.add_site(sites[0])
        assert index.sites == before

    def test_add_site_can_become_representative(self, setup):
        network, _, _, _, index = setup
        # adding every node as a site guarantees each cluster has a
        # representative at round-trip 0 (its own center)
        for node in network.node_ids():
            index.add_site(node)
        for instance in index.instances:
            for cluster in instance.clusters:
                assert cluster.has_representative
                assert cluster.representative_round_trip_km == pytest.approx(0.0)

    def test_unknown_node_rejected(self, setup):
        _, _, _, _, index = setup
        with pytest.raises(ValueError):
            index.add_site(99_999)

    @pytest.mark.parametrize("via_batch", [False, True], ids=["add_site", "apply_updates"])
    @pytest.mark.parametrize("loaded", [False, True], ids=["fresh", "loaded"])
    def test_node_added_after_build_is_refused(self, setup, tmp_path, loaded, via_batch):
        """A node no cluster holds raises before the index changes at all."""
        _, _, _, _, index = setup
        if loaded:
            index = load_index(save_index(index, tmp_path / "idx"))
        query = TOPSQuery(k=3, tau_km=0.8)
        sites, version, answer = set(index.sites), index.version, index.query(query)
        new = index.network.insert_site_on_edge(0, 1, fraction=0.5)
        with pytest.raises(ValueError, match="after the build"):
            if via_batch:
                index.apply_updates(UpdateBatch(add_sites=(new,)))
            else:
                index.add_site(new)
        assert index.sites == sites
        assert index.version == version
        again = index.query(query)
        assert (again.sites, again.utility) == (answer.sites, answer.utility)

    def test_added_sites_usable_in_queries(self, setup):
        network, _, _, _, index = setup
        query = TOPSQuery(k=5, tau_km=0.8)
        before = index.query(query).utility
        for node in network.node_ids():
            index.add_site(node)
        after = index.query(query).utility
        assert after >= before - 1e-9


class TestRemoveSite:
    def test_remove_unregisters(self, setup):
        _, _, _, sites, index = setup
        index.remove_site(sites[0])
        assert sites[0] not in index.sites

    def test_remove_unknown_raises(self, setup):
        _, _, _, _, index = setup
        with pytest.raises(KeyError):
            index.remove_site(99_999)

    def test_representative_reelected(self, setup):
        """After deleting a representative, another site in the cluster (if
        any) must take over, and it must be the closest remaining site."""
        _, _, _, _, index = setup
        instance = index.instances[-1]
        cluster = next(c for c in instance.clusters if c.has_representative)
        victim = cluster.representative
        remaining_sites = [
            n for n in cluster.nodes if n in index.sites and n != victim
        ]
        index.remove_site(victim)
        # ``clusters`` is a snapshot: re-read it after the mutation
        cluster = instance.clusters[cluster.cluster_id]
        if remaining_sites:
            assert cluster.representative in remaining_sites
            expected = min(cluster.nodes[n] for n in remaining_sites)
            assert cluster.representative_round_trip_km == pytest.approx(expected)
        else:
            assert not cluster.has_representative

    def test_removed_site_never_returned(self, setup):
        _, _, _, _, index = setup
        query = TOPSQuery(k=5, tau_km=0.8)
        victim = index.query(query).sites[0]
        index.remove_site(victim)
        assert victim not in index.query(query).sites
