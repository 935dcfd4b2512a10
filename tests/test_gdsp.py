"""Unit tests for Greedy-GDSP distance-based clustering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gdsp import GreedyGDSP
from repro.network.generators import grid_network, random_planar_network
from repro.network.graph import RoadNetwork
from repro.network.shortest_path import ShortestPathEngine


@pytest.fixture(scope="module")
def network():
    return grid_network(8, 8, spacing_km=0.5)


@pytest.fixture(scope="module")
def engine(network):
    return ShortestPathEngine(network)


@pytest.fixture(scope="module")
def gdsp(network, engine):
    return GreedyGDSP(network, engine=engine)


def _member_lists(result):
    """Per cluster, its member ids as a Python list."""
    ids, bounds = result.members.ids.tolist(), result.members.indptr.tolist()
    return [ids[start:stop] for start, stop in zip(bounds, bounds[1:])]


class TestClusteringInvariants:
    @pytest.mark.parametrize("radius", [0.3, 0.6, 1.2])
    def test_partition_covers_all_nodes(self, network, gdsp, radius):
        result = gdsp.cluster(radius)
        assert set(result.members.ids.tolist()) == set(network.node_ids())

    @pytest.mark.parametrize("radius", [0.3, 0.6, 1.2])
    def test_clusters_are_disjoint(self, gdsp, radius):
        result = gdsp.cluster(radius)
        assert len(np.unique(result.members.ids)) == len(result.members.ids)

    @pytest.mark.parametrize("radius", [0.3, 0.6, 1.2])
    def test_radius_invariant(self, gdsp, radius):
        """Every member's round-trip distance to its center is at most 2R."""
        result = gdsp.cluster(radius)
        assert (result.members.vals <= 2.0 * radius + 1e-9).all()

    @pytest.mark.parametrize("radius", [0.3, 0.6, 1.2])
    def test_members_ascending_one_list_per_center(self, gdsp, radius):
        result = gdsp.cluster(radius)
        assert result.members.num_rows == result.num_clusters == len(result.centers)
        for members in _member_lists(result):
            assert members and members == sorted(members)

    def test_center_belongs_to_its_cluster(self, gdsp):
        result = gdsp.cluster(0.6)
        for center, members in zip(result.centers.tolist(), _member_lists(result)):
            assert center in members
        centers = result.members.ids == np.repeat(result.centers, result.members.lengths())
        assert (result.members.vals[centers] == 0.0).all()

    def test_larger_radius_fewer_clusters(self, gdsp):
        fine = gdsp.cluster(0.3)
        coarse = gdsp.cluster(1.2)
        assert coarse.num_clusters < fine.num_clusters

    def test_tiny_radius_singleton_clusters(self, network, gdsp):
        result = gdsp.cluster(0.05)
        assert result.num_clusters == network.num_nodes

    def test_build_time_recorded(self, gdsp):
        result = gdsp.cluster(0.6)
        assert result.build_seconds > 0.0
        assert result.mean_dominating_set_size >= 1.0

    def test_empty_network_has_no_clusters(self):
        result = GreedyGDSP(RoadNetwork()).cluster(0.5)
        assert result.num_clusters == 0 and result.members.num_rows == 0
        assert result.mean_dominating_set_size == 0.0

    def test_invalid_radius(self, gdsp):
        with pytest.raises(ValueError):
            gdsp.cluster(0.0)


class TestGreedyQuality:
    def test_greedy_is_reasonably_small(self, network, gdsp, engine):
        """Greedy-GDSP should not produce more clusters than a naive sweep."""
        radius = 0.6
        result = gdsp.cluster(radius)
        # naive baseline: scan nodes in id order, open a cluster whenever the
        # node is not yet dominated by an existing center
        indptr, ids, _ = engine.bounded_round_trip_neighbors(radius)
        covered: set[int] = set()
        naive_centers = 0
        for node in network.node_ids():
            if node not in covered:
                naive_centers += 1
                covered.update(ids[indptr[node] : indptr[node + 1]].tolist())
        assert result.num_clusters <= naive_centers * 1.5


class TestFMVariant:
    def test_fm_clustering_valid_partition(self, network, engine):
        gdsp_fm = GreedyGDSP(network, engine=engine, fm_sketches=20)
        result = gdsp_fm.cluster(0.6)
        assert sorted(result.members.ids.tolist()) == sorted(network.node_ids())

    def test_fm_radius_invariant(self, network, engine):
        gdsp_fm = GreedyGDSP(network, engine=engine, fm_sketches=20)
        result = gdsp_fm.cluster(0.6)
        assert (result.members.vals <= 1.2 + 1e-9).all()

    def test_fm_cluster_count_close_to_exact(self, network, engine, gdsp):
        exact = gdsp.cluster(0.6).num_clusters
        fm = GreedyGDSP(network, engine=engine, fm_sketches=30)
        approx = fm.cluster(0.6).num_clusters
        assert approx <= exact * 2


class TestDirectedNetwork:
    @pytest.mark.parametrize("fm_sketches", [None, 30])
    def test_every_member_stores_its_exact_round_trip(self, fm_sketches):
        """Each member stores exactly ``d(c, v) + d(v, c)`` for its center c."""
        network = random_planar_network(50, area_km=4.0, seed=21)
        # make every street slower in one direction: d(u, v) != d(v, u)
        for edge in list(network.edges()):
            if edge.source < edge.target:
                network.add_edge(edge.source, edge.target, 1.7 * edge.length)
        engine = ShortestPathEngine(network)
        result = GreedyGDSP(network, engine=engine, fm_sketches=fm_sketches).cluster(0.5)
        forward = engine.distances_from(result.centers.tolist())
        backward = engine.distances_to(result.centers.tolist())
        owners = result.members.owners()
        expected = forward[owners, result.members.ids] + backward[owners, result.members.ids]
        assert result.num_clusters < network.num_nodes
        assert result.members.vals.tobytes() == expected.tobytes()
        # the legs differ, so a member's round trip is not twice one leg
        assert not np.array_equal(forward, backward)
