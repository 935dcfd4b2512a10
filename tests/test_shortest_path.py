"""Unit tests for the shortest-path engine (validated against NetworkX)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

import repro.network.shortest_path as shortest_path
from repro.network.generators import grid_network, random_planar_network
from repro.network.shortest_path import (
    ShortestPathEngine,
    dijkstra_single_source,
    shortest_path_nodes,
)


@pytest.fixture(scope="module")
def network():
    return random_planar_network(40, area_km=5.0, seed=3)


@pytest.fixture(scope="module")
def nx_graph(network):
    return network.to_networkx()


@pytest.fixture(scope="module")
def engine(network):
    return ShortestPathEngine(network)


class TestDijkstraSingleSource:
    def test_matches_networkx(self, network, nx_graph):
        ours = dijkstra_single_source(network, 0)
        reference = nx.single_source_dijkstra_path_length(nx_graph, 0, weight="weight")
        assert set(ours) == set(reference)
        for node, dist in reference.items():
            assert ours[node] == pytest.approx(dist)

    def test_source_distance_zero(self, network):
        assert dijkstra_single_source(network, 5)[5] == 0.0

    def test_cutoff_limits_expansion(self, network):
        full = dijkstra_single_source(network, 0)
        limited = dijkstra_single_source(network, 0, cutoff=1.0)
        assert set(limited) <= set(full)
        assert all(dist <= 1.0 + 1e-9 for dist in limited.values())

    def test_reverse_matches_forward_on_symmetric_graph(self, network):
        # random_planar_network builds bidirectional edges with equal weights
        forward = dijkstra_single_source(network, 3)
        backward = dijkstra_single_source(network, 3, reverse=True)
        for node in forward:
            assert forward[node] == pytest.approx(backward[node])

    def test_directed_asymmetry(self):
        from repro.network.graph import RoadNetwork

        net = RoadNetwork()
        for _ in range(3):
            net.add_node()
        net.add_edge(0, 1, 1.0)
        net.add_edge(1, 2, 1.0)
        net.add_edge(2, 0, 10.0)
        forward = dijkstra_single_source(net, 0)
        backward = dijkstra_single_source(net, 0, reverse=True)
        assert forward[2] == pytest.approx(2.0)
        assert backward[2] == pytest.approx(10.0)


class TestShortestPathNodes:
    def test_path_endpoints(self, network):
        path = shortest_path_nodes(network, 0, 7)
        assert path[0] == 0
        assert path[-1] == 7

    def test_path_length_matches_distance(self, network):
        path = shortest_path_nodes(network, 0, 7)
        distance = dijkstra_single_source(network, 0)[7]
        assert network.path_length(path) == pytest.approx(distance)

    def test_unreachable_raises(self):
        from repro.network.graph import RoadNetwork

        net = RoadNetwork()
        net.add_node()
        net.add_node()
        net.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError):
            shortest_path_nodes(net, 1, 0)


class TestEngine:
    def test_distances_from_matches_scalar_dijkstra(self, network, engine):
        table = engine.distances_from([0, 5])
        scalar = dijkstra_single_source(network, 5)
        for node, dist in scalar.items():
            assert table[1, node] == pytest.approx(dist)

    def test_distances_to_is_reverse(self, network, engine):
        table = engine.distances_to([4])
        scalar = dijkstra_single_source(network, 4, reverse=True)
        for node, dist in scalar.items():
            assert table[0, node] == pytest.approx(dist)

    def test_distances_from_table_shape(self, network, engine):
        assert engine.distances_from([0]).shape == (1, network.num_nodes)

    def test_round_trip_matrix_symmetric(self, engine):
        nodes = [0, 3, 8, 12]
        matrix = engine.round_trip_matrix(nodes)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_round_trip_matrix_sums_both_legs(self, engine):
        matrix = engine.round_trip_matrix([2, 9])
        legs = engine.distances_from([2])[0][9] + engine.distances_to([2])[0][9]
        assert matrix[0, 1] == pytest.approx(legs)

    def test_empty_sources_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.distances_from([])


def _rows(csr):
    """``{node: (dominated ids, round trips)}`` of a CSR sweep result."""
    indptr, ids, round_trips = csr
    return {
        node: (ids[start:stop], round_trips[start:stop])
        for node, (start, stop) in enumerate(zip(indptr[:-1], indptr[1:]))
    }


class TestBoundedRoundTripNeighbors:
    def test_csr_shape(self, network, engine):
        indptr, ids, round_trips = engine.bounded_round_trip_neighbors(0.5)
        assert indptr.dtype == ids.dtype == np.int64
        assert round_trips.dtype == np.float64
        assert len(indptr) == network.num_nodes + 1
        assert indptr[0] == 0 and indptr[-1] == len(ids) == len(round_trips)
        for dominated, _ in _rows((indptr, ids, round_trips)).values():
            assert (np.diff(dominated) > 0).all()

    def test_every_node_dominates_itself(self, engine):
        neighbors = _rows(engine.bounded_round_trip_neighbors(0.5))
        for node, (dominated, round_trips) in neighbors.items():
            assert node in dominated
            assert round_trips[dominated == node][0] == 0.0

    def test_threshold_respected(self, network, engine):
        radius = 0.8
        neighbors = _rows(engine.bounded_round_trip_neighbors(radius))
        matrix_nodes = [0, 1, 2, 3, 4]
        round_trips = engine.round_trip_matrix(matrix_nodes)
        for i, u in enumerate(matrix_nodes):
            for j, v in enumerate(matrix_nodes):
                if round_trips[i, j] <= 2 * radius:
                    assert v in neighbors[u][0]
        for _, stored in neighbors.values():
            assert (stored <= 2 * radius).all()

    def test_round_trips_sum_both_legs(self, network, engine):
        indptr, ids, round_trips = engine.bounded_round_trip_neighbors(0.7)
        sources = np.repeat(np.arange(network.num_nodes), np.diff(indptr))
        everyone = list(range(network.num_nodes))
        forward, backward = engine.distances_from(everyone), engine.distances_to(everyone)
        expected = forward[sources, ids] + backward[sources, ids]
        assert round_trips.tobytes() == expected.tobytes()

    def test_symmetry_of_domination(self, engine):
        neighbors = _rows(engine.bounded_round_trip_neighbors(0.7))
        for u, (dominated, _) in neighbors.items():
            for v in dominated.tolist():
                assert u in neighbors[v][0]

    def test_chunking_matches_unchunked(self, engine, monkeypatch):
        monkeypatch.setattr(shortest_path, "ROUND_TRIP_CHUNK", 7)
        small_chunks = engine.bounded_round_trip_neighbors(0.6)
        monkeypatch.setattr(shortest_path, "ROUND_TRIP_CHUNK", 10_000)
        one_chunk = engine.bounded_round_trip_neighbors(0.6)
        for small, whole in zip(small_chunks, one_chunk):
            assert small.tobytes() == whole.tobytes()

    def test_larger_radius_dominates_more(self, engine):
        _, small, _ = engine.bounded_round_trip_neighbors(0.3)
        _, large, _ = engine.bounded_round_trip_neighbors(1.0)
        assert len(large) >= len(small)


class TestGridSanity:
    def test_grid_distances_are_manhattan(self):
        grid = grid_network(4, 4, spacing_km=1.0)
        engine = ShortestPathEngine(grid)
        # node 0 is (0,0); node 15 is (3,3) -> network distance 6 km
        assert engine.distances_from([0])[0][15] == pytest.approx(6.0)
