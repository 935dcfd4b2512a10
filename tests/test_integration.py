"""End-to-end integration tests: the full pipeline of Fig. 2.

Raw GPS traces → map-matching → trajectory dataset → offline NetClus index →
online TOPS queries → dynamic updates, plus cross-algorithm consistency on a
shared dataset.
"""

from __future__ import annotations

import pytest

from repro.core.netclus import NetClusIndex
from repro.core.problem import TOPSProblem
from repro.core.query import TOPSQuery
from repro.core.preference import LinearPreference
from repro.experiments.runner import fm_netclus
from repro.network.generators import grid_network
from repro.network.shortest_path import shortest_path_nodes
from repro.trajectory.gps import simulate_gps_trace
from repro.trajectory.mapmatch import map_match_dataset
from repro.utils.rng import ensure_rng


class TestGpsToQueryPipeline:
    """The paper's offline flow starting from raw (simulated) GPS traces."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        network = grid_network(8, 8, spacing_km=0.5)
        rng = ensure_rng(99)
        node_ids = network.node_ids()
        traces = []
        for trace_id in range(25):
            source, target = rng.choice(node_ids, size=2, replace=False)
            try:
                path = shortest_path_nodes(network, int(source), int(target))
            except ValueError:
                continue
            if len(path) < 3:
                continue
            traces.append(
                simulate_gps_trace(
                    network, path, trace_id=trace_id, noise_std_km=0.04, seed=trace_id
                )
            )
        dataset = map_match_dataset(network, traces)
        problem = TOPSProblem(network, dataset)
        return network, dataset, problem

    def test_map_matching_produced_trajectories(self, pipeline):
        _, dataset, _ = pipeline
        assert len(dataset) >= 20

    def test_inc_greedy_answers_query(self, pipeline):
        _, dataset, problem = pipeline
        result = problem.solve(TOPSQuery(k=4, tau_km=0.8))
        assert len(result.sites) == 4
        assert 0 < result.utility <= len(dataset)

    def test_netclus_matches_greedy_closely(self, pipeline):
        _, _, problem = pipeline
        query = TOPSQuery(k=4, tau_km=0.8)
        incg = problem.solve(query)
        index = problem.build_netclus_index(tau_min_km=0.4, tau_max_km=3.0)
        netclus = index.query(query)
        incg_exact = problem.utility_percent(incg.sites, query)
        netclus_exact = problem.utility_percent(netclus.sites, query)
        assert netclus_exact >= 0.7 * incg_exact


class TestCrossAlgorithmConsistency:
    def test_all_solvers_respect_problem_structure(self, tiny_problem, tiny_netclus):
        query = TOPSQuery(k=5, tau_km=0.8)
        results = {
            "incg": tiny_problem.solve(query),
            "fmg": tiny_problem.solve(query, method="fm-greedy"),
            "netclus": tiny_netclus.query(query),
            "fmnetclus": fm_netclus(tiny_netclus, query),
        }
        sites = set(tiny_problem.sites)
        for name, result in results.items():
            assert len(result.sites) == 5, name
            assert set(result.sites) <= sites, name

    def test_exact_scores_ordering(self, tiny_problem, tiny_netclus):
        """Inc-Greedy (exact marginals) should not be materially beaten by the
        approximations; all must be within the trajectory count."""
        query = TOPSQuery(k=5, tau_km=0.8)
        incg = tiny_problem.utility_percent(tiny_problem.solve(query).sites, query)
        netclus = tiny_problem.utility_percent(tiny_netclus.query(query).sites, query)
        assert incg <= 100.0
        assert netclus <= incg + 5.0

    def test_linear_preference_end_to_end(self, tiny_problem, tiny_netclus):
        query = TOPSQuery(k=5, tau_km=1.0, preference=LinearPreference())
        incg = tiny_problem.solve(query)
        netclus = tiny_netclus.query(query)
        incg_exact, _ = tiny_problem.evaluate(incg.sites, query)
        netclus_exact, _ = tiny_problem.evaluate(netclus.sites, query)
        assert 0 < netclus_exact <= incg_exact + 1e-9 or netclus_exact > 0


class TestDynamicConsistency:
    def test_updates_keep_queries_consistent_with_rebuild(self):
        """After a mixed batch of updates, query results match a from-scratch
        index built on the updated data."""
        network = grid_network(7, 7, spacing_km=0.5)
        from repro.trajectory.generators import commuter_trajectories
        from repro.trajectory.model import TrajectoryDataset

        all_trajs = commuter_trajectories(network, 50, seed=31)
        base = TrajectoryDataset([t for t in all_trajs if t.traj_id < 35])
        extra = [t for t in all_trajs if t.traj_id >= 35]
        sites = network.node_ids()[::2]
        index = NetClusIndex.build(
            network, base, sites, gamma=0.75, tau_min_km=0.4, tau_max_km=3.0
        )
        # apply updates: add trajectories, add sites, remove one of each
        for trajectory in extra:
            index.add_trajectory(trajectory)
        new_sites = network.node_ids()[1::4]
        for site in new_sites:
            index.add_site(site)
        index.remove_trajectory(extra[0].traj_id)
        removed_site = sites[0]
        index.remove_site(removed_site)

        final_trajs = TrajectoryDataset(
            [t for t in all_trajs if t.traj_id != extra[0].traj_id]
        )
        final_sites = sorted((set(sites) | set(new_sites)) - {removed_site})
        rebuilt = NetClusIndex.build(
            network, final_trajs, final_sites, gamma=0.75, tau_min_km=0.4, tau_max_km=3.0
        )
        query = TOPSQuery(k=4, tau_km=0.8)
        updated_result = index.query(query)
        rebuilt_result = rebuilt.query(query)
        assert updated_result.utility == pytest.approx(rebuilt_result.utility, rel=0.05)
