"""Tests for the representative-strategy option, the ablation drivers and the
run-all command-line entry point."""

from __future__ import annotations

import pytest

from repro.core.netclus import NetClusIndex
from repro.core.query import TOPSQuery
from repro.experiments import run_all
from repro.experiments.figures import ablation_design_choices


class TestRepresentativeStrategy:
    def test_invalid_strategy_rejected(self, tiny_bundle):
        problem = tiny_bundle.problem()
        with pytest.raises(ValueError):
            NetClusIndex.build(
                tiny_bundle.network,
                tiny_bundle.trajectories,
                tiny_bundle.sites,
                tau_min_km=0.4,
                tau_max_km=2.0,
                representative_strategy="weird",
            )

    def test_most_frequent_strategy_builds(self, tiny_bundle):
        index = NetClusIndex.build(
            tiny_bundle.network,
            tiny_bundle.trajectories,
            tiny_bundle.sites,
            tau_min_km=0.4,
            tau_max_km=2.0,
            representative_strategy="most_frequent",
            max_instances=2,
        )
        result = index.query(TOPSQuery(k=3, tau_km=0.8))
        assert len(result.sites) == 3

    def test_most_frequent_picks_heaviest_site(self, tiny_bundle):
        visit_counts = tiny_bundle.trajectories.node_visit_counts(
            tiny_bundle.network.num_nodes
        )
        index = NetClusIndex.build(
            tiny_bundle.network,
            tiny_bundle.trajectories,
            tiny_bundle.sites,
            tau_min_km=0.4,
            tau_max_km=2.0,
            representative_strategy="most_frequent",
            max_instances=2,
        )
        sites = set(tiny_bundle.sites)
        instance = index.instances[-1]
        for cluster in instance.clusters:
            if not cluster.has_representative:
                continue
            candidate_counts = [
                visit_counts[n] for n in cluster.nodes if n in sites
            ]
            assert visit_counts[cluster.representative] == max(candidate_counts)

    def test_strategies_reach_similar_quality(self, tiny_bundle):
        rows = ablation_design_choices.run_representative_strategy(
            tiny_bundle, k_values=(5,), tau_km=0.8
        )
        row = rows[0]
        assert row["closest_utility_pct"] > 0
        assert abs(row["closest_utility_pct"] - row["most_frequent_utility_pct"]) <= 20.0


class TestAblationDrivers:
    def test_greedy_loop_rows(self, tiny_bundle):
        rows = ablation_design_choices.run_greedy_loop(tiny_bundle, k=4)
        assert [row["loop"] for row in rows] == ["incremental", "lazy"]
        utilities = [row["utility"] for row in rows]
        assert max(utilities) - min(utilities) < 1e-6

    def test_gdsp_counting_rows(self, tiny_bundle):
        rows = ablation_design_choices.run_gdsp_counting(tiny_bundle, radius_km=0.4)
        by_mode = {row["counting"]: row for row in rows}
        assert set(by_mode) == {"exact-lazy", "fm-sketch"}
        assert by_mode["fm-sketch"]["num_clusters"] >= by_mode["exact-lazy"]["num_clusters"] * 0.5


class TestRunAllCli:
    def test_experiment_registry_complete(self):
        expected = {
            "fig04", "fig05", "fig06", "fig07", "fig08", "fig10", "fig11", "fig12",
            "table07", "table08", "table09", "table10", "table11", "table12",
            "ablations",
        }
        assert set(run_all.EXPERIMENTS) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            run_all.main(["--only", "fig99"])

    def test_single_experiment_runs(self, capsys):
        run_all.main(["--scale", "tiny", "--only", "table11"])
        captured = capsys.readouterr()
        assert "Table 11" in captured.out
        assert "num_clusters" in captured.out
