"""Tests for the representative-selection ablation, the other ablation
drivers and the run-all command-line entry point."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.netclus import NetClusIndex
from repro.core.query import TOPSQuery
from repro.datasets import beijing_like
from repro.experiments import run_all
from repro.experiments.figures import ablation_design_choices


class TestRepresentativeStrategy:
    @staticmethod
    def _closest_and_copy(bundle):
        index = NetClusIndex.build(
            bundle.network,
            bundle.trajectories,
            bundle.sites,
            tau_min_km=0.4,
            tau_max_km=2.0,
            max_instances=2,
        )
        visit_counts = bundle.trajectories.node_visit_counts(bundle.network.num_nodes)
        return index, visit_counts, ablation_design_choices.most_visited_copy(
            index, visit_counts
        )

    def test_most_visited_copy_answers_and_leaves_the_index_alone(self, tiny_bundle):
        index, _, copied = self._closest_and_copy(tiny_bundle)
        before = [(i.reps.tobytes(), i.rep_rt.tobytes()) for i in index.instances]
        result = copied.query(TOPSQuery(k=3, tau_km=0.8))
        assert len(result.sites) == 3
        assert [(i.reps.tobytes(), i.rep_rt.tobytes()) for i in index.instances] == before

    def test_most_frequent_picks_heaviest_site(self, tiny_bundle):
        _, visit_counts, copied = self._closest_and_copy(tiny_bundle)
        sites = set(tiny_bundle.sites)
        instance = copied.instances[-1]
        for cluster in instance.clusters:
            if not cluster.has_representative:
                continue
            candidates = [n for n in cluster.nodes if n in sites]
            best = max(visit_counts[n] for n in candidates)
            # ties go to the candidate closest to the center
            assert visit_counts[cluster.representative] == best
            assert cluster.representative_round_trip_km == min(
                cluster.nodes[n] for n in candidates if visit_counts[n] == best
            )

    def test_equal_visit_counts_keep_the_closest_election(self, tiny_bundle):
        """Ties go to the site closest to the center, so with every node
        visited equally often the copy elects exactly what the index did."""
        index, visit_counts, _ = self._closest_and_copy(tiny_bundle)
        flat = ablation_design_choices.most_visited_copy(
            index, np.zeros_like(visit_counts)
        )
        for original, copied in zip(index.instances, flat.instances, strict=True):
            assert copied.reps.tobytes() == original.reps.tobytes()
            assert copied.rep_rt.tobytes() == original.rep_rt.tobytes()

    @pytest.mark.parametrize(
        "scale,expected",
        [
            (
                "tiny",
                {
                    5: ("0x1.4aaaaaaaaaaabp+6", "0x1.4aaaaaaaaaaabp+6"),
                    10: ("0x1.8555555555555p+6", "0x1.8555555555555p+6"),
                },
            ),
            (
                "small",
                {
                    5: ("0x1.3555555555555p+6", "0x1.3355555555555p+6"),
                    10: ("0x1.5aaaaaaaaaaabp+6", "0x1.5955555555555p+6"),
                },
            ),
        ],
    )
    def test_ablation_rows_are_pinned(self, scale, expected):
        """The Section 4.2 comparison, to the bit: closest vs most visited."""
        rows = ablation_design_choices.run_representative_strategy(
            beijing_like(scale, seed=42)
        )
        assert {
            row["k"]: (
                row["closest_utility_pct"].hex(),
                row["most_frequent_utility_pct"].hex(),
            )
            for row in rows
        } == expected

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
