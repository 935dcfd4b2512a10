"""Benchmark E14 — Table 11: per-radius index construction details."""

from __future__ import annotations

from repro.core.gdsp import GreedyGDSP
from repro.experiments.figures import ablation_design_choices, table11_index_construction
from repro.experiments.reporting import print_table


def test_gdsp_clustering_fine_radius(benchmark, small_context):
    """Greedy-GDSP at a fine radius (many clusters)."""
    gdsp = GreedyGDSP(small_context.bundle.network)
    result = benchmark.pedantic(lambda: gdsp.cluster(0.1), rounds=3, iterations=1)
    assert result.num_clusters > 0


def test_gdsp_clustering_coarse_radius(benchmark, small_context):
    """Greedy-GDSP at a coarse radius (few clusters)."""
    gdsp = GreedyGDSP(small_context.bundle.network)
    result = benchmark.pedantic(lambda: gdsp.cluster(1.0), rounds=3, iterations=1)
    assert result.num_clusters > 0


def test_table11_rows(benchmark, small_context):
    rows = benchmark.pedantic(
        lambda: table11_index_construction.run(context=small_context),
        rounds=1,
        iterations=1,
    )
    print()
    print_table(rows, title="Table 11 — index construction details (γ = 0.75)")
    clusters = [row["num_clusters"] for row in rows]
    trajectory_lists = [row["mean_trajectory_list"] for row in rows]
    # coarser radii -> fewer clusters and longer per-cluster trajectory lists
    assert clusters == sorted(clusters, reverse=True)
    assert trajectory_lists[-1] >= trajectory_lists[0]


def test_table11_and_gdsp_counting_smoke(tiny_context):
    """CI-sized run of the Table 11 driver and of both GDSP counting modes."""
    rows = table11_index_construction.run(context=tiny_context)
    clusters = [row["num_clusters"] for row in rows]
    assert clusters == sorted(clusters, reverse=True)
    assert all(row["mean_dominating_set"] >= 1.0 for row in rows)
    counting = ablation_design_choices.run_gdsp_counting(tiny_context.bundle)
    assert [row["counting"] for row in counting] == ["exact-lazy", "fm-sketch"]
    assert all(row["num_clusters"] > 0 for row in counting)
