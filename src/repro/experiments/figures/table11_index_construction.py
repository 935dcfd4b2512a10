"""Table 11 — NetClus index construction details per cluster radius.

For every index instance the paper reports the number of clusters, the
average dominating-set size, the average trajectory-list size, the average
neighbour count, and the per-instance construction time: coarser radii yield
exponentially fewer clusters with larger Λ and T L.  We print the same
columns from :meth:`NetClusIndex.construction_statistics`, plus — since the
offline phase runs through the staged build pipeline of
:mod:`repro.core.build` — a second table breaking the construction down by
pipeline stage (clustering, representatives, registration, neighbors) from
the index's :attr:`~repro.core.netclus.NetClusIndex.build_stats`.
"""

from __future__ import annotations

from repro.experiments.reporting import print_table
from repro.experiments.runner import ExperimentContext, build_context

__all__ = ["run", "stage_rows", "main"]


def run(
    scale: str = "small",
    seed: int = 42,
    gamma: float = 0.75,
    context: ExperimentContext | None = None,
) -> list[dict]:
    """Per-instance construction statistics (one row per cluster radius)."""
    if context is None:
        context = build_context(scale=scale, seed=seed, gamma=gamma)
    return [
        {
            "radius_km": stats["radius_km"],
            "num_clusters": stats["num_clusters"],
            "mean_dominating_set": stats["mean_dominating_set_size"],
            "mean_trajectory_list": stats["mean_trajectory_list_size"],
            "mean_neighbors": stats["mean_neighbor_count"],
            "build_seconds": stats["build_seconds"],
            "storage_mb": stats["storage_bytes"] / 1e6,
        }
        for stats in context.netclus.construction_statistics()
    ]


def stage_rows(context: ExperimentContext) -> list[dict]:
    """Build-pipeline stage breakdown (one row per stage), possibly empty.

    An index loaded from a manifest that predates the staged pipeline
    carries no stage records; callers should skip the table then.
    """
    total = sum(stat.seconds for stat in context.netclus.build_stats) or 1.0
    return [
        {
            "stage": stat.stage,
            "seconds": stat.seconds,
            "share_pct": 100.0 * stat.seconds / total,
        }
        for stat in context.netclus.build_stats
    ]


def main() -> list[dict]:
    """Run at default scale and print the Table 11 rows."""
    context = build_context()
    rows = run(context=context)
    print_table(rows, title="Table 11 — index construction details (γ = 0.75)")
    stages = stage_rows(context)
    if stages:
        print()
        print_table(stages, title="Table 11b — offline phase by pipeline stage")
    return rows


if __name__ == "__main__":
    main()
