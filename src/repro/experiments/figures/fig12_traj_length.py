"""Fig. 12 — effect of trajectory length.

The paper partitions trajectories into four length bands and samples an equal
number from each: longer trajectories pass more candidate sites and are easier
to cover (higher utility), but also cost more greedy update work (higher
running time).  We reproduce the sweep with bands scaled to the synthetic
city's extent.
"""

from __future__ import annotations

from repro.core.problem import TOPSProblem
from repro.core.query import TOPSQuery
from repro.datasets import beijing_like
from repro.datasets.base import DatasetBundle
from repro.experiments.reporting import print_table
from repro.experiments.runner import DEFAULT_TAU_RANGE
from repro.trajectory.generators import length_class_trajectories
from repro.utils.timer import Timer

__all__ = ["run", "main"]


def run(
    length_bands_km: tuple[tuple[float, float], ...] = (
        (2.0, 4.0),
        (4.0, 6.0),
        (6.0, 8.0),
        (8.0, 11.0),
    ),
    num_per_band: int = 150,
    k: int = 5,
    tau_km: float = 0.8,
    scale: str = "small",
    seed: int = 42,
    bundle: DatasetBundle | None = None,
    engine: str = "dense",
) -> list[dict]:
    """Utility (%) and runtime of INCG vs NetClus per trajectory-length band."""
    if bundle is None:
        bundle = beijing_like(scale=scale, seed=seed)
    network = bundle.network
    query = TOPSQuery(k=k, tau_km=tau_km)
    rows: list[dict] = []
    for low, high in length_bands_km:
        trajectories = length_class_trajectories(
            network, num_per_band, boundaries_km=(low, high), seed=seed
        )
        if len(trajectories) == 0:
            continue
        problem = TOPSProblem(network, trajectories, bundle.sites)
        with Timer() as incg_timer:
            incg = problem.solve(query, method="inc-greedy", engine=engine)
        index = problem.build_netclus_index(
            tau_min_km=DEFAULT_TAU_RANGE[0], tau_max_km=DEFAULT_TAU_RANGE[1]
        )
        with Timer() as netclus_timer:
            netclus = index.query(query)
        rows.append(
            {
                "length_band_km": f"{low:.0f}-{high:.0f}",
                "num_trajectories": len(trajectories),
                "mean_length_km": trajectories.mean_length_km(),
                "incg_utility_pct": problem.utility_percent(incg.sites, query),
                "netclus_utility_pct": problem.utility_percent(netclus.sites, query),
                "incg_runtime_s": incg_timer.elapsed,
                "netclus_runtime_s": netclus_timer.elapsed,
            }
        )
    return rows


def main() -> list[dict]:
    """Run at default scale and print the Fig. 12 rows."""
    rows = run()
    print_table(rows, title="Fig. 12 — effect of trajectory length (k = 5, τ = 0.8 km)")
    return rows


if __name__ == "__main__":
    main()
