"""Fig. 11 — effect of city geometry (New York / Atlanta / Bangalore).

The paper observes that the polycentric Bangalore network yields the highest
utility percentage (traffic concentrates around a few centres) and the lowest
running time (smallest road network), while the mesh-like Atlanta spreads
trajectories out and yields the lowest utility.  We run the same comparison
on topology-matched synthetic cities.
"""

from __future__ import annotations

from repro.core.query import TOPSQuery
from repro.datasets import atlanta_like, bangalore_like, new_york_like
from repro.experiments.reporting import print_table
from repro.experiments.runner import DEFAULT_TAU_RANGE
from repro.utils.timer import Timer

__all__ = ["run", "main"]


def run(
    k: int = 5,
    tau_km: float = 0.8,
    num_trajectories: int = 300,
    seed: int = 7,
    gamma: float = 0.75,
    engine: str = "dense",
) -> list[dict]:
    """Utility (%) and runtime of INCG vs NetClus for the three city types."""
    bundles = [
        ("NYK", new_york_like(num_trajectories=num_trajectories, seed=seed)),
        ("ATL", atlanta_like(num_trajectories=num_trajectories, seed=seed)),
        ("BNG", bangalore_like(num_trajectories=num_trajectories, seed=seed)),
    ]
    query = TOPSQuery(k=k, tau_km=tau_km)
    rows: list[dict] = []
    for short_name, bundle in bundles:
        problem = bundle.problem()
        with Timer() as incg_timer:
            incg = problem.solve(query, method="inc-greedy", engine=engine)
        index = problem.build_netclus_index(
            gamma=gamma, tau_min_km=DEFAULT_TAU_RANGE[0], tau_max_km=DEFAULT_TAU_RANGE[1]
        )
        with Timer() as netclus_timer:
            netclus = index.query(query)
        rows.append(
            {
                "city": short_name,
                "topology": bundle.name,
                "num_nodes": bundle.num_nodes,
                "incg_utility_pct": problem.utility_percent(incg.sites, query),
                "netclus_utility_pct": problem.utility_percent(netclus.sites, query),
                "incg_runtime_s": incg_timer.elapsed,
                "netclus_runtime_s": netclus_timer.elapsed,
            }
        )
    return rows


def main() -> list[dict]:
    """Run at default scale and print the Fig. 11 rows."""
    rows = run()
    print_table(rows, title="Fig. 11 — effect of city geometries (k = 5, τ = 0.8 km)")
    return rows


if __name__ == "__main__":
    main()
