"""Fig. 10 — scalability with the number of candidate sites and trajectories.

The paper subsamples the Beijing candidate sites (100k–250k) and trajectories
(20k–120k) and shows NetClus stays roughly an order of magnitude faster than
Inc-Greedy throughout.  We sweep fractions of the scaled dataset instead.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import TOPSProblem
from repro.core.query import TOPSQuery
from repro.datasets import beijing_like
from repro.datasets.base import DatasetBundle
from repro.experiments.reporting import print_table
from repro.experiments.runner import DEFAULT_TAU_RANGE
from repro.utils.rng import ensure_rng
from repro.utils.timer import Timer

__all__ = [
    "run_varying_sites",
    "run_varying_trajectories",
    "run",
    "main",
]


def _run_both(
    problem: TOPSProblem, query: TOPSQuery, gamma: float = 0.75, engine: str = "dense"
) -> dict[str, float]:
    with Timer() as incg_timer:
        incg = problem.solve(query, method="inc-greedy", engine=engine)
    with Timer() as build_timer:
        index = problem.build_netclus_index(
            gamma=gamma, tau_min_km=DEFAULT_TAU_RANGE[0], tau_max_km=DEFAULT_TAU_RANGE[1]
        )
    with Timer() as netclus_timer:
        netclus = index.query(query)
    return {
        "incg_runtime_s": incg_timer.elapsed,
        "netclus_runtime_s": netclus_timer.elapsed,
        "netclus_build_s": build_timer.elapsed,
        "incg_utility_pct": problem.utility_percent(incg.sites, query),
        "netclus_utility_pct": problem.utility_percent(netclus.sites, query),
    }


def run_varying_sites(
    bundle: DatasetBundle,
    site_fractions: tuple[float, ...] = (0.4, 0.6, 0.8, 1.0),
    k: int = 5,
    tau_km: float = 0.8,
    seed: int = 3,
    engine: str = "dense",
) -> list[dict]:
    """Fig. 10a: runtimes as the number of candidate sites grows."""
    rng = ensure_rng(seed)
    all_sites = np.asarray(bundle.sites)
    query = TOPSQuery(k=k, tau_km=tau_km)
    rows: list[dict] = []
    for fraction in site_fractions:
        size = max(10, int(round(fraction * len(all_sites))))
        sites = sorted(int(s) for s in rng.choice(all_sites, size=size, replace=False))
        problem = TOPSProblem(bundle.network, bundle.trajectories, sites)
        stats = _run_both(problem, query, engine=engine)
        rows.append({"num_sites": size, **stats})
    return rows


def run_varying_trajectories(
    bundle: DatasetBundle,
    trajectory_fractions: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    k: int = 5,
    tau_km: float = 0.8,
    seed: int = 3,
    engine: str = "dense",
) -> list[dict]:
    """Fig. 10b: runtimes as the number of trajectories grows."""
    query = TOPSQuery(k=k, tau_km=tau_km)
    rows: list[dict] = []
    for fraction in trajectory_fractions:
        size = max(10, int(round(fraction * bundle.num_trajectories)))
        trajectories = bundle.trajectories.sample(size, seed=seed)
        problem = TOPSProblem(bundle.network, trajectories, bundle.sites)
        stats = _run_both(problem, query, engine=engine)
        rows.append({"num_trajectories": size, **stats})
    return rows


def run(
    scale: str = "small",
    seed: int = 42,
    bundle: DatasetBundle | None = None,
    engine: str = "dense",
) -> dict[str, list[dict]]:
    """Both scalability sweeps."""
    if bundle is None:
        bundle = beijing_like(scale=scale, seed=seed)
    return {
        "varying_sites": run_varying_sites(bundle, engine=engine),
        "varying_trajectories": run_varying_trajectories(bundle, engine=engine),
    }


def main() -> dict[str, list[dict]]:
    """Run at default scale and print all panels."""
    panels = run()
    print_table(panels["varying_sites"], title="Fig. 10a — scalability vs #candidate sites")
    print()
    print_table(
        panels["varying_trajectories"], title="Fig. 10b — scalability vs #trajectories"
    )
    return panels


if __name__ == "__main__":
    main()
