"""Fig. 7 (and Fig. 9) — TOPS-COST and TOPS-CAPACITY extensions.

* Fig. 7a: utility of cost-constrained placement (budget B = 5, site costs
  ~ N(1, σ)) as σ sweeps over [0, 1] — utility grows with σ because cheaper
  sites become available and more of them fit in the budget.
* Fig. 9: the number of sites selected and the running time for the same
  sweep.
* Fig. 7b: utility of capacity-constrained placement as the mean capacity
  sweeps from 0.1% to 100% of the trajectory count.

Both extensions are run on the flat space (Inc-Greedy adaptation) and on the
NetClus clustered space.
"""

from __future__ import annotations

from repro.core.bitcov import BitsetCoverageIndex
from repro.core.coverage import SparseCoverageIndex
from repro.core.query import TOPSQuery
from repro.core.variants import solve_tops_capacity, solve_tops_cost
from repro.datasets.workloads import site_capacities_normal, site_costs_normal
from repro.experiments.reporting import print_table
from repro.experiments.runner import ExperimentContext, build_context
from repro.utils.timer import Timer

__all__ = ["run_cost", "run_capacity", "run", "main"]


def _netclus_coverage(
    context: ExperimentContext, query: TOPSQuery
) -> SparseCoverageIndex | BitsetCoverageIndex:
    """Clustered-space coverage index (estimated detours over representatives)."""
    return context.netclus.prepare_coverage(query.tau_km, query.preference).coverage


def run_cost(
    context: ExperimentContext,
    std_values: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    budget: float = 5.0,
    tau_km: float = 0.8,
    seed: int = 13,
) -> list[dict]:
    """Fig. 7a + Fig. 9: TOPS-COST utility, #sites and runtime vs cost std-dev."""
    query = TOPSQuery(k=1, tau_km=tau_km)
    flat_coverage = context.coverage(query)
    clustered_coverage = _netclus_coverage(context, query)
    rows: list[dict] = []
    for std in std_values:
        flat_costs = site_costs_normal(flat_coverage.num_sites, std=std, seed=seed)
        clustered_costs = site_costs_normal(clustered_coverage.num_sites, std=std, seed=seed)
        with Timer() as incg_timer:
            incg = solve_tops_cost(flat_coverage, budget, flat_costs)
        with Timer() as netclus_timer:
            netclus = solve_tops_cost(clustered_coverage, budget, clustered_costs)
        incg_pct = context.problem.utility_percent(incg.sites, query)
        netclus_pct = context.problem.utility_percent(netclus.sites, query)
        rows.append(
            {
                "cost_std": std,
                "budget": budget,
                "incg_utility_pct": incg_pct,
                "netclus_utility_pct": netclus_pct,
                "incg_num_sites": len(incg.sites),
                "netclus_num_sites": len(netclus.sites),
                "incg_runtime_s": incg_timer.elapsed,
                "netclus_runtime_s": netclus_timer.elapsed,
            }
        )
    return rows


def run_capacity(
    context: ExperimentContext,
    mean_fractions: tuple[float, ...] = (0.001, 0.01, 0.1, 0.5, 1.0),
    k: int = 5,
    tau_km: float = 0.8,
    seed: int = 13,
) -> list[dict]:
    """Fig. 7b: TOPS-CAPACITY utility vs mean site capacity (% of m)."""
    query = TOPSQuery(k=k, tau_km=tau_km)
    flat_coverage = context.coverage(query)
    clustered_coverage = _netclus_coverage(context, query)
    m = context.num_trajectories
    rows: list[dict] = []
    for fraction in mean_fractions:
        flat_caps = site_capacities_normal(
            flat_coverage.num_sites, m, mean_fraction=fraction, seed=seed
        )
        clustered_caps = site_capacities_normal(
            clustered_coverage.num_sites, m, mean_fraction=fraction, seed=seed
        )
        incg = solve_tops_capacity(flat_coverage, query, flat_caps)
        netclus = solve_tops_capacity(clustered_coverage, query, clustered_caps)
        rows.append(
            {
                "mean_capacity_pct_of_m": 100.0 * fraction,
                "incg_utility_pct": 100.0 * incg.utility / m,
                "netclus_utility_pct": 100.0 * netclus.utility / m,
            }
        )
    return rows


def run(
    scale: str = "small",
    seed: int = 42,
    context: ExperimentContext | None = None,
) -> dict[str, list[dict]]:
    """Both extensions at the default parameters."""
    if context is None:
        context = build_context(scale=scale, seed=seed)
    return {
        "cost": run_cost(context),
        "capacity": run_capacity(context),
    }


def main() -> dict[str, list[dict]]:
    """Run at default scale and print both panels."""
    panels = run()
    print_table(panels["cost"], title="Fig. 7a / Fig. 9 — TOPS-COST vs site-cost std-dev")
    print()
    print_table(panels["capacity"], title="Fig. 7b — TOPS-CAPACITY vs mean capacity")
    return panels


if __name__ == "__main__":
    main()
