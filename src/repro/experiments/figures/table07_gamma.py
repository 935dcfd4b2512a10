"""Table 7 — effect of the index-resolution parameter γ.

For γ ∈ {0.25, 0.5, 0.75, 1.0} the paper reports the offline construction
time, the index size, and the relative utility error of NetClus w.r.t.
Inc-Greedy (smaller γ → more instances → bigger/slower index but smaller
error).  We report the same three columns plus the number of instances.
"""

from __future__ import annotations

from repro.core.query import TOPSQuery
from repro.experiments.metrics import relative_error_percent
from repro.experiments.reporting import print_table
from repro.experiments.runner import DEFAULT_TAU_RANGE
from repro.datasets import beijing_like
from repro.datasets.base import DatasetBundle
from repro.utils.timer import Timer

__all__ = ["run", "main"]


def run(
    gamma_values: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    scale: str = "small",
    seed: int = 42,
    k: int = 5,
    tau_km: float = 0.8,
    bundle: DatasetBundle | None = None,
    engine: str = "dense",
) -> list[dict]:
    """Index build time / size / relative error for each γ."""
    if bundle is None:
        bundle = beijing_like(scale=scale, seed=seed)
    problem = bundle.problem()
    query = TOPSQuery(k=k, tau_km=tau_km)
    reference = problem.solve(query, method="inc-greedy", engine=engine)
    reference_pct = problem.utility_percent(reference.sites, query)
    rows: list[dict] = []
    for gamma in gamma_values:
        with Timer() as timer:
            index = problem.build_netclus_index(
                gamma=gamma,
                tau_min_km=DEFAULT_TAU_RANGE[0],
                tau_max_km=DEFAULT_TAU_RANGE[1],
            )
        result = index.query(query)
        candidate_pct = problem.utility_percent(result.sites, query)
        rows.append(
            {
                "gamma": gamma,
                "num_instances": index.num_instances,
                "build_time_s": timer.elapsed,
                "index_bytes": index.storage_bytes(),
                "rel_error_pct_vs_incg": relative_error_percent(reference_pct, candidate_pct),
            }
        )
    return rows


def main() -> list[dict]:
    """Run at default scale and print the Table 7 rows."""
    rows = run()
    print_table(rows, title="Table 7 — variation across index resolution γ")
    return rows


if __name__ == "__main__":
    main()
