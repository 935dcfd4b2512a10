"""Table 8 — effect of the number of FM sketch copies f.

For each f the paper compares FM-NetClus against NetClus on the same query:
utility of both, the relative utility loss, the running times, and the
speed-up of the FM variant.  The error shrinks and the speed-up fades as f
grows; the paper settles on f = 30.
"""

from __future__ import annotations

from repro.core.query import TOPSQuery
from repro.experiments.metrics import relative_error_percent
from repro.experiments.reporting import print_table
from repro.experiments.runner import ExperimentContext, build_context, fm_netclus
from repro.utils.timer import Timer

__all__ = ["run", "main"]


def run(
    f_values: tuple[int, ...] = (1, 2, 4, 10, 20, 30, 50),
    k: int = 5,
    tau_km: float = 0.8,
    scale: str = "small",
    seed: int = 42,
    context: ExperimentContext | None = None,
) -> list[dict]:
    """NetClus vs FM-NetClus utility / error / time / speed-up for each f."""
    if context is None:
        context = build_context(scale=scale, seed=seed)
    query = TOPSQuery(k=k, tau_km=tau_km)
    with Timer() as netclus_timer:
        netclus_result = context.run_netclus(query)
    netclus_pct = context.exact_utility_percent(netclus_result, query)
    rows: list[dict] = []
    for f in f_values:
        with Timer() as fm_timer:
            fm_result = fm_netclus(context.netclus, query, f)
        fm_pct = context.exact_utility_percent(fm_result, query)
        speedup = netclus_timer.elapsed / fm_timer.elapsed if fm_timer.elapsed else float("inf")
        rows.append(
            {
                "f": f,
                "netclus_utility_pct": netclus_pct,
                "fm_netclus_utility_pct": fm_pct,
                "rel_error_pct": relative_error_percent(netclus_pct, fm_pct),
                "netclus_time_s": netclus_timer.elapsed,
                "fm_netclus_time_s": fm_timer.elapsed,
                "speedup": speedup,
            }
        )
    return rows


def main() -> list[dict]:
    """Run at default scale and print the Table 8 rows."""
    rows = run()
    print_table(rows, title="Table 8 — variation across number of FM sketches f")
    return rows


if __name__ == "__main__":
    main()
