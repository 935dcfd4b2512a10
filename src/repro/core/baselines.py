"""Naive placement baselines.

The introduction of the paper motivates trajectory-aware placement by showing
that (a) picking the k most-frequented locations ignores the overlap between
their served trajectories, and (b) placing facilities only at static demand
points (homes/offices) misses commuters entirely.  These baselines make that
comparison measurable:

* :func:`top_k_by_traffic` — pick the k sites whose covers are largest,
  ignoring overlap (the "frequency" heuristic of Fig. 1);
* :func:`random_sites` — uniformly random k sites;
* :func:`static_demand_greedy` — greedy placement that only credits a site
  for trajectories that *start or end* within τ of it (the static-user
  proxy).
"""

from __future__ import annotations

import numpy as np

from repro.core.coverage import CoverageIndex
from repro.core.query import TOPSQuery, TOPSResult, utility_tuple
from repro.utils.rng import ensure_rng
from repro.utils.timer import Timer

__all__ = ["top_k_by_traffic", "random_sites", "static_demand_greedy"]


def top_k_by_traffic(coverage: CoverageIndex, query: TOPSQuery) -> TOPSResult:
    """Select the k sites with the largest individual weights (no overlap logic)."""
    with Timer() as timer:
        weights = coverage.site_weights
        columns = list(np.argsort(weights)[::-1][: query.k])
        utilities = coverage.per_trajectory_utility(columns)
    return TOPSResult(
        sites=tuple(int(coverage.site_labels[c]) for c in columns),
        utility=float(np.sum(utilities)),
        per_trajectory_utility=utility_tuple(utilities),
        elapsed_seconds=timer.elapsed,
        algorithm="top-k-by-traffic",
    )


def random_sites(
    coverage: CoverageIndex, query: TOPSQuery, seed: int | None = None
) -> TOPSResult:
    """Select k sites uniformly at random (sanity-check baseline)."""
    rng = ensure_rng(seed)
    with Timer() as timer:
        columns = list(
            rng.choice(coverage.num_sites, size=min(query.k, coverage.num_sites), replace=False)
        )
        utilities = coverage.per_trajectory_utility(columns)
    return TOPSResult(
        sites=tuple(int(coverage.site_labels[c]) for c in columns),
        utility=float(np.sum(utilities)),
        per_trajectory_utility=utility_tuple(utilities),
        elapsed_seconds=timer.elapsed,
        algorithm="random",
    )


def static_demand_greedy(
    coverage: CoverageIndex,
    query: TOPSQuery,
    endpoint_detours: np.ndarray,
) -> TOPSResult:
    """Greedy placement using only trajectory endpoints as demand.

    Parameters
    ----------
    endpoint_detours:
        ``(m, n)`` matrix of round-trip distances from each trajectory's
        origin/destination (whichever is closer) to each site.  The utility a
        site earns from a trajectory is ψ of that endpoint distance — i.e.
        the classic static-user facility-location objective.  The *reported*
        utility, however, is measured with the true trajectory-aware scores
        so the baseline is comparable with TOPS algorithms.
    """
    from repro.core.greedy import greedy_max_coverage_columns

    with Timer() as timer:
        static_scores = np.asarray(
            coverage.preference(endpoint_detours, query.tau_km), dtype=float
        )
        columns, _ = greedy_max_coverage_columns(static_scores, query.k)
        utilities = coverage.per_trajectory_utility(columns)
    return TOPSResult(
        sites=tuple(int(coverage.site_labels[c]) for c in columns),
        utility=float(np.sum(utilities)),
        per_trajectory_utility=utility_tuple(utilities),
        elapsed_seconds=timer.elapsed,
        algorithm="static-demand",
    )
