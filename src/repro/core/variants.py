"""TOPS extensions and variants (Section 7).

* :func:`solve_tops_cost` — TOPS-COST (Problem 4): budgeted selection with
  per-site costs, using the budgeted-maximum-coverage greedy of Khuller et
  al. (select by gain/cost ratio, compare against the best single affordable
  site) with its ``(1 − 1/e)/2`` guarantee.
* :func:`solve_tops_capacity` — TOPS-CAPACITY (Problem 5): each site serves at
  most ``cap`` trajectories; greedy marginal gains are capacity-limited.
* :func:`solve_tops_with_existing` — TOPS with existing services
  (Section 7.3): greedy seeded with the operating sites.
* :func:`solve_tops_market_share` — TOPS4: smallest site set covering a β
  fraction of trajectories (greedy set-cover style).
* :func:`solve_tops_min_inconvenience` — TOPS3: minimise total user deviation
  (greedy on the negated-detour preference with τ = ∞).

All drivers operate through the coverage protocol shared by
:class:`~repro.core.coverage.CoverageIndex`,
:class:`~repro.core.coverage.SparseCoverageIndex` and the binary-ψ
:class:`~repro.core.bitcov.BitsetCoverageIndex`, so they work unchanged on
the flat site space (Inc-Greedy), on NetClus's clustered space (pass the
coverage index built from estimated detours), and on the dense, sparse or
bitset engine: the greedy-based drivers call
:meth:`~repro.core.greedy.IncGreedy.select`, which runs Algorithm 1's
incremental loop, or the CELF heap when capacities are given.  The one
exception is :func:`solve_tops_min_inconvenience`,
whose τ = ∞ objective needs the full detour matrix and therefore requires
the dense index.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.bitcov import BitsetCoverageIndex
from repro.core.coverage import (
    GAIN_RTOL,
    CoverageIndex,
    SparseCoverageIndex,
    tie_break_candidates,
)
from repro.core.greedy import IncGreedy
from repro.core.query import TOPSQuery, TOPSResult, utility_tuple
from repro.utils.timer import Timer
from repro.utils.validation import require, require_positive, require_probability

__all__ = [
    "solve_tops_cost",
    "solve_tops_capacity",
    "solve_tops_with_existing",
    "solve_tops_market_share",
    "solve_tops_min_inconvenience",
]


AnyCoverage = CoverageIndex | SparseCoverageIndex | BitsetCoverageIndex


def solve_tops_cost(
    coverage: AnyCoverage,
    budget: float,
    site_costs: np.ndarray | Sequence[float],
) -> TOPSResult:
    """TOPS-COST: maximise utility subject to a total site-cost budget.

    Parameters
    ----------
    coverage:
        Coverage index for the query's (τ, ψ).
    budget:
        Total budget B.
    site_costs:
        Per-site costs aligned with the coverage index's site columns.
    """
    require_positive(budget, "budget")
    costs = np.asarray(site_costs, dtype=float)
    require(len(costs) == coverage.num_sites, "site_costs length mismatch")
    require(bool(np.all(costs > 0)), "site costs must be positive")
    with Timer() as timer:
        utilities = np.zeros(coverage.num_trajectories)
        selected: list[int] = []
        spent = 0.0
        available = set(range(coverage.num_sites))
        while available:
            residual = coverage.marginal_gains(utilities)
            ratio = residual / costs
            ratio[list(set(range(coverage.num_sites)) - available)] = -np.inf
            # lowest site index among ratio ties (within the shared gain
            # tolerance, so every engine resolves ties identically)
            best = int(tie_break_candidates(ratio)[0])
            if ratio[best] <= 0.0:
                break
            if spent + costs[best] <= budget:
                selected.append(best)
                spent += float(costs[best])
                utilities = coverage.absorb(utilities, best)
            available.discard(best)
        # Khuller et al. safeguard: compare with the best single affordable
        # site; the single site must beat the greedy total by more than the
        # gain tolerance so near-ulp weight noise never flips the outcome
        affordable = np.flatnonzero(costs <= budget)
        if len(affordable):
            single_utilities = coverage.site_weights[affordable]
            best_single = int(affordable[tie_break_candidates(single_utilities)[0]])
            single_total = float(single_utilities.max())
            greedy_total = float(utilities.sum())
            if single_total > greedy_total + GAIN_RTOL * max(1.0, abs(single_total)):
                selected = [best_single]
                utilities = coverage.per_trajectory_utility([best_single])
                spent = float(costs[best_single])
    return TOPSResult(
        sites=tuple(int(coverage.site_labels[c]) for c in selected),
        utility=float(np.sum(utilities)),
        per_trajectory_utility=utility_tuple(utilities),
        elapsed_seconds=timer.elapsed,
        algorithm="tops-cost",
        metadata={"budget": budget, "spent": spent, "num_sites": len(selected)},
    )


def solve_tops_capacity(
    coverage: AnyCoverage,
    query: TOPSQuery,
    capacities: np.ndarray | Sequence[float],
) -> TOPSResult:
    """TOPS-CAPACITY: each selected site serves at most its capacity."""
    caps = np.asarray(capacities, dtype=float)
    require(len(caps) == coverage.num_sites, "capacities length mismatch")
    require(bool(np.all(caps >= 0)), "capacities must be non-negative")
    with Timer() as timer:
        columns, utilities, gains = IncGreedy(coverage).select(query.k, capacities=caps)
    return TOPSResult(
        sites=tuple(int(coverage.site_labels[c]) for c in columns),
        utility=float(np.sum(utilities)),
        per_trajectory_utility=utility_tuple(utilities),
        elapsed_seconds=timer.elapsed,
        algorithm="tops-capacity",
        metadata={"marginal_gains": gains},
    )


def solve_tops_with_existing(
    coverage: AnyCoverage,
    query: TOPSQuery,
    existing_sites: Sequence[int],
) -> TOPSResult:
    """TOPS with existing services: greedy seeded with the operating sites.

    The reported per-trajectory utilities include the utility already provided
    by the existing services; the returned ``sites`` are only the *new* k
    sites, matching Section 7.3.
    """
    result = IncGreedy(coverage).solve(query, existing_sites=existing_sites)
    metadata = dict(result.metadata)
    metadata["existing_sites"] = tuple(int(s) for s in existing_sites)
    return TOPSResult(
        sites=result.sites,
        utility=result.utility,
        per_trajectory_utility=result.per_trajectory_utility,
        elapsed_seconds=result.elapsed_seconds,
        algorithm="tops-existing",
        metadata=metadata,
    )


def solve_tops_market_share(
    coverage: AnyCoverage,
    beta: float,
    max_sites: int | None = None,
) -> TOPSResult:
    """TOPS4: the smallest site set covering at least a β fraction of trajectories.

    Only meaningful for the binary preference (a trajectory is covered or
    not); the greedy adds maximal-marginal-gain sites until the coverage
    target is met, giving the classic ``1 + ln n`` set-cover bound.
    """
    require_probability(beta, "beta")
    require(
        getattr(coverage.preference, "is_binary", False),
        "TOPS4 (market share) requires the binary preference",
    )
    target = beta * coverage.num_trajectories
    limit = max_sites if max_sites is not None else coverage.num_sites
    with Timer() as timer:
        utilities = np.zeros(coverage.num_trajectories)
        selected: list[int] = []
        while float(utilities.sum()) < target and len(selected) < limit:
            residual = coverage.marginal_gains(utilities)
            if selected:
                residual[selected] = -np.inf
            best = int(tie_break_candidates(residual)[0])
            if residual[best] <= 0.0:
                break
            selected.append(best)
            utilities = coverage.absorb(utilities, best)
    return TOPSResult(
        sites=tuple(int(coverage.site_labels[c]) for c in selected),
        utility=float(np.sum(utilities)),
        per_trajectory_utility=utility_tuple(utilities),
        elapsed_seconds=timer.elapsed,
        algorithm="tops-market-share",
        metadata={
            "beta": beta,
            "target_coverage": target,
            "achieved_fraction": float(utilities.sum()) / max(coverage.num_trajectories, 1),
        },
    )


def solve_tops_min_inconvenience(
    coverage: CoverageIndex,
    query: TOPSQuery,
) -> TOPSResult:
    """TOPS3: choose k sites minimising the total user deviation.

    The coverage index must be built with
    :class:`~repro.core.preference.InconveniencePreference` and an effectively
    infinite τ; utilities are then negative detours.  Because greedy marginal
    gains assume a zero-utility empty set, the scores are shifted by the
    largest finite detour so that they become non-negative; the shift does not
    change which sites are selected.  The result's metadata reports the total
    deviation in kilometres for readability.
    """
    from repro.core.greedy import greedy_max_coverage_columns

    require(
        not getattr(coverage, "is_sparse", False)
        and not isinstance(coverage, BitsetCoverageIndex),
        "TOPS3 (min inconvenience) needs the full dense detour matrix; "
        "build the coverage with the dense engine",
    )
    with Timer() as timer:
        detours = np.where(np.isfinite(coverage.detours), coverage.detours, np.nan)
        max_detour = float(np.nanmax(detours)) if np.isfinite(detours).any() else 0.0
        shifted = np.where(
            np.isfinite(coverage.detours), max_detour - coverage.detours, 0.0
        )
        columns, _ = greedy_max_coverage_columns(shifted, query.k)
        # per-trajectory deviation under the selected set (true objective)
        deviations = np.min(coverage.detours[:, columns], axis=1)
        deviations = np.where(np.isfinite(deviations), deviations, max_detour)
        utilities = -deviations
    total_deviation = float(np.sum(deviations))
    return TOPSResult(
        sites=tuple(int(coverage.site_labels[c]) for c in columns),
        utility=float(np.sum(utilities)),
        per_trajectory_utility=utility_tuple(utilities),
        elapsed_seconds=timer.elapsed,
        algorithm="tops-min-inconvenience",
        metadata={"total_deviation_km": total_deviation},
    )
