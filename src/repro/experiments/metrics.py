"""Evaluation metrics shared by all experiments.

The paper's two headline metrics are (a) total utility as a percentage of the
number of trajectories and (b) query running time; Table 7/8 additionally use
the *relative utility error* of NetClus (or FM variants) w.r.t. Inc-Greedy,
and Table 9 compares memory footprints.  Python object sizes are not
comparable to the authors' Java heap measurements, so the memory metrics are
analytic byte estimates of the payload structures each algorithm must hold —
they preserve the relative ordering and the trends with τ.
"""

from __future__ import annotations

from repro.core.coverage import CoverageIndex
from repro.core.distances import DistanceOracle
from repro.core.netclus import NetClusIndex
from repro.utils.validation import require_positive

__all__ = [
    "utility_percent",
    "relative_error_percent",
    "incgreedy_memory_bytes",
    "netclus_memory_bytes",
]


def utility_percent(utility: float, num_trajectories: int) -> float:
    """Utility as a percentage of the trajectory count."""
    require_positive(num_trajectories, "num_trajectories")
    return 100.0 * utility / num_trajectories


def relative_error_percent(reference_utility: float, candidate_utility: float) -> float:
    """Relative utility loss of *candidate* w.r.t. *reference* in percent.

    Matches the error definition of Tables 7 and 8: a positive value means the
    candidate achieves less utility than the reference.
    """
    if reference_utility == 0:
        return 0.0
    return 100.0 * (reference_utility - candidate_utility) / reference_utility


def incgreedy_memory_bytes(
    oracle: DistanceOracle, coverage: CoverageIndex, include_distance_tables: bool = True
) -> int:
    """Estimated working-set bytes of Inc-Greedy at a given (τ, ψ).

    Inc-Greedy needs the pre-computed site distance tables plus the covering
    structures (detours, scores, TC/SC membership); the latter grow with τ.
    """
    total = coverage.storage_bytes()
    # covering-set list entries (trajectory id + distance per covered pair)
    total += 16 * coverage.covered_pairs()
    if include_distance_tables:
        total += oracle.storage_bytes()
    return int(total)


def netclus_memory_bytes(index: NetClusIndex, tau_km: float) -> int:
    """Estimated working-set bytes of a NetClus query at coverage threshold τ.

    Only the index instance serving τ is touched at query time; coarser
    instances store fewer clusters and shorter (more compressed) trajectory
    lists, which is why the footprint *decreases* as τ grows (Table 9).
    """
    instance = index.instance_for(tau_km)
    reps = instance.num_representatives
    # estimated-detour matrix in the clustered space
    matrix_bytes = 8 * reps * index.num_trajectories
    return int(instance.storage_bytes() + matrix_bytes)
