"""Reference greedy for the tests: full marginal recomputation per step.

Every iteration recomputes every site's marginal gain from the current
per-trajectory utilities — ``Σ_j max(0, ψ(T_j, s_i) − U_j)``, or the sum of
its largest ``cap`` residuals under capacities — and takes the argmax with
the paper's tie-break (gain, then site weight, then the larger column).  It
carries no gain state between iterations, so it is the oracle the
incremental loop and the CELF heap behind
:meth:`repro.core.greedy.IncGreedy.select` are compared against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest

from repro.core.coverage import GAIN_RTOL, tie_break_candidates

#: every (engine, ψ) pair the oracle comparisons cover; the bitset engine is
#: defined for binary ψ only
ORACLE_CASES = [
    pytest.param(engine, pref_name, id=f"{engine}-{pref_name}")
    for engine in ("dense", "sparse")
    for pref_name in ("binary", "linear", "exponential", "convex")
] + [pytest.param("bitset", "binary", id="bitset-binary")]


def recompute_select(
    coverage,
    k: int,
    existing_columns: Sequence[int] = (),
    capacities: np.ndarray | None = None,
) -> tuple[list[int], np.ndarray, list[float]]:
    """``IncGreedy.select``'s contract, one full gain pass per selection."""
    utilities = np.zeros(coverage.num_trajectories, dtype=np.float64)
    if existing_columns:
        utilities = coverage.per_trajectory_utility(list(existing_columns))
    forbidden = set(int(c) for c in existing_columns)
    weights = coverage.site_weights
    num_sites = coverage.num_sites
    selected: list[int] = []
    gains: list[float] = []
    for _ in range(min(k, num_sites - len(forbidden))):
        if capacities is None:
            marginal = coverage.marginal_gains(utilities)
        else:
            marginal = np.asarray(
                [
                    coverage.marginal_gain(col, utilities, int(capacities[col]))
                    for col in range(num_sites)
                ]
            )
        if forbidden:
            marginal[list(forbidden)] = -np.inf
        candidates = tie_break_candidates(marginal)
        heaviest = candidates[tie_break_candidates(weights[candidates])]
        best = int(heaviest.max())
        if marginal[best] <= 0.0 and selected:
            break
        selected.append(best)
        forbidden.add(best)
        gains.append(float(marginal[best]))
        capacity = None if capacities is None else int(capacities[best])
        utilities = coverage.absorb(utilities, best, capacity)
    return selected, utilities, gains


def assert_matches_oracle(actual, expected) -> None:
    """Same columns and utility bytes; gains equal within ``GAIN_RTOL``.

    The incremental loop keeps gains by subtraction, so a reported gain may
    differ from a recomputed one in its last bits — never by more than the
    tolerance every selection rule treats as a tie.
    """
    columns, utilities, gains = actual
    expected_columns, expected_utilities, expected_gains = expected
    assert columns == expected_columns
    assert utilities.tobytes() == expected_utilities.tobytes()
    np.testing.assert_allclose(gains, expected_gains, rtol=GAIN_RTOL, atol=GAIN_RTOL)
