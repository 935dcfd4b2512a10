"""Exact (optimal) TOPS solver.

The paper formulates the optimal algorithm as an integer program (Section 3.1
with the max-constraint linearisation of Appendix A.1) and solves it on the
small *Beijing-Small* dataset only (Fig. 4).  This module provides three
exact solvers with equivalent output:

* :meth:`OptimalSolver.solve` — a branch-and-bound over site subsets ordered
  by site weight, pruned with a submodularity-based upper bound (current
  utility plus the sum of the ``k − depth`` largest remaining *standalone
  residual* gains bounds any completion);
* :meth:`OptimalSolver.solve_ilp` — the integer-linear-programming route via
  ``scipy.optimize.milp`` (HiGHS).  Instead of the paper's recursive big-M
  linearisation of ``U_j ≤ max_i ψ_ji x_i`` we use the standard equivalent
  assignment formulation (``U_j = Σ_i ψ_ji z_ji`` with ``z_ji ≤ x_i`` and
  ``Σ_i z_ji ≤ 1``), which has the same optima without big-M constants;
* :meth:`OptimalSolver.solve_exhaustive` — plain enumeration of all
  k-subsets, used by tests to validate the other two.

All three return a true optimum; they are only practical for small ``n`` and
``k`` — exactly how the paper uses OPT.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.core.coverage import CoverageIndex
from repro.core.query import TOPSQuery, TOPSResult, utility_tuple
from repro.utils.timer import Timer
from repro.utils.validation import require

__all__ = ["OptimalSolver"]


class OptimalSolver:
    """Exact TOPS solver by pruned subset search over a :class:`CoverageIndex`."""

    algorithm_name = "optimal"

    def __init__(self, coverage: CoverageIndex, max_sites: int = 64) -> None:
        require(
            coverage.num_sites <= max_sites,
            f"OptimalSolver is restricted to at most {max_sites} candidate sites; "
            "use Inc-Greedy or NetClus for larger instances",
        )
        self.coverage = coverage

    # ------------------------------------------------------------------ #
    def solve(self, query: TOPSQuery) -> TOPSResult:
        """Branch-and-bound exact solution."""
        with Timer() as timer:
            columns, utility = self._branch_and_bound(query.k)
        utilities = self.coverage.per_trajectory_utility(columns)
        return TOPSResult(
            sites=tuple(int(self.coverage.site_labels[c]) for c in columns),
            utility=float(utility),
            per_trajectory_utility=utility_tuple(utilities),
            elapsed_seconds=timer.elapsed,
            algorithm=self.algorithm_name,
            metadata={"method": "branch-and-bound"},
        )

    def solve_ilp(self, query: TOPSQuery) -> TOPSResult:
        """Exact solution via the integer-linear-programming formulation.

        Maximise ``Σ_j Σ_i ψ_ji z_ji`` subject to ``z_ji ≤ x_i``,
        ``Σ_i z_ji ≤ 1`` per trajectory, ``Σ_i x_i ≤ k``, ``x_i ∈ {0, 1}``
        and ``z_ji ≥ 0``; only (trajectory, site) pairs with positive score
        get a ``z`` variable, keeping the model sparse.
        """
        from scipy.optimize import LinearConstraint, milp
        from scipy.sparse import lil_matrix

        with Timer() as timer:
            scores = self.coverage.scores
            num_trajectories, num_sites = scores.shape
            pairs = [
                (j, i)
                for j in range(num_trajectories)
                for i in range(num_sites)
                if scores[j, i] > 0.0
            ]
            num_vars = num_sites + len(pairs)
            if not pairs:
                return TOPSResult(
                    sites=(),
                    utility=0.0,
                    per_trajectory_utility=utility_tuple(np.zeros(num_trajectories)),
                    elapsed_seconds=timer.elapsed,
                    algorithm=self.algorithm_name,
                    metadata={"method": "ilp"},
                )
            # objective: maximise Σ ψ_ji z_ji  (milp minimises, so negate)
            objective = np.zeros(num_vars)
            for var, (j, i) in enumerate(pairs):
                objective[num_sites + var] = -scores[j, i]

            constraints = []
            # z_ji − x_i ≤ 0
            coupling = lil_matrix((len(pairs), num_vars))
            for var, (j, i) in enumerate(pairs):
                coupling[var, num_sites + var] = 1.0
                coupling[var, i] = -1.0
            constraints.append(LinearConstraint(coupling.tocsr(), -np.inf, 0.0))
            # Σ_i z_ji ≤ 1 per trajectory
            assignment = lil_matrix((num_trajectories, num_vars))
            for var, (j, i) in enumerate(pairs):
                assignment[j, num_sites + var] = 1.0
            constraints.append(LinearConstraint(assignment.tocsr(), -np.inf, 1.0))
            # Σ_i x_i ≤ k
            cardinality = np.zeros((1, num_vars))
            cardinality[0, :num_sites] = 1.0
            constraints.append(LinearConstraint(cardinality, -np.inf, float(query.k)))

            integrality = np.zeros(num_vars)
            integrality[:num_sites] = 1  # x_i binary, z_ji continuous
            bounds = (np.zeros(num_vars), np.ones(num_vars))
            from scipy.optimize import Bounds

            result = milp(
                c=objective,
                constraints=constraints,
                integrality=integrality,
                bounds=Bounds(*bounds),
            )
            require(result.success, f"ILP solver failed: {result.message}")
            x_values = result.x[:num_sites]
            columns = [int(i) for i in np.flatnonzero(x_values > 0.5)]
        utilities = self.coverage.per_trajectory_utility(columns)
        return TOPSResult(
            sites=tuple(int(self.coverage.site_labels[c]) for c in columns),
            utility=float(np.sum(utilities)),
            per_trajectory_utility=utility_tuple(utilities),
            elapsed_seconds=timer.elapsed,
            algorithm=self.algorithm_name,
            metadata={"method": "ilp", "milp_status": int(result.status)},
        )

    def solve_exhaustive(self, query: TOPSQuery) -> TOPSResult:
        """Exhaustive enumeration of all k-subsets (reference implementation)."""
        with Timer() as timer:
            best_utility = -np.inf
            best: tuple[int, ...] = ()
            k = min(query.k, self.coverage.num_sites)
            for subset in combinations(range(self.coverage.num_sites), k):
                utility = self.coverage.utility_of(list(subset))
                if utility > best_utility:
                    best_utility = utility
                    best = subset
        utilities = self.coverage.per_trajectory_utility(list(best))
        return TOPSResult(
            sites=tuple(int(self.coverage.site_labels[c]) for c in best),
            utility=float(best_utility),
            per_trajectory_utility=utility_tuple(utilities),
            elapsed_seconds=timer.elapsed,
            algorithm=self.algorithm_name,
            metadata={"method": "exhaustive"},
        )

    # ------------------------------------------------------------------ #
    def _branch_and_bound(self, k: int) -> tuple[list[int], float]:
        scores = self.coverage.scores
        num_sites = scores.shape[1]
        k = min(k, num_sites)
        # order sites by weight (descending) to find good incumbents early
        order = list(np.argsort(self.coverage.site_weights)[::-1])

        # incumbent from greedy gives a strong initial lower bound
        incumbent_cols, incumbent_util = self._greedy_incumbent(k)
        best_cols = list(incumbent_cols)
        best_util = incumbent_util

        def upper_bound(utilities: np.ndarray, candidates: list[int], slots: int) -> float:
            """Submodular bound: current + top-`slots` standalone residual gains."""
            if slots == 0 or not candidates:
                return float(utilities.sum())
            residual = np.maximum(
                scores[:, candidates] - utilities[:, np.newaxis], 0.0
            ).sum(axis=0)
            top = np.sort(residual)[::-1][:slots]
            return float(utilities.sum() + top.sum())

        def recurse(position: int, chosen: list[int], utilities: np.ndarray) -> None:
            nonlocal best_cols, best_util
            current = float(utilities.sum())
            if len(chosen) == k:
                if current > best_util:
                    best_util = current
                    best_cols = list(chosen)
                return
            remaining = order[position:]
            if len(chosen) + len(remaining) < k:
                return
            if upper_bound(utilities, remaining, k - len(chosen)) <= best_util + 1e-12:
                return
            for idx in range(len(remaining)):
                col = remaining[idx]
                new_utilities = np.maximum(utilities, scores[:, col])
                recurse(position + idx + 1, chosen + [col], new_utilities)

        recurse(0, [], np.zeros(scores.shape[0]))
        return best_cols, best_util

    def _greedy_incumbent(self, k: int) -> tuple[list[int], float]:
        from repro.core.greedy import greedy_max_coverage_columns

        columns, utilities = greedy_max_coverage_columns(self.coverage.scores, k)
        return columns, float(utilities.sum())
