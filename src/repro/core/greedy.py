"""Inc-Greedy: the (1 − 1/e) greedy heuristic for TOPS (Section 3.3).

Inc-Greedy maximises the monotone submodular utility by repeatedly adding the
site with the largest marginal gain.  :meth:`IncGreedy.select` is the one
greedy entry point on every engine; the query, not the engine, picks the
loop:

* without capacities it runs the paper's Algorithm 1: per-site marginal
  utilities ``U_θ(s_i)`` are kept and decreased (``gain_updates``) only for
  the sites covering the trajectories the newly selected site improves;
* with per-site capacities (Section 7.2) a site's gain is the sum of its
  largest ``cap`` residual gains, which Algorithm 1's per-pair bookkeeping
  does not maintain, so the selection runs the CELF lazy heap of
  :class:`LazyGreedy`: cached gains are upper bounds by submodularity, and
  each iteration re-evaluates only the sites it pops until the top entry is
  fresh.

Both loops return the same selections (ties broken by site weight, then by
the larger site label, per the paper) and run purely through the *coverage
protocol* (``marginal_gains`` / ``marginal_gain`` / ``site_column`` /
``absorb`` / ``gain_updates``), so they drive a dense
:class:`~repro.core.coverage.CoverageIndex`, a
:class:`~repro.core.coverage.SparseCoverageIndex` and a binary-ψ
:class:`~repro.core.bitcov.BitsetCoverageIndex` alike.  The selection can
also be seeded with *existing services* (Section 7.3).

Every :meth:`IncGreedy.select` leaves a :class:`GreedyRun` on its solver:
the selection order and, for Algorithm 1, its state after the last step.
Because a selection for k is a prefix of the selection for any larger k,
that run answers every smaller k by prefix replay, and
:meth:`IncGreedy.resuming` continues it to a larger k exactly as a fresh
run at that k would have gone.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.bitcov import BitsetCoverageIndex
from repro.core.coverage import (
    GAIN_RTOL,
    CoverageIndex,
    SparseCoverageIndex,
    tie_break_candidates,
)
from repro.core.query import TOPSQuery, TOPSResult, utility_tuple
from repro.utils.timer import Timer
from repro.utils.validation import require

__all__ = ["GreedyRun", "IncGreedy", "LazyGreedy", "greedy_max_coverage_columns"]


@dataclass(frozen=True)
class GreedyRun:
    """Where one greedy selection stopped: enough to replay or resume it.

    ``columns`` and ``gains`` are the selection order, ``utilities`` the
    per-trajectory utility after the last step, and ``exhausted`` says the
    run stopped short of its k because no candidate with positive gain was
    left, so no larger k selects more.  ``undo`` holds, per step, the rows
    that step changed and their values before it, so the utilities of any
    prefix are restored exactly (:meth:`prefix_utilities`) without the
    coverage.  An uncapacitated run also keeps Algorithm 1's per-site
    ``marginal`` utilities; a capacitated (CELF) run keeps ``None`` and can
    be replayed but not resumed.  ``existing`` are the seed columns of
    already-operating services.  Nothing mutates a run once it is
    returned: replays and resumes work on copies of its arrays.
    """

    columns: tuple[int, ...]
    gains: tuple[float, ...]
    utilities: np.ndarray
    exhausted: bool
    undo: tuple[tuple[np.ndarray, np.ndarray], ...]
    existing: tuple[int, ...] = ()
    marginal: np.ndarray | None = None

    @property
    def reach(self) -> float:
        """The largest k whose selection is a prefix of this run."""
        return math.inf if self.exhausted else len(self.columns)

    def prefix_utilities(self, k: int) -> np.ndarray:
        """Per-trajectory utilities after the first *k* steps (a copy).

        Byte-identical to the utilities a fresh run at *k* returns: the
        later steps' writes are undone, newest first.
        """
        utilities = self.utilities.copy()
        for rows, before in reversed(self.undo[k:]):
            utilities[rows] = before
        return utilities


class IncGreedy:
    """Greedy TOPS solver over any coverage engine.

    Parameters
    ----------
    coverage:
        The coverage structures built for the query's (τ, ψ): a dense,
        sparse or bitset index.
    """

    algorithm_name = "inc-greedy"

    def __init__(
        self, coverage: CoverageIndex | SparseCoverageIndex | BitsetCoverageIndex
    ) -> None:
        self.coverage = coverage
        #: the run the last :meth:`select` finished
        self.run: GreedyRun | None = None
        self._start: GreedyRun | None = None

    @classmethod
    def resuming(
        cls,
        coverage: CoverageIndex | SparseCoverageIndex | BitsetCoverageIndex,
        run: GreedyRun,
    ) -> "IncGreedy":
        """A solver whose :meth:`select` continues *run* instead of restarting.

        *coverage* must hold the same entries as the coverage *run* was
        selected on (the same index version).  The next ``select`` must ask
        for the same existing columns, no capacities, and a k of at least
        ``len(run.columns)``; its answer is the one a fresh run at that k
        gives, byte for byte.
        """
        require(run.marginal is not None, "only an uncapacitated run can be resumed")
        solver = cls(coverage)
        solver._start = run
        return solver

    # ------------------------------------------------------------------ #
    def select(
        self,
        k: int,
        existing_columns: Sequence[int] = (),
        capacities: np.ndarray | None = None,
    ) -> tuple[list[int], np.ndarray, list[float]]:
        """Select *k* site columns greedily; the run is kept as :attr:`run`.

        Parameters
        ----------
        k:
            Number of sites to add (on top of any existing services).
        existing_columns:
            Columns of already-operating services (Section 7.3); they seed the
            per-trajectory utilities but are not re-selected nor counted in k.
        capacities:
            Optional per-site capacities (max number of trajectories a site
            may serve).  When provided, a site's marginal utility is the sum
            of its largest ``cap`` per-trajectory gains (Section 7.2) and the
            selection runs :class:`LazyGreedy`'s CELF loop.

        Returns
        -------
        (selected_columns, per_trajectory_utility, marginal_gains)
            ``selected_columns`` — site *column indices* (not node ids) in
            selection order; map to node ids via ``coverage.site_labels``.
            ``per_trajectory_utility`` — final ψ-utility per trajectory
            (length m), including any existing-service seed utility.
            ``marginal_gains`` — the gain each selection contributed, in
            the same order.  The selection may be shorter than k when no
            site has positive marginal gain left.  A greedy selection for
            k is always a prefix of the selection for any larger k.
        """
        require(k >= 1, "k must be >= 1")
        existing = tuple(int(c) for c in existing_columns)
        if capacities is not None:
            require(self._start is None, "a resumed run takes no capacities")
            lazy = LazyGreedy(self.coverage)
            selection = lazy.select(k, existing_columns=existing, capacities=capacities)
            self.run = lazy.run
            return selection
        return self._select_incremental(k, existing)

    # ------------------------------------------------------------------ #
    def _select_incremental(
        self, k: int, existing: tuple[int, ...]
    ) -> tuple[list[int], np.ndarray, list[float]]:
        """Algorithm 1 of the paper with α_ji maintained implicitly.

        ``alpha[j, i] = max(0, ψ(T_j, s_i) − U_j)`` is represented by the
        current ``utilities`` vector; per-site marginal utilities are kept in
        ``marginal`` and decremented when a covered trajectory's utility
        improves.  Runs entirely through the coverage protocol
        (``marginal_gains`` / ``site_column`` / ``gain_updates``), so the
        same loop drives every engine.  A resumed solver starts from copies
        of its run's state instead of from the seed utilities.
        """
        coverage = self.coverage
        weights = coverage.site_weights
        start = self._start
        selected: list[int] = []
        gains: list[float] = []
        undo: list[tuple[np.ndarray, np.ndarray]] = []
        if start is None:
            utilities = np.zeros(coverage.num_trajectories, dtype=np.float64)
            if existing:
                utilities = coverage.per_trajectory_utility(list(existing))
            # U_1(s_i) = w_i adjusted for any existing-service seed utilities
            marginal = coverage.marginal_gains(utilities)
        else:
            require(existing == start.existing, "a resumed run keeps its existing columns")
            require(k >= len(start.columns), "a resumed run only grows")
            utilities, marginal = start.utilities.copy(), start.marginal.copy()
            selected, gains = list(start.columns), list(start.gains)
            undo = list(start.undo)
        forbidden = set(existing) | set(selected)
        limit = min(k, coverage.num_sites - len(set(existing)))
        # an exhausted run that is resumed stops again at the same step
        while len(selected) < limit:
            masked = marginal.copy()
            if forbidden:
                masked[list(forbidden)] = -np.inf
            best = _argmax_with_tie_break(masked, weights)
            best_gain = float(masked[best])
            if selected and best_gain <= GAIN_RTOL * max(1.0, gains[0]):
                # gains kept by subtraction carry a few ulps of drift, so a
                # site whose true gain is zero can show a tiny residue:
                # settle the stop test on its exact gain
                best_gain = coverage.marginal_gain(best, utilities)
            if best_gain <= 0.0 and selected:
                break
            selected.append(int(best))
            forbidden.add(int(best))
            gains.append(best_gain)
            covered, new_util = coverage.site_column(best)
            improved_mask = new_util > utilities[covered]
            improved = covered[improved_mask]
            old_values = utilities[improved]
            undo.append((improved, old_values))
            if len(improved) == 0:
                continue
            new_values = new_util[improved_mask]
            # update marginal utility of every site covering an improved
            # trajectory: its residual gain for T_j drops from
            # max(0, ψ_ji − old) to max(0, ψ_ji − new)
            marginal -= coverage.gain_updates(improved, old_values, new_values)
            utilities[improved] = new_values
        self.run = GreedyRun(
            tuple(selected),
            tuple(gains),
            utilities,
            len(selected) < k,
            tuple(undo),
            existing,
            marginal,
        )
        return selected, utilities, gains

    # ------------------------------------------------------------------ #
    def solve(self, query: TOPSQuery, existing_sites: Sequence[int] = ()) -> TOPSResult:
        """Run the greedy selection and wrap it in a :class:`TOPSResult`.

        Parameters
        ----------
        query:
            The ``(k, τ, ψ)`` query; τ (kilometres) and ψ must match what
            the coverage index was built with — only ``k`` is read here.
        existing_sites:
            Site labels (node ids) of already-operating services; they must
            be present among the coverage index's sites and seed the
            utilities without counting towards k.

        Returns
        -------
        TOPSResult
            ``sites`` are node ids in selection order; ``utility`` is the
            total ψ-utility (for the binary ψ, the number of covered
            trajectories); ``metadata["marginal_gains"]`` carries the
            per-step marginal gains.
        """
        with Timer() as timer:
            existing_columns = (
                self.coverage.columns_for_labels(existing_sites) if existing_sites else []
            )
            columns, utilities, gains = self.select(
                query.k, existing_columns=existing_columns
            )
        sites = tuple(int(self.coverage.site_labels[c]) for c in columns)
        return TOPSResult(
            sites=sites,
            utility=float(np.sum(utilities)),
            per_trajectory_utility=utility_tuple(utilities),
            elapsed_seconds=timer.elapsed,
            algorithm=self.algorithm_name,
            metadata={"marginal_gains": gains},
        )


class LazyGreedy:
    """CELF lazy greedy: the capacity loop behind :meth:`IncGreedy.select`.

    By submodularity a site's marginal gain only shrinks as the selection
    grows, so gains computed in earlier iterations are valid upper bounds.
    The solver keeps every site in a max-heap keyed by its (possibly stale)
    cached gain with the paper's tie-break (gain, then site weight, then the
    larger site column); each iteration pops entries, re-evaluating stale
    ones, until the top of the heap is fresh — that site is the exact argmax,
    so the selection is identical to the incremental loop's.  Capacitated
    gains (the sum of a site's largest ``cap`` residuals) are only available
    per site through ``marginal_gain``, which is why this loop serves them.
    """

    def __init__(
        self, coverage: CoverageIndex | SparseCoverageIndex | BitsetCoverageIndex
    ) -> None:
        self.coverage = coverage
        #: the run the last :meth:`select` finished (never resumable)
        self.run: GreedyRun | None = None

    # ------------------------------------------------------------------ #
    def select(
        self,
        k: int,
        existing_columns: Sequence[int] = (),
        capacities: np.ndarray | None = None,
    ) -> tuple[list[int], np.ndarray, list[float]]:
        """Select *k* site columns lazily; same contract as :meth:`IncGreedy.select`."""
        require(k >= 1, "k must be >= 1")
        coverage = self.coverage
        num_sites = coverage.num_sites
        utilities = np.zeros(coverage.num_trajectories, dtype=np.float64)
        forbidden = set(int(c) for c in existing_columns)
        for col in sorted(forbidden):
            utilities = coverage.absorb(utilities, col)
        weights = coverage.site_weights
        caps = None if capacities is None else np.asarray(capacities)

        def capacity_of(col: int) -> int | None:
            return None if caps is None else int(caps[col])

        # exact initial gains for every candidate site (one vectorised pass
        # in the uncapacitated case)
        if caps is None:
            initial = coverage.marginal_gains(utilities)
        else:
            initial = np.asarray(
                [
                    coverage.marginal_gain(col, utilities, capacity_of(col))
                    for col in range(num_sites)
                ]
            )

        heap = [
            (-initial[col], -weights[col], -col)
            for col in range(num_sites)
            if col not in forbidden
        ]
        heapq.heapify(heap)
        stamp = np.zeros(num_sites, dtype=np.int64)  # iteration of last evaluation
        iteration = 0
        selected: list[int] = []
        gains: list[float] = []
        undo: list[tuple[np.ndarray, np.ndarray]] = []
        limit = min(k, num_sites - len(forbidden))
        while heap and len(selected) < limit:
            neg_gain, neg_weight, neg_col = heapq.heappop(heap)
            col = int(-neg_col)
            if stamp[col] != iteration:
                gain = coverage.marginal_gain(col, utilities, capacity_of(col))
                stamp[col] = iteration
                heapq.heappush(heap, (-gain, neg_weight, neg_col))
                continue
            gain = float(-neg_gain)
            if gain <= 0.0 and selected:
                break
            # the fresh top is the exact argmax up to float noise; collect
            # every entry whose cached upper bound ties it within GAIN_RTOL
            # (a true tie always has cached >= true >= top - tol) so the
            # winner comes from the same (gain, weight, site) rule the
            # incremental loop applies — never from last-ulp summation noise
            tolerance = GAIN_RTOL * max(1.0, abs(gain))
            ties = [(gain, float(-neg_weight), col)]
            outbid = []
            while heap and float(-heap[0][0]) >= gain - tolerance:
                other_neg_gain, other_neg_weight, other_neg_col = heapq.heappop(heap)
                other = int(-other_neg_col)
                if stamp[other] != iteration:
                    fresh = coverage.marginal_gain(other, utilities, capacity_of(other))
                    stamp[other] = iteration
                    if fresh >= gain - tolerance:
                        ties.append((fresh, float(-other_neg_weight), other))
                    else:
                        outbid.append((-fresh, other_neg_weight, other_neg_col))
                else:
                    ties.append(
                        (float(-other_neg_gain), float(-other_neg_weight), other)
                    )
            winner_gain, winner = _lazy_tie_winner(ties)
            for tied_gain, tied_weight, tied_col in ties:
                if tied_col != winner:
                    heapq.heappush(heap, (-tied_gain, -tied_weight, -tied_col))
            for entry in outbid:
                heapq.heappush(heap, entry)
            selected.append(winner)
            gains.append(winner_gain)
            before = utilities
            utilities = coverage.absorb(utilities, winner, capacity_of(winner))
            # compared bit for bit, so a replayed prefix is byte-identical
            changed = np.flatnonzero(utilities.view(np.uint64) != before.view(np.uint64))
            undo.append((changed, before[changed]))
            iteration += 1
        self.run = GreedyRun(
            tuple(selected),
            tuple(gains),
            utilities,
            len(selected) < k,
            tuple(undo),
            tuple(int(c) for c in existing_columns),
        )
        return selected, utilities, gains


# ---------------------------------------------------------------------- #
def greedy_max_coverage_columns(
    scores: np.ndarray, k: int
) -> tuple[list[int], np.ndarray]:
    """Standalone greedy max-coverage used by baselines and tests.

    Selects *k* columns of the ``(m, n)`` score matrix maximising
    ``Σ_j max_{i in Q} scores[j, i]`` greedily; returns the chosen columns and
    the final per-row utilities.
    """
    utilities = np.zeros(scores.shape[0])
    chosen: list[int] = []
    available = set(range(scores.shape[1]))
    for _ in range(min(k, scores.shape[1])):
        residual = np.maximum(scores - utilities[:, np.newaxis], 0.0)
        marginal = residual.sum(axis=0)
        marginal[[c for c in range(scores.shape[1]) if c not in available]] = -np.inf
        best = int(np.argmax(marginal))
        chosen.append(best)
        available.discard(best)
        utilities = np.maximum(utilities, scores[:, best])
    return chosen, utilities


def _lazy_tie_winner(ties: list[tuple[float, float, int]]) -> tuple[float, int]:
    """The canonical winner of a CELF tie set: gain, then weight, then site.

    Mirrors :func:`_argmax_with_tie_break` on the (gain, weight, column)
    triples the CELF loop collected, so it resolves ties exactly like the
    incremental loop.
    """
    tie_gains = np.asarray([entry[0] for entry in ties])
    tie_weights = np.asarray([entry[1] for entry in ties])
    tie_cols = np.asarray([entry[2] for entry in ties])
    candidates = tie_break_candidates(tie_gains)
    heaviest = candidates[tie_break_candidates(tie_weights[candidates])]
    pick = heaviest[np.argmax(tie_cols[heaviest])]
    return float(tie_gains[pick]), int(tie_cols[pick])


def _argmax_with_tie_break(marginal: np.ndarray, weights: np.ndarray) -> int:
    """Paper's tie-break: largest marginal, then largest weight, then largest index.

    Gains (and weights) are compared through
    :func:`~repro.core.coverage.tie_break_candidates`, i.e. within a small
    relative tolerance: two sites whose gains agree mathematically but
    differ in the last ulps (different engines sum in different orders)
    are a *tie* and fall through to the deterministic weight/index rule,
    never to float noise.
    """
    candidates = tie_break_candidates(marginal)
    if len(candidates) == 1:
        return int(candidates[0])
    heaviest = candidates[tie_break_candidates(weights[candidates])]
    return int(heaviest.max())


