"""Coverage structures: TC, SC, site weights and preference-score matrices.

At query time (when τ and ψ become known) Inc-Greedy needs, per Section 3.2:

* ``TC(s_i)`` — the trajectories covered by site ``s_i`` (detour ≤ τ);
* ``SC(T_j)`` — the sites covering trajectory ``T_j``;
* the site weights ``w_i = Σ_j ψ(T_j, s_i)``.

:class:`CoverageIndex` materialises these from a detour matrix.  The same
class is reused by NetClus for the *clustered* space, where the "sites" are
cluster representatives and the detours are the estimates ``d̂r``; this keeps
one greedy implementation for both the flat and the clustered problem.

:class:`SparseCoverageIndex` stores the same structures in compressed
sparse row/column (CSR/CSC) form.  For realistic τ each trajectory is covered
by a small fraction of the candidate sites, so the ψ-score matrix is
overwhelmingly sparse; the sparse index holds only the covered (trajectory,
site) pairs and never materialises the dense score matrix.  It can be built
either from a dense detour matrix or directly from coverage lists
(:meth:`SparseCoverageIndex.from_coverage_lists`), which is how NetClus and
the FM-sketch path feed it without a dense detour matrix.

Both index classes implement the same *coverage protocol* consumed by the
greedy solvers and the TOPS variant drivers:

* ``site_weights``, ``trajectories_covered``, ``sites_covering``;
* ``site_column(col)`` — the (rows, scores) of one site's covered entries;
* ``marginal_gains(utilities)`` / ``marginal_gain(col, utilities, capacity)``;
* ``absorb(utilities, col, capacity)`` — per-trajectory utilities after
  adding a site;
* ``gain_updates(rows, old_values, new_values)`` — the incremental
  greedy's per-site gain-decrease kernel when the given trajectories
  improve from ``old`` to ``new`` utility;
* ``utility_of`` / ``per_trajectory_utility`` / ``columns_for_labels``;
* ``utilities_for_selection(columns, capacity, seed_columns)`` — replay a
  selection order (used by the placement service to answer every ``k' ≤ k``
  from a single greedy run at the largest ``k``).

:class:`~repro.core.bitcov.BitsetCoverageIndex` is the third engine: for a
binary ψ it packs the coverage into ``uint64`` bitset blocks so the same
protocol kernels become popcounts (see :mod:`repro.core.bitcov`).
:func:`resolve_engine` is the ``engine="auto"`` policy — bitset when ψ is
binary, sparse otherwise.  The flat space (``TOPSProblem.coverage``) lets
the caller pick any engine; NetClus's clustered space always applies the
``"auto"`` rule (:func:`~repro.core.covcache.materialise_coverage`).

The hot-path kernels (``marginal_gains`` / ``marginal_gain`` /
``gain_updates`` / ``absorb``) are marked with the ``@kernel`` decorator:
an attached :class:`~repro.utils.timer.KernelTimer` records per-kernel call
counts and seconds.  Their temporaries are plain per-call arrays, so one
coverage view can serve concurrent greedy runs without sharing state.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.preference import PreferenceFunction
from repro.utils.concurrency import kernel
from repro.utils.timer import KernelTimer
from repro.utils.validation import require

__all__ = [
    "CoverageIndex",
    "SparseCoverageIndex",
    "ENGINES",
    "GAIN_RTOL",
    "build_label_map",
    "canonical_entries",
    "cell_keys",
    "resolve_engine",
    "tie_break_candidates",
]

_INT64_MAX = int(np.iinfo(np.int64).max)

#: engine names the flat space's ``engine=`` knob accepts
ENGINES = ("dense", "sparse", "bitset", "auto")


def resolve_engine(engine: str, preference: PreferenceFunction) -> str:
    """Resolve an engine request to a concrete coverage engine.

    ``"auto"`` picks the packed bitset engine when ψ is binary (its
    popcount kernels are exact because binary scores are {0, 1}) and the
    sparse engine otherwise; concrete names pass through after validation.
    """
    require(
        engine in ENGINES,
        f"unknown engine {engine!r}; choose from {', '.join(ENGINES)}",
    )
    if engine == "auto":
        return "bitset" if preference.is_binary else "sparse"
    return engine


#: relative tolerance under which two marginal gains (or site weights) are
#: treated as tied.  Float summation is not associative, so the same
#: mathematical gain computed by different engines — dense vs sparse —
#: can differ in the last few ulps; without a tolerance those phantom
#: differences would decide selections instead of the paper's documented
#: (weight, then site) tie-break.  1e-9 is ~6 orders of magnitude above
#: accumulated summation noise and far below any genuine gain gap.
GAIN_RTOL = 1e-9


def tie_break_candidates(values: np.ndarray) -> np.ndarray:
    """Indices whose value ties the maximum within :data:`GAIN_RTOL`.

    The shared "who is really the argmax" rule of every greedy selection
    rule in the library: candidates within a relative tolerance of the
    best value are all considered tied, and the caller applies its
    deterministic tie-break (site weight / site index) to them.  Using one
    rule everywhere is what makes selections identical across the dense,
    sparse and bitset engines.
    """
    best = np.max(values)
    tolerance = GAIN_RTOL * max(1.0, abs(float(best)))
    return np.flatnonzero(values >= best - tolerance)


class CoverageIndex:
    """Preference scores, covering sets and site weights for one (τ, ψ).

    Parameters
    ----------
    detours:
        ``(m, n)`` matrix of (possibly estimated) round-trip detours from each
        trajectory (row) to each site (column); ``inf`` for unreachable.
    tau_km:
        Coverage threshold.
    preference:
        Preference function ψ.
    site_labels:
        Length-``n`` site identifiers (node ids of candidate sites or cluster
        representatives).  Defaults to ``0..n-1``.
    trajectory_ids:
        Length-``m`` trajectory identifiers.  Defaults to ``0..m-1``.
    trajectory_weights:
        Optional per-trajectory multiplicities (all 1 by default); NetClus
        does not need them but they allow weighted workloads.
    """

    def __init__(
        self,
        detours: np.ndarray,
        tau_km: float,
        preference: PreferenceFunction,
        site_labels: Sequence[int] | None = None,
        trajectory_ids: Sequence[int] | None = None,
        trajectory_weights: np.ndarray | None = None,
    ) -> None:
        detours = np.asarray(detours, dtype=np.float64)
        require(detours.ndim == 2, "detours must be a 2-D matrix")
        self.num_trajectories, self.num_sites = detours.shape
        self.tau_km = float(tau_km)
        self.preference = preference
        self.detours = detours
        if site_labels is None:
            site_labels = list(range(self.num_sites))
        if trajectory_ids is None:
            trajectory_ids = list(range(self.num_trajectories))
        require(len(site_labels) == self.num_sites, "site_labels length mismatch")
        require(
            len(trajectory_ids) == self.num_trajectories, "trajectory_ids length mismatch"
        )
        self.site_labels = np.asarray(site_labels, dtype=np.int64)
        self.trajectory_ids = np.asarray(trajectory_ids, dtype=np.int64)
        if trajectory_weights is None:
            self.trajectory_weights = np.ones(self.num_trajectories, dtype=np.float64)
        else:
            require(
                len(trajectory_weights) == self.num_trajectories,
                "trajectory_weights length mismatch",
            )
            self.trajectory_weights = np.asarray(trajectory_weights, dtype=np.float64)

        # ψ scores: 0 beyond τ by construction of PreferenceFunction.__call__
        with np.errstate(invalid="ignore"):
            finite = np.where(np.isfinite(detours), detours, np.inf)
        self.scores = np.asarray(preference(finite, self.tau_km), dtype=np.float64)
        self.scores = self.scores * self.trajectory_weights[:, np.newaxis]
        # coverage is purely geometric — a (trajectory, site) pair is covered
        # iff the detour is within τ, even when ψ scores it 0 (e.g. a linear
        # ψ at detour exactly τ); the sparse index keeps the same entries
        self._covered_mask = finite <= self.tau_km
        self._label_to_col: dict[int, int] | None = None
        self.kernel_timer: KernelTimer | None = None

    def attach_kernel_timer(self, timer: KernelTimer | None) -> None:
        """Record per-kernel call counts/seconds into *timer* (None detaches)."""
        self.kernel_timer = timer

    # ------------------------------------------------------------------ #
    @property
    def site_weights(self) -> np.ndarray:
        """``w_i = Σ_j ψ(T_j, s_i)`` for every site column."""
        return self.scores.sum(axis=0)

    def trajectories_covered(self, site_column: int) -> np.ndarray:
        """Row indices of trajectories covered by the site in *site_column* (TC)."""
        return np.flatnonzero(self._covered_mask[:, site_column])

    def sites_covering(self, trajectory_row: int) -> np.ndarray:
        """Column indices of sites covering the trajectory in *trajectory_row* (SC)."""
        return np.flatnonzero(self._covered_mask[trajectory_row, :])

    def covered_pairs(self) -> int:
        """Total number of (trajectory, site) covered pairs — the |TC| mass."""
        return int(self._covered_mask.sum())

    def coverage_mask(self) -> np.ndarray:
        """Boolean ``(m, n)`` coverage mask (copy)."""
        return self._covered_mask.copy()

    # ------------------------------------------------------------------ #
    def utility_of(self, site_columns: Sequence[int]) -> float:
        """Utility ``U(Q)`` of the sites given by their column indices."""
        if len(site_columns) == 0:
            return 0.0
        return float(np.sum(np.max(self.scores[:, list(site_columns)], axis=1)))

    def per_trajectory_utility(self, site_columns: Sequence[int]) -> np.ndarray:
        """Per-trajectory utility under the given site columns."""
        if len(site_columns) == 0:
            return np.zeros(self.num_trajectories)
        return np.max(self.scores[:, list(site_columns)], axis=1)

    def columns_for_labels(self, labels: Sequence[int]) -> list[int]:
        """Map site labels (node ids) back to column indices."""
        if self._label_to_col is None:
            self._label_to_col = build_label_map(self.site_labels)
        return labels_to_columns(self.site_labels, labels, self._label_to_col)

    def storage_bytes(self) -> int:
        """Bytes held by the coverage structures (memory-footprint study)."""
        return int(
            self.detours.nbytes + self.scores.nbytes + self._covered_mask.nbytes
        )

    # ------------------------------------------------------------------ #
    # coverage protocol shared with SparseCoverageIndex
    # ------------------------------------------------------------------ #
    @property
    def is_sparse(self) -> bool:
        """Whether the score matrix is held in sparse form."""
        return False

    def site_column(self, col: int) -> tuple[np.ndarray, np.ndarray]:
        """The covered rows of one site column and their ψ-scores."""
        rows = np.flatnonzero(self._covered_mask[:, col])
        return rows, self.scores[rows, col]

    @kernel
    def marginal_gains(self, utilities: np.ndarray) -> np.ndarray:
        """Marginal utility of every site given current per-trajectory utilities."""
        residual = np.maximum(self.scores - utilities[:, np.newaxis], 0.0)
        return residual.sum(axis=0)

    @kernel
    def marginal_gain(
        self, col: int, utilities: np.ndarray, capacity: int | None = None
    ) -> float:
        """Marginal utility of one site, optionally capacity-limited."""
        residual = np.maximum(self.scores[:, col] - utilities, 0.0)
        return _top_capacity_sum(residual, capacity)

    @kernel
    def absorb(
        self, utilities: np.ndarray, col: int, capacity: int | None = None
    ) -> np.ndarray:
        """Per-trajectory utilities after adding the site in *col* (copy)."""
        column = self.scores[:, col]
        if capacity is None or capacity >= len(column):
            return np.maximum(utilities, column)
        return serve_top_capacity(utilities, slice(None), column, capacity)

    @kernel
    def gain_updates(
        self, rows: np.ndarray, old_values: np.ndarray, new_values: np.ndarray
    ) -> np.ndarray:
        """Per-site marginal-gain decrease when *rows* improve old → new.

        For each site ``i`` the residual gain of trajectory ``j`` drops
        from ``max(0, ψ_ji − old_j)`` to ``max(0, ψ_ji − new_j)``; the
        returned vector is that drop summed over the given rows — the
        update kernel of Algorithm 1's incremental strategy.
        """
        row_index = np.asarray(rows, dtype=np.int64)
        old = np.asarray(old_values, dtype=np.float64)
        new = np.asarray(new_values, dtype=np.float64)
        affected = self.scores[row_index]
        drop = np.maximum(affected - old[:, np.newaxis], 0.0)
        drop -= np.maximum(affected - new[:, np.newaxis], 0.0)
        return drop.sum(axis=0)

    def utilities_for_selection(
        self,
        columns: Sequence[int],
        capacity: int | None = None,
        seed_columns: Sequence[int] = (),
    ) -> np.ndarray:
        """Per-trajectory utilities after absorbing *columns* in order."""
        return replay_selection(self, columns, capacity, seed_columns)


# ---------------------------------------------------------------------- #
def build_label_map(site_labels: np.ndarray) -> dict[int, int]:
    """The label → column mapping for a coverage's site labels.

    Built once per coverage instance and cached on it — every
    ``columns_for_labels`` implementation reuses the cached mapping
    instead of rebuilding this dict on each call.
    """
    return {int(label): idx for idx, label in enumerate(site_labels)}


def labels_to_columns(
    site_labels: np.ndarray,
    labels: Sequence[int],
    mapping: dict[int, int] | None = None,
) -> list[int]:
    """Map site labels (node ids) back to column indices.

    The shared implementation behind every coverage class's
    ``columns_for_labels``; raises ``KeyError`` for a label the coverage
    does not know.  Pass the coverage's cached *mapping* to avoid
    rebuilding the dict per call.
    """
    if mapping is None:
        mapping = build_label_map(site_labels)
    return [mapping[int(label)] for label in labels]


# ---------------------------------------------------------------------- #
def replay_selection(
    coverage: Any,
    columns: Sequence[int],
    capacity: int | None = None,
    seed_columns: Sequence[int] = (),
) -> np.ndarray:
    """Per-trajectory utilities after absorbing *columns* in selection order.

    ``seed_columns`` (existing services) are absorbed first without any
    capacity limit, matching how the greedy solvers seed their utilities.
    With a capacity, the absorption order matters — the columns must be given
    in the order the greedy selected them, which is exactly what makes a
    prefix of a k-selection the answer for a smaller k.
    """
    utilities = np.zeros(coverage.num_trajectories, dtype=np.float64)
    for col in seed_columns:
        utilities = coverage.absorb(utilities, int(col))
    for col in columns:
        utilities = coverage.absorb(utilities, int(col), capacity)
    return utilities


# ---------------------------------------------------------------------- #
def serve_top_capacity(
    utilities: np.ndarray, rows: np.ndarray | slice, values: np.ndarray, capacity: int
) -> np.ndarray:
    """Utilities after serving the ``capacity`` largest gains of one site.

    ``rows``/``values`` are the site's covered trajectories and scores (use
    ``slice(None)`` with a full dense column).  Equal gains are served
    lowest-trajectory first (stable sort), so the dense and sparse engines
    pick the same trajectories.
    """
    gains = np.maximum(values - utilities[rows], 0.0)
    served = np.argsort(-gains, kind="stable")[: max(int(capacity), 0)]
    updated = utilities.copy()
    if isinstance(rows, slice):
        served_rows = served
    else:
        served_rows = rows[served]
    updated[served_rows] = np.maximum(updated[served_rows], values[served])
    return updated


def _top_capacity_sum(residual: np.ndarray, capacity: int | None) -> float:
    """Sum of the largest ``capacity`` residual gains (all of them if None)."""
    if capacity is None or capacity >= len(residual):
        return float(residual.sum())
    capacity = int(capacity)
    if capacity <= 0:
        return 0.0
    top = np.partition(residual, len(residual) - capacity)[len(residual) - capacity :]
    return float(top.sum())


def cell_keys(rows: np.ndarray, cols: np.ndarray, width: int) -> np.ndarray:
    """The int64 key ``col·width + row`` of every coverage cell.

    With rows in ``[0, width)`` and non-negative columns the keys order
    cells like ``(column, row)`` and distinct cells get distinct keys.
    Refuses (``ValueError``) rather than wraps when the largest key would
    overflow int64.
    """
    width = int(width)
    if len(cols):
        require(
            int(cols.max()) * width + width - 1 <= _INT64_MAX,
            f"coverage cell keys overflow int64 (column {int(cols.max())}, width {width})",
        )
    return cols * width + rows


def _stable_row_order(rows: np.ndarray, num_rows: int) -> np.ndarray:
    """``np.argsort(rows, kind="stable")`` for rows in ``[0, num_rows)``,
    ``num_rows ≤ 2³²``.

    Two stable passes over 16-bit halves, low then high: numpy sorts
    16-bit keys by radix, so each pass is linear, where a stable sort of
    int64 keys is a comparison sort.  Sorting stably by the high half after
    the low half orders by the whole key and keeps equal keys in input
    order.
    """
    require(num_rows <= 1 << 32, f"{num_rows} rows exceed the 2**32 row-order bound")
    order = np.argsort((rows & 0xFFFF).astype(np.uint16), kind="stable")
    high = (rows[order] >> 16).astype(np.uint16)
    return order[np.argsort(high, kind="stable")]


def canonical_entries(
    rows: np.ndarray,
    cols: np.ndarray,
    estimates: np.ndarray,
    tau_km: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonicalise coverage triples: ≤ τ, finite, min-reduced, column-major.

    Keeps the finite entries within τ, orders them by ``(column, row)``
    with one stable ``np.argsort`` on the single int64 key of
    :func:`cell_keys` and keeps the smallest estimate of every duplicate
    cell.  Rows and columns must be non-negative.  The result is
    independent of the input order, and canonicalising it again is the
    identity — the entry form :meth:`SparseCoverageIndex.from_coverage_lists`
    builds from and the coverage cache stores.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    estimates = np.asarray(estimates, dtype=np.float64)
    keep = np.isfinite(estimates) & (estimates <= float(tau_km))
    rows, cols, estimates = rows[keep], cols[keep], estimates[keep]
    if len(rows):
        require(
            int(rows.min()) >= 0 and int(cols.min()) >= 0,
            "coverage rows and columns must be non-negative",
        )
        keys = cell_keys(rows, cols, int(rows.max()) + 1)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        rows, cols, estimates = rows[order], cols[order], estimates[order]
        boundary = np.empty(len(rows), dtype=bool)
        boundary[0] = True
        np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        rows, cols = rows[starts], cols[starts]
        estimates = np.minimum.reduceat(estimates, starts)
    return rows, cols, estimates


class SparseCoverageIndex:
    """CSR/CSC preference scores, covering sets and site weights for one (τ, ψ).

    Only the covered (trajectory, site) pairs — detour ≤ τ — are stored, in
    both row-major (``SC(T_j)`` per trajectory) and column-major (``TC(s_i)``
    per site) compressed form.  The dense ψ matrix is never materialised: the
    preference function is evaluated on the 1-D array of covered detours.

    Parameters mirror :class:`CoverageIndex`; the constructor consumes a dense
    detour matrix, while :meth:`from_coverage_lists` builds the index straight
    from (trajectory, site, detour) triples, which is how NetClus's clustered
    space and incremental pipelines feed it without an ``(m, n)`` matrix.
    """

    def __init__(
        self,
        detours: np.ndarray,
        tau_km: float,
        preference: PreferenceFunction,
        site_labels: Sequence[int] | None = None,
        trajectory_ids: Sequence[int] | None = None,
        trajectory_weights: np.ndarray | None = None,
    ) -> None:
        detours = np.asarray(detours, dtype=np.float64)
        require(detours.ndim == 2, "detours must be a 2-D matrix")
        num_trajectories, num_sites = detours.shape
        with np.errstate(invalid="ignore"):
            covered = np.isfinite(detours) & (detours <= float(tau_km))
        # column-major, like every other caller's entries
        cols, rows = np.nonzero(covered.T)
        self._init_from_entries(
            rows,
            cols,
            detours[rows, cols],
            num_trajectories,
            num_sites,
            tau_km,
            preference,
            site_labels,
            trajectory_ids,
            trajectory_weights,
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def from_coverage_lists(
        cls,
        rows: Sequence[int] | np.ndarray,
        cols: Sequence[int] | np.ndarray,
        detours: Sequence[float] | np.ndarray,
        num_trajectories: int,
        num_sites: int,
        tau_km: float,
        preference: PreferenceFunction,
        site_labels: Sequence[int] | None = None,
        trajectory_ids: Sequence[int] | None = None,
        trajectory_weights: np.ndarray | None = None,
        canonical: bool = False,
    ) -> "SparseCoverageIndex":
        """Build the index from (trajectory, site, detour) coverage triples.

        Entries beyond τ or non-finite are dropped; duplicate (trajectory,
        site) pairs keep the *smallest* detour, matching how NetClus takes the
        minimum estimate over a representative's neighbouring clusters.

        ``canonical=True`` promises the triples are already in this form —
        finite, ≤ τ, unique pairs, column-major order (the output of
        :func:`canonical_entries`, which stored coverage parts keep) — and
        skips that pass, which is a pure identity on such input.  Range
        checks still run.
        """
        index = cls.__new__(cls)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        detour_values = np.asarray(detours, dtype=np.float64)
        require(
            rows.shape == cols.shape == detour_values.shape,
            "rows, cols and detours must have equal lengths",
        )
        if not canonical:
            rows, cols, detour_values = canonical_entries(rows, cols, detour_values, tau_km)
        if len(rows):
            require(
                int(rows.min()) >= 0 and int(rows.max()) < num_trajectories,
                "trajectory row out of range",
            )
            require(
                int(cols.min()) >= 0 and int(cols.max()) < num_sites,
                "site column out of range",
            )
        index._init_from_entries(
            rows,
            cols,
            detour_values,
            num_trajectories,
            num_sites,
            tau_km,
            preference,
            site_labels,
            trajectory_ids,
            trajectory_weights,
        )
        return index

    # ------------------------------------------------------------------ #
    def _init_from_entries(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        detour_values: np.ndarray,
        num_trajectories: int,
        num_sites: int,
        tau_km: float,
        preference: PreferenceFunction,
        site_labels: Sequence[int] | None,
        trajectory_ids: Sequence[int] | None,
        trajectory_weights: np.ndarray | None,
    ) -> None:
        """Fill the index from unique covered cells in column-major order."""
        self.num_trajectories = int(num_trajectories)
        self.num_sites = int(num_sites)
        self.tau_km = float(tau_km)
        self.preference = preference
        if site_labels is None:
            site_labels = list(range(self.num_sites))
        if trajectory_ids is None:
            trajectory_ids = list(range(self.num_trajectories))
        require(len(site_labels) == self.num_sites, "site_labels length mismatch")
        require(
            len(trajectory_ids) == self.num_trajectories, "trajectory_ids length mismatch"
        )
        self.site_labels = np.asarray(site_labels, dtype=np.int64)
        self.trajectory_ids = np.asarray(trajectory_ids, dtype=np.int64)
        if trajectory_weights is None:
            self.trajectory_weights = np.ones(self.num_trajectories, dtype=np.float64)
        else:
            require(
                len(trajectory_weights) == self.num_trajectories,
                "trajectory_weights length mismatch",
            )
            self.trajectory_weights = np.asarray(trajectory_weights, dtype=np.float64)

        scores = np.asarray(preference(detour_values, self.tau_km), dtype=np.float64)
        scores = np.atleast_1d(scores) * self.trajectory_weights[rows]

        # CSC (column-major) — the greedy hot path iterates site columns;
        # the entries already are in this order
        self._csc_rows = rows
        self._csc_data = scores
        counts = np.bincount(cols, minlength=self.num_sites)
        self._csc_indptr = np.zeros(self.num_sites + 1, dtype=np.int64)
        np.cumsum(counts, out=self._csc_indptr[1:])
        self._entry_cols = np.repeat(np.arange(self.num_sites, dtype=np.int64), counts)

        # CSR (row-major) — SC(T_j) lookups and per-trajectory scans; with
        # unique cells, a stable sort on the row alone keeps the columns
        # ascending within each row
        rorder = _stable_row_order(rows, self.num_trajectories)
        self._csr_cols = cols[rorder]
        self._csr_data = scores[rorder]
        row_counts = np.bincount(rows, minlength=self.num_trajectories)
        self._csr_indptr = np.zeros(self.num_trajectories + 1, dtype=np.int64)
        np.cumsum(row_counts, out=self._csr_indptr[1:])

        # np.bincount with float weights already returns float64
        self._site_weights = np.bincount(cols, weights=scores, minlength=self.num_sites)
        self._label_to_col: dict[int, int] | None = None
        self.kernel_timer: KernelTimer | None = None

    def attach_kernel_timer(self, timer: KernelTimer | None) -> None:
        """Record per-kernel call counts/seconds into *timer* (None detaches)."""
        self.kernel_timer = timer

    # ------------------------------------------------------------------ #
    @property
    def is_sparse(self) -> bool:
        """Whether the score matrix is held in sparse form."""
        return True

    @property
    def nnz(self) -> int:
        """Number of stored (trajectory, site) covered pairs."""
        return int(len(self._csc_rows))

    @property
    def density(self) -> float:
        """Fraction of the (m, n) matrix that is covered."""
        cells = self.num_trajectories * self.num_sites
        return self.nnz / cells if cells else 0.0

    @property
    def site_weights(self) -> np.ndarray:
        """``w_i = Σ_j ψ(T_j, s_i)`` for every site column."""
        return self._site_weights

    def site_column(self, col: int) -> tuple[np.ndarray, np.ndarray]:
        """The covered rows of one site column and their ψ-scores."""
        start, stop = self._csc_indptr[col], self._csc_indptr[col + 1]
        return self._csc_rows[start:stop], self._csc_data[start:stop]

    def trajectories_covered(self, site_column: int) -> np.ndarray:
        """Row indices of trajectories covered by the site in *site_column* (TC)."""
        start, stop = self._csc_indptr[site_column], self._csc_indptr[site_column + 1]
        return self._csc_rows[start:stop]

    def sites_covering(self, trajectory_row: int) -> np.ndarray:
        """Column indices of sites covering the trajectory in *trajectory_row* (SC)."""
        start, stop = self._csr_indptr[trajectory_row], self._csr_indptr[trajectory_row + 1]
        return self._csr_cols[start:stop]

    def covered_pairs(self) -> int:
        """Total number of (trajectory, site) covered pairs — the |TC| mass."""
        return self.nnz

    def coverage_mask(self) -> np.ndarray:
        """Boolean ``(m, n)`` coverage mask (densified copy; debugging aid)."""
        mask = np.zeros((self.num_trajectories, self.num_sites), dtype=bool)
        mask[self._csc_rows, self._entry_cols] = True
        return mask

    # ------------------------------------------------------------------ #
    @kernel
    def marginal_gains(self, utilities: np.ndarray) -> np.ndarray:
        """Marginal utility of every site in one pass over the stored entries."""
        if self.nnz == 0:
            # np.bincount over no entries returns int64, not float64
            return np.zeros(self.num_sites, dtype=np.float64)
        residual = np.maximum(self._csc_data - utilities[self._csc_rows], 0.0)
        # np.bincount with float weights already returns float64
        return np.bincount(self._entry_cols, weights=residual, minlength=self.num_sites)

    @kernel
    def marginal_gain(
        self, col: int, utilities: np.ndarray, capacity: int | None = None
    ) -> float:
        """Marginal utility of one site, optionally capacity-limited."""
        rows, values = self.site_column(col)
        residual = np.maximum(values - utilities[rows], 0.0)
        return _top_capacity_sum(residual, capacity)

    @kernel
    def absorb(
        self, utilities: np.ndarray, col: int, capacity: int | None = None
    ) -> np.ndarray:
        """Per-trajectory utilities after adding the site in *col* (copy)."""
        rows, values = self.site_column(col)
        updated = utilities.copy()
        if capacity is None or capacity >= len(rows):
            # rows are unique within a column, so plain fancy indexing beats
            # the much slower np.maximum.at
            updated[rows] = np.maximum(updated[rows], values)
            return updated
        return serve_top_capacity(utilities, rows, values, capacity)

    @kernel
    def gain_updates(
        self, rows: np.ndarray, old_values: np.ndarray, new_values: np.ndarray
    ) -> np.ndarray:
        """Per-site marginal-gain decrease when *rows* improve old → new.

        Sparse counterpart of :meth:`CoverageIndex.gain_updates`: only the
        stored (row, site) entries of the affected rows are touched, via
        their CSR slices.
        """
        row_index = np.asarray(rows, dtype=np.int64)
        old = np.asarray(old_values, dtype=np.float64)
        new = np.asarray(new_values, dtype=np.float64)
        starts = self._csr_indptr[row_index]
        stops = self._csr_indptr[row_index + 1]
        counts = stops - starts
        total = int(counts.sum())
        if total == 0:
            return np.zeros(self.num_sites, dtype=np.float64)
        # flatten the per-row CSR slices into one entry list
        offsets = np.repeat(starts - np.r_[0, np.cumsum(counts)[:-1]], counts)
        entry_indices = np.arange(total, dtype=np.int64) + offsets
        entry_scores = self._csr_data[entry_indices]
        drop = np.maximum(entry_scores - np.repeat(old, counts), 0.0)
        drop -= np.maximum(entry_scores - np.repeat(new, counts), 0.0)
        entry_cols = self._csr_cols[entry_indices]
        # np.bincount with float weights already returns float64
        return np.bincount(entry_cols, weights=drop, minlength=self.num_sites)

    def utilities_for_selection(
        self,
        columns: Sequence[int],
        capacity: int | None = None,
        seed_columns: Sequence[int] = (),
    ) -> np.ndarray:
        """Per-trajectory utilities after absorbing *columns* in order."""
        return replay_selection(self, columns, capacity, seed_columns)

    # ------------------------------------------------------------------ #
    def utility_of(self, site_columns: Sequence[int]) -> float:
        """Utility ``U(Q)`` of the sites given by their column indices."""
        return float(self.per_trajectory_utility(site_columns).sum())

    def per_trajectory_utility(self, site_columns: Sequence[int]) -> np.ndarray:
        """Per-trajectory utility under the given site columns."""
        utilities = np.zeros(self.num_trajectories, dtype=np.float64)
        for col in site_columns:
            rows, values = self.site_column(int(col))
            utilities[rows] = np.maximum(utilities[rows], values)
        return utilities

    def columns_for_labels(self, labels: Sequence[int]) -> list[int]:
        """Map site labels (node ids) back to column indices."""
        if self._label_to_col is None:
            self._label_to_col = build_label_map(self.site_labels)
        return labels_to_columns(self.site_labels, labels, self._label_to_col)

    def storage_bytes(self) -> int:
        """Bytes held by the sparse coverage structures."""
        arrays = (
            self._csc_rows,
            self._csc_data,
            self._csc_indptr,
            self._entry_cols,
            self._csr_cols,
            self._csr_data,
            self._csr_indptr,
            self._site_weights,
        )
        return int(sum(array.nbytes for array in arrays))
