"""Packed-bitset coverage engine for binary preferences (popcount kernels).

For the binary ψ of TOPS1 (Definition 3) the ψ-score matrix *is* a bit
matrix: a (trajectory, site) pair scores exactly 1.0 within τ and 0.0
beyond it.  :class:`BitsetCoverageIndex` packs that matrix into ``uint64``
bitset blocks — one word covers 64 trajectories, and each site column is a
contiguous block row — so the greedy hot-path kernels become bit
operations:

* ``marginal_gains`` — popcount of ``col & ~covered`` for every site, one
  ``np.bitwise_and`` + ``np.bitwise_count`` over the ``(n, W)`` block
  matrix (``W = ⌈m/64⌉``) instead of an ``(m, n)`` float reduction;
* ``gain_updates`` — a popcount over the packed row-mask delta (under a
  binary ψ an improved trajectory always goes 0 → 1, so the per-site gain
  drop is exactly the number of covered improved rows);
* ``absorb`` / capacitated paths — served on the *unpacked* column through
  the exact same ``serve_top_capacity`` / ``_top_capacity_sum`` code as
  the sparse engine, which is what keeps selections and per-trajectory
  utilities byte-identical across engines.

Exactness: with a binary ψ and unit trajectory weights (both enforced at
construction) every utility is exactly 0.0 or 1.0, so the float sums the
dense/sparse engines compute are integers below 2⁵³ — and a popcount
converted to ``float64`` reproduces them bit for bit.  Combined with the
shared ``GAIN_RTOL`` / ``tie_break_candidates`` tie discipline, IncGreedy,
LazyGreedy, FMGreedy, every TOPS variant driver and ``CoverageCache``
materialisation all run on this engine unchanged
with byte-identical selections.

The kernels are ``@kernel``-marked, so an attached
:class:`~repro.utils.timer.KernelTimer` times them like the float engines'.

The packed layout assumes a little-endian platform (``np.packbits`` /
``np.unpackbits`` with ``bitorder="little"`` against ``uint64`` byte
views), which covers every platform the test matrix runs on.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.coverage import (
    _top_capacity_sum,
    build_label_map,
    labels_to_columns,
    replay_selection,
    serve_top_capacity,
)
from repro.core.preference import PreferenceFunction
from repro.utils.concurrency import kernel
from repro.utils.timer import KernelTimer
from repro.utils.validation import require

__all__ = ["BitsetCoverageIndex"]

#: trajectories covered by one block word
WORD_BITS = 64


def _pack_bool(mask: np.ndarray, num_words: int) -> np.ndarray:
    """Pack a boolean row vector into *num_words* little-endian uint64 words."""
    words = np.zeros(num_words, dtype=np.uint64)
    packed = np.packbits(mask, bitorder="little")
    words.view(np.uint8)[: packed.size] = packed
    return words


def _unpack_rows(words: np.ndarray, num_rows: int) -> np.ndarray:
    """Ascending row indices of the set bits in a packed column."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little", count=num_rows)
    return np.flatnonzero(bits)


class BitsetCoverageIndex:
    """Bit-packed coverage and popcount kernels for one (τ, binary ψ).

    Parameters mirror :class:`~repro.core.coverage.CoverageIndex`; the
    constructor consumes a dense detour matrix, while
    :meth:`from_coverage_lists` builds the index straight from
    (trajectory, site, detour) triples — the canonical ≤τ entry stream of
    the coverage cache fully determines a binary coverage, so both paths
    produce the same blocks.

    Requires ``preference.is_binary`` and unit trajectory weights: those
    are the preconditions that make popcounts equal to float sums exactly.
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
        self._init_common(
            num_trajectories,
            num_sites,
            tau_km,
            preference,
            site_labels,
            trajectory_ids,
            trajectory_weights,
        )
        with np.errstate(invalid="ignore"):
            covered = np.isfinite(detours) & (detours <= self.tau_km)
        blocks = np.zeros((self.num_sites, self._num_words), dtype=np.uint64)
        if num_trajectories:
            packed = np.packbits(covered.T, axis=1, bitorder="little")
            blocks.view(np.uint8)[:, : packed.shape[1]] = packed
        self._blocks = blocks
        self._finish_init()

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
    ) -> "BitsetCoverageIndex":
        """Build the index from (trajectory, site, detour) coverage triples.

        Entries beyond τ or non-finite are dropped, exactly like the
        sparse builder; duplicate (trajectory, site) pairs are idempotent
        under the bitwise OR, so no min-reduction is needed — a binary
        coverage is fully determined by *which* pairs are within τ.
        """
        index = cls.__new__(cls)
        row_index = np.asarray(rows, dtype=np.int64)
        col_index = np.asarray(cols, dtype=np.int64)
        detour_values = np.asarray(detours, dtype=np.float64)
        require(
            row_index.shape == col_index.shape == detour_values.shape,
            "rows, cols and detours must have equal lengths",
        )
        keep = np.isfinite(detour_values) & (detour_values <= float(tau_km))
        row_index, col_index = row_index[keep], col_index[keep]
        if len(row_index):
            require(
                int(row_index.min()) >= 0 and int(row_index.max()) < num_trajectories,
                "trajectory row out of range",
            )
            require(
                int(col_index.min()) >= 0 and int(col_index.max()) < num_sites,
                "site column out of range",
            )
        index._init_common(
            num_trajectories,
            num_sites,
            tau_km,
            preference,
            site_labels,
            trajectory_ids,
            trajectory_weights,
        )
        num_words = index._num_words
        blocks = np.zeros((index.num_sites, num_words), dtype=np.uint64)
        if len(row_index):
            # scatter-OR: group entries by flat (col, word) cell, then OR
            # each group's bits together with one reduceat pass; canonical
            # (column-major) entries already arrive grouped
            bits = np.left_shift(
                np.uint64(1), (row_index & (WORD_BITS - 1)).astype(np.uint64)
            )
            keys = col_index * num_words + (row_index >> 6)
            if np.any(keys[1:] < keys[:-1]):
                order = np.argsort(keys, kind="stable")
                keys, bits = keys[order], bits[order]
            boundary = np.empty(len(keys), dtype=bool)
            boundary[0] = True
            boundary[1:] = keys[1:] != keys[:-1]
            starts = np.flatnonzero(boundary)
            blocks.reshape(-1)[keys[starts]] = np.bitwise_or.reduceat(bits, starts)
        index._blocks = blocks
        index._finish_init()
        return index

    # ------------------------------------------------------------------ #
    def _init_common(
        self,
        num_trajectories: int,
        num_sites: int,
        tau_km: float,
        preference: PreferenceFunction,
        site_labels: Sequence[int] | None,
        trajectory_ids: Sequence[int] | None,
        trajectory_weights: np.ndarray | None,
    ) -> None:
        require(
            preference.is_binary,
            "BitsetCoverageIndex requires a binary preference (ψ scores in "
            "{0, 1}); use the dense or sparse engine for graded preferences",
        )
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
        if trajectory_weights is not None:
            require(
                len(trajectory_weights) == self.num_trajectories,
                "trajectory_weights length mismatch",
            )
            require(
                bool(np.all(np.asarray(trajectory_weights, dtype=np.float64) == 1.0)),
                "BitsetCoverageIndex requires unit trajectory weights (popcount "
                "== float sum only holds for {0, 1} utilities)",
            )
        self.trajectory_weights = np.ones(self.num_trajectories, dtype=np.float64)
        self._num_words = (self.num_trajectories + WORD_BITS - 1) // WORD_BITS

    def _finish_init(self) -> None:
        self._site_weights = np.bitwise_count(self._blocks).sum(
            axis=1, dtype=np.float64
        )
        self._label_to_col: dict[int, int] | None = None
        self.kernel_timer: KernelTimer | None = None

    def attach_kernel_timer(self, timer: KernelTimer | None) -> None:
        """Record per-kernel call counts/seconds into *timer* (None detaches)."""
        self.kernel_timer = timer

    # ------------------------------------------------------------------ #
    @property
    def is_sparse(self) -> bool:
        """Bitset blocks are a packed dense layout (IncGreedy-compatible)."""
        return False

    @property
    def nnz(self) -> int:
        """Number of stored (trajectory, site) covered pairs."""
        return int(self._site_weights.sum())

    @property
    def density(self) -> float:
        """Fraction of the (m, n) matrix that is covered."""
        cells = self.num_trajectories * self.num_sites
        return self.nnz / cells if cells else 0.0

    @property
    def site_weights(self) -> np.ndarray:
        """``w_i = Σ_j ψ(T_j, s_i)`` — per-site popcounts as float64."""
        return self._site_weights

    def site_column(self, col: int) -> tuple[np.ndarray, np.ndarray]:
        """The covered rows of one site column and their ψ-scores (all 1.0)."""
        rows = _unpack_rows(self._blocks[int(col)], self.num_trajectories)
        return rows, np.ones(len(rows), dtype=np.float64)

    def trajectories_covered(self, site_column: int) -> np.ndarray:
        """Row indices of trajectories covered by the site in *site_column* (TC)."""
        return _unpack_rows(self._blocks[int(site_column)], self.num_trajectories)

    def sites_covering(self, trajectory_row: int) -> np.ndarray:
        """Column indices of sites covering the trajectory in *trajectory_row* (SC)."""
        word = int(trajectory_row) // WORD_BITS
        bit = np.uint64(int(trajectory_row) % WORD_BITS)
        return np.flatnonzero((self._blocks[:, word] >> bit) & np.uint64(1))

    def covered_pairs(self) -> int:
        """Total number of (trajectory, site) covered pairs — the |TC| mass."""
        return self.nnz

    def coverage_mask(self) -> np.ndarray:
        """Boolean ``(m, n)`` coverage mask (densified copy; debugging aid)."""
        if self.num_trajectories == 0:
            return np.zeros((0, self.num_sites), dtype=bool)
        bits = np.unpackbits(
            self._blocks.view(np.uint8),
            axis=1,
            bitorder="little",
            count=self.num_trajectories,
        )
        return bits.T.astype(bool)

    # ------------------------------------------------------------------ #
    def _pack_uncovered(self, utilities: np.ndarray) -> np.ndarray:
        """Packed mask of rows whose current utility is 0."""
        return _pack_bool(utilities <= 0.0, self._num_words)

    @kernel
    def marginal_gains(self, utilities: np.ndarray) -> np.ndarray:
        """Marginal utility of every site: popcount of ``col & ~covered``.

        Exact for the engine's own utility vectors, which are always
        {0.0, 1.0}-valued (binary ψ, unit weights).
        """
        masked = self._blocks & self._pack_uncovered(utilities)
        return np.bitwise_count(masked).sum(axis=1, dtype=np.float64)

    @kernel
    def marginal_gain(
        self, col: int, utilities: np.ndarray, capacity: int | None = None
    ) -> float:
        """Marginal utility of one site, optionally capacity-limited."""
        if capacity is None:
            masked = self._blocks[int(col)] & self._pack_uncovered(utilities)
            return float(np.bitwise_count(masked).sum(dtype=np.float64))
        # the capacitated path serves the unpacked column through the same
        # top-capacity code as the sparse engine (byte-identical serving)
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
            updated[rows] = np.maximum(updated[rows], values)
            return updated
        return serve_top_capacity(utilities, rows, values, capacity)

    @kernel
    def gain_updates(
        self, rows: np.ndarray, old_values: np.ndarray, new_values: np.ndarray
    ) -> np.ndarray:
        """Per-site marginal-gain decrease when *rows* improve old → new.

        Under a binary ψ an improved trajectory always goes from utility 0
        to 1, so each covered improved row decreases a site's gain by
        exactly 1 — the vector is a popcount of ``blocks & delta`` where
        ``delta`` packs the improved rows.
        """
        row_index = np.asarray(rows, dtype=np.int64)
        mask = np.zeros(self.num_trajectories, dtype=bool)
        mask[row_index] = True
        masked = self._blocks & _pack_bool(mask, self._num_words)
        return np.bitwise_count(masked).sum(axis=1, dtype=np.float64)

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
        """Bytes held by the packed coverage structures."""
        return int(self._blocks.nbytes + self._site_weights.nbytes)
