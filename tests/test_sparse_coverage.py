"""Unit tests for the CSR/CSC :class:`SparseCoverageIndex`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.covcache import splice_entries
from repro.core.coverage import (
    CoverageIndex,
    SparseCoverageIndex,
    canonical_entries,
    cell_keys,
)
from repro.core.preference import BinaryPreference, LinearPreference


def random_detours(rng, m, n, density=0.3, scale=2.0):
    """A random (m, n) detour matrix with roughly the given finite density."""
    detours = rng.random((m, n)) * scale
    return np.where(rng.random((m, n)) < density, detours, np.inf)


class TestAgainstDense:
    """The sparse index must reproduce every dense coverage structure."""

    @pytest.mark.parametrize("preference", [BinaryPreference(), LinearPreference()])
    @pytest.mark.parametrize("tau", [0.3, 0.8, 1.5])
    def test_structures_match_dense(self, rng, preference, tau):
        detours = random_detours(rng, 40, 25)
        dense = CoverageIndex(detours, tau, preference)
        sparse = SparseCoverageIndex(detours, tau, preference)
        assert sparse.num_trajectories == dense.num_trajectories
        assert sparse.num_sites == dense.num_sites
        assert np.allclose(sparse.site_weights, dense.site_weights)
        assert np.array_equal(sparse.coverage_mask(), dense.coverage_mask())
        assert sparse.covered_pairs() == dense.covered_pairs()
        for col in range(dense.num_sites):
            assert np.array_equal(
                sparse.trajectories_covered(col), dense.trajectories_covered(col)
            )
            d_rows, d_vals = dense.site_column(col)
            s_rows, s_vals = sparse.site_column(col)
            assert np.array_equal(d_rows, s_rows)
            assert np.allclose(d_vals, s_vals)
        for row in range(dense.num_trajectories):
            assert np.array_equal(
                sparse.sites_covering(row), dense.sites_covering(row)
            )

    def test_utilities_match_dense(self, rng):
        detours = random_detours(rng, 30, 12)
        dense = CoverageIndex(detours, 0.9, LinearPreference())
        sparse = SparseCoverageIndex(detours, 0.9, LinearPreference())
        columns = [0, 3, 7]
        assert sparse.utility_of(columns) == pytest.approx(dense.utility_of(columns))
        assert np.allclose(
            sparse.per_trajectory_utility(columns),
            dense.per_trajectory_utility(columns),
        )
        utilities = rng.random(30)
        assert np.allclose(sparse.marginal_gains(utilities), dense.marginal_gains(utilities))
        for col in (0, 5, 11):
            assert sparse.marginal_gain(col, utilities) == pytest.approx(
                dense.marginal_gain(col, utilities)
            )
            assert np.allclose(
                sparse.absorb(utilities, col), dense.absorb(utilities, col)
            )

    def test_capacity_absorb_matches_dense(self, rng):
        detours = random_detours(rng, 25, 8, density=0.5)
        dense = CoverageIndex(detours, 1.0, LinearPreference())
        sparse = SparseCoverageIndex(detours, 1.0, LinearPreference())
        utilities = np.zeros(25)
        for col in range(8):
            for cap in (0, 1, 3, 100):
                assert np.allclose(
                    sparse.absorb(utilities, col, cap), dense.absorb(utilities, col, cap)
                )
                assert sparse.marginal_gain(col, utilities, cap) == pytest.approx(
                    dense.marginal_gain(col, utilities, cap)
                )

    def test_gain_updates_match_dense(self, rng):
        detours = random_detours(rng, 120, 30, density=0.5, scale=3.0)
        dense = CoverageIndex(detours, 1.2, LinearPreference())
        sparse = SparseCoverageIndex(detours, 1.2, LinearPreference())
        utilities = rng.uniform(0.0, 0.4, dense.num_trajectories)
        rows = np.arange(0, dense.num_trajectories, 3, dtype=np.int64)
        old = utilities[rows]
        new = old + 0.25
        np.testing.assert_allclose(
            sparse.gain_updates(rows, old, new),
            dense.gain_updates(rows, old, new),
            rtol=1e-12,
            atol=1e-12,
        )
        assert np.array_equal(
            sparse.gain_updates(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0)),
            np.zeros(dense.num_sites),
        )


class TestEdgeCases:
    def test_empty_coverage(self):
        """No detour within τ: a valid, fully empty index."""
        detours = np.full((4, 3), np.inf)
        sparse = SparseCoverageIndex(detours, 1.0, BinaryPreference())
        assert sparse.nnz == 0
        assert sparse.covered_pairs() == 0
        assert sparse.density == 0.0
        assert np.all(sparse.site_weights == 0.0)
        assert len(sparse.trajectories_covered(0)) == 0
        assert len(sparse.sites_covering(0)) == 0
        assert sparse.utility_of([0, 1, 2]) == 0.0

    def test_all_covered(self):
        """Zero detours everywhere: a fully dense 'sparse' index still works."""
        detours = np.zeros((3, 4))
        sparse = SparseCoverageIndex(detours, 1.0, BinaryPreference())
        assert sparse.nnz == 12
        assert sparse.density == 1.0
        assert np.all(sparse.site_weights == 3.0)
        assert sparse.utility_of([0]) == 3.0

    def test_weighted_trajectories(self):
        detours = np.zeros((3, 2))
        weights = np.asarray([1.0, 2.0, 3.0])
        sparse = SparseCoverageIndex(
            detours, 1.0, BinaryPreference(), trajectory_weights=weights
        )
        assert np.all(sparse.site_weights == 6.0)
        assert sparse.utility_of([0]) == 6.0
        dense = CoverageIndex(
            detours, 1.0, BinaryPreference(), trajectory_weights=weights
        )
        assert np.allclose(sparse.site_weights, dense.site_weights)

    def test_zero_score_within_tau_still_covered(self):
        """The linear preference scores exactly-τ detours 0 but they count as covered."""
        detours = np.asarray([[1.0, np.inf]])
        sparse = SparseCoverageIndex(detours, 1.0, LinearPreference())
        dense = CoverageIndex(detours, 1.0, LinearPreference())
        assert sparse.covered_pairs() == dense.covered_pairs() == 1
        assert np.array_equal(sparse.trajectories_covered(0), [0])
        assert sparse.utility_of([0]) == 0.0

    def test_single_trajectory_single_site(self):
        sparse = SparseCoverageIndex(np.asarray([[0.5]]), 1.0, LinearPreference())
        assert sparse.nnz == 1
        assert sparse.utility_of([0]) == pytest.approx(0.5)

    def test_labels_and_storage(self, rng):
        detours = random_detours(rng, 20, 10)
        sparse = SparseCoverageIndex(
            detours, 0.8, BinaryPreference(), site_labels=list(range(100, 110))
        )
        assert sparse.columns_for_labels([105, 100]) == [5, 0]
        assert sparse.storage_bytes() > 0
        dense = CoverageIndex(detours, 0.8, BinaryPreference())
        # roughly 30% density: the sparse payload must undercut the dense one
        assert sparse.storage_bytes() < dense.storage_bytes()


class TestCanonicalEntries:
    def test_single_key_sort_matches_lexsort(self, rng):
        """Cells come out in ``(column, row)`` order, each once, with the
        smallest estimate of its duplicates."""
        rows = rng.integers(0, 50, 400)
        cols = rng.integers(0, 20, 400)
        estimates = np.round(rng.random(400), 1)
        got = canonical_entries(rows, cols, estimates, 0.7)
        keep = estimates <= 0.7
        order = np.lexsort((rows[keep], cols[keep]))
        cells = sorted(set(zip(cols[keep][order].tolist(), rows[keep][order].tolist())))
        assert list(zip(got[1].tolist(), got[0].tolist())) == cells
        for row, col, estimate in zip(*got):
            same = keep & (rows == row) & (cols == col)
            assert estimate == estimates[same].min()

    def test_huge_indices_are_refused_not_wrapped(self):
        """col·width + row past int64 raises instead of wrapping."""
        with pytest.raises(ValueError, match="overflow"):
            canonical_entries([0, 2**40], [2**30, 0], [0.1, 0.2], tau_km=1.0)
        with pytest.raises(ValueError, match="overflow"):
            cell_keys(np.asarray([0, 1]), np.asarray([2**40, 0]), 2**30)
        # the largest key that fits is accepted
        width = 2**32
        assert cell_keys(np.asarray([width - 1]), np.asarray([2**31 - 2]), width)[0] == (
            (2**31 - 2) * width + width - 1
        )

    def test_negative_indices_are_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            canonical_entries([-1], [0], [0.1], tau_km=1.0)
        with pytest.raises(ValueError, match="non-negative"):
            canonical_entries([0], [-3], [0.1], tau_km=1.0)


class TestRowOrder:
    """The CSR arrays equal those an int64 stable ``argsort`` of the rows
    gives, the order ``_init_from_entries`` builds by 16-bit radix passes."""

    @staticmethod
    def argsort_csr(rows, cols, estimates, num_trajectories, tau):
        scores = LinearPreference()(estimates, tau)
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(num_trajectories + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=num_trajectories), out=indptr[1:])
        return indptr, cols[order], scores[order]

    @pytest.mark.parametrize(
        ("num_trajectories", "num_entries"), [(50, 400), (3000, 20000), (200_000, 300)]
    )
    def test_csr_equals_int64_stable_argsort(self, rng, num_trajectories, num_entries):
        tau = 1.0
        rows, cols, estimates = canonical_entries(
            rng.integers(0, num_trajectories, num_entries),
            rng.integers(0, 40, num_entries),
            rng.random(num_entries) * 1.5,
            tau,
        )
        index = SparseCoverageIndex.from_coverage_lists(
            rows, cols, estimates, num_trajectories, 40, tau, LinearPreference(),
            canonical=True,
        )
        # rows above 2**16 exercise the high radix pass
        assert num_trajectories < 2**16 or int(rows.max()) >= 2**16
        want = self.argsort_csr(rows, cols, estimates, num_trajectories, tau)
        got = (index._csr_indptr, index._csr_cols, index._csr_data)
        for got_array, want_array in zip(got, want):
            assert got_array.dtype == want_array.dtype
            assert got_array.tobytes() == want_array.tobytes()

    def test_rows_beyond_the_radix_bound_are_refused(self):
        from repro.core.coverage import _stable_row_order

        assert _stable_row_order(np.asarray([3, 1, 2]), 2**32).tolist() == [1, 2, 0]
        with pytest.raises(ValueError, match="2\\*\\*32"):
            _stable_row_order(np.asarray([0]), 2**32 + 1)


class TestSpliceEntries:
    def carried(self):
        return canonical_entries([0, 1, 0, 2], [0, 0, 2, 2], [0.1, 0.2, 0.3, 0.4], 1.0)

    def test_splice_key_overflow_is_refused(self):
        new = canonical_entries([0], [1], [0.5], 1.0)
        with pytest.raises(ValueError, match="overflow"):
            splice_entries(self.carried(), new, 2**62)

    def test_new_cell_overlapping_a_carried_one_is_refused(self):
        new = canonical_entries([1], [0], [0.05], 1.0)
        with pytest.raises(ValueError, match="overlap"):
            splice_entries(self.carried(), new, 4)

    def test_new_entries_land_between_carried_ones(self):
        new = canonical_entries([2, 3, 1, 2], [1, 2, 1, 1], [0.6, 0.7, 2.0, 0.5], 1.0)
        rows, cols, estimates = splice_entries(self.carried(), new, 4)
        assert rows.tolist() == [0, 1, 2, 0, 2, 3]
        assert cols.tolist() == [0, 0, 1, 2, 2, 2]
        assert estimates.tolist() == [0.1, 0.2, 0.5, 0.3, 0.4, 0.7]


class TestFromCoverageLists:
    def test_matches_dense_construction(self, rng):
        detours = random_detours(rng, 30, 15)
        rows, cols = np.nonzero(np.isfinite(detours))
        from_lists = SparseCoverageIndex.from_coverage_lists(
            rows,
            cols,
            detours[rows, cols],
            num_trajectories=30,
            num_sites=15,
            tau_km=0.8,
            preference=LinearPreference(),
        )
        from_dense = SparseCoverageIndex(detours, 0.8, LinearPreference())
        assert from_lists.nnz == from_dense.nnz
        assert np.allclose(from_lists.site_weights, from_dense.site_weights)
        assert np.array_equal(from_lists.coverage_mask(), from_dense.coverage_mask())
        # column-major input derives its CSR order by a stable row sort; the
        # dense path starts row-major — both views must be byte-equal
        for name in (
            "_csr_indptr",
            "_csr_cols",
            "_csr_data",
            "_csc_indptr",
            "_csc_rows",
            "_csc_data",
        ):
            got, want = getattr(from_lists, name), getattr(from_dense, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_duplicates_keep_smallest_detour(self):
        """NetClus emits one estimate per neighbouring cluster; keep the min."""
        rows = [0, 0, 0]
        cols = [1, 1, 1]
        detours = [0.9, 0.2, 0.5]
        sparse = SparseCoverageIndex.from_coverage_lists(
            rows, cols, detours, 2, 3, tau_km=1.0, preference=LinearPreference()
        )
        assert sparse.nnz == 1
        _, values = sparse.site_column(1)
        assert values[0] == pytest.approx(0.8)  # 1 - 0.2

    def test_drops_entries_beyond_tau(self):
        sparse = SparseCoverageIndex.from_coverage_lists(
            [0, 1, 1],
            [0, 0, 1],
            [0.5, 2.0, np.inf],
            2,
            2,
            tau_km=1.0,
            preference=BinaryPreference(),
        )
        assert sparse.nnz == 1
        assert np.array_equal(sparse.trajectories_covered(0), [0])

    def test_empty_lists(self):
        sparse = SparseCoverageIndex.from_coverage_lists(
            [], [], [], 3, 2, tau_km=1.0, preference=BinaryPreference()
        )
        assert sparse.nnz == 0
        assert sparse.utility_of([0, 1]) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SparseCoverageIndex.from_coverage_lists(
                [5], [0], [0.1], 2, 2, tau_km=1.0, preference=BinaryPreference()
            )
        with pytest.raises(ValueError):
            SparseCoverageIndex.from_coverage_lists(
                [0], [7], [0.1], 2, 2, tau_km=1.0, preference=BinaryPreference()
            )
