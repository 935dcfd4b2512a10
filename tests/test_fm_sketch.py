"""Unit tests for the Flajolet-Martin sketch bit matrix and its consumers.

The golden pins fix the sketch representation: the per-item hash rows, the
FM-GDSP clustering built on them and FM-greedy's selections.  They were
recorded with the earlier one-item-at-a-time sketch, so any change to the
hash, the salt, the ρ cap, the estimator or the FM-GDSP scan shows here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.fm_greedy import FMGreedy
from repro.core.gdsp import GreedyGDSP
from repro.sketch.fm import estimate_rows, hash_items

PHI = 0.77351


def sketch(items, num_sketches: int) -> np.ndarray:
    """The ``(f,)`` sketch row of a set: the OR of its items' rows."""
    return np.bitwise_or.reduce(hash_items(np.asarray(items), num_sketches), axis=0)


def digest(*arrays: np.ndarray) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


class TestGoldenPins:
    @pytest.mark.parametrize(
        ("num_sketches", "expected"),
        [
            (1, "e802cc06ddeb9b0256a7265dabb85d6b29ee323efccb893a0dd21b2e6908b5fe"),
            (8, "70cbbfc7825a7a665eeb3c7a1053ef4fb89bfce0bcefa9ec94fdb0603d65f9b1"),
            (30, "44d087ecdbbd343b721a3f0aa152a4a52bb3fffb1c6f0bdbd05c557e2027af75"),
        ],
    )
    def test_item_rows(self, num_sketches, expected):
        rows = hash_items(np.arange(500), num_sketches)
        assert rows.dtype == np.uint32 and rows.shape == (500, num_sketches)
        assert digest(rows.astype("<u4")) == expected

    @pytest.mark.parametrize(
        ("radius_km", "num_clusters", "expected"),
        [
            (0.2, 142, "a19425986684e417cb7d317d1d718ffaca2d515d9bcc00e61245a9200edad783"),
            (0.8, 45, "4b12864ad4c51af8301c8a470a3333fc5cce6a876763ed0c718fe9d5a795a7cf"),
            (1.6, 22, "e613fa88dd439d20609b766244e6b7ba9d84687d486575895c99c6c103db3a59"),
        ],
    )
    def test_fm_gdsp_clustering(self, tiny_bundle, radius_km, num_clusters, expected):
        result = GreedyGDSP(tiny_bundle.network, fm_sketches=30).cluster(radius_km)
        members = result.members
        arrays = (result.centers, members.indptr, members.ids)
        assert result.num_clusters == num_clusters
        assert digest(*(array.astype("<i8") for array in arrays)) == expected

    def test_fm_greedy_selection(self, grid_coverage):
        """Columns and sketch bits are exact; gains allow for the last-ulp
        differences of ``np.power`` between CPU builds."""
        solver = FMGreedy(grid_coverage, num_sketches=30)
        bits_digest = "7663afe88395df2e808c69a01054ff4c650f6ae5742a7336d3d6708bdd5ead23"
        assert digest(solver._bits.astype("<u4")) == bits_digest
        columns, estimated, gains = solver.select(8)
        expected_gains = [50.93227136951987, 14.738287075726333, 6.358550487995686]
        expected_gains += [5.169778551542649, 0.0, 0.0, 0.0, 0.0]
        assert columns == [53, 76, 38, 73, 0, 1, 2, 3]
        assert estimated == pytest.approx(77.19888748478454, rel=1e-12)
        assert gains == pytest.approx(expected_gains, rel=1e-12)


class TestHashItems:
    def test_one_bit_per_copy(self):
        rows = hash_items(np.arange(1000), 12)
        assert np.all(np.bitwise_count(rows) == 1)

    def test_rows_depend_only_on_the_item(self):
        items = np.array([7, 3, 7, 99])
        rows = hash_items(items, 6)
        assert np.array_equal(rows[0], rows[2])
        assert np.array_equal(rows[1], hash_items(np.array([3]), 6)[0])

    def test_empty_items(self):
        assert hash_items(np.zeros(0, dtype=np.int64), 5).shape == (0, 5)

    def test_invalid_copies(self):
        with pytest.raises(ValueError):
            hash_items(np.arange(3), 0)


class TestEstimateRows:
    def test_lowest_unset_bit(self):
        assert float(estimate_rows(np.array([0b0111], dtype=np.uint32))) == 8 / PHI

    def test_full_word_counts_32(self):
        full = np.full(4, 0xFFFFFFFF, dtype=np.uint32)
        assert float(estimate_rows(full)) == 2.0**32 / PHI

    def test_empty_sketch_small(self):
        assert np.all(estimate_rows(np.zeros((3, 8), dtype=np.uint32)) < 2.0)

    def test_single_row_matches_matrix_row(self):
        bits = np.vstack([sketch(range(64), 12), sketch(range(500), 12)])
        assert float(estimate_rows(bits[1])) == estimate_rows(bits)[1]

    def test_estimate_scales_with_cardinality(self):
        rows = np.vstack([sketch(range(20), 30), sketch(range(2000), 30)])
        small, large = estimate_rows(rows)
        assert large > small

    def test_estimate_accuracy_moderate(self):
        """With 30 copies the estimate should be within a factor ~2 of truth."""
        true_count = 500
        estimate = float(estimate_rows(sketch(range(true_count), 30)))
        assert true_count / 2.5 <= estimate <= true_count * 2.5

    def test_union_estimate_at_least_parts(self):
        a, b = sketch(range(0, 300), 20), sketch(range(300, 600), 20)
        parts = estimate_rows(np.vstack([a, b]))
        assert float(estimate_rows(a | b)) >= parts.max() * 0.99

    def test_union_of_identical_sets_unchanged(self):
        a = sketch(range(100), 16)
        assert np.array_equal(a | sketch(range(100), 16), a)

    def test_more_copies_reduce_error_on_average(self):
        """Across several disjoint sets, f=40 should estimate no worse than f=2."""
        true_count = 400
        errors = {2: [], 40: []}
        for offset in range(5):
            items = range(offset * 1000, offset * 1000 + true_count)
            for copies in errors:
                estimate = float(estimate_rows(sketch(items, copies)))
                errors[copies].append(abs(estimate - true_count) / true_count)
        assert np.mean(errors[40]) <= np.mean(errors[2]) + 0.05
