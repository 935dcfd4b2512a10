"""Unit tests for the uint64-packed :class:`BitsetCoverageIndex`.

Covers the full coverage protocol against the dense and sparse engines,
the binary-ψ {0, 1} scoring invariant the popcount kernels rest on, the
``engine="auto"`` resolution policy, the cached label→column mapping, and
the ``@kernel``/:class:`KernelTimer` profiling hook.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.core.bitcov as bitcov_module
import repro.core.coverage as coverage_module
from repro.core.bitcov import BitsetCoverageIndex
from repro.core.coverage import (
    CoverageIndex,
    SparseCoverageIndex,
    build_label_map,
    resolve_engine,
)
from repro.core.greedy import IncGreedy
from repro.core.preference import (
    PREFERENCE_REGISTRY,
    BinaryPreference,
    LinearPreference,
    make_preference,
)
from repro.utils.timer import KernelTimer


def random_detours(rng, m, n, density=0.3, scale=2.0):
    detours = rng.random((m, n)) * scale
    return np.where(rng.random((m, n)) < density, detours, np.inf)


def build_engines(detours, tau=0.8):
    """The same coverage on all three engines (binary ψ)."""
    preference = BinaryPreference()
    return {
        "dense": CoverageIndex(detours, tau, preference),
        "sparse": SparseCoverageIndex(detours, tau, preference),
        "bitset": BitsetCoverageIndex(detours, tau, preference),
    }


class TestProtocolParity:
    """Every protocol surface must be byte-identical to dense/sparse."""

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 130])
    def test_structures_match(self, rng, m):
        detours = random_detours(rng, m, 17)
        engines = build_engines(detours)
        dense, bitset = engines["dense"], engines["bitset"]
        assert bitset.num_trajectories == m
        assert bitset.num_sites == 17
        assert not bitset.is_sparse
        assert np.array_equal(bitset.site_weights, dense.site_weights)
        assert bitset.site_weights.tobytes() == dense.site_weights.tobytes()
        assert np.array_equal(bitset.coverage_mask(), dense.coverage_mask())
        assert bitset.covered_pairs() == dense.covered_pairs()
        assert bitset.nnz == engines["sparse"].nnz
        for col in range(17):
            d_rows, d_vals = dense.site_column(col)
            b_rows, b_vals = bitset.site_column(col)
            assert np.array_equal(d_rows, b_rows)
            assert np.array_equal(d_vals, b_vals)
            assert np.array_equal(
                bitset.trajectories_covered(col), dense.trajectories_covered(col)
            )
        for row in range(m):
            assert np.array_equal(
                bitset.sites_covering(row), dense.sites_covering(row)
            )

    def test_kernels_match_bytewise(self, rng):
        detours = random_detours(rng, 90, 20)
        engines = build_engines(detours)
        dense, sparse, bitset = (
            engines["dense"], engines["sparse"], engines["bitset"],
        )
        # binary utilities are exactly {0.0, 1.0} — the popcount regime
        utilities = (rng.random(90) < 0.4).astype(np.float64)
        assert (
            bitset.marginal_gains(utilities).tobytes()
            == dense.marginal_gains(utilities).tobytes()
            == sparse.marginal_gains(utilities).tobytes()
        )
        for col in (0, 7, 19):
            for cap in (None, 0, 1, 5, 1000):
                assert bitset.marginal_gain(col, utilities, cap) == dense.marginal_gain(
                    col, utilities, cap
                )
                assert (
                    bitset.absorb(utilities, col, cap).tobytes()
                    == dense.absorb(utilities, col, cap).tobytes()
                )
        rows = [0, 3, 41, 89]
        old = np.zeros(len(rows))
        new = np.ones(len(rows))
        assert (
            bitset.gain_updates(rows, old, new).tobytes()
            == dense.gain_updates(rows, old, new).tobytes()
        )
        assert bitset.gain_updates([], [], []).tobytes() == dense.gain_updates(
            [], [], []
        ).tobytes()
        columns = [2, 9, 14]
        assert (
            bitset.per_trajectory_utility(columns).tobytes()
            == dense.per_trajectory_utility(columns).tobytes()
        )
        assert bitset.utility_of(columns) == dense.utility_of(columns)
        assert (
            bitset.utilities_for_selection(columns, capacity=4, seed_columns=[0])
            .tobytes()
            == dense.utilities_for_selection(columns, capacity=4, seed_columns=[0])
            .tobytes()
        )

    def test_selections_identical_across_engines(self, rng):
        detours = random_detours(rng, 120, 30, density=0.2)
        engines = build_engines(detours)
        runs = {
            "dense": IncGreedy(engines["dense"]).select(6),
            "sparse": IncGreedy(engines["sparse"]).select(6),
            "bitset": IncGreedy(engines["bitset"]).select(6),
        }
        columns = {name: run[0] for name, run in runs.items()}
        assert columns["dense"] == columns["sparse"] == columns["bitset"]
        assert (
            runs["dense"][1].tobytes()
            == runs["sparse"][1].tobytes()
            == runs["bitset"][1].tobytes()
        )

    def test_from_coverage_lists_merges_duplicates(self, rng):
        detours = random_detours(rng, 70, 9)
        reference = BitsetCoverageIndex(detours, 0.8, BinaryPreference())
        rows, cols = np.nonzero(detours <= 0.8)
        values = detours[rows, cols]
        # duplicate every entry and shuffle: the scatter-OR must dedup
        order = rng.permutation(2 * len(rows))
        built = BitsetCoverageIndex.from_coverage_lists(
            np.concatenate([rows, rows])[order],
            np.concatenate([cols, cols])[order],
            np.concatenate([values, values])[order],
            num_trajectories=70,
            num_sites=9,
            tau_km=0.8,
            preference=BinaryPreference(),
        )
        assert np.array_equal(built.coverage_mask(), reference.coverage_mask())
        assert built.site_weights.tobytes() == reference.site_weights.tobytes()

    def test_storage_is_tau_independent_and_small(self, rng):
        detours = random_detours(rng, 256, 40)
        small = BitsetCoverageIndex(detours, 0.2, BinaryPreference())
        large = BitsetCoverageIndex(detours, 1.9, BinaryPreference())
        dense = CoverageIndex(detours, 1.9, BinaryPreference())
        assert small.storage_bytes() == large.storage_bytes()
        assert large.storage_bytes() < dense.storage_bytes()


class TestUnsortedInput:
    """Canonical input skips the scatter-OR sort; any other input keeps it
    and packs the same blocks."""

    @pytest.mark.parametrize("num_trajectories", [70, 300])
    def test_blocks_equal_those_of_the_canonical_input(self, rng, num_trajectories):
        from repro.core.coverage import canonical_entries

        tau, num_sites, size = 0.8, 12, 900
        raw = (
            rng.integers(0, num_trajectories, size),
            rng.integers(0, num_sites, size),
            rng.random(size) * 1.2,
        )
        canonical = canonical_entries(*raw, tau)
        shuffle = rng.permutation(len(canonical[0]))
        duplicated = np.concatenate([shuffle, shuffle[: len(shuffle) // 2]])
        inputs = {
            "canonical": canonical,
            "shuffled": tuple(array[shuffle] for array in canonical),
            "duplicated": tuple(array[duplicated] for array in canonical),
            "raw, above tau": raw,
        }
        blocks = {
            name: BitsetCoverageIndex.from_coverage_lists(
                *arrays, num_trajectories, num_sites, tau, BinaryPreference()
            )._blocks
            for name, arrays in inputs.items()
        }
        assert np.count_nonzero(blocks["canonical"])
        for name, packed in blocks.items():
            assert packed.tobytes() == blocks["canonical"].tobytes(), name


class TestConstructionGuards:
    def test_refuses_non_binary_preference(self, rng):
        detours = random_detours(rng, 20, 5)
        with pytest.raises(ValueError):
            BitsetCoverageIndex(detours, 0.8, LinearPreference())

    def test_refuses_non_unit_weights(self, rng):
        detours = random_detours(rng, 20, 5)
        with pytest.raises(ValueError):
            BitsetCoverageIndex(
                detours, 0.8, BinaryPreference(),
                trajectory_weights=np.full(20, 2.0),
            )


class TestResolveEngine:
    def test_auto_policy(self):
        assert resolve_engine("auto", BinaryPreference()) == "bitset"
        assert resolve_engine("auto", LinearPreference()) == "sparse"

    @pytest.mark.parametrize("engine", ["dense", "sparse", "bitset"])
    def test_concrete_engines_pass_through(self, engine):
        assert resolve_engine(engine, BinaryPreference()) == engine
        assert resolve_engine(engine, LinearPreference()) == engine

    def test_unknown_engine_refused(self):
        with pytest.raises(ValueError):
            resolve_engine("dense-v2", BinaryPreference())


BINARY_PREFERENCES = [
    name
    for name, cls in sorted(PREFERENCE_REGISTRY.items())
    if getattr(cls, "is_binary", False)
]

SMALL_DETOURS = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 70), st.integers(2, 10)),
    elements=st.one_of(
        st.floats(min_value=0.0, max_value=3.0),
        st.just(np.inf),
    ),
)


class TestBinaryScoresAreExactlyZeroOne:
    """The invariant that makes popcount == float sum: every registered
    binary ψ scores exactly {0.0, 1.0} over the ≤τ entry set, on every
    engine."""

    @pytest.mark.parametrize("engine", ["dense", "sparse", "bitset"])
    @pytest.mark.parametrize("preference_name", BINARY_PREFERENCES)
    @given(detours=SMALL_DETOURS)
    @settings(max_examples=25, deadline=None)
    def test_scores_are_binary(self, preference_name, engine, detours):
        preference = make_preference(preference_name)
        tau = 1.0
        cls = {
            "dense": CoverageIndex,
            "sparse": SparseCoverageIndex,
            "bitset": BitsetCoverageIndex,
        }[engine]
        coverage = cls(detours, tau, preference)
        entry_rows, entry_cols = np.nonzero(np.asarray(detours) <= tau)
        total_entries = 0
        for col in range(coverage.num_sites):
            rows, scores = coverage.site_column(col)
            assert set(np.unique(scores)).issubset({1.0})
            total_entries += len(rows)
            # the column's rows are exactly the ≤τ entries of that site
            assert np.array_equal(rows, entry_rows[entry_cols == col])
        assert total_entries == len(entry_rows)
        # utilities over any selection stay exactly {0.0, 1.0}
        utilities = coverage.per_trajectory_utility(
            list(range(min(3, coverage.num_sites)))
        )
        assert set(np.unique(utilities)).issubset({0.0, 1.0})


class TestLabelMapCache:
    """``columns_for_labels`` must build its label→column dict exactly once."""

    @pytest.mark.parametrize(
        "engine, module",
        [
            ("dense", coverage_module),
            ("sparse", coverage_module),
            ("bitset", bitcov_module),
        ],
    )
    def test_mapping_built_once(self, rng, monkeypatch, engine, module):
        detours = random_detours(rng, 48, 12)
        labels = list(range(100, 112))
        preference = BinaryPreference()
        cls = {
            "dense": CoverageIndex,
            "sparse": SparseCoverageIndex,
            "bitset": BitsetCoverageIndex,
        }[engine]
        coverage = cls(detours, 0.8, preference, site_labels=labels)
        calls = {"count": 0}

        def counting_build(site_labels):
            calls["count"] += 1
            return build_label_map(site_labels)

        monkeypatch.setattr(module, "build_label_map", counting_build)
        first = coverage.columns_for_labels([100, 105, 111])
        for _ in range(5):
            assert coverage.columns_for_labels([100, 105, 111]) == first
        assert first == [0, 5, 11]
        assert calls["count"] == 1


class TestKernelTimer:
    def test_records_calls_and_seconds(self):
        timer = KernelTimer()
        timer.record("marginal_gains", 0.25)
        timer.record("marginal_gains", 0.25)
        timer.record("absorb", 0.1)
        assert timer.calls() == {"absorb": 1, "marginal_gains": 2}
        assert timer.seconds()["marginal_gains"] == pytest.approx(0.5)
        snapshot = timer.snapshot()
        assert list(snapshot) == sorted(snapshot)
        timer.reset()
        assert timer.snapshot() == {}

    @pytest.mark.parametrize("engine", ["dense", "sparse", "bitset"])
    def test_attached_timer_profiles_kernels(self, rng, engine):
        detours = random_detours(rng, 40, 10)
        coverage = build_engines(detours)[engine]
        utilities = np.zeros(40)
        # no timer attached: the wrapper is pass-through
        coverage.marginal_gains(utilities)
        timer = KernelTimer()
        coverage.attach_kernel_timer(timer)
        coverage.marginal_gains(utilities)
        coverage.absorb(utilities, 0)
        coverage.gain_updates([0, 1], [0.0, 0.0], [1.0, 1.0])
        calls = timer.calls()
        assert calls["marginal_gains"] == 1
        assert calls["absorb"] == 1
        assert calls["gain_updates"] == 1
        assert all(seconds >= 0.0 for seconds in timer.seconds().values())
