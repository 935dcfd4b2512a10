"""Benchmark — bitset popcount kernels vs the dense and sparse engines.

The bitset engine (``repro.core.bitcov``) packs binary coverage into
``uint64`` blocks so the greedy's hot kernels become word-wise popcounts:
``marginal_gains`` is ``popcount(col & ~covered)``, ``absorb`` a bitwise
OR, ``gain_updates`` a popcount over a row-mask delta.  The contract is
twofold:

* **parity** — selections and per-trajectory utility vectors are
  byte-identical to the dense *and* sparse engines on every measured run
  and on every TOPS variant driver (cost, capacity, existing, market
  share).  NetClus answers binary-ψ queries on the bitset engine; the
  bitset section of ``tools/check_parity.py`` compares those answers with
  sparse views of the same coverage in CI.
* **speedup** — single-core greedy over the Fig. 10 scalability workload
  must run ≥ 5× faster on the bitset engine than on the dense engine;
  the measurement is recorded in ``benchmarks/BENCH_bitset_kernels.json``.
  The CI smoke run asserts a conservative ≥ 3× on a synthetic binary
  workload sized so the kernels dominate.

``test_bitset_kernels_smoke`` is the fast CI check; running the module as
a script (``python benchmarks/bench_bitset_kernels.py [--smoke]``)
performs the same measurements without pytest.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.core.bitcov import BitsetCoverageIndex
from repro.core.coverage import CoverageIndex, SparseCoverageIndex
from repro.core.greedy import IncGreedy
from repro.core.query import TOPSQuery
from repro.core.variants import (
    solve_tops_capacity,
    solve_tops_cost,
    solve_tops_market_share,
    solve_tops_with_existing,
)
from repro.datasets import beijing_like
from repro.experiments.reporting import print_table
from repro.utils.timer import KernelTimer

BENCH_JSON = Path(__file__).parent / "BENCH_bitset_kernels.json"

#: greedy speedup over the dense engine on the Fig. 10 workload (full run)
TARGET_SPEEDUP = 5.0
#: conservative floor asserted by the CI smoke run (synthetic workload)
SMOKE_TARGET_SPEEDUP = 3.0

ENGINE_CLASSES = {
    "dense": CoverageIndex,
    "sparse": SparseCoverageIndex,
    "bitset": BitsetCoverageIndex,
}


def _synthetic_detours(
    m: int = 20_000, n: int = 300, density: float = 0.15, seed: int = 42
) -> np.ndarray:
    """A binary-coverage workload large enough for kernels to dominate."""
    rng = np.random.default_rng(seed)
    detours = rng.random((m, n)) * 2.0
    return np.where(rng.random((m, n)) < density, detours, np.inf)


def _build_engines(detours: np.ndarray, query: TOPSQuery) -> dict:
    """The same coverage on all three engines."""
    return {
        name: cls(detours, query.tau_km, query.preference)
        for name, cls in ENGINE_CLASSES.items()
    }


def _assert_selection_parity(selections: dict, label: str) -> None:
    """Every engine's (columns, utilities) must byte-compare equal."""
    reference_name = "dense"
    ref_columns, ref_utilities, _ = selections[reference_name]
    for name, (columns, utilities, _) in selections.items():
        assert columns == ref_columns, (
            f"{label}: {name} selected {columns} != {reference_name} {ref_columns}"
        )
        assert utilities.tobytes() == ref_utilities.tobytes(), (
            f"{label}: {name} per-trajectory utilities diverged from {reference_name}"
        )


def _assert_variant_parity(coverages: dict, query: TOPSQuery) -> None:
    """Cost/capacity/existing/market drivers agree byte-for-byte per engine."""
    num_sites = coverages["dense"].num_sites
    costs = 1.0 + (np.arange(num_sites) % 7)
    capacities = 1.0 + (np.arange(num_sites) % 5).astype(float)
    existing = [0, min(3, num_sites - 1)]
    drivers = {
        "cost": lambda cov: solve_tops_cost(cov, budget=25.0, site_costs=costs),
        "capacity": lambda cov: solve_tops_capacity(cov, query, capacities),
        "existing": lambda cov: solve_tops_with_existing(cov, query, existing),
        "market": lambda cov: solve_tops_market_share(cov, beta=0.5),
    }
    for variant, driver in drivers.items():
        reference = driver(coverages["dense"])
        for name in ("sparse", "bitset"):
            result = driver(coverages[name])
            assert result.sites == reference.sites, (
                f"variant={variant}: {name} selected {result.sites} "
                f"!= dense {reference.sites}"
            )
            assert (
                np.asarray(result.per_trajectory_utility).tobytes()
                == np.asarray(reference.per_trajectory_utility).tobytes()
            ), f"variant={variant}: {name} utilities diverged from dense"


def _best_of(fn, rounds: int = 3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _measure_engines(detours: np.ndarray, query: TOPSQuery, rounds: int = 3) -> dict:
    """One row of greedy timings per engine (selections byte-verified)."""
    coverages = _build_engines(detours, query)
    seconds: dict[str, float] = {}
    selections: dict[str, tuple] = {}
    for name, coverage in coverages.items():
        seconds[name], selections[name] = _best_of(
            lambda coverage=coverage: IncGreedy(coverage).select(query.k), rounds
        )
    _assert_selection_parity(selections, f"k={query.k} tau={query.tau_km}")
    _assert_variant_parity(coverages, query)
    # profile one bitset pass through the kernel timer for the record
    timer = KernelTimer()
    coverages["bitset"].attach_kernel_timer(timer)
    IncGreedy(coverages["bitset"]).select(query.k)
    coverages["bitset"].attach_kernel_timer(None)
    return {
        "num_trajectories": int(detours.shape[0]),
        "num_sites": int(detours.shape[1]),
        "k": query.k,
        "tau_km": query.tau_km,
        "dense_ms": 1000.0 * seconds["dense"],
        "sparse_ms": 1000.0 * seconds["sparse"],
        "bitset_ms": 1000.0 * seconds["bitset"],
        "speedup_vs_dense": seconds["dense"] / seconds["bitset"],
        "speedup_vs_sparse": seconds["sparse"] / seconds["bitset"],
        "bitset_storage_mb": coverages["bitset"].storage_bytes() / 2**20,
        "dense_storage_mb": coverages["dense"].storage_bytes() / 2**20,
        "kernel_calls": {
            name: calls for name, (calls, _) in timer.snapshot().items()
        },
    }


def _smoke_record() -> dict:
    """The CI-sized run: the synthetic kernel workload."""
    query = TOPSQuery(k=10, tau_km=0.8)
    row = _measure_engines(_synthetic_detours(), query, rounds=1)
    return {
        "workload": "synthetic-binary",
        "rows": [row],
        "speedup": row["speedup_vs_dense"],
        "target_speedup": SMOKE_TARGET_SPEEDUP,
    }


def _fig10_record(rounds: int = 3) -> dict:
    """The full run over the Fig. 10 scalability workload."""
    bundle = beijing_like(scale="medium", seed=42)
    detours = bundle.problem().detour_matrix()
    query = TOPSQuery(k=10, tau_km=0.8)
    row = _measure_engines(detours, query, rounds=rounds)
    return {
        "workload": bundle.name,
        "rows": [row],
        "speedup": row["speedup_vs_dense"],
        "target_speedup": TARGET_SPEEDUP,
    }


def test_bitset_kernels_smoke():
    """Fast CI check: ≥ 3× on the synthetic workload, full parity suite."""
    record = _smoke_record()
    print()
    print_table(record["rows"], title="Bitset kernels — smoke (synthetic workload)")
    assert record["speedup"] >= SMOKE_TARGET_SPEEDUP, record


def test_bitset_kernels_fig10(benchmark):
    """≥ 5× single-core greedy vs dense on the Fig. 10 workload."""
    record = benchmark.pedantic(_fig10_record, rounds=1, iterations=1)
    print()
    print_table(record["rows"], title="Bitset kernels — Fig. 10 scalability workload")
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
    assert record["speedup"] >= TARGET_SPEEDUP, record


def build_parser() -> argparse.ArgumentParser:
    """The script-entry CLI (see ``benchmarks/conftest.py``'s registry)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="synthetic workload only (the CI configuration)",
    )
    return parser


def main(argv=None) -> int:
    """Script entry point: ``--smoke`` for the CI-sized run."""
    args = build_parser().parse_args(argv)
    if args.smoke:
        record = _smoke_record()
        print_table(record["rows"], title="Bitset kernels — smoke (synthetic workload)")
        assert record["speedup"] >= SMOKE_TARGET_SPEEDUP, record
    else:
        record = _fig10_record()
        print_table(record["rows"], title="Bitset kernels — Fig. 10 scalability workload")
        BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
        print(f"Recorded in {BENCH_JSON} (speedup {record['speedup']:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
