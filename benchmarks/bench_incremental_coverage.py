"""Benchmark — incremental coverage cache: cold vs warm queries, patch cost.

The coverage cache (``repro.core.covcache``) turns the per-query coverage
build into a one-time warm-up cost: steady-state queries reuse persisted,
incrementally patched coverage parts and run greedy with **zero** coverage
builds, including across dynamic updates (``apply_updates`` patches the
touched rows/columns of every cached part instead of invalidating it).
This benchmark measures the three numbers that claim rests on:

* **cold batch latency** — a cache-free service answering a mixed spec
  batch (every batch pays the full coverage build);
* **warm batch latency** — the same batch on a warmed cache (zero builds);
* **per-update patch cost** — the extra time ``apply_updates`` spends
  patching the cached parts, vs the same delta on a cache-free index, and
  the post-update warm query latency (still zero builds).

**Parity is asserted on every run**: warm answers byte-compare equal to
the cache-free service after every delta (site selections element-for-
element, per-trajectory utility vectors via ``np.ndarray.tobytes``).

``test_incremental_coverage_smoke`` is the fast CI check (tiny workload,
5 deltas); running the module as a script
(``python benchmarks/bench_incremental_coverage.py [--smoke]``) performs
the same measurements without pytest and records the full-size run in
``benchmarks/BENCH_incremental_coverage.json``.
"""

from __future__ import annotations

import argparse
import copy
import json
import time
from pathlib import Path

import numpy as np

from repro.core.netclus import UpdateBatch
from repro.datasets import beijing_like
from repro.experiments.reporting import print_table
from repro.service.placement import PlacementService
from repro.service.specs import QuerySpec
from repro.trajectory.generators import commuter_trajectories
from repro.trajectory.model import Trajectory
from repro.utils.parallel import usable_cpu_count

BENCH_JSON = Path(__file__).parent / "BENCH_incremental_coverage.json"


def _query_batch() -> list[QuerySpec]:
    """A mixed batch over several (τ, ψ) cache keys."""
    return [
        QuerySpec(k=5, tau_km=0.8),
        QuerySpec(k=10, tau_km=0.8),
        QuerySpec(k=5, tau_km=1.6),
        QuerySpec(k=5, tau_km=0.8, preference="linear"),
        QuerySpec(k=5, tau_km=1.6, preference="exponential"),
    ]


def _held_out_pool(problem, index, count: int) -> list[Trajectory]:
    extra = commuter_trajectories(problem.network, count, seed=777)
    next_id = max(index.trajectory_ids) + 1
    return [
        Trajectory.from_nodes(next_id + i, list(t.nodes), problem.network)
        for i, t in enumerate(extra)
    ]


def _delta_stream(rng, index, pool, num_ops):
    """``num_ops`` mixed update batches against the evolving index state."""
    pool = list(pool)
    removed_sites: list[int] = []
    batches = []
    for _ in range(num_ops):
        kind = int(rng.integers(0, 4))
        if kind == 0 and len(pool) >= 2:
            take = int(rng.integers(1, 4))
            batches.append(UpdateBatch(add_trajectories=pool[:take]))
            del pool[:take]
        elif kind == 1 and index.num_trajectories > 25:
            ids = list(index.trajectory_ids)
            picks = rng.choice(len(ids), size=int(rng.integers(1, 4)), replace=False)
            batches.append(
                UpdateBatch(remove_trajectories=[ids[int(p)] for p in sorted(picks)])
            )
        elif kind == 2 and removed_sites:
            batches.append(UpdateBatch(add_sites=list(removed_sites)))
            removed_sites.clear()
        elif len(index.sites) > 12:
            sites = sorted(index.sites)
            picks = rng.choice(len(sites), size=int(rng.integers(1, 3)), replace=False)
            victims = [sites[int(p)] for p in sorted(picks)]
            removed_sites.extend(victims)
            batches.append(UpdateBatch(remove_sites=victims))
    return batches


def _assert_parity(want_results, got_results, label: str) -> None:
    for want, got in zip(want_results, got_results):
        assert got.sites == want.sites, (
            f"{label}: selection diverged {got.sites} != {want.sites}"
        )
        assert (
            np.asarray(got.per_trajectory_utility).tobytes()
            == np.asarray(want.per_trajectory_utility).tobytes()
        ), f"{label}: per-trajectory utilities diverged"


def _best_of(fn, repeats: int) -> tuple[float, object]:
    best, payload = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, payload = elapsed, result
    return best, payload


def _run(bundle, num_deltas: int, repeats: int = 3, engine: str = "sparse") -> dict:
    problem = bundle.problem()
    index = problem.build_netclus_index(gamma=0.75, tau_min_km=0.4, tau_max_km=8.0)
    pool = _held_out_pool(problem, index, max(2 * num_deltas, 10))
    specs = _query_batch()

    cold_index = copy.deepcopy(index)
    cold = PlacementService(cold_index, engine=engine)
    warm = PlacementService(index, engine=engine, coverage_cache=True)

    cold_seconds, cold_results = _best_of(
        lambda: cold.batch_query(specs, use_cache=False), repeats
    )
    warm.batch_query(specs, use_cache=False)  # warm-up: the only cold builds
    builds_after_warmup = warm.stats.coverage_builds
    warm_seconds, warm_results = _best_of(
        lambda: warm.batch_query(specs, use_cache=False), repeats
    )
    _assert_parity(cold_results, warm_results, "steady-state")

    rng = np.random.default_rng(2024)
    warm_update_s, plain_update_s = 0.0, 0.0
    post_update_query_s: list[float] = []
    for step, batch in enumerate(_delta_stream(rng, index, pool, num_deltas)):
        start = time.perf_counter()
        warm.apply_updates(batch)
        warm_update_s += time.perf_counter() - start
        start = time.perf_counter()
        cold.apply_updates(batch)
        plain_update_s += time.perf_counter() - start

        start = time.perf_counter()
        warm_results = warm.batch_query(specs, use_cache=False)
        post_update_query_s.append(time.perf_counter() - start)
        _assert_parity(
            cold.batch_query(specs, use_cache=False),
            warm_results,
            f"delta step {step}",
        )

    post_update_builds = warm.stats.coverage_builds - builds_after_warmup
    assert post_update_builds == 0, (
        f"warm service performed {post_update_builds} coverage builds after "
        "warm-up (expected exactly zero)"
    )
    cache_stats = warm.coverage_cache.stats()
    applied = max(len(post_update_query_s), 1)
    record = {
        "workload": bundle.name,
        "engine": engine,
        "num_trajectories": bundle.num_trajectories,
        "usable_cpus": usable_cpu_count(),
        "specs": [spec.to_dict() for spec in specs],
        "num_deltas": len(post_update_query_s),
        "cold_batch_s": round(cold_seconds, 5),
        "warm_batch_s": round(warm_seconds, 5),
        "warm_speedup": round(cold_seconds / warm_seconds, 2) if warm_seconds else 0.0,
        "mean_update_s_plain": round(plain_update_s / applied, 5),
        "mean_update_s_warm": round(warm_update_s / applied, 5),
        "mean_patch_overhead_s": round((warm_update_s - plain_update_s) / applied, 5),
        "mean_post_update_warm_query_s": round(
            sum(post_update_query_s) / applied, 5
        ),
        "post_update_coverage_builds": post_update_builds,
        "cache": {
            "parts": cache_stats["parts"],
            "patches": cache_stats["patches"],
            "invalidations": cache_stats["invalidations"],
            "patch_seconds": round(cache_stats["patch_seconds"], 4),
            "materialise_seconds": round(cache_stats["materialise_seconds"], 4),
        },
    }
    return record


def _rows(record: dict) -> list[dict]:
    return [
        {
            "metric": "batch latency (cold / warm)",
            "value": f"{record['cold_batch_s']:.4f}s / {record['warm_batch_s']:.4f}s",
            "note": f"{record['warm_speedup']}x warm speedup",
        },
        {
            "metric": "mean update (plain / warm)",
            "value": (
                f"{record['mean_update_s_plain']:.4f}s / "
                f"{record['mean_update_s_warm']:.4f}s"
            ),
            "note": f"+{record['mean_patch_overhead_s']:.4f}s patch overhead",
        },
        {
            "metric": "post-update warm query",
            "value": f"{record['mean_post_update_warm_query_s']:.4f}s",
            "note": f"{record['post_update_coverage_builds']} coverage builds",
        },
        {
            "metric": "cache",
            "value": (
                f"{record['cache']['parts']} parts, "
                f"{record['cache']['patches']} patches"
            ),
            "note": f"{record['cache']['invalidations']} invalidations",
        },
    ]


def test_incremental_coverage_smoke(tiny_bundle):
    """Fast CI check: tiny workload, 5 deltas, parity asserted throughout."""
    record = _run(tiny_bundle, num_deltas=5, repeats=1)
    print()
    print_table(_rows(record), title="Incremental coverage — smoke (tiny workload)")
    assert record["post_update_coverage_builds"] == 0
    assert record["cache"]["invalidations"] == 0


def build_parser() -> argparse.ArgumentParser:
    """The script-entry CLI (see ``benchmarks/conftest.py``'s registry)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload, 5 deltas, parity only (the CI configuration)",
    )
    parser.add_argument(
        "--deltas", type=int, default=None, help="number of update batches"
    )
    parser.add_argument("--engine", default="sparse", choices=["dense", "sparse"])
    return parser


def main(argv=None) -> int:
    """Script entry point: ``--smoke`` for the CI-sized run."""
    args = build_parser().parse_args(argv)
    if args.smoke:
        bundle = beijing_like(scale="tiny", seed=42)
        record = _run(bundle, num_deltas=args.deltas or 5, repeats=1, engine=args.engine)
        print_table(_rows(record), title="Incremental coverage — smoke (tiny workload)")
    else:
        bundle = beijing_like(scale="small", seed=42)
        record = _run(
            bundle, num_deltas=args.deltas or 30, repeats=3, engine=args.engine
        )
        print_table(
            _rows(record), title="Incremental coverage — small serving workload"
        )
        BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
        print(
            f"Recorded in {BENCH_JSON} "
            f"(warm speedup {record['warm_speedup']:.2f}x, "
            f"patch overhead {record['mean_patch_overhead_s']:.4f}s/update)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
