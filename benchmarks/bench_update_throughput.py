"""Benchmark — streaming update engine vs one-at-a-time dynamic updates.

:meth:`NetClusIndex.apply_updates` absorbs a mixed :class:`UpdateBatch`
(trajectory additions/removals, site additions/removals) sharing the
shortest-path engine, the trajectory registry rebuild and the per-instance
node→cluster lookup tables across the whole batch, where the singular calls
pay that setup per item.  Both paths are required to leave the index in a
byte-identical state — ``_assert_identical_answers`` compares site
selections and raw per-trajectory utility bytes across τ before any timing
is reported.

``test_update_throughput_smoke`` is the fast CI check (tiny workload);
``test_update_throughput_table10_small`` runs the 400-item mixed batch on
the Table 10 small workload, asserts the ≥ 5× per-item speedup, and records
the measurement in ``benchmarks/BENCH_update_throughput.json``.
"""

from __future__ import annotations

import copy
import json
import math
import time
from pathlib import Path

import numpy as np

from repro.core.netclus import NetClusIndex, UpdateBatch
from repro.core.query import TOPSQuery
from repro.datasets import beijing_like
from repro.experiments.reporting import print_table
from repro.experiments.runner import DEFAULT_TAU_RANGE
from repro.trajectory.generators import CommuterModel
from repro.trajectory.model import Trajectory
from repro.utils.rng import ensure_rng

BENCH_JSON = Path(__file__).parent / "BENCH_update_throughput.json"

#: share of a mixed batch going to each update kind
_MIX = {"add_traj": 0.4, "remove_traj": 0.2, "add_site": 0.3, "remove_site": 0.1}


def _build_index(bundle, seed=42):
    """The Table 10 setup: half the trajectories and half the sites indexed."""
    base = bundle.trajectories.sample(max(1, bundle.num_trajectories // 2), seed=seed)
    sites = bundle.sites[: max(10, len(bundle.sites) // 2)]
    index = NetClusIndex.build(
        bundle.network,
        base,
        sites,
        gamma=0.75,
        tau_min_km=DEFAULT_TAU_RANGE[0],
        tau_max_km=DEFAULT_TAU_RANGE[1],
    )
    return index


def _mixed_batch(bundle, index, num_items, seed=42):
    """A mixed UpdateBatch of *num_items* total updates against *index*."""
    rng = ensure_rng(seed)
    num_add_traj = int(num_items * _MIX["add_traj"])
    num_remove_traj = int(num_items * _MIX["remove_traj"])
    num_add_site = int(num_items * _MIX["add_site"])
    num_remove_site = num_items - num_add_traj - num_remove_traj - num_add_site

    next_id = max(index.trajectory_ids) + 1
    add_trajectories = []
    for trajectory in CommuterModel(bundle.network, seed=seed + 1).generate(num_add_traj):
        add_trajectories.append(
            Trajectory(
                traj_id=next_id,
                nodes=trajectory.nodes,
                cumulative_km=trajectory.cumulative_km,
            )
        )
        next_id += 1
    remove_trajectories = [
        int(t)
        for t in rng.choice(index.trajectory_ids, size=num_remove_traj, replace=False)
    ]
    available = [s for s in bundle.network.node_ids() if s not in index.sites]
    add_sites = [
        int(s) for s in rng.choice(available, size=num_add_site, replace=False)
    ]
    remove_sites = [
        int(s)
        for s in rng.choice(sorted(index.sites), size=num_remove_site, replace=False)
    ]
    return UpdateBatch(
        add_trajectories=add_trajectories,
        remove_trajectories=remove_trajectories,
        add_sites=add_sites,
        remove_sites=remove_sites,
    )


def _sequential_apply(index, batch):
    """The one-at-a-time loop the batch API replaces (same canonical order)."""
    for traj_id in batch.remove_trajectories:
        index.remove_trajectory(traj_id)
    for site in batch.remove_sites:
        index.remove_site(site)
    for trajectory in batch.add_trajectories:
        index.add_trajectory(trajectory)
    for site in batch.add_sites:
        index.add_site(site)


def _assert_identical_answers(left, right):
    """Both indexes must answer every probe byte-identically."""
    for tau in (0.8, 1.6, 3.2):
        query = TOPSQuery(k=5, tau_km=tau)
        a = left.query(query)
        b = right.query(query)
        assert a.sites == b.sites, f"selection mismatch at tau={tau}"
        assert (
            np.asarray(a.per_trajectory_utility).tobytes()
            == np.asarray(b.per_trajectory_utility).tobytes()
        ), f"utility mismatch at tau={tau}"


def _compare_update_paths(bundle, num_items, seed=42, rounds=3):
    """Time the sequential loop vs apply_updates on identical index copies.

    Both paths run *rounds* times from fresh copies of the same built index
    (best-of timing); state parity is asserted on the first round's pair.
    """
    index = _build_index(bundle, seed=seed)
    batch = _mixed_batch(bundle, index, num_items, seed=seed)
    sequential_seconds = math.inf
    batched_seconds = math.inf
    for round_number in range(rounds):
        sequential_index = copy.deepcopy(index)
        batched_index = copy.deepcopy(index)

        start = time.perf_counter()
        _sequential_apply(sequential_index, batch)
        sequential_seconds = min(sequential_seconds, time.perf_counter() - start)

        start = time.perf_counter()
        applied = batched_index.apply_updates(batch)
        batched_seconds = min(batched_seconds, time.perf_counter() - start)

        assert applied == len(batch)
        if round_number == 0:
            _assert_identical_answers(sequential_index, batched_index)
    return {
        "workload": bundle.name,
        "batch_items": len(batch),
        "add_traj": len(batch.add_trajectories),
        "remove_traj": len(batch.remove_trajectories),
        "add_site": len(batch.add_sites),
        "remove_site": len(batch.remove_sites),
        "sequential_ms_per_item": 1000.0 * sequential_seconds / len(batch),
        "batched_ms_per_item": 1000.0 * batched_seconds / len(batch),
        "sequential_s": sequential_seconds,
        "batched_s": batched_seconds,
        "speedup_per_item": sequential_seconds / batched_seconds,
    }


def test_update_throughput_smoke(tiny_bundle):
    """Fast CI check: batch == sequential state and batching is not slower."""
    row = _compare_update_paths(tiny_bundle, num_items=120)
    print()
    print_table([row], title="Update throughput — smoke (tiny workload)")
    assert row["speedup_per_item"] > 1.0


def test_update_throughput_table10_small(benchmark):
    """≥ 5× per item on the Table 10 small workload's 400-item mixed batch."""
    bundle = beijing_like(scale="small", seed=42)
    row = benchmark.pedantic(
        lambda: _compare_update_paths(bundle, num_items=400),
        rounds=1,
        iterations=1,
    )
    print()
    print_table([row], title="Update throughput — 400-item mixed batch (small)")
    BENCH_JSON.write_text(json.dumps(row, indent=2) + "\n")
    assert row["speedup_per_item"] >= 5.0
