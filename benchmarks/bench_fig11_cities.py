"""Benchmark E11 — Fig. 11: effect of city geometries (star / mesh / polycentric)."""

from __future__ import annotations

import numpy as np

from repro.datasets import atlanta_like, bangalore_like, new_york_like
from repro.experiments.figures import fig11_city_geometries
from repro.experiments.reporting import print_table
from repro.service import IndexFarm, PlacementService, QuerySpec, save_index
from repro.service.serialization import load_manifest


def test_fig11_rows(benchmark):
    rows = benchmark.pedantic(
        lambda: fig11_city_geometries.run(k=5, tau_km=0.8, num_trajectories=150, seed=7),
        rounds=1,
        iterations=1,
    )
    print()
    print_table(rows, title="Fig. 11 — effect of city geometries")
    by_city = {row["city"]: row for row in rows}
    assert set(by_city) == {"NYK", "ATL", "BNG"}
    # the paper's shape: the polycentric city (Bangalore) yields the highest
    # utility, the mesh city (Atlanta) the lowest
    assert by_city["BNG"]["incg_utility_pct"] >= by_city["ATL"]["incg_utility_pct"]


def test_fig11_farm_panel(benchmark, tmp_path):
    """Panel 11d: the multi-city batch served by one memory-budgeted farm.

    All three Fig. 11 cities live in a single :class:`IndexFarm` whose
    budget holds roughly one index at a time, so the round-robin batch
    forces evictions between cities — and every answer must still match a
    dedicated per-city :class:`PlacementService` byte for byte.
    """
    cities = {
        "NYK": new_york_like(num_trajectories=150, seed=7),
        "ATL": atlanta_like(num_trajectories=150, seed=7),
        "BNG": bangalore_like(num_trajectories=150, seed=7),
    }
    directories = {}
    for name, bundle in cities.items():
        index = bundle.problem().build_netclus_index(
            gamma=0.75, tau_min_km=0.4, tau_max_km=4.0
        )
        directories[name] = save_index(index, tmp_path / f"{name}.ncx")
    budget = int(
        1.5 * max(load_manifest(d)["storage_bytes"] for d in directories.values())
    )
    specs = [QuerySpec(k=5, tau_km=0.8), QuerySpec(k=3, tau_km=1.6)]

    def farm_batch():
        farm = IndexFarm(memory_budget_bytes=budget)
        for name, directory in directories.items():
            farm.add_tenant(name, directory)
        answers = {
            name: farm.batch_query(name, specs, use_cache=False)
            for name in directories
        }
        evictions = farm.evictions_total
        farm.close()
        return answers, evictions

    answers, evictions = benchmark.pedantic(farm_batch, rounds=1, iterations=1)
    # the budget holds ~1.5 indexes, so serving three cities must evict
    assert evictions >= 1

    rows = []
    for name, directory in directories.items():
        service = PlacementService.from_path(directory)
        direct = service.batch_query(specs, use_cache=False)
        for spec, farm_result, direct_result in zip(specs, answers[name], direct):
            assert farm_result.sites == direct_result.sites
            farm_util = np.asarray(farm_result.per_trajectory_utility, dtype=np.float64)
            direct_util = np.asarray(
                direct_result.per_trajectory_utility, dtype=np.float64
            )
            assert farm_util.tobytes() == direct_util.tobytes()
            rows.append(
                {
                    "city": name,
                    "k": spec.k,
                    "tau_km": spec.tau_km,
                    "utility": round(farm_result.utility, 3),
                    "sites": len(farm_result.sites),
                }
            )
    print()
    print_table(rows, title="Fig. 11d — multi-city batch through a budgeted farm")
    assert evictions >= 1
