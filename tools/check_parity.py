"""CI gate: every alternative query path answers byte-identically.

Generates the Beijing-like workload and builds its NetClus index once,
then runs four sections.  Each prints one OK line and works on its own
deep copy of that build.

* **bitset** — the service's answers on a mixed-ψ batch (binary-ψ
  k-sweeps, two τ, capacity, budget, existing services, plus graded ψ)
  equal a second service's answers over sparse views built from the same
  coverage parts' entries.  ψ picks the service's views, so every
  binary-ψ spec is answered by the bitset kernels on one side and the
  sparse kernels on the other.
* **mmap** — mapped loads answer like the in-memory index on a query
  battery: plain, with persisted warm coverage parts, and after the same
  :class:`UpdateBatch` is applied to both (the load's copy-on-write path).
* **covcache** — a warm service whose coverage parts are patched by a
  seeded stream of ``--ops`` mixed deltas holds, after every delta, the
  same canonical entries in every part as a cold build of its key (byte
  for byte) and answers like a cache-free service on a deep copy.  After
  every delta the warm service also answers a k sequence that rises and
  falls through its order cache (replays, resumed runs and restarts), one
  call per k, and each answer equals the cache-free service's.  It does
  zero coverage builds after warm-up, and still answers identically with
  zero builds after a save with parts and a reload.
* **farm** — two tenant directories of the build behind an
  :class:`IndexFarm` whose memory budget fits one of them.  ``--ops``
  rounds alternate between a seeded mixed delta for each tenant and a
  query of each, so consecutive requests name different tenants and
  every request reloads its tenant from the directory the last
  write-through save left.  Every answer equals an in-memory service
  that applied the same deltas.

Every comparison checks the selected sites element by element and the
per-trajectory utility vectors with ``np.ndarray.tobytes``.  Exits
non-zero on any divergence.  Run from the repository root::

    python tools/check_parity.py [--scale tiny|small|medium] [--ops 50]
"""

from __future__ import annotations

import argparse
import copy
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.bitcov import BitsetCoverageIndex  # noqa: E402
from repro.core.coverage import SparseCoverageIndex, canonical_entries  # noqa: E402
from repro.core.netclus import ClusteredCoverage, NetClusIndex, UpdateBatch  # noqa: E402
from repro.core.query import TOPSQuery  # noqa: E402
from repro.datasets import beijing_like  # noqa: E402
from repro.service.farm import IndexFarm  # noqa: E402
from repro.service.placement import PlacementService  # noqa: E402
from repro.service.serialization import load_index, save_index  # noqa: E402
from repro.service.specs import QuerySpec  # noqa: E402
from repro.trajectory.generators import commuter_trajectories  # noqa: E402
from repro.trajectory.model import Trajectory  # noqa: E402

#: seed of the covcache section's delta stream
DELTA_SEED = 2024
BUILD_PARAMS = dict(gamma=0.75, tau_min_km=0.4, tau_max_km=8.0)
#: the mmap section's query battery: (k, τ) pairs spanning the ladder
MMAP_QUERIES = tuple(TOPSQuery(k=k, tau_km=tau) for k, tau in ((5, 0.6), (3, 1.2), (8, 2.4)))
BINARY_SPECS = (
    QuerySpec(k=3, tau_km=0.8),
    QuerySpec(k=8, tau_km=0.8),
    QuerySpec(k=5, tau_km=1.6),
    # deep enough that one wrong sparse gain update changes the selection
    QuerySpec(k=40, tau_km=1.6),
    QuerySpec(k=4, tau_km=0.8, capacity=15),
    QuerySpec(k=1, tau_km=0.8, budget=5.0),
    QuerySpec(k=3, tau_km=1.6, existing_sites=(0, 5)),
)
#: binary and graded ψ together: the bitset section's batch
MIXED_SPECS = BINARY_SPECS + (
    QuerySpec(k=5, tau_km=0.8, preference="linear"),
    QuerySpec(k=5, tau_km=0.8, preference="exponential"),
)
#: five (τ, ψ) coverage-cache keys plus every selection rule; τ = 1.0
#: resolves to 0.8's instance, so one instance delta backs parts at two τ
COVCACHE_SPECS = BINARY_SPECS + (
    QuerySpec(k=5, tau_km=0.8, preference="linear"),
    QuerySpec(k=5, tau_km=1.6, preference="exponential"),
    QuerySpec(k=5, tau_km=1.0, preference="linear"),
)


def _compare(label: str, requests, want, got) -> int:
    """Print and count the requests whose two answers differ."""
    failures = 0
    for request, expected, actual in zip(requests, want, got, strict=True):
        if list(actual.sites) != list(expected.sites):
            print(f"FAIL [{label} {request}]: sites {actual.sites} != {expected.sites}")
            failures += 1
        elif (
            np.asarray(actual.per_trajectory_utility).tobytes()
            != np.asarray(expected.per_trajectory_utility).tobytes()
        ):
            print(f"FAIL [{label} {request}]: per-trajectory utilities diverge")
            failures += 1
    return failures


def _sparse_view(index: NetClusIndex, part) -> ClusteredCoverage:
    """A sparse view over one coverage part's canonical entries; its
    columns are the representatives of the part's instance."""
    instance = next(i for i in index.instances if i.instance_id == part.instance_id)
    sites = instance.reps[instance.representative_clusters()]
    coverage = SparseCoverageIndex.from_coverage_lists(
        part.rows,
        part.cols,
        part.estimates,
        num_trajectories=len(index.trajectory_ids),
        num_sites=len(sites),
        tau_km=part.tau_km,
        preference=part.preference_fn(),
        site_labels=sites,
        trajectory_ids=index.trajectory_ids,
    )
    return ClusteredCoverage(instance, coverage, index_version=index.version)


def check_bitset(index: NetClusIndex) -> int:
    index.coverage_cache = None
    service = PlacementService(index, coverage_cache=True)
    got = service.batch_query(list(MIXED_SPECS), use_cache=False)
    bitset_parts = sum(
        isinstance(part.view.coverage, BitsetCoverageIndex)
        for part in index.coverage_cache.parts.values()
    )
    reference = copy.deepcopy(index)  # keeps the parts' entries, drops their views
    for part in reference.coverage_cache.parts.values():
        part.view = _sparse_view(reference, part)
    sparse = PlacementService(reference)
    failures = _compare(
        "bitset vs sparse views",
        MIXED_SPECS,
        sparse.batch_query(list(MIXED_SPECS), use_cache=False),
        got,
    )
    if not bitset_parts or sparse.stats.coverage_builds:
        print(
            f"FAIL [bitset]: {bitset_parts} bitset parts, "
            f"{sparse.stats.coverage_builds} reference builds (expected >0 and 0)"
        )
        failures += 1
    if not failures:
        print(
            f"OK bitset  : {len(MIXED_SPECS)} mixed-ψ specs on {bitset_parts} bitset "
            "part(s) equal sparse views of the same entries"
        )
    return failures


def _probe(index: NetClusIndex) -> list:
    return [index.query(query) for query in MMAP_QUERIES]


def check_mmap(fresh: NetClusIndex, root: Path) -> int:
    warm = copy.deepcopy(fresh)
    loaded = load_index(save_index(fresh, root / "plain"))
    failures = _compare("mmap plain", MMAP_QUERIES, _probe(fresh), _probe(loaded))
    # warm every battery τ so the load answers through the persisted parts
    warm.enable_coverage_cache()
    _probe(warm)
    warm_loaded = load_index(save_index(warm, root / "warm"))
    failures += _compare("mmap warm covcache", MMAP_QUERIES, _probe(warm), _probe(warm_loaded))
    batch = UpdateBatch(
        remove_sites=tuple(sorted(fresh.sites)[:2]),
        remove_trajectories=tuple(fresh.trajectory_ids[:5]),
    )
    fresh.apply_updates(batch)
    loaded.apply_updates(batch)
    failures += _compare("mmap post-update", MMAP_QUERIES, _probe(fresh), _probe(loaded))
    if not failures:
        print(
            f"OK mmap    : {len(MMAP_QUERIES)} queries equal after save/load — "
            "plain, warm covcache, post-update"
        )
    return failures


def _delta_stream(rng, index, pool, num_ops):
    """Yield up to ``num_ops`` update batches against the evolving index."""
    pool = list(pool)
    removed_sites: list[int] = []
    for _ in range(num_ops):
        kind = int(rng.integers(0, 4))
        if kind == 0 and len(pool) >= 2:
            take = int(rng.integers(1, 4))
            batch = UpdateBatch(add_trajectories=pool[:take])
            del pool[:take]
        elif kind == 1 and index.num_trajectories > 25:
            ids = list(index.trajectory_ids)
            picks = rng.choice(len(ids), size=int(rng.integers(1, 4)), replace=False)
            batch = UpdateBatch(remove_trajectories=[ids[int(p)] for p in sorted(picks)])
        elif kind == 2 and removed_sites:
            batch = UpdateBatch(add_sites=list(removed_sites))
            removed_sites.clear()
        elif len(index.sites) > 12:
            sites = sorted(index.sites)
            picks = rng.choice(len(sites), size=int(rng.integers(1, 3)), replace=False)
            victims = [sites[int(p)] for p in sorted(picks)]
            removed_sites.extend(victims)
            batch = UpdateBatch(remove_sites=victims)
        else:
            continue
        yield batch


#: the covcache section's cached-path rounds: k rises and falls, so the
#: order cache replays prefixes, resumes runs and restarts CELF runs
K_SEQUENCE = (4, 12, 2, 25, 9, 40, 1)


def _k_sweep(k: int) -> list[QuerySpec]:
    """Every covcache selection rule at one k."""
    return [replace(spec, k=k) for spec in COVCACHE_SPECS]


def _cold_answers(index: NetClusIndex, specs=COVCACHE_SPECS) -> list:
    cold_index = copy.deepcopy(index)
    cold_index.coverage_cache = None
    cold = PlacementService(cold_index, cache_size=0)
    return cold.batch_query(list(specs), use_cache=False)


def _compare_cached_path(label: str, index: NetClusIndex, warm: PlacementService) -> int:
    """The warm service's order cache against a cache-free cold service."""
    sweep = [spec for k in K_SEQUENCE for spec in _k_sweep(k)]
    got = [result for k in K_SEQUENCE for result in warm.batch_query(_k_sweep(k))]
    return _compare(label, sweep, _cold_answers(index, sweep), got)


def _compare_entries(label: str, index: NetClusIndex) -> int:
    """Count parts whose entries differ from a cold canonicalised build."""
    failures = 0
    for part in index.coverage_cache.parts.values():
        instance = index.instance_for(part.tau_km)
        want = canonical_entries(
            *instance.coverage_entries(index._trajectory_rows, part.tau_km), part.tau_km
        )
        got = (part.rows, part.cols, part.estimates)
        same = part.instance_id == instance.instance_id and all(
            g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want)
        )
        if not same:
            print(
                f"FAIL [{label}]: part (tau={part.tau_km}, psi={part.preference_name}) "
                "entries differ from a cold build"
            )
            failures += 1
    return failures


def _held_out_pool(index: NetClusIndex) -> list[Trajectory]:
    """Trajectories for additions, with ids above the live range."""
    extra = commuter_trajectories(index.network, 30, seed=777)
    next_id = max(index.trajectory_ids) + 1
    return [
        Trajectory.from_nodes(next_id + i, list(t.nodes), index.network)
        for i, t in enumerate(extra)
    ]


def check_covcache(index: NetClusIndex, num_ops: int, root: Path) -> int:
    pool = _held_out_pool(index)
    specs = list(COVCACHE_SPECS)
    warm = PlacementService(index, coverage_cache=True)
    warm.batch_query(specs, use_cache=False)  # warm-up: the only cold builds
    builds_after_warmup = warm.stats.coverage_builds

    failures = 0
    steps = 0
    rng = np.random.default_rng(DELTA_SEED)
    for batch in _delta_stream(rng, index, pool, num_ops):
        warm.apply_updates(batch)
        steps += 1
        failures += _compare_entries(f"covcache step={steps}", index)
        failures += _compare(
            f"covcache step={steps}",
            specs,
            _cold_answers(index),
            warm.batch_query(specs, use_cache=False),
        )
        failures += _compare_cached_path(f"covcache cached step={steps}", index, warm)
    extra_builds = warm.stats.coverage_builds - builds_after_warmup
    if extra_builds:
        print(f"FAIL [covcache]: {extra_builds} coverage builds after warm-up (expected 0)")
        failures += 1

    # on-disk round trip: save with parts, load, compare again
    reloaded = PlacementService(load_index(save_index(index, root / "covcache")))
    failures += _compare(
        "covcache disk-round-trip",
        specs,
        _cold_answers(index),
        reloaded.batch_query(specs, use_cache=False),
    )
    if reloaded.stats.coverage_builds:
        print(
            f"FAIL [covcache]: reloaded index performed "
            f"{reloaded.stats.coverage_builds} coverage builds (expected 0)"
        )
        failures += 1
    taus_per_instance: dict[int, list[float]] = {}
    for part in warm.coverage_cache.parts.values():
        taus_per_instance.setdefault(part.instance_id, []).append(part.tau_km)
    if max((len(set(taus)) for taus in taus_per_instance.values()), default=0) < 2:
        print("FAIL [covcache]: no instance backs parts at two τ (shared delta untested)")
        failures += 1
    if not failures:
        patches = warm.coverage_cache.stats()["patches"]
        sharing = ", ".join(
            f"{instance_id}:{len(taus)}"
            for instance_id, taus in sorted(taus_per_instance.items())
        )
        print(
            f"OK covcache: {steps} deltas x {len(specs)} specs and parts equal cold rebuilds "
            f"({patches} part patches, 0 builds after warm-up and after reload; "
            f"parts per instance {sharing}); "
            f"cached k sweeps {'/'.join(map(str, K_SEQUENCE))} equal cache-free answers "
            f"({warm.stats.cache_hits} order-cache hits)"
        )
    return failures


def check_farm(index: NetClusIndex, num_ops: int, root: Path) -> int:
    names = ("a", "b")
    index.coverage_cache = None
    index.enable_coverage_cache()
    PlacementService(index).batch_query(list(COVCACHE_SPECS))  # persist warm parts
    farm = IndexFarm(
        memory_budget_bytes=int(index.storage_bytes() * 1.5), coverage_cache=True
    )
    mirrors: dict[str, PlacementService] = {}
    streams = {}
    for offset, name in enumerate(names):
        farm.add_tenant(name, save_index(index, root / f"farm-{name}"))
        mirror_index = copy.deepcopy(index)
        mirror_index.coverage_cache = None
        mirrors[name] = PlacementService(mirror_index)
        rng = np.random.default_rng(DELTA_SEED + 1 + offset)
        streams[name] = _delta_stream(rng, mirror_index, _held_out_pool(index), num_ops)

    failures = deltas = queries = 0
    specs = list(COVCACHE_SPECS)
    for step in range(num_ops):
        for name in names:
            # a tenant whose delta stream ran dry is queried instead
            batch = next(streams[name], None) if step % 2 == 0 else None
            if batch is not None:
                outcome = farm.apply_updates(name, batch)
                applied = mirrors[name].apply_updates(batch)
                if (outcome.applied, outcome.index_version) != (
                    applied,
                    mirrors[name].index.version,
                ):
                    print(f"FAIL [farm step={step} {name}]: {outcome}, {applied} applied")
                    failures += 1
                deltas += 1
            else:
                failures += _compare(
                    f"farm step={step} tenant={name}",
                    specs,
                    mirrors[name].batch_query(specs, use_cache=False),
                    farm.batch_query(name, specs, use_cache=False),
                )
                queries += 1
    requests = deltas + queries
    if farm.loads_total < requests:
        print(f"FAIL [farm]: {farm.loads_total} loads for {requests} requests (one each)")
        failures += 1
    farm.close()
    if not failures:
        print(
            f"OK farm    : {deltas} deltas and {queries} x {len(specs)} specs over two "
            f"tenants equal in-memory services ({farm.loads_total} loads, "
            f"{farm.evictions_total} evictions)"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", default="small", choices=["tiny", "small", "medium"])
    parser.add_argument("--ops", type=int, default=50)
    args = parser.parse_args(argv)

    problem = beijing_like(scale=args.scale, seed=42).problem()
    print(f"Building the {args.scale} Beijing-like index...")
    index = problem.build_netclus_index(**BUILD_PARAMS)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        failures = check_bitset(copy.deepcopy(index))
        failures += check_mmap(copy.deepcopy(index), root)
        failures += check_covcache(copy.deepcopy(index), args.ops, root)
        failures += check_farm(copy.deepcopy(index), args.ops, root)
    if failures:
        print(f"FAIL: {failures} divergence(s)")
        return 1
    print("OK: all parity sections passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
