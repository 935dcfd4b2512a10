"""The in-process workloads, ``query`` and ``update``, on the Beijing-like medium city.

Both run the placement service in the benchmark's own process as a
single-client closed loop: each operation starts when the previous one
returns.  The reads and their order are the same for every seed; the seed
draws the trajectories, and so what each update adds and removes.

* ``query`` — the index holds all 1,500 trajectories.  A read loop sends
  ``batch_query`` calls over ten (τ, ψ) keys, two more than the coverage
  cache's 8 parts, with Zipf-skewed popularity and k drawn from 2..40.
  Most reads take the warm path, some hit the result cache, and the rare
  keys rebuild coverage cold.  A write probe follows the read loop: 40
  sliding-window updates against the full 8-part cache.  The read-loop
  metrics therefore contain no update work.
* ``update`` — the index holds the first 1,200 trajectories and the other
  300 form the arrival pool.  Each cycle applies one sliding-window
  ``UpdateBatch`` and then sends 25 reads over four warm keys.  Every
  tenth update also removes a site, and the next update adds it back.
"""

from __future__ import annotations

import gc
import random
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import inputs
from measure import (
    Calibration,
    OpLog,
    calibrate,
    mean,
    min_samples,
    normalised_setup,
    phase_seconds,
    self_peak_rss_mb,
)
from spans import BUILD_STAGES, SpanTable, Tracer, layer_metrics, rebased

import numpy as np

from repro.core.coverage import CoverageIndex
from repro.core.greedy import IncGreedy
from repro.core.netclus import NetClusIndex, UpdateBatch
from repro.core.problem import TOPSProblem
from repro.network.graph import RoadNetwork
from repro.service import PlacementService, QuerySpec
from repro.trajectory.model import Trajectory, TrajectoryDataset

BUILD = {"gamma": 0.75, "tau_min_km": 0.4, "tau_max_km": 8.0}
SERVICE = {"engine": "auto", "cache_size": 40}
SETUP_REPS = 3

QUERY_KEYS = (
    (0.8, "binary"), (1.6, "binary"), (1.2, "linear"), (1.0, "binary"),
    (2.4, "binary"), (0.6, "linear"), (2.0, "binary"), (1.6, "linear"),
    (3.2, "binary"), (0.8, "linear"),
)
QUERY_KEY_WEIGHTS = tuple(1.0 / (rank + 1) ** 2.0 for rank in range(len(QUERY_KEYS)))
QUERY_K = (2, 40)
UPDATE_KEYS = ((0.8, "binary"), (1.6, "binary"), (1.2, "linear"), (2.4, "binary"))
UPDATE_K = (2, 20)
UPDATE_BASE = 1200
READS_PER_CYCLE = 25
#: trajectories in and out per update; every SITE_EVERY-th update removes a site
WINDOW_STEP = 4
SITE_EVERY = 10

MIN_READS = min_samples(0.99)
MIN_UPDATES = min_samples(0.75)
#: share of reads replayed against the cache-free reference
CHECK_RATE = 0.005
UTILITY_SPECS = (
    QuerySpec(k=10, tau_km=0.8),
    QuerySpec(k=10, tau_km=1.6),
    QuerySpec(k=10, tau_km=1.2, preference="linear"),
    QuerySpec(k=20, tau_km=2.4),
)


# --------------------------------------------------------------------- #
# operation streams
# --------------------------------------------------------------------- #
class SlidingWindow:
    """Trajectory churn at constant index size.

    Each step removes the *n* oldest indexed trajectories and adds *n*
    from the arrival pool under fresh ids; removed trajectories rejoin
    the pool, so every trajectory is re-numbered on reuse.
    """

    def __init__(
        self, network: RoadNetwork, indexed: list[Trajectory], pool: list[Trajectory]
    ) -> None:
        self.network = network
        self.window = deque(indexed)
        self.pool = deque(pool)
        self.next_id = 1 + max(t.traj_id for t in [*indexed, *pool])

    def step(self, n: int) -> tuple[list[Trajectory], list[int]]:
        removed = [self.window.popleft() for _ in range(n)]
        self.pool.extend(removed)
        added = []
        for _ in range(n):
            source = self.pool.popleft()
            added.append(Trajectory.from_nodes(self.next_id, list(source.nodes), self.network))
            self.next_id += 1
        self.window.extend(added)
        return added, [t.traj_id for t in removed]


def update_batches(
    rng: random.Random, window: SlidingWindow, sites: list[int]
) -> Iterator[UpdateBatch]:
    """Sliding-window batches; every SITE_EVERY-th removes a site, the next re-adds it."""
    removed_site = None
    count = 0
    while True:
        added, removed = window.step(WINDOW_STEP)
        add_sites = [removed_site] if removed_site is not None else []
        removed_site = None
        count += 1
        if count % SITE_EVERY == 0:
            removed_site = rng.choice(sites)
        yield UpdateBatch(
            add_trajectories=added,
            remove_trajectories=removed,
            add_sites=add_sites,
            remove_sites=[removed_site] if removed_site is not None else [],
        )


def read_specs(
    rng: random.Random,
    keys: tuple,
    weights: tuple | None,
    k_range: tuple[int, int],
    max_specs: int,
) -> list[QuerySpec]:
    """One ``batch_query`` call: 1..max_specs k values at one (τ, ψ) key."""
    tau, preference = rng.choices(keys, weights=weights)[0]
    ks = sorted({rng.randint(*k_range) for _ in range(rng.randint(1, max_specs))})
    return [QuerySpec(k=k, tau_km=tau, preference=preference) for k in ks]


@dataclass
class Phase:
    """One closed loop: steps of operations until *enough* (and, if timed, the clock)."""

    name: str
    steps: Iterator[list[tuple[str, Any]]]
    enough: Callable[[OpLog], bool]
    timed: bool


@dataclass
class Workload:
    warm_keys: tuple
    base: int | None
    phases: Callable[[int, SlidingWindow, list[int]], list[Phase]]
    #: specs compared live-vs-reference once the loop has ended
    final_specs: tuple = field(default=())


def shuffled(items: list, rng: random.Random) -> Iterator[Any]:
    """*items* in a fresh seeded order, pass after pass."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def query_phases(seed: int, window: SlidingWindow, sites: list[int]) -> list[Phase]:
    # the reads and their order are the same for every seed, so the cache
    # hits and misses are too; the seed picks the data and the writes
    mix = random.Random("query:reads")
    reads_multiset = [
        read_specs(mix, QUERY_KEYS, QUERY_KEY_WEIGHTS, QUERY_K, 3) for _ in range(MIN_READS)
    ]

    def reads() -> Iterator[list[tuple[str, Any]]]:
        for specs in shuffled(reads_multiset, random.Random("query:reads:order")):
            yield [("read", specs)]

    def writes() -> Iterator[list[tuple[str, Any]]]:
        for batch in update_batches(random.Random(f"query:{seed}:writes"), window, sites):
            yield [("update", batch)]

    return [
        Phase("reads", reads(), lambda log: log.count("query") >= MIN_READS, True),
        Phase("writes", writes(), lambda log: log.count("update") >= MIN_UPDATES, False),
    ]


def update_phases(seed: int, window: SlidingWindow, sites: list[int]) -> list[Phase]:
    batches = update_batches(random.Random(f"update:{seed}:sites"), window, sites)
    mix = random.Random("update:reads")
    reads_multiset = [
        read_specs(mix, UPDATE_KEYS, None, UPDATE_K, 2) for _ in range(MIN_READS)
    ]
    reads = shuffled(reads_multiset, random.Random("update:reads:order"))

    def cycles() -> Iterator[list[tuple[str, Any]]]:
        while True:
            step: list[tuple[str, Any]] = [("update", next(batches))]
            step += [("read", next(reads)) for _ in range(READS_PER_CYCLE)]
            yield step

    return [Phase("cycles", cycles(), lambda log: log.count("update") >= MIN_UPDATES, True)]


WORKLOADS = {
    "query": Workload(
        warm_keys=QUERY_KEYS[:8],
        base=None,
        phases=query_phases,
        final_specs=tuple(QuerySpec(k=10, tau_km=t, preference=p) for t, p in QUERY_KEYS[:4]),
    ),
    "update": Workload(
        warm_keys=UPDATE_KEYS,
        base=UPDATE_BASE,
        phases=update_phases,
        final_specs=tuple(QuerySpec(k=10, tau_km=t, preference=p) for t, p in UPDATE_KEYS),
    ),
}


# --------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------- #
def warm_up(service: PlacementService, keys: tuple) -> None:
    """Materialise every warm key's view without touching the result cache."""
    for tau, preference in keys:
        service.batch_query([QuerySpec(k=10, tau_km=tau, preference=preference)], use_cache=False)
    service.stats.reset()


def open_service(directory: Path, keys: tuple) -> PlacementService:
    service = PlacementService.from_path(directory, coverage_cache=True, **SERVICE)
    warm_up(service, keys)
    return service


def set_up(
    network: RoadNetwork,
    dataset: TrajectoryDataset,
    sites: list[int],
    keys: tuple,
    directory: Path,
) -> tuple[float, PlacementService, NetClusIndex]:
    """Build, warm the coverage parts, save as v4, reopen and warm the views."""
    started = time.perf_counter()
    index = TOPSProblem(network, dataset, sites).build_netclus_index(**BUILD)
    index.enable_coverage_cache()
    builder = PlacementService(index, **SERVICE)
    for tau, preference in keys:
        builder.batch_query([QuerySpec(k=10, tau_km=tau, preference=preference)])
    builder.save(directory, dataset=dataset)
    service = open_service(directory, keys)
    return time.perf_counter() - started, service, index


# --------------------------------------------------------------------- #
# the loop
# --------------------------------------------------------------------- #
@dataclass
class Executed:
    kind: str
    payload: Any
    sampled: bool
    results: Any = None


def counters(service: PlacementService, base: dict[str, int]) -> dict[str, int]:
    stats = service.stats.as_dict()
    cache = service.coverage_cache.stats()
    return {
        "result_cache_hits": stats["cache_hits"],
        "greedy_runs": stats["greedy_runs"],
        "covcache_hits": cache["hits"] - base["hits"],
        "covcache_misses": cache["misses"] - base["misses"],
        "covcache_patches": cache["patches"] - base["patches"],
    }


def drive(
    service: PlacementService,
    phases: list[Phase],
    seconds: float,
    check: random.Random,
) -> tuple[OpLog, list[Executed], dict[str, dict[str, int]]]:
    """Run the phases; returns the log, the executed operations and count snapshots.

    *seconds* of 0 stops every phase at its minimum sample count, which
    is a fixed, seeded block of operations.
    """
    log = OpLog()
    executed: list[Executed] = []
    snapshots: dict[str, dict[str, int]] = {}
    cache = service.coverage_cache.stats()
    base = {name: cache[name] for name in ("hits", "misses", "patches")}
    gc.collect()
    log.calibration.sample()
    for phase in phases:
        started = time.perf_counter()
        for step in phase.steps:
            for kind, payload in step:
                executed.append(run_op(service, log, kind, payload, check.random() < CHECK_RATE))
            log.between_ops()
            if phase.enough(log):
                snapshots.setdefault(phase.name, counters(service, base))
                if not phase.timed or time.perf_counter() - started >= seconds:
                    break
    return log, executed, snapshots


def run_op(service: PlacementService, log: OpLog, kind: str, payload: Any, sampled: bool) -> Executed:
    if kind == "read":
        results = log.timed("query", lambda: service.batch_query(payload))
        return Executed(kind, payload, sampled, results if sampled else None)
    log.timed("update", lambda: service.apply_updates(payload))
    return Executed(kind, payload, False)


def replay(service: PlacementService, executed: list[Executed]) -> tuple[OpLog, list[Executed]]:
    """Run a recorded operation block again on a fresh service."""
    log = OpLog()
    gc.collect()
    log.calibration.sample()
    again = []
    for op in executed:
        again.append(run_op(service, log, op.kind, op.payload, op.sampled))
        log.between_ops()
    return log, again


# --------------------------------------------------------------------- #
# correctness and quality
# --------------------------------------------------------------------- #
def same_answer(left: Any, right: Any) -> bool:
    return tuple(left.sites) == tuple(right.sites) and (
        np.asarray(left.per_trajectory_utility, dtype=np.float64).tobytes()
        == np.asarray(right.per_trajectory_utility, dtype=np.float64).tobytes()
    )


def check_against_reference(
    reference: PlacementService,
    executed: list[Executed],
    live: PlacementService,
    final_specs: tuple,
) -> tuple[int, int]:
    """Replay the operation log on a cache-free service; returns (checked, mismatches)."""
    checked = mismatches = 0
    for op in executed:
        if op.kind == "update":
            reference.apply_updates(op.payload)
        elif op.sampled and op.results is not None:
            expected = reference.batch_query(op.payload, use_cache=False)
            for got, want in zip(op.results, expected):
                checked += 1
                mismatches += not same_answer(got, want)
    for got, want in zip(
        live.batch_query(list(final_specs)), reference.batch_query(list(final_specs))
    ):
        checked += 1
        mismatches += not same_answer(got, want)
    return checked, mismatches


def utility_ratios(
    index: NetClusIndex, detours: np.ndarray, sites: list[int], specs: tuple
) -> list[float]:
    """Per spec: exact utility of NetClus's sites over exact Inc-Greedy's utility.

    Both sides are scored on the flat-space coverage of the exact detour
    matrix (rows: the index's trajectories in order; columns: *sites*),
    which is what ``TOPSProblem.solve(method="inc-greedy")`` builds and
    greedily selects on.
    """
    service = PlacementService(index, engine="auto", cache_size=0)
    ids = list(range(len(detours)))
    ratios = []
    for spec in specs:
        query = spec.to_query()
        exact = CoverageIndex(detours, query.tau_km, query.preference, site_labels=sites, trajectory_ids=ids)
        netclus = exact.utility_of(exact.columns_for_labels(service.query(spec).sites))
        ratios.append(netclus / IncGreedy(exact).solve(query).utility)
    return ratios


# --------------------------------------------------------------------- #
# one run
# --------------------------------------------------------------------- #
def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict[str, Any]:
    workload = WORKLOADS[name]
    wall = {"start": time.perf_counter()}
    bundle = inputs.load("beijing", seed)
    wall["inputs"] = time.perf_counter()
    trajectories = list(bundle.trajectories)
    base = workload.base or len(trajectories)
    indexed, pool = trajectories[:base], trajectories[base:]
    dataset = TrajectoryDataset(indexed)
    sites = list(bundle.sites)

    tracer = Tracer() if trace else None
    # the traced run reports build spans per set-up, so one set-up is enough
    reps = 1 if trace else SETUP_REPS
    if tracer:
        tracer.install()
    wall["setup"] = time.perf_counter()
    setup_seconds: list[tuple[float, float]] = []
    setup_speed = Calibration()
    stage_seconds = dict.fromkeys(BUILD_STAGES, 0.0)
    for rep in range(reps):
        calibrate(setup_speed)
        directory = workdir / f"index-{rep}"
        started = time.perf_counter()
        elapsed, service, index = set_up(bundle.network, dataset, sites, workload.warm_keys, directory)
        setup_seconds.append((started, elapsed))
        for stage in index.build_stats:
            stage_seconds[stage.stage] += stage.seconds
    calibrate(setup_speed)
    if tracer:
        tracer.uninstall()

    phases = workload.phases(seed, SlidingWindow(bundle.network, indexed, pool), sites)
    wall["loop"] = time.perf_counter()
    log, executed, snapshots = drive(
        service, phases, 0.0 if trace else seconds, random.Random(f"{name}:{seed}:check")
    )
    peak_rss = self_peak_rss_mb()
    sizes = {
        "nodes": bundle.network.num_nodes,
        "trajectories": len(indexed),
        "arrival_pool": len(pool),
        "sites": len(sites),
        "index_instances": index.num_instances,
        "storage_bytes": index.storage_bytes(),
        "warm_coverage_parts": service.coverage_cache.stats()["parts"],
    }

    if trace:
        untraced_seconds = log.busy_seconds()
        service = open_service(directory, workload.warm_keys)
        setup_table = SpanTable(list(tracer.spans))
        loop_start = len(tracer.spans)
        tracer.install()
        try:
            log, executed = replay(service, executed)
        finally:
            tracer.uninstall()
        loop_table = SpanTable(rebased(tracer.spans, loop_start))
        traced_seconds = log.busy_seconds()
        stats = service.stats.as_dict()
        lookups = stats["cache_hits"] + stats["cache_misses"]
        attributed = sum(span.seconds for span in loop_table.top_level())
        metrics = layer_metrics(
            setup_table,
            loop_table,
            tracer.kernel_seconds,
            setup_reps=reps,
            build_stage_seconds=stage_seconds,
            result_cache_hit_ratio=stats["cache_hits"] / lookups if lookups else 0.0,
            farm_evictions=0,
            server={},
            unattributed_share=(log.raw_seconds() - attributed) / log.raw_seconds(),
            overhead=(traced_seconds - untraced_seconds) / untraced_seconds,
        )

    wall["check"] = time.perf_counter()
    reference = PlacementService.from_path(
        directory, engine=SERVICE["engine"], cache_size=0, coverage_cache=False
    )
    if not trace:
        # scored on the index the workload built (before the loop's updates)
        exact = inputs.detours("beijing", seed)[: len(indexed)]
        quality = mean(utility_ratios(index, exact, sites, UTILITY_SPECS))
    checked, mismatches = check_against_reference(
        reference, executed, service, workload.final_specs
    )

    if not trace:
        metrics = {
            "setup_s": normalised_setup(setup_seconds, setup_speed),
            "peak_rss_mb": peak_rss,
            "ops_per_s": ops_per_second(log, name),
            "query_p50_ms": log.p50_ms("query"),
            "query_p99_ms": log.ms("query", 0.99),
            "update_p50_ms": log.p50_ms("update"),
            "update_p75_ms": log.ms("update", 0.75),
            "utility_ratio": quality,
        }
    return {
        "metrics": metrics,
        "log": log,
        "checked": checked,
        "mismatches": mismatches,
        "counts": snapshots,
        "inputs": sizes,
        "settings": {**SERVICE, **BUILD, "setup_reps": reps},
        "setup_seconds": [seconds for _, seconds in setup_seconds],
        "speed_factors": {
            "setup": setup_speed.mean_factor(), "loop": log.calibration.mean_factor()
        },
        "wall_seconds": phase_seconds(wall),
    }


def ops_per_second(log: OpLog, name: str) -> float:
    """Completed operations over their summed latency (one client, no think time).

    On ``query`` only the read loop counts: the write probe is a separate
    measurement of update latency.
    """
    return log.rate(("query",) if name == "query" else ("query", "update"))
