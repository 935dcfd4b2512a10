"""Concurrency tests for :class:`PlacementService`.

The service contract under parallel callers:

* ``batch_query`` may run from many threads at once;
* dynamic updates through :meth:`PlacementService.apply_updates` are
  exclusive — a reader observes either the pre- or the post-update index,
  never a mix, and the result cache can never serve a pre-update answer
  to a post-update query (no stale-cache reads);
* the lazy index build happens exactly once however many threads race it;
* saves through one service never interleave: two threads updating and
  saving one directory leave it holding the final state, byte for byte.

The hammer test drives both sides at once and checks every observed
result against the two legitimate index states, which it computes up
front from deep copies.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.netclus import NetClusIndex, UpdateBatch
from repro.datasets import beijing_like
from repro.service.placement import PlacementService
from repro.service.specs import QuerySpec


@pytest.fixture(scope="module")
def bundle():
    return beijing_like(scale="tiny", seed=42)


@pytest.fixture(scope="module")
def base_index(bundle):
    return NetClusIndex.build(
        bundle.network, bundle.trajectories, bundle.sites, tau_max_km=4.0
    )


SPECS = [
    QuerySpec(k=3, tau_km=0.8),
    QuerySpec(k=5, tau_km=0.8),
    QuerySpec(k=4, tau_km=1.6),
]


def _expected_answers(index: NetClusIndex, batch: UpdateBatch | None):
    """Reference results for every spec against a private index copy."""
    private = copy.deepcopy(index)
    if batch is not None:
        private.apply_updates(batch)
    service = PlacementService(private, cache_size=0)
    return [tuple(result.sites) for result in service.batch_query(SPECS)]


def _update_batch_changing_selections(index: NetClusIndex) -> UpdateBatch:
    """Removing the top pick of the k=3 query must change its selection."""
    service = PlacementService(copy.deepcopy(index))
    top_site = service.batch_query([SPECS[0]])[0].sites[0]
    return UpdateBatch(remove_sites=(int(top_site),))


class TestQueryUpdateHammer:
    @pytest.mark.parametrize("coverage_cache", [False, True])
    def test_no_stale_or_torn_reads(self, base_index, coverage_cache):
        """No torn/stale reads — with the coverage cache on, readers racing
        the writer must see either the pre-update parts or the fully patched
        parts, never a half-patched coverage structure."""
        index = copy.deepcopy(base_index)
        batch = _update_batch_changing_selections(index)
        expected_before = _expected_answers(index, None)
        expected_after = _expected_answers(index, batch)
        assert expected_before != expected_after, "update must change selections"

        service = PlacementService(
            index, cache_size=64, coverage_cache=coverage_cache
        )
        update_done_at: list[float] = []
        failures: list[str] = []
        start_barrier = threading.Barrier(9)

        def reader(worker_id: int) -> None:
            start_barrier.wait()
            for iteration in range(12):
                started = time.monotonic()
                sites = [
                    tuple(result.sites) for result in service.batch_query(SPECS)
                ]
                if sites not in (expected_before, expected_after):
                    failures.append(
                        f"reader {worker_id} iter {iteration}: torn result {sites}"
                    )
                if (
                    update_done_at
                    and started > update_done_at[0]
                    and sites != expected_after
                ):
                    failures.append(
                        f"reader {worker_id} iter {iteration}: stale post-update read"
                    )

        def writer() -> None:
            start_barrier.wait()
            time.sleep(0.01)  # let readers populate and hit the cache first
            service.apply_updates(batch)
            update_done_at.append(time.monotonic())

        with ThreadPoolExecutor(max_workers=9) as pool:
            futures = [pool.submit(reader, worker_id) for worker_id in range(8)]
            futures.append(pool.submit(writer))
            for future in futures:
                future.result()

        assert not failures, failures
        assert update_done_at, "the writer must have run"
        # the post-update queries repopulated the cache with fresh answers
        if coverage_cache:
            builds_before_final = service.stats.coverage_builds
        final = [tuple(result.sites) for result in service.batch_query(SPECS)]
        assert final == expected_after
        if coverage_cache:
            # the patched parts served the post-update answer — the final
            # batch needed zero coverage builds
            assert service.stats.coverage_builds == builds_before_final
            assert service.coverage_cache.stats()["patches"] > 0

    def test_apply_updates_returns_item_count_and_bumps_version(self, base_index):
        index = copy.deepcopy(base_index)
        service = PlacementService(index)
        before = index.version
        site = sorted(index.sites)[-1]
        applied = service.apply_updates(UpdateBatch(remove_sites=(site,)))
        assert applied == 1
        assert index.version == before + 1

    def test_cache_dropped_inside_update_critical_section(self, base_index):
        service = PlacementService(copy.deepcopy(base_index))
        service.batch_query(SPECS)
        assert service.cache_len == len(SPECS)
        batch = UpdateBatch(remove_sites=(sorted(service.index.sites)[0],))
        service.apply_updates(batch)
        assert service.cache_len == 0


class TestConcurrentCacheAndBuild:
    def test_lazy_build_runs_exactly_once(self, bundle):
        built = []

        def builder() -> NetClusIndex:
            built.append(threading.get_ident())
            return NetClusIndex.build(
                bundle.network, bundle.trajectories, bundle.sites, tau_max_km=2.0,
                max_instances=2,
            )

        service = PlacementService(builder=builder)
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(
                pool.map(
                    lambda _: service.query(SPECS[0]).sites, range(6)
                )
            )
        assert len(built) == 1
        assert service.stats.index_builds == 1
        assert len(set(results)) == 1

    def test_parallel_readers_share_consistent_cache(self, base_index):
        service = PlacementService(copy.deepcopy(base_index))
        reference = tuple(service.query(SPECS[1]).sites)

        def read(_: int):
            return tuple(service.query(SPECS[1]).sites)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(read, range(64)))
        assert set(results) == {reference}
        stats = service.stats
        # every query either hit the cache or recomputed the same answer
        assert stats.cache_hits + stats.cache_misses == stats.queries_served

    def test_concurrent_greedy_on_shared_warm_views(self, base_index):
        """With the result cache off, every thread runs the greedy kernels
        itself over the same warm coverage views — a bitset view (binary ψ)
        and a sparse view (linear ψ) — and must get the serial answers."""
        specs = [
            QuerySpec(k=6, tau_km=0.8),
            QuerySpec(k=4, tau_km=0.8, capacity=5),
            QuerySpec(k=6, tau_km=1.6, preference="linear"),
            QuerySpec(k=4, tau_km=1.6, preference="linear", capacity=5),
        ]
        service = PlacementService(
            copy.deepcopy(base_index), cache_size=0, coverage_cache=True
        )

        def answers() -> list[tuple[tuple[int, ...], bytes]]:
            return [
                (
                    tuple(result.sites),
                    np.asarray(result.per_trajectory_utility).tobytes(),
                )
                for result in service.batch_query(specs)
            ]

        serial = answers()
        views = {
            type(part.view.coverage).__name__
            for part in service.coverage_cache.parts.values()
        }
        assert views == {"BitsetCoverageIndex", "SparseCoverageIndex"}
        builds = service.stats.coverage_builds
        start_barrier = threading.Barrier(8)

        def run(_: int) -> list[list[tuple[tuple[int, ...], bytes]]]:
            start_barrier.wait()
            return [answers() for _ in range(6)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside the kernels
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                observed = list(pool.map(run, range(8)))
        finally:
            sys.setswitchinterval(interval)
        assert all(batch == serial for runs in observed for batch in runs)
        assert service.stats.coverage_builds == builds
        assert service.stats.cache_hits == 0

    def test_counter_bumps_are_atomic(self, base_index):
        service = PlacementService(copy.deepcopy(base_index))

        def hammer(_: int) -> None:
            service.stats.bump(queries_served=1)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(500)))
        assert service.stats.queries_served == 500


class TestConcurrentSaves:
    ROUNDS = 8

    def test_updates_and_saves_in_two_threads_commit_the_final_state(
        self, base_index, tmp_path
    ):
        """Two writers (update, then save to one directory) must never collide
        on the staging files, and the last save must be the final index."""
        service = PlacementService(copy.deepcopy(base_index), cache_size=0)
        target = tmp_path / "city.ncx"
        service.save(target)
        sites = sorted(service.index.sites)
        start = threading.Barrier(2)
        errors: list[BaseException] = []

        def writer(parity: int) -> None:
            try:
                start.wait()
                for step in range(self.ROUNDS):
                    site = sites[2 * step + parity]
                    service.apply_updates(UpdateBatch(remove_sites=(site,)))
                    service.save(target)
            except BaseException as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(p,)) for p in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

        manifest = json.loads((target / "manifest.json").read_text())
        payload = (target / manifest["payload_file"]).read_bytes()
        assert manifest["fingerprints"]["payload_sha256"] == hashlib.sha256(payload).hexdigest()
        assert not list(target.glob("*.tmp"))
        reference = tmp_path / "serial.ncx"
        service.save(reference)
        reference_manifest = json.loads((reference / "manifest.json").read_text())
        assert payload == (reference / reference_manifest["payload_file"]).read_bytes()

        reloaded = PlacementService.from_path(target, cache_size=0)
        assert reloaded.index.version == service.index.version
        for got, want in zip(reloaded.batch_query(SPECS), service.batch_query(SPECS)):
            assert got.sites == want.sites
            assert got.per_trajectory_utility == want.per_trajectory_utility


class _RecordingLock:
    """A lock wrapper counting acquisitions (regression probes below)."""

    def __init__(self) -> None:
        self._inner = threading.RLock()
        self.acquisitions = 0

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def acquire(self, *args, **kwargs) -> bool:
        self.acquisitions += 1
        return self._inner.acquire(*args, **kwargs)

    def release(self) -> None:
        self._inner.release()


class TestLockDisciplineRegressions:
    """Each fixed RA005 site now provably takes its lock.

    These correspond one-to-one to the findings the static lock checker
    surfaced when the ``@guarded_by`` declarations landed; the probes
    replace the relevant lock with a recording wrapper so a regression
    (dropping the critical section again) fails deterministically instead
    of needing a lucky race.
    """

    def test_stage_seconds_snapshot_is_taken_under_the_stats_lock(self, base_index):
        service = PlacementService(copy.deepcopy(base_index))
        probe = _RecordingLock()
        service.stats._lock = probe
        before = probe.acquisitions
        snapshot = service.stats.stage_seconds()
        assert probe.acquisitions == before + 1
        assert set(snapshot) == {
            "coverage_build_seconds",
            "coverage_materialise_seconds",
            "greedy_seconds",
            "replay_seconds",
        }

    def test_reset_zeroes_under_the_stats_lock(self, base_index):
        service = PlacementService(copy.deepcopy(base_index))
        service.batch_query(SPECS)
        probe = _RecordingLock()
        service.stats._lock = probe
        before = probe.acquisitions
        service.stats.reset()
        assert probe.acquisitions == before + 1
        assert all(value == 0 for value in service.stats.as_dict().values())

    def test_reset_is_atomic_against_concurrent_bumps(self, base_index):
        stats = PlacementService(copy.deepcopy(base_index)).stats

        def bump(_: int) -> None:
            stats.bump(queries_served=1, greedy_seconds=0.5)

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(bump, i) for i in range(200)]
            stats.reset()
            for future in futures:
                future.result()
        # whatever interleaving happened, the float and int counters moved
        # in lockstep: a torn reset would break the 0.5-per-bump ratio
        assert stats.greedy_seconds == pytest.approx(0.5 * stats.queries_served)

    def test_coverage_cache_deepcopy_and_pickle_hold_the_cache_lock(self):
        import pickle

        from repro.core.covcache import CoverageCache

        cache = CoverageCache(limit=4)
        probe = _RecordingLock()
        cache._lock = probe
        before = probe.acquisitions
        clone = copy.deepcopy(cache)
        assert clone.limit == 4
        assert probe.acquisitions == before + 1
        before = probe.acquisitions
        restored = pickle.loads(pickle.dumps(cache))
        assert restored.limit == 4
        assert probe.acquisitions == before + 1
