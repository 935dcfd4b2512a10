"""Concurrency tests for :class:`PlacementService`.

The service contract under parallel callers:

* ``batch_query`` may run from many threads at once;
* dynamic updates through :meth:`PlacementService.apply_updates` are
  exclusive — a reader observes either the pre- or the post-update index,
  never a mix, and the order cache can never serve a pre-update answer
  to a post-update query (no stale-cache reads);
* the lazy index build happens exactly once however many threads race it;
* one greedy step per selection key is in flight at a time: a batch that
  finds the key's slot held waits for the published order, and a failed
  step releases the slot for the next batch;
* saves through one service never interleave: two threads updating and
  saving one directory leave it holding the final state, byte for byte.

The hammer test drives both sides at once and checks every observed
result against the two legitimate index states, which it computes up
front from deep copies.
"""

from __future__ import annotations

import copy
import hashlib
import http.client
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.greedy import IncGreedy
from repro.core.netclus import NetClusIndex, UpdateBatch
from repro.datasets import beijing_like
from repro.service.farm import IndexFarm
from repro.service.placement import PlacementService
from repro.service.server import serve_in_background
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
        # one order per selection key: k=3 and k=5 at τ=0.8 share one
        keys = {spec.selection_key for spec in SPECS}
        assert service.cache_len == len(keys) == 2
        service.apply_updates(UpdateBatch())  # moves no version, keeps the orders
        assert service.cache_len == len(keys)
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

    @pytest.mark.parametrize("preference", ["binary", "linear"])
    def test_threads_growing_one_key_match_cache_free_answers(self, base_index, preference):
        """Many threads ask one key for different k at once, so they replay,
        resume and publish orders of one key concurrently; every answer
        equals the cache-free one byte for byte and the stored order ends
        at the largest k."""
        ks = [2, 17, 5, 11, 1, 23, 8, 14, 3, 20, 6, 9]

        def spec(k: int) -> QuerySpec:
            return QuerySpec(k=k, tau_km=0.8, preference=preference)

        def answer(result) -> tuple[tuple[int, ...], bytes]:
            return tuple(result.sites), np.asarray(result.per_trajectory_utility).tobytes()

        reference = PlacementService(copy.deepcopy(base_index), cache_size=0)
        expected = {
            k: answer(result)
            for k, result in zip(ks, reference.batch_query([spec(k) for k in ks]))
        }
        service = PlacementService(copy.deepcopy(base_index), coverage_cache=True)
        service.query(spec(1))  # warm the coverage part
        start_barrier = threading.Barrier(8)

        def run(worker: int) -> list[tuple[int, tuple[tuple[int, ...], bytes]]]:
            start_barrier.wait()
            observed = []
            for step in range(3 * len(ks)):
                k = ks[(worker * 5 + step) % len(ks)]
                observed.append((k, answer(service.query(spec(k)))))
            return observed

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run, worker) for worker in range(8)]
                observed = [item for f in futures for item in f.result(timeout=120)]
        finally:
            sys.setswitchinterval(interval)
        assert [k for k, got in observed if got != expected[k]] == []
        assert service.cache_len == 1
        runs = service.stats.greedy_runs
        assert tuple(service.query(spec(max(ks))).sites) == expected[max(ks)][0]
        assert service.stats.greedy_runs == runs  # the longest order was kept

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


class _GatedService(PlacementService):
    """A service whose greedy steps wait for ``gate`` after claiming their
    key's slot; with ``fail_first`` the first step raises instead."""

    def __init__(self, index, *, fail_first: bool = False, **kwargs) -> None:
        super().__init__(index, **kwargs)
        self.gate = threading.Event()
        self.fail_first = fail_first

    def _select(self, lead, group, entry):
        assert self.gate.wait(timeout=30), "test gate never released"
        if self.fail_first:
            self.fail_first = False
            raise RuntimeError("greedy step failed")
        return super()._select(lead, group, entry)


def _answer(result) -> tuple[tuple[int, ...], bytes]:
    return tuple(result.sites), np.asarray(result.per_trajectory_utility).tobytes()


def _wait_until(predicate, message: str) -> None:
    deadline = time.monotonic() + 20
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {message}"
        time.sleep(0.002)


@pytest.fixture
def short_switch_interval():
    """Switch threads every 10 µs, so they interleave inside the kernels."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.usefixtures("short_switch_interval")
class TestSingleFlight:
    THREADS = 8

    def test_threads_asking_one_spec_run_one_greedy_step(self, base_index):
        spec = QuerySpec(k=6, tau_km=0.8)
        expected = _answer(PlacementService(copy.deepcopy(base_index), cache_size=0).query(spec))
        service = _GatedService(copy.deepcopy(base_index))
        with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
            futures = [pool.submit(service.query, spec) for _ in range(self.THREADS)]
            # the lead claimed the slot and the others found it held: each
            # of them is committed to waiting for the lead's order
            _wait_until(
                lambda: service.stats.cache_misses == self.THREADS, "every thread to look"
            )
            service.gate.set()
            answers = [_answer(future.result(timeout=60)) for future in futures]
        assert answers == [expected] * self.THREADS
        assert service.stats.greedy_runs == 1
        assert service.stats.coalesced_specs == self.THREADS - 1
        assert service.stats.cache_hits == 0
        assert not service._slots

    @pytest.mark.parametrize("preference", ["binary", "linear"])
    def test_two_ks_at_one_key_run_one_fresh_step_and_at_most_one_resume(
        self, base_index, preference, monkeypatch
    ):
        ks = (4, 11)
        specs = {k: QuerySpec(k=k, tau_km=0.8, preference=preference) for k in ks}
        reference = PlacementService(copy.deepcopy(base_index), cache_size=0)
        expected = {k: _answer(reference.query(spec)) for k, spec in specs.items()}
        resumes: list[int] = []
        resuming = IncGreedy.resuming.__func__

        def counted(cls, coverage, run):
            resumes.append(len(run.columns))
            return resuming(cls, coverage, run)

        monkeypatch.setattr(IncGreedy, "resuming", classmethod(counted))
        service = PlacementService(copy.deepcopy(base_index))
        start_barrier = threading.Barrier(self.THREADS)

        def run(worker: int) -> tuple[int, tuple[tuple[int, ...], bytes]]:
            k = ks[worker % len(ks)]
            start_barrier.wait()
            return k, _answer(service.query(specs[k]))

        with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
            observed = list(pool.map(run, range(self.THREADS)))
        assert [k for k, got in observed if got != expected[k]] == []
        assert len(resumes) <= 1
        assert service.stats.greedy_runs - len(resumes) == 1  # one fresh step
        assert not service._slots

    def test_failed_greedy_step_releases_its_slot(self, base_index):
        """The lead's step raises: its request answers 500, and the request
        waiting on the slot claims it and answers 200 with the right order."""
        spec = {"k": 5, "tau_km": 0.8}
        expected = PlacementService(copy.deepcopy(base_index), cache_size=0).query(
            QuerySpec(**spec)
        )
        service = _GatedService(copy.deepcopy(base_index), fail_first=True)
        farm = IndexFarm()
        farm.add_service(service)
        replies: dict[str, tuple[int, dict]] = {}

        def post(key: str) -> None:
            conn = http.client.HTTPConnection(*handle.address, timeout=60)
            try:
                conn.request("POST", "/query", body=json.dumps([spec]))
                response = conn.getresponse()
                replies[key] = (response.status, json.loads(response.read()))
            finally:
                conn.close()

        with serve_in_background(farm) as handle:
            lead = threading.Thread(target=post, args=("lead",))
            lead.start()
            _wait_until(lambda: service.stats.cache_misses == 1, "the lead to claim")
            waiter = threading.Thread(target=post, args=("waiter",))
            waiter.start()
            _wait_until(lambda: service.stats.cache_misses == 2, "the waiter to wait")
            service.gate.set()
            lead.join(timeout=60)
            waiter.join(timeout=60)
        assert not lead.is_alive() and not waiter.is_alive()
        assert replies["lead"][0] == 500
        assert "greedy step failed" in replies["lead"][1]["error"]
        assert replies["waiter"][0] == 200
        got = replies["waiter"][1]["results"][0]
        assert tuple(got["sites"]) == expected.sites
        assert got["per_trajectory_utility"] == list(expected.per_trajectory_utility)
        assert service.stats.greedy_runs == 1
        assert service.stats.coalesced_specs == 0
        assert not service._slots


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
