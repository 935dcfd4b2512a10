"""The placement service: a persistent, queryable façade over a NetClus index.

:class:`PlacementService` owns one :class:`~repro.core.netclus.NetClusIndex`
— loaded from disk, passed in, or lazily built on first use — and answers
batches of :class:`~repro.service.specs.QuerySpec` with four layers of
shared work:

1. **Coverage sharing** — specs with the same ``(τ, ψ)`` resolve the index
   instance and build the clustered-space coverage
   (:meth:`NetClusIndex.prepare_coverage`) at most once per batch, and only
   when one of them needs a greedy step.
2. **Shared greedy orders** — specs that differ only in ``k`` share one
   greedy run at the largest k: a greedy selection for k is a prefix of
   the selection for any larger k, so a smaller k is replayed from the
   run (:meth:`~repro.core.greedy.GreedyRun.prefix_utilities`).
3. **Order cache** — the run of each ``(selection key, index version)`` is
   kept, LRU-bounded, so a later batch answers any k the stored order
   covers without a greedy step or any coverage work, and a larger k
   resumes the stored Algorithm 1 state (:meth:`IncGreedy.resuming`)
   instead of restarting.  Capacitated (CELF) runs restart at the larger k
   and budgeted runs ignore k; both are stored the same way.  Keys carry
   the index's :attr:`~NetClusIndex.version`, and the cache drops itself
   when the index has been mutated through dynamic updates
   (``service.index.add_site(...)``, :meth:`~NetClusIndex.apply_updates`,
   ...), so a served selection can never be stale.
4. **Single flight** — a batch whose lead k the stored order does not
   cover claims the key's in-flight slot before its greedy step, and a
   concurrent batch on the same key waits for that step instead of
   repeating it: it answers from the published order when that covers its
   k, and otherwise claims the slot and resumes the order.  The claimant
   is the key's only writer, so a published order only ever grows.

``stats`` counts every resolution/build/run, every cache hit and miss at
a batch's first look, and every miss answered by joining another batch's
greedy step (``coalesced_specs``), and accumulates per-stage query timings
(coverage build / greedy run / prefix replay seconds), which is both the
service's observability surface and how the batch-amortisation contract
is asserted in the test suite.

The service is **safe for concurrent callers**: ``batch_query`` runs under
a shared readers-writer lock (many batches in parallel), dynamic updates
go through :meth:`PlacementService.apply_updates` which takes the lock
exclusively — so a reader always observes either the pre- or the
post-update index, never a half-applied batch — and the order cache, its
in-flight slots and the counters are mutex-guarded.  A batch holds at most
one slot and waits on another's only while it holds none, so waits cannot
form a cycle.  Cached runs are never mutated: a resume works on copies and
publishes a new, longer run.  The lazy index build
runs at most once no matter how many threads race the first query.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.core.covcache import CoverageCache
from repro.core.greedy import GreedyRun, IncGreedy
from repro.core.netclus import ClusteredCoverage, NetClusIndex, UpdateBatch
from repro.core.preference import is_registered
from repro.core.query import TOPSQuery, TOPSResult, utility_tuple
from repro.core.variants import solve_tops_cost
from repro.network.graph import RoadNetwork
from repro.service.serialization import load_index, save_index
from repro.service.specs import QuerySpec
from repro.trajectory.model import TrajectoryDataset
from repro.utils.concurrency import guarded_by
from repro.utils.timer import KernelTimer, Timer
from repro.utils.validation import require

__all__ = ["PlacementService", "ServiceStats"]


def _require_auto(engine: str) -> None:
    """Refuse any coverage-engine request but ``"auto"``.

    ψ picks the clustered coverage structure; ``engine="auto"`` is still
    accepted because existing callers pass it.
    """
    require(
        engine == "auto",
        f"engine={engine!r} is not supported: the clustered coverage "
        'structure follows ψ; pass engine="auto" or leave it out',
    )


@guarded_by("_condition", "_active_readers", "_writer_active", "_writers_waiting")
class _ReadWriteLock:
    """A writer-preferring readers-writer lock.

    Any number of readers may hold the lock together; a writer holds it
    exclusively.  Arriving writers block new readers (no writer
    starvation), which matches the service's profile — many concurrent
    ``batch_query`` readers, occasional ``apply_updates`` writers.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """Hold the lock as one of possibly many concurrent readers."""
        with self._condition:
            while self._writer_active or self._writers_waiting:
                self._condition.wait()
            self._active_readers += 1
        try:
            yield
        finally:
            with self._condition:
                self._active_readers -= 1
                if self._active_readers == 0:
                    self._condition.notify_all()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        """Hold the lock exclusively (no readers, no other writer)."""
        with self._condition:
            self._writers_waiting += 1
            while self._writer_active or self._active_readers:
                self._condition.wait()
            self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._condition:
                self._writer_active = False
                self._condition.notify_all()


@guarded_by(
    "_lock",
    "queries_served",
    "cache_hits",
    "cache_misses",
    "coalesced_specs",
    "instance_resolutions",
    "coverage_builds",
    "coverage_cache_hits",
    "coverage_cache_misses",
    "greedy_runs",
    "index_builds",
    "coverage_build_seconds",
    "coverage_materialise_seconds",
    "greedy_seconds",
    "replay_seconds",
)
@dataclass
class ServiceStats:
    """Work counters of a :class:`PlacementService` (monotonic until reset).

    Increments go through :meth:`bump`, which serialises concurrent
    counting — the counters stay exact under parallel ``batch_query``
    callers.  Besides the integer work counters, the stats accumulate the
    per-stage query timings of every batch: seconds spent building
    coverages (instance resolution + estimate materialisation), running
    greedy selections, and replaying shared-run prefixes for smaller-k
    members.
    """

    queries_served: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: misses answered from an order another batch published while this
    #: batch waited on the key's in-flight slot (no greedy step of its own)
    coalesced_specs: int = 0
    instance_resolutions: int = 0
    coverage_builds: int = 0
    #: coverage groups served warm from the index's coverage cache (zero
    #: coverage-build work) / groups that had to build because no current
    #: part existed — both stay 0 when no cache is enabled
    coverage_cache_hits: int = 0
    coverage_cache_misses: int = 0
    greedy_runs: int = 0
    index_builds: int = 0
    #: per-stage query timings (seconds, accumulated across batches)
    coverage_build_seconds: float = 0.0
    #: time spent materialising warm cache views (never coverage builds)
    coverage_materialise_seconds: float = 0.0
    greedy_seconds: float = 0.0
    replay_seconds: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    #: per-kernel profiler the service attaches to every prepared coverage;
    #: self-locking, so it is not guarded by ``_lock``
    _kernels: KernelTimer = field(
        default_factory=KernelTimer, repr=False, compare=False
    )

    @property
    def kernel_timer(self) -> KernelTimer:
        """The per-kernel profiler (attach it to a coverage index)."""
        return self._kernels

    def kernel_snapshot(self) -> dict[str, tuple[int, float]]:
        """``{kernel: (calls, seconds)}`` recorded by the ``@kernel`` wrapper."""
        return self._kernels.snapshot()

    def bump(self, **counts: int | float) -> None:
        """Atomically add the given amounts to the named counters."""
        with self._lock:
            for name, amount in counts.items():
                setattr(self, name, getattr(self, name) + amount)

    def as_dict(self) -> dict[str, int | float]:
        """The counters as one consistent plain dict (reporting/CLI/metrics).

        Taken under the counter lock, so a concurrent :meth:`bump` can
        never produce a torn snapshot — this is what the HTTP server's
        ``/metrics`` endpoint renders while query threads are counting.
        """
        with self._lock:
            return {
                "queries_served": self.queries_served,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "coalesced_specs": self.coalesced_specs,
                "instance_resolutions": self.instance_resolutions,
                "coverage_builds": self.coverage_builds,
                "coverage_cache_hits": self.coverage_cache_hits,
                "coverage_cache_misses": self.coverage_cache_misses,
                "greedy_runs": self.greedy_runs,
                "index_builds": self.index_builds,
                "coverage_build_seconds": self.coverage_build_seconds,
                "coverage_materialise_seconds": self.coverage_materialise_seconds,
                "greedy_seconds": self.greedy_seconds,
                "replay_seconds": self.replay_seconds,
            }

    def stage_seconds(self) -> dict[str, float]:
        """The per-stage query timings, plus per-kernel seconds.

        Kernel entries appear as ``kernel_<name>_seconds`` (e.g.
        ``kernel_marginal_gains_seconds``) once the ``@kernel`` wrapper has
        recorded at least one call for that kernel.
        """
        kernel_seconds = self._kernels.seconds()
        with self._lock:
            stages = {
                "coverage_build_seconds": self.coverage_build_seconds,
                "coverage_materialise_seconds": self.coverage_materialise_seconds,
                "greedy_seconds": self.greedy_seconds,
                "replay_seconds": self.replay_seconds,
            }
        for name, seconds in kernel_seconds.items():
            stages[f"kernel_{name}_seconds"] = seconds
        return stages

    def reset(self) -> None:
        """Zero every counter, atomically with respect to :meth:`bump`."""
        with self._lock:
            self.queries_served = 0
            self.cache_hits = 0
            self.cache_misses = 0
            self.coalesced_specs = 0
            self.instance_resolutions = 0
            self.coverage_builds = 0
            self.coverage_cache_hits = 0
            self.coverage_cache_misses = 0
            self.greedy_runs = 0
            self.index_builds = 0
            self.coverage_build_seconds = 0.0
            self.coverage_materialise_seconds = 0.0
            self.greedy_seconds = 0.0
            self.replay_seconds = 0.0
        self._kernels.reset()


@dataclass
class _PreparedGroup:
    """One coverage group of a batch: the shared structures and their cost."""

    prepared: ClusteredCoverage
    build_seconds: float


@dataclass(frozen=True)
class _Order:
    """One order-cache entry: a greedy run and what answering from it needs.

    ``labels`` are the node ids of the run's columns and ``instance`` the
    metadata of the index instance it was selected on, so the entry answers
    every k it covers without the coverage it was selected on.
    """

    run: GreedyRun
    labels: tuple[int, ...]
    instance: dict[str, Any]


#: what the order cache stores per key: a greedy order, or the answer of a
#: budgeted run (its k is ignored, so it covers every k)
_Entry = _Order | TOPSResult


def _covers(entry: _Entry | None, k: int) -> bool:
    """Whether *entry* answers *k* without a greedy step."""
    if isinstance(entry, _Order):
        return k <= entry.run.reach
    return entry is not None


@guarded_by("_cache_lock", "_cache", "_cache_version", "_slots")
class PlacementService:
    """A persistent placement service over one city's NetClus index.

    Parameters
    ----------
    index:
        A ready :class:`NetClusIndex` (e.g. from
        :func:`~repro.service.serialization.load_index`).
    builder:
        Alternative to *index*: a zero-argument callable building the index
        on first use (lazy construction; see :meth:`from_problem`).
    engine:
        Accepted for existing callers and only as ``"auto"``: the
        clustered coverage is a bitset index for a binary ψ and a sparse
        index otherwise (see
        :func:`~repro.core.covcache.materialise_coverage`); any other value
        raises ``ValueError``.
    cache_size:
        How many greedy orders the LRU order cache keeps, one per
        selection key (everything in a spec but ``k``) at the current index
        version; 0 disables caching.
    coverage_cache, coverage_cache_limit:
        Coverage-cache policy: ``True`` enables the index's persistent
        :class:`~repro.core.covcache.CoverageCache` (zero-rebuild
        steady-state queries), ``False`` detaches it, ``None`` (default)
        keeps whatever the index already has — e.g. parts loaded from an
        index directory.  A limit resizes the cache the policy leaves in
        place (:meth:`~repro.core.covcache.CoverageCache.resize`).

    Examples
    --------
    >>> service = PlacementService.from_problem(problem, tau_max_km=4.0)
    >>> service.save("beijing.ncx")                        # doctest: +SKIP
    >>> service = PlacementService.from_path("beijing.ncx")  # doctest: +SKIP
    >>> results = service.batch_query([
    ...     QuerySpec(k=5, tau_km=1.0),
    ...     QuerySpec(k=10, tau_km=1.0),     # shares the k=10 greedy run
    ...     QuerySpec(k=5, tau_km=2.0, capacity=40),
    ... ])
    """

    def __init__(
        self,
        index: NetClusIndex | None = None,
        *,
        builder: Callable[[], NetClusIndex] | None = None,
        engine: str = "auto",
        cache_size: int = 128,
        coverage_cache: bool | None = None,
        coverage_cache_limit: int | None = None,
    ) -> None:
        require(
            (index is not None) or (builder is not None),
            "PlacementService needs an index or a builder",
        )
        _require_auto(engine)
        require(cache_size >= 0, "cache_size must be non-negative")
        if coverage_cache_limit is not None:
            require(int(coverage_cache_limit) >= 1, "coverage cache limit must be >= 1")
        self._index = index
        self._builder = builder
        self.cache_size = cache_size
        self._coverage_cache_opt = coverage_cache
        self._coverage_cache_limit = coverage_cache_limit
        if index is not None:
            self._apply_coverage_cache_policy(index)
        self._cache: OrderedDict[tuple, _Entry] = OrderedDict()
        self._cache_version: int | None = None
        #: in-flight slots: the event of the batch running a greedy step
        #: for a cache key, set when it releases the key
        self._slots: dict[tuple, threading.Event] = {}
        self.stats = ServiceStats()
        # concurrency: readers (batch_query) share the index lock, writers
        # (apply_updates) take it exclusively; the cache and its slots
        # have their own mutex (reads mutate too — LRU recency), and the
        # lazy index build runs at most once behind its own lock.  Saves share the index
        # read lock with queries: a save commits with one manifest rename,
        # so concurrent saves need nothing more.
        self._index_lock = _ReadWriteLock()
        self._cache_lock = threading.RLock()
        self._build_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # construction / persistence
    # ------------------------------------------------------------------ #
    @classmethod
    def from_problem(
        cls,
        problem: Any,
        *,
        cache_size: int = 128,
        coverage_cache: bool | None = None,
        coverage_cache_limit: int | None = None,
        **build_kwargs: Any,
    ) -> "PlacementService":
        """A service that lazily builds its index from a ``TOPSProblem``.

        *build_kwargs* are forwarded to
        :meth:`~repro.core.problem.TOPSProblem.build_netclus_index` (γ,
        τ range, ...); the offline phase runs on the first query or
        :meth:`save`, not at construction.
        """
        return cls(
            builder=lambda: problem.build_netclus_index(**build_kwargs),
            cache_size=cache_size,
            coverage_cache=coverage_cache,
            coverage_cache_limit=coverage_cache_limit,
        )

    @classmethod
    def from_path(
        cls,
        path: str | Path,
        network: RoadNetwork | None = None,
        dataset: TrajectoryDataset | None = None,
        *,
        engine: str = "auto",
        cache_size: int = 128,
        coverage_cache: bool | None = None,
        coverage_cache_limit: int | None = None,
    ) -> "PlacementService":
        """A service over a persisted index directory (see ``save``).

        Fingerprints are verified on load; a *network*/*dataset* that does
        not match what the index was built on is refused.  A directory
        with coverage parts cold-starts warm: the parts are attached on
        load (``coverage_cache=None`` keeps them; ``False`` drops them;
        ``True`` additionally enables the cache even when the directory
        carried no parts).  *engine* accepts only ``"auto"``, as in the
        constructor.
        """
        _require_auto(engine)
        return cls(
            index=load_index(
                path,
                network=network,
                dataset=dataset,
                with_coverage=coverage_cache is not False,
            ),
            cache_size=cache_size,
            coverage_cache=coverage_cache,
            coverage_cache_limit=coverage_cache_limit,
        )

    @property
    def index(self) -> NetClusIndex:
        """The underlying NetClus index (building it now if lazy).

        The lazy build is serialised: concurrent first-time callers block
        until one of them has built the index, which every caller then
        shares (``stats.index_builds`` stays 1).
        """
        if self._index is None:
            with self._build_lock:
                if self._index is None:
                    built = self._builder()
                    self._apply_coverage_cache_policy(built)
                    self._index = built
                    self.stats.bump(index_builds=1)
        return self._index

    def _apply_coverage_cache_policy(self, index: NetClusIndex) -> None:
        """Enable/detach the index's coverage cache per the service knob."""
        if self._coverage_cache_opt is True:
            index.enable_coverage_cache(limit=self._coverage_cache_limit)
        elif self._coverage_cache_opt is False:
            index.coverage_cache = None
        elif self._coverage_cache_limit is not None and index.coverage_cache is not None:
            index.coverage_cache.resize(self._coverage_cache_limit)

    @property
    def coverage_cache(self) -> CoverageCache | None:
        """The index's coverage cache, or ``None`` (no lazy index build)."""
        return getattr(self._index, "coverage_cache", None)

    @property
    def index_version(self) -> int | None:
        """Version of the owned index without forcing the lazy build.

        ``None`` while a lazily-constructed service has not built its
        index yet; the HTTP server reports this as version ``-1`` on
        ``/healthz`` and ``/metrics`` rather than triggering a build
        from an observability probe.
        """
        return None if self._index is None else int(self._index.version)

    def save(self, path: str | Path, dataset: TrajectoryDataset | None = None) -> Path:
        """Persist the index to *path* (a directory); returns the path.

        Pass the *dataset* the index was built on to additionally record a
        trajectory-content fingerprint in the manifest (see
        :func:`~repro.service.serialization.save_index`).  Takes the index
        read lock, so a save never captures a mid-update index (queries
        are not blocked by a save).
        """
        index = self.index
        with self._index_lock.read_locked():
            return save_index(index, path, dataset=dataset)

    # ------------------------------------------------------------------ #
    # dynamic updates
    # ------------------------------------------------------------------ #
    def apply_updates(self, batch: UpdateBatch) -> int:
        """Apply an :class:`~repro.core.netclus.UpdateBatch` to the index.

        The concurrency-safe mutation surface of the service: the batch is
        applied under the exclusive index lock, so in-flight
        ``batch_query`` calls finish against the pre-update index and
        every call starting afterwards sees the fully updated one —
        readers can never observe a half-applied batch.  When the batch
        moved the index version, the order cache is dropped in the same
        critical section; an empty batch keeps it.  Returns the number of
        update items applied.

        Mutating through ``service.index.apply_updates(...)`` directly
        remains *correct* for the cache (it is version-stamped) but
        bypasses the locking — concurrent readers may then race the
        mutation.  Multi-threaded deployments should mutate only through
        this method.
        """
        index = self.index
        with self._index_lock.write_locked():
            version_before = index.version
            applied = index.apply_updates(batch)
            if index.version != version_before:
                with self._cache_lock:
                    self._cache.clear()
                    self._cache_version = index.version
        return applied

    def _sync_cache_version(self) -> None:
        """Drop the cache if the index was mutated since it was populated."""
        if self._index is None:
            return
        with self._cache_lock:
            if self._cache and self._cache_version != self._index.version:
                self._cache.clear()
            self._cache_version = self._index.version

    @property
    def cache_len(self) -> int:
        """Number of greedy orders (and budgeted answers) currently cached."""
        with self._cache_lock:
            return len(self._cache)

    # ------------------------------------------------------------------ #
    # querying
    # ------------------------------------------------------------------ #
    def query(
        self, spec: QuerySpec | TOPSQuery, use_cache: bool = True
    ) -> TOPSResult:
        """Answer a single spec (see :meth:`batch_query`)."""
        return self.batch_query([spec], use_cache=use_cache)[0]

    def batch_query(
        self,
        specs: Sequence[QuerySpec | TOPSQuery],
        use_cache: bool = True,
    ) -> list[TOPSResult]:
        """Answer a batch of specs, amortising shared work across them.

        Results are returned in input order and are identical — site
        selections, utilities, per-trajectory utilities — to answering each
        spec individually against a freshly prepared coverage (the batch
        only removes repeated work, never changes the computation).

        With ``use_cache=False`` the order cache is neither consulted nor
        populated (timing studies); batch-level sharing still applies.
        Neither it nor ``cache_size=0`` claims or waits on a key's
        in-flight slot.

        A :class:`TOPSQuery` whose preference is a custom (unregistered)
        :class:`~repro.core.preference.PreferenceFunction` subclass —
        including a subclass of a registered class — cannot be expressed
        as a serialisable spec; it is answered directly via ``index.query``
        with the original ψ object: correct, but outside the cache and the
        batch amortisation.

        ``batch_query`` is safe to call from many threads at once: the
        whole batch is served under the shared index read lock, so every
        member sees one consistent index-version snapshot — a concurrent
        :meth:`apply_updates` waits for in-flight batches and is observed
        only by batches starting after it, never mid-batch.
        """
        self.stats.bump(queries_served=len(specs))
        index = self.index  # resolve the lazy build outside the read lock
        with self._index_lock.read_locked():
            self._sync_cache_version()
            results: list[TOPSResult | None] = [None] * len(specs)
            resolved: list[QuerySpec | None] = [None] * len(specs)
            for position, spec in enumerate(specs):
                if isinstance(spec, TOPSQuery) and not is_registered(spec.preference):
                    # unregistered ψ: answer outside the spec machinery,
                    # but with the same per-stage timing accounting as
                    # spec queries
                    with Timer() as build_timer:
                        prepared = index.prepare_coverage(spec.tau_km, spec.preference)
                    prepared.coverage.attach_kernel_timer(self.stats.kernel_timer)
                    with Timer() as run_timer:
                        results[position] = index.query(spec, prepared=prepared)
                    self.stats.bump(
                        instance_resolutions=1,
                        coverage_builds=1,
                        greedy_runs=1,
                        coverage_build_seconds=build_timer.elapsed,
                        greedy_seconds=run_timer.elapsed,
                    )
                else:
                    resolved[position] = self._coerce(spec)

            runs: dict[tuple, list[tuple[int, QuerySpec]]] = {}
            for position, member in enumerate(resolved):
                if member is not None:
                    runs.setdefault(member.selection_key, []).append((position, member))
            caching = use_cache and self.cache_size > 0
            groups: dict[tuple, _PreparedGroup] = {}
            instances: dict[float, object] = {}
            for selection_key, members in runs.items():
                # under the read lock the version cannot move, so the key
                # and the run stored under it always agree
                cache_key = (selection_key, index.version)
                lead = max((member for _, member in members), key=lambda m: m.k)
                if caching:
                    entry = self._claim(cache_key, members)
                else:
                    entry = None
                    if use_cache:
                        self.stats.bump(cache_misses=len(members))
                build_seconds = run_seconds = 0.0
                if not _covers(entry, lead.k):
                    # with caching on, this batch now holds the key's slot
                    try:
                        group = self._group_for(lead, groups, instances)
                        build_seconds = group.build_seconds
                        with Timer() as run_timer:
                            entry = self._select(lead, group, entry)
                        run_seconds = run_timer.elapsed
                        self.stats.bump(greedy_runs=1, greedy_seconds=run_seconds)
                        if caching:
                            self._cache_store(cache_key, entry)
                    finally:
                        if caching:
                            self._release(cache_key)
                with Timer() as replay_timer:
                    for position, member in members:
                        results[position] = self._answer(
                            member, entry, build_seconds, run_seconds
                        )
                self.stats.bump(replay_seconds=replay_timer.elapsed)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _coerce(spec: QuerySpec | TOPSQuery) -> QuerySpec:
        if isinstance(spec, TOPSQuery):
            return QuerySpec.from_query(spec)
        require(isinstance(spec, QuerySpec), f"not a QuerySpec: {spec!r}")
        return spec

    def _group_for(
        self,
        spec: QuerySpec,
        groups: dict[tuple, _PreparedGroup],
        instances: dict[float, object],
    ) -> _PreparedGroup:
        """The batch's shared coverage for *spec*'s (τ, ψ), prepared once.

        The index instance is resolved once per distinct τ and reused by
        every coverage group at that τ (``prepare_coverage(instance=...)``),
        so the ``instance_resolutions`` counter reports exactly the work
        performed.
        """
        key = spec.coverage_key
        if key in groups:
            return groups[key]
        index = self.index
        preference = spec.preference_fn()
        cache = index.coverage_cache
        if cache is not None and cache.peek(index, spec.tau_km, preference):
            # warm part at the current index version: no instance
            # resolution, no coverage build — at most a view
            # materialisation over the canonical entries
            with Timer() as timer:
                prepared = index.prepare_coverage(spec.tau_km, preference)
            prepared.coverage.attach_kernel_timer(self.stats.kernel_timer)
            self.stats.bump(coverage_cache_hits=1, coverage_materialise_seconds=timer.elapsed)
            groups[key] = _PreparedGroup(prepared=prepared, build_seconds=0.0)
            return groups[key]
        if cache is not None:
            self.stats.bump(coverage_cache_misses=1)
        if spec.tau_km not in instances:
            instances[spec.tau_km] = index.instance_for(spec.tau_km)
            self.stats.bump(instance_resolutions=1)
        with Timer() as timer:
            prepared = index.prepare_coverage(
                spec.tau_km, preference, instance=instances[spec.tau_km]
            )
        prepared.coverage.attach_kernel_timer(self.stats.kernel_timer)
        self.stats.bump(coverage_builds=1, coverage_build_seconds=timer.elapsed)
        groups[key] = _PreparedGroup(prepared=prepared, build_seconds=timer.elapsed)
        return groups[key]

    def _select(self, lead: QuerySpec, group: _PreparedGroup, entry: _Entry | None) -> _Entry:
        """One greedy step for *lead*: resume *entry*'s run, or run afresh.

        Only an uncapacitated run resumes; a capacitated (CELF) run restarts
        at the larger k, and a budgeted spec runs its own greedy.  The
        resumed solver works on copies, so *entry* stays as published.
        """
        if lead.budget is not None:
            return self._run_budgeted(lead, group)
        prepared = group.prepared
        coverage = prepared.coverage
        existing_columns = (
            prepared.existing_columns(lead.existing_sites) if lead.existing_sites else []
        )
        capacities = (
            None
            if lead.capacity is None
            else np.full(coverage.num_sites, int(lead.capacity), dtype=np.int64)
        )
        if isinstance(entry, _Order) and entry.run.marginal is not None:
            solver = IncGreedy.resuming(coverage, entry.run)
        else:
            solver = IncGreedy(coverage)
        solver.select(lead.k, existing_columns=existing_columns, capacities=capacities)
        run = solver.run
        assert run is not None
        return _Order(
            run=run,
            labels=tuple(int(coverage.site_labels[c]) for c in run.columns),
            instance=self._instance_metadata(prepared),
        )

    def _run_budgeted(self, spec: QuerySpec, group: _PreparedGroup) -> TOPSResult:
        """TOPS-COST: the budgeted greedy with uniform per-site costs."""
        coverage = group.prepared.coverage
        costs = np.full(coverage.num_sites, float(spec.site_cost))
        result = solve_tops_cost(coverage, spec.budget, costs)
        metadata = dict(result.metadata)
        metadata.update(self._instance_metadata(group.prepared))
        metadata["coverage_build_seconds"] = group.build_seconds
        return TOPSResult(
            sites=result.sites,
            utility=result.utility,
            per_trajectory_utility=result.per_trajectory_utility,
            elapsed_seconds=result.elapsed_seconds + group.build_seconds,
            algorithm=result.algorithm,
            metadata=metadata,
        )

    @staticmethod
    def _answer(
        spec: QuerySpec, entry: _Entry, build_seconds: float, run_seconds: float
    ) -> TOPSResult:
        """*spec*'s answer: the prefix of *entry*'s order that its k selects."""
        if isinstance(entry, TOPSResult):
            return entry
        run = entry.run
        k = min(spec.k, len(run.columns))
        utilities = run.utilities if k == len(run.columns) else run.prefix_utilities(k)
        metadata: dict[str, Any] = dict(entry.instance)
        metadata["coverage_build_seconds"] = build_seconds
        metadata["greedy_run_seconds"] = run_seconds
        metadata["marginal_gains"] = [float(g) for g in run.gains[:k]]
        if spec.capacity is not None:
            metadata["capacity"] = spec.capacity
        if spec.existing_sites:
            metadata["existing_sites"] = list(spec.existing_sites)
        return TOPSResult(
            sites=entry.labels[:k],
            utility=float(np.sum(utilities)),
            per_trajectory_utility=utility_tuple(utilities),
            elapsed_seconds=run_seconds + build_seconds,
            algorithm=NetClusIndex.algorithm_name,
            metadata=metadata,
        )

    @staticmethod
    def _instance_metadata(prepared: ClusteredCoverage) -> dict[str, Any]:
        instance = prepared.instance
        return {
            "instance_id": instance.instance_id,
            "instance_radius_km": instance.radius_km,
            "num_clusters": instance.num_clusters,
            "num_representatives": len(prepared.representative_sites),
        }

    def _claim(self, key: tuple, members: list[tuple[int, QuerySpec]]) -> _Entry | None:
        """*key*'s cached entry, once it covers *members* or with *key* claimed.

        Returns an entry covering every member, or the entry to resume
        (``None`` for none) with this batch holding *key*'s in-flight slot:
        the caller then runs the greedy step, publishes it and releases the
        slot (:meth:`_release`).  While another batch holds the slot, this
        one waits for its release and reads again.  The first read counts
        the members' hits and misses; after a wait, members a published
        order covers count as coalesced.
        """
        first_hits: int | None = None
        while True:
            with self._cache_lock:
                entry = self._cache.get(key)
                if entry is not None:
                    self._cache.move_to_end(key)
                hits = sum(_covers(entry, member.k) for _, member in members)
                slot = None if hits == len(members) else self._slots.get(key)
                if slot is None and hits < len(members):
                    self._slots[key] = threading.Event()
            if first_hits is None:
                first_hits = hits
                self.stats.bump(cache_hits=hits, cache_misses=len(members) - hits)
            elif slot is None:
                self.stats.bump(coalesced_specs=hits - first_hits)
            if slot is None:
                return entry
            slot.wait()

    def _release(self, key: tuple) -> None:
        """Give up *key*'s slot and wake the batches waiting on it."""
        with self._cache_lock:
            self._slots.pop(key).set()

    def _cache_store(self, key: tuple, entry: _Entry) -> None:
        """Publish *entry*: its batch holds *key*'s slot, the key's only writer."""
        with self._cache_lock:
            self._cache[key] = entry
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
