"""The placement service: a persistent, queryable façade over a NetClus index.

:class:`PlacementService` owns one :class:`~repro.core.netclus.NetClusIndex`
— loaded from disk, passed in, or lazily built on first use — and answers
batches of :class:`~repro.service.specs.QuerySpec` with three layers of
shared work:

1. **Coverage sharing** — specs with the same ``(τ, ψ)`` resolve the index
   instance and build the clustered-space coverage
   (:meth:`NetClusIndex.prepare_coverage`) exactly once per batch.
2. **Warm-started greedy** — specs that differ only in ``k`` share a single
   greedy run at the largest k: a greedy selection for k is a prefix of the
   selection for any larger k, so smaller-k answers are replayed from the
   shared selection order (``utilities_for_selection``).
3. **LRU result cache** — results are cached keyed on the (hashable) spec,
   so repeated queries — the common case for a served index — are O(1).
   The cache is stamped with the index's :attr:`~NetClusIndex.version` and
   drops itself automatically when the index has been mutated through
   dynamic updates (``service.index.add_site(...)``,
   :meth:`~NetClusIndex.apply_updates`, ...), so a served selection can
   never be stale.

``stats`` counts every resolution/build/run and every cache hit, and
accumulates per-stage query timings (coverage build / greedy run / prefix
replay seconds), which is both the service's observability surface and how
the batch-amortisation contract is asserted in the test suite.

The service is **safe for concurrent callers**: ``batch_query`` runs under
a shared readers-writer lock (many batches in parallel), dynamic updates
go through :meth:`PlacementService.apply_updates` which takes the lock
exclusively — so a reader always observes either the pre- or the
post-update index, never a half-applied batch — and the LRU cache and
counters are mutex-guarded.  The lazy index build runs at most once no
matter how many threads race the first query.
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
from repro.core.greedy import IncGreedy
from repro.core.netclus import ClusteredCoverage, NetClusIndex, UpdateBatch
from repro.core.preference import is_registered
from repro.core.query import TOPSQuery, TOPSResult
from repro.core.variants import solve_tops_cost
from repro.network.graph import RoadNetwork
from repro.service.serialization import load_index, save_index
from repro.service.specs import QuerySpec
from repro.trajectory.model import TrajectoryDataset
from repro.utils.concurrency import guarded_by, holds_lock
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
    """One coverage group of a batch: shared structures + member spec indices."""

    prepared: ClusteredCoverage
    build_seconds: float
    members: list[int] = field(default_factory=list)


@guarded_by("_cache_lock", "_cache", "_cache_version")
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
        Capacity of the LRU result cache (0 disables caching).
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
        self._cache: OrderedDict[QuerySpec, TOPSResult] = OrderedDict()
        self._cache_version: int | None = None
        self.stats = ServiceStats()
        # concurrency: readers (batch_query) share the index lock, writers
        # (apply_updates) take it exclusively; the cache has its own mutex
        # (it mutates on reads too — LRU recency), and the lazy index build
        # runs at most once behind its own lock.  Saves share the index
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
        readers can never observe a half-applied batch.  The result cache
        is dropped in the same critical section.  Returns the number of
        update items applied.

        Mutating through ``service.index.apply_updates(...)`` directly
        remains *correct* for the cache (it is version-stamped) but
        bypasses the locking — concurrent readers may then race the
        mutation.  Multi-threaded deployments should mutate only through
        this method.
        """
        index = self.index
        with self._index_lock.write_locked():
            applied = index.apply_updates(batch)
            with self._cache_lock:
                self._cache.clear()
                self._cache_version = index.version
        return applied

    def invalidate_cache(self) -> None:
        """Drop every cached result (manual override).

        Calling this is no longer required after dynamic updates: the cache
        is stamped with :attr:`NetClusIndex.version` and invalidates itself
        as soon as a query observes a mutated index.  The method remains
        for callers that want to force a drop (e.g. to free memory).
        """
        with self._cache_lock:
            self._cache.clear()

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
        """Number of results currently cached."""
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

        With ``use_cache=False`` the LRU cache is neither consulted nor
        populated (timing studies); batch-level sharing still applies.

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

            pending: list[int] = []
            with self._cache_lock:
                for position, spec in enumerate(resolved):
                    if spec is None:
                        continue
                    if use_cache and spec in self._cache:
                        self._cache.move_to_end(spec)
                        self.stats.bump(cache_hits=1)
                        results[position] = self._cache[spec]
                    else:
                        if use_cache:
                            self.stats.bump(cache_misses=1)
                        pending.append(position)

            groups = self._prepare_groups(resolved, pending)
            for group in groups.values():
                self._answer_group(resolved, group, results)

            if use_cache and self.cache_size > 0:
                # stamp the entries stored below with the version they were
                # computed at; under the read lock the version cannot move,
                # so the stamp and the computed results always agree
                self._sync_cache_version()
                with self._cache_lock:
                    for position in pending:
                        self._cache_store(resolved[position], results[position])
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

    def _prepare_groups(
        self, resolved: list[QuerySpec | None], pending: list[int]
    ) -> dict[tuple, _PreparedGroup]:
        """Build the shared coverage structures, one per (τ, ψ) group.

        The index instance is resolved once per distinct τ and reused by
        every coverage group at that τ (``prepare_coverage(instance=...)``),
        so the ``instance_resolutions`` counter reports exactly the work
        performed.
        """
        groups: dict[tuple, _PreparedGroup] = {}
        instances: dict[float, object] = {}
        cache = getattr(self.index, "coverage_cache", None)
        for position in pending:
            spec = resolved[position]
            key = spec.coverage_key
            if key not in groups:
                preference = spec.preference_fn()
                if cache is not None and cache.peek(self.index, spec.tau_km, preference):
                    # warm part at the current index version: no instance
                    # resolution, no coverage build — at most a view
                    # materialisation over the canonical entries
                    with Timer() as timer:
                        prepared = self.index.prepare_coverage(spec.tau_km, preference)
                    prepared.coverage.attach_kernel_timer(self.stats.kernel_timer)
                    self.stats.bump(
                        coverage_cache_hits=1,
                        coverage_materialise_seconds=timer.elapsed,
                    )
                    groups[key] = _PreparedGroup(prepared=prepared, build_seconds=0.0)
                    groups[key].members.append(position)
                    continue
                if cache is not None:
                    self.stats.bump(coverage_cache_misses=1)
                if spec.tau_km not in instances:
                    instances[spec.tau_km] = self.index.instance_for(spec.tau_km)
                    self.stats.bump(instance_resolutions=1)
                with Timer() as timer:
                    prepared = self.index.prepare_coverage(
                        spec.tau_km,
                        preference,
                        instance=instances[spec.tau_km],
                    )
                prepared.coverage.attach_kernel_timer(self.stats.kernel_timer)
                self.stats.bump(
                    coverage_builds=1, coverage_build_seconds=timer.elapsed
                )
                groups[key] = _PreparedGroup(prepared=prepared, build_seconds=timer.elapsed)
            groups[key].members.append(position)
        return groups

    def _answer_group(
        self,
        resolved: list[QuerySpec | None],
        group: _PreparedGroup,
        results: list[TOPSResult | None],
    ) -> None:
        """Answer every member of one coverage group."""
        # subgroup by selection key: members differing only in k share a run
        runs: dict[tuple, list[int]] = {}
        for position in group.members:
            runs.setdefault(resolved[position].selection_key, []).append(position)
        for positions in runs.values():
            spec = resolved[positions[0]]
            if spec.budget is not None:
                # members of one budget run group differ at most in the
                # (ignored) k, so a single budgeted greedy answers them all
                shared = self._run_budgeted(spec, group)
                for position in positions:
                    results[position] = shared
            else:
                self._run_shared_greedy(resolved, positions, group, results)

    def _run_shared_greedy(
        self,
        resolved: list[QuerySpec | None],
        positions: list[int],
        group: _PreparedGroup,
        results: list[TOPSResult | None],
    ) -> None:
        """One greedy run at the largest k answers every member spec."""
        prepared = group.prepared
        coverage = prepared.coverage
        lead = resolved[max(positions, key=lambda p: resolved[p].k)]
        existing_columns = (
            prepared.existing_columns(lead.existing_sites) if lead.existing_sites else []
        )
        capacities = (
            None
            if lead.capacity is None
            else np.full(coverage.num_sites, int(lead.capacity), dtype=np.int64)
        )
        with Timer() as run_timer:
            columns, utilities, gains = IncGreedy(coverage).select(
                lead.k, existing_columns=existing_columns, capacities=capacities
            )
        self.stats.bump(greedy_runs=1, greedy_seconds=run_timer.elapsed)
        with Timer() as replay_timer:
            for position in positions:
                spec = resolved[position]
                prefix = columns[: spec.k]
                if len(prefix) == len(columns):
                    spec_utilities = utilities
                else:
                    spec_utilities = coverage.utilities_for_selection(
                        prefix, capacity=spec.capacity, seed_columns=existing_columns
                    )
                results[position] = self._wrap_result(
                    spec,
                    group,
                    prefix,
                    spec_utilities,
                    gains[: spec.k],
                    run_seconds=run_timer.elapsed,
                )
        self.stats.bump(replay_seconds=replay_timer.elapsed)

    def _run_budgeted(self, spec: QuerySpec, group: _PreparedGroup) -> TOPSResult:
        """TOPS-COST: the budgeted greedy with uniform per-site costs."""
        coverage = group.prepared.coverage
        costs = np.full(coverage.num_sites, float(spec.site_cost))
        with Timer() as run_timer:
            result = solve_tops_cost(coverage, spec.budget, costs)
        self.stats.bump(greedy_runs=1, greedy_seconds=run_timer.elapsed)
        metadata = dict(result.metadata)
        metadata.update(self._group_metadata(group))
        return TOPSResult(
            sites=result.sites,
            utility=result.utility,
            per_trajectory_utility=result.per_trajectory_utility,
            elapsed_seconds=result.elapsed_seconds + group.build_seconds,
            algorithm=result.algorithm,
            metadata=metadata,
        )

    def _wrap_result(
        self,
        spec: QuerySpec,
        group: _PreparedGroup,
        columns: Sequence[int],
        utilities: np.ndarray,
        gains: Sequence[float],
        run_seconds: float,
    ) -> TOPSResult:
        coverage = group.prepared.coverage
        sites = tuple(int(coverage.site_labels[c]) for c in columns)
        metadata = self._group_metadata(group)
        metadata["greedy_run_seconds"] = run_seconds
        metadata["marginal_gains"] = [float(g) for g in gains]
        if spec.capacity is not None:
            metadata["capacity"] = spec.capacity
        if spec.existing_sites:
            metadata["existing_sites"] = list(spec.existing_sites)
        return TOPSResult(
            sites=sites,
            utility=float(np.sum(utilities)),
            per_trajectory_utility=tuple(float(u) for u in utilities),
            elapsed_seconds=run_seconds + group.build_seconds,
            algorithm=NetClusIndex.algorithm_name,
            metadata=metadata,
        )

    def _group_metadata(self, group: _PreparedGroup) -> dict:
        instance = group.prepared.instance
        return {
            "instance_id": instance.instance_id,
            "instance_radius_km": instance.radius_km,
            "num_clusters": instance.num_clusters,
            "num_representatives": len(group.prepared.representative_sites),
            "coverage_build_seconds": group.build_seconds,
        }

    @holds_lock("_cache_lock")
    def _cache_store(self, spec: QuerySpec, result: TOPSResult | None) -> None:
        if result is None:  # pragma: no cover - defensive
            return
        self._cache[spec] = result
        self._cache.move_to_end(spec)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
