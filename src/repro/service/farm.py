"""A multi-tenant index farm: many cities, one process, one memory budget.

:class:`IndexFarm` hosts N tenant indexes behind a single registry of
``tenant name → index directory``.  Tenants are *registered* cheaply (a
manifest read, no payload pages touched) and *loaded* lazily: the first
query against a tenant constructs its
:class:`~repro.service.placement.PlacementService` from the directory via
the mmap loader, so a farm of dozens of cities starts in
milliseconds and pays per-tenant load cost only on first use.

**Memory budget.** ``memory_budget_bytes`` caps the summed
``storage_bytes`` of resident tenants (the manifest's Table 9-style
accounting — cluster arrays, trajectory lists, neighbor maps).
When loading a tenant would exceed the budget, least-recently-used
resident tenants are evicted until it fits; the tenant being touched is
never evicted to make room for itself, so one oversized index still
serves (budget permitting nothing else to stay resident).  Eviction is
transparent to clients: the next query on an evicted tenant reloads from
disk and — because every :meth:`apply_updates` writes through to the
tenant directory before returning — always observes the fully updated
index.  Evicting a tenant can never change any query result.

**Directory-less tenant.** :meth:`add_service` registers an in-memory
service under :data:`DEFAULT_TENANT`.  Having no directory, it has nothing
to reload from or save to: it is never evicted and its updates are not
written through.  ``python -m repro.service serve`` is a farm holding just
this tenant.

**Stats.** Each tenant keeps cumulative
:class:`~repro.service.placement.ServiceStats` counters across evictions:
the live service's counters are folded into the tenant record on
eviction, and :meth:`tenant_stats` reports the sum of the folded history
and the current live service.  Farm-level counters (loads, evictions,
resident bytes) surface on the server's ``/metrics``.

**Concurrency.** The registry, the LRU clock and the resident set are
guarded by one mutex.  Queries run *outside* it, on the tenant's own
service (readers-writer locked), so slow placements on one tenant never
block lookups or evictions of another.  An eviction concurrent with an
in-flight query is safe: the query holds a reference to the old service
object and finishes against it; the mmap keeps the (possibly unlinked)
blob inode alive.  A tenant's writer lock is held from an update batch's
application until its write-through save commits, and a tenant holding it
is never evicted, so no reload reads a directory that lags an update.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple, Sequence

from repro.core.netclus import UpdateBatch
from repro.core.query import TOPSQuery, TOPSResult
from repro.service.placement import PlacementService
from repro.service.serialization import load_manifest
from repro.service.specs import QuerySpec
from repro.utils.validation import require

__all__ = [
    "DEFAULT_TENANT",
    "AppliedUpdate",
    "IndexFarm",
    "TenantRecord",
    "UnknownTenantError",
]

#: The name :meth:`IndexFarm.add_service` registers its service under;
#: :meth:`IndexFarm.add_tenant` refuses it and no ``/t/<name>/`` path can
#: address it, so the server routes the plain endpoints to it.
DEFAULT_TENANT = ""


class AppliedUpdate(NamedTuple):
    """What :meth:`IndexFarm.apply_updates` did: the number of update items
    applied and the index version before and after, both read from the
    service the batch was applied to."""

    applied: int
    index_version_before: int
    index_version: int


class UnknownTenantError(KeyError):
    """Raised for a tenant name the farm has no registration for."""


@dataclass
class TenantRecord:
    """One tenant's registry entry (name, directory, residency, history)."""

    name: str
    #: the index directory; ``None`` for an in-memory service, which is
    #: never evicted and never written through
    directory: Path | None
    #: Table 9-style in-memory footprint, from the manifest (or the live
    #: index) at registration and refreshed after every update batch
    storage_bytes: int
    #: the live service, or ``None`` while the tenant is evicted/not yet loaded
    service: PlacementService | None = None
    #: LRU clock value of the most recent touch (monotonic farm counter)
    last_used: int = 0
    #: times this tenant's index was loaded from its directory
    loads: int = 0
    #: times this tenant was evicted to fit the memory budget
    evictions: int = 0
    #: ServiceStats counters folded in from evicted service generations
    folded_stats: dict[str, int | float] = field(default_factory=dict)
    #: held across an update batch and its write-through save
    writer: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    @property
    def resident(self) -> bool:
        """Whether the tenant's index is currently in memory."""
        return self.service is not None

    @property
    def evictable(self) -> bool:
        """Resident, reloadable from a directory and not mid-update."""
        return (
            self.service is not None
            and self.directory is not None
            and not self.writer.locked()
        )


class IndexFarm:
    """N tenant indexes in one process, under one memory budget.

    Parameters
    ----------
    memory_budget_bytes:
        Cap on the summed ``storage_bytes`` of resident tenants;
        ``None`` disables eviction (every loaded tenant stays resident).
    service_kwargs:
        Forwarded to every tenant's :class:`PlacementService` constructor
        (``cache_size``, ``coverage_cache``, ...), so all tenants share one
        serving configuration.

    Examples
    --------
    >>> farm = IndexFarm(memory_budget_bytes=256 << 20)
    >>> farm.add_tenant("nyk", "indexes/nyk.ncx")     # doctest: +SKIP
    >>> farm.add_tenant("bjg", "indexes/bjg.ncx")     # doctest: +SKIP
    >>> farm.query("nyk", QuerySpec(k=5, tau_km=1.0))  # doctest: +SKIP
    """

    def __init__(
        self,
        *,
        memory_budget_bytes: int | None = None,
        **service_kwargs: Any,
    ) -> None:
        if memory_budget_bytes is not None:
            require(
                int(memory_budget_bytes) > 0, "memory_budget_bytes must be positive"
            )
            memory_budget_bytes = int(memory_budget_bytes)
        self.memory_budget_bytes = memory_budget_bytes
        self._service_kwargs = dict(service_kwargs)
        self._tenants: dict[str, TenantRecord] = {}
        self._clock = 0
        self._loads_total = 0
        self._evictions_total = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # registry
    # ------------------------------------------------------------------ #
    def add_tenant(self, name: str, directory: str | Path) -> TenantRecord:
        """Register *name* → *directory* (cheap: reads only the manifest).

        The directory must hold a loadable index (its manifest is read for
        the ``storage_bytes`` accounting and to fail fast on a missing or
        torn directory); the payload is not touched until first use.
        """
        require(bool(name) and "/" not in name, f"bad tenant name {name!r}")
        with self._lock:
            require(name not in self._tenants, f"tenant {name!r} already registered")
            path = Path(directory)
            manifest = load_manifest(path)  # raises IndexFormatError if torn
            record = TenantRecord(
                name=name,
                directory=path,
                storage_bytes=manifest["storage_bytes"],
            )
            self._tenants[name] = record
            return record

    def add_service(self, service: PlacementService) -> TenantRecord:
        """Register an in-memory *service* as the :data:`DEFAULT_TENANT`.

        The tenant has no directory: it stays resident whatever the
        budget (other tenants are evicted around it), keeps its own
        configuration (the farm's ``service_kwargs`` configure loaded
        tenants) and :meth:`apply_updates` saves nothing for it.  Its
        live index's ``storage_bytes`` counts against the budget, so a
        lazily built service builds its index here.
        """
        with self._lock:
            require(
                DEFAULT_TENANT not in self._tenants,
                "the default tenant is already registered",
            )
            record = TenantRecord(
                name=DEFAULT_TENANT,
                directory=None,
                storage_bytes=service.index.storage_bytes(),
                service=service,
            )
            self._tenants[DEFAULT_TENANT] = record
            self._enforce_budget(keep=DEFAULT_TENANT)
            return record

    def remove_tenant(self, name: str) -> None:
        """Drop a tenant from the farm (its directory is left untouched)."""
        with self._lock:
            record = self._record(name)
            if record.service is not None:
                self._evict_record(record, count=False)
            del self._tenants[name]

    def tenants(self) -> list[str]:
        """Registered tenant names, sorted."""
        with self._lock:
            return sorted(self._tenants)

    def has_tenant(self, name: str) -> bool:
        """Whether *name* is registered."""
        with self._lock:
            return name in self._tenants

    def resident_tenants(self) -> list[str]:
        """Names of tenants currently holding a live index, sorted."""
        with self._lock:
            return sorted(n for n, r in self._tenants.items() if r.resident)

    def resident_bytes(self) -> int:
        """Summed ``storage_bytes`` of resident tenants."""
        with self._lock:
            return sum(r.storage_bytes for r in self._tenants.values() if r.resident)

    def _record(self, name: str) -> TenantRecord:
        record = self._tenants.get(name)
        if record is None:
            raise UnknownTenantError(name)
        return record

    # ------------------------------------------------------------------ #
    # residency / eviction
    # ------------------------------------------------------------------ #
    def service(self, name: str) -> PlacementService:
        """The tenant's live service, loading (and evicting) as needed.

        Touches the tenant's LRU clock; when loading pushes the resident
        set over ``memory_budget_bytes``, least-recently-used *other*
        tenants are evicted until the budget holds (or only the touched
        tenant remains).
        """
        with self._lock:
            record = self._record(name)
            self._clock += 1
            record.last_used = self._clock
            if record.service is None:
                record.service = PlacementService.from_path(
                    record.directory, **self._service_kwargs
                )
                record.loads += 1
                self._loads_total += 1
                # the loaded index gives the manifest's figure without a
                # second read of it
                record.storage_bytes = record.service.index.storage_bytes()
            self._enforce_budget(keep=name)
            return record.service

    def _enforce_budget(self, keep: str) -> None:
        """Evict LRU evictable tenants (never *keep*) until the budget holds."""
        if self.memory_budget_bytes is None:
            return
        while True:
            resident = [
                r
                for r in self._tenants.values()
                if r.evictable and r.name != keep
            ]
            over = (
                sum(r.storage_bytes for r in self._tenants.values() if r.resident)
                > self.memory_budget_bytes
            )
            if not over or not resident:
                return
            victim = min(resident, key=lambda r: r.last_used)
            self._evict_record(victim)

    def evict(self, name: str) -> bool:
        """Explicitly evict one tenant; returns whether it was evicted.

        Updates are written through on :meth:`apply_updates`, so eviction
        never persists anything — it only drops the in-memory index (and
        folds the service counters into the tenant's cumulative stats).
        A directory-less tenant could not be reloaded, and a tenant in the
        middle of an update batch has not yet saved it, so both stay.
        """
        with self._lock:
            record = self._record(name)
            if not record.evictable:
                return False
            self._evict_record(record)
            return True

    def _evict_record(self, record: TenantRecord, count: bool = True) -> None:
        """Drop a tenant's live service (must hold the farm lock)."""
        service = record.service
        assert service is not None
        for key, value in service.stats.as_dict().items():
            record.folded_stats[key] = record.folded_stats.get(key, 0) + value
        record.service = None
        if count:
            record.evictions += 1
            self._evictions_total += 1

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def query(
        self, name: str, spec: QuerySpec | TOPSQuery, use_cache: bool = True
    ) -> TOPSResult:
        """Answer one spec for the named tenant."""
        return self.batch_query(name, [spec], use_cache=use_cache)[0]

    def batch_query(
        self,
        name: str,
        specs: Sequence[QuerySpec | TOPSQuery],
        use_cache: bool = True,
    ) -> list[TOPSResult]:
        """Answer a batch for the named tenant (loading it if evicted).

        The placement work runs outside the farm lock, on the tenant's
        own readers-writer-locked service — concurrent queries against
        different tenants never serialise on the farm.
        """
        service = self.service(name)
        return service.batch_query(specs, use_cache=use_cache)

    def apply_updates(self, name: str, batch: UpdateBatch) -> AppliedUpdate:
        """Apply an update batch to the named tenant, writing through.

        The updated index is saved back to the tenant's directory before
        this returns, so a later eviction-and-reload observes exactly the
        post-update state — eviction can never lose an update or change a
        result.  A batch that moved no index version (e.g. an empty one)
        writes nothing.  The tenant's writer lock, held from the load through the
        save, applies batches on one tenant one at a time and keeps the
        tenant resident until its save commits.  A directory-less tenant
        has nowhere to save to and is never evicted, so nothing is written
        for it.  The tenant's ``storage_bytes`` accounting is refreshed
        from the live index.  Both versions returned are read under the
        writer lock from the service the batch went to, which is a fresh
        load when the tenant was evicted since the caller last resolved it.
        """
        with self._lock:
            record = self._record(name)
        with record.writer:
            service = self.service(name)
            version_before = service.index.version
            applied = service.apply_updates(batch)
            if record.directory is not None and service.index.version != version_before:
                service.save(record.directory)
            with self._lock:
                record.storage_bytes = service.index.storage_bytes()
                self._enforce_budget(keep=name)
            return AppliedUpdate(applied, version_before, service.index.version)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def index_version(self, name: str) -> int | None:
        """The tenant's live index version, or ``None`` while evicted.

        Never triggers a load — observability probes must not page a
        tenant in (the same policy as ``PlacementService.index_version``).
        """
        service = self.resident_service(name)
        return None if service is None else service.index_version

    def resident_service(self, name: str) -> PlacementService | None:
        """The tenant's live service, or ``None`` while evicted (no load)."""
        with self._lock:
            return self._record(name).service

    def tenant_stats(self, name: str) -> dict[str, int | float]:
        """Cumulative ServiceStats counters for one tenant.

        The sum of every evicted service generation's counters and the
        live service's current ones — eviction never zeroes a tenant's
        externally visible counters.
        """
        with self._lock:
            record = self._record(name)
            totals: dict[str, int | float] = dict(record.folded_stats)
            if record.service is not None:
                for key, value in record.service.stats.as_dict().items():
                    totals[key] = totals.get(key, 0) + value
            return totals

    def describe(self) -> dict[str, Any]:
        """One JSON-friendly snapshot of the whole farm (CLI / healthz)."""
        with self._lock:
            return {
                "memory_budget_bytes": self.memory_budget_bytes,
                "resident_bytes": sum(
                    r.storage_bytes for r in self._tenants.values() if r.resident
                ),
                "loads_total": self._loads_total,
                "evictions_total": self._evictions_total,
                "tenants": {
                    name: {
                        "directory": (
                            None if record.directory is None else str(record.directory)
                        ),
                        "resident": record.resident,
                        "storage_bytes": record.storage_bytes,
                        "loads": record.loads,
                        "evictions": record.evictions,
                    }
                    for name, record in sorted(self._tenants.items())
                },
            }

    @property
    def loads_total(self) -> int:
        """Lifetime count of tenant index loads."""
        with self._lock:
            return self._loads_total

    @property
    def evictions_total(self) -> int:
        """Lifetime count of budget/explicit evictions."""
        with self._lock:
            return self._evictions_total

    def close(self) -> None:
        """Evict every evictable tenant (folding stats); keep registrations."""
        with self._lock:
            for record in self._tenants.values():
                if record.evictable:
                    self._evict_record(record, count=False)
