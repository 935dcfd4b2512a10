"""repro.service — the persistent, queryable placement-service layer.

NetClus is an *index*: built once per city, then queried many times for TOPS
placements at varying (τ, k, cost, capacity).  This package turns the
in-memory :class:`~repro.core.netclus.NetClusIndex` into a service:

* :mod:`repro.service.serialization` — the on-disk format, v6 only
  (:func:`save_index` / :func:`load_index`): a packed payload blob, mapped
  read-only on load, plus a JSON manifest with format version, the blob's
  name and offset table, build parameters and graph/trajectory
  fingerprints; renaming the manifest into place commits a save.
  A loaded index answers ``query`` / ``add_site`` / ``add_trajectory``
  identically to a freshly built one.
* :mod:`repro.service.specs` — :class:`QuerySpec`, the hashable,
  JSON/CSV-serialisable description of one placement request
  (k, τ, ψ, capacity, budget, existing sites).
* :mod:`repro.service.placement` — :class:`PlacementService`, the façade
  owning a loaded (or lazily built) index: ``batch_query`` with shared-work
  amortisation across same-(τ, ψ) specs, reuse of one greedy run across
  k values, and an LRU order cache that keeps each selection key's greedy
  order across batches (smaller k replayed, larger k resumed) and
  auto-invalidates off :attr:`NetClusIndex.version` when the index is
  mutated.  The
  service is safe for concurrent callers: queries share a readers-writer
  lock, :meth:`PlacementService.apply_updates` mutates exclusively, the
  cache/counters are mutex-guarded, and concurrent batches needing the
  same selection key's greedy step run it once (one in-flight slot per
  key; the others wait and read its order).
* :mod:`repro.service.server` — :class:`PlacementServer`, the asyncio
  HTTP/1.1 front end over one farm: ``POST /t/<tenant>/query`` (and plain
  ``POST /query`` for the default tenant), ``POST /t/<tenant>/update`` (``POST
  /update``) through the writer lock, ``GET /metrics`` (Prometheus-style
  text) and ``GET /healthz``; bounded admission with 503 backpressure,
  per-request timeouts, and graceful drain on shutdown.  Blocking
  placement work runs on a sized thread pool so the event loop never
  stalls.
* :mod:`repro.service.farm` — :class:`IndexFarm`, many tenant indexes in
  one process under one memory budget: tenants load lazily from their
  directories, the least recently used are evicted to fit, and every
  update writes through to the tenant's directory, so eviction never
  changes an answer.  ``add_service`` adds one in-memory service as the
  directory-less default tenant (never evicted, never saved) — the
  shape ``python -m repro.service serve`` serves.
* ``python -m repro.service`` — the ``build`` / ``query`` / ``serve`` /
  ``farm`` / ``update`` / ``inspect`` CLI.

See ``docs/architecture.md`` for where this layer sits and
``docs/index-format.md`` for the on-disk format specification.
"""

from repro.service.farm import IndexFarm, TenantRecord, UnknownTenantError
from repro.service.placement import PlacementService, ServiceStats
from repro.service.serialization import (
    FORMAT_VERSION,
    IndexFormatError,
    graph_fingerprint,
    load_index,
    load_manifest,
    payload_digest,
    save_index,
    trajectory_fingerprint,
)
from repro.service.server import (
    LatencyReservoir,
    PlacementServer,
    ServerHandle,
    ServerStats,
    serve_in_background,
)
from repro.service.specs import QuerySpec

__all__ = [
    "IndexFarm",
    "TenantRecord",
    "UnknownTenantError",
    "PlacementService",
    "PlacementServer",
    "ServerHandle",
    "ServerStats",
    "LatencyReservoir",
    "serve_in_background",
    "ServiceStats",
    "QuerySpec",
    "save_index",
    "load_index",
    "load_manifest",
    "graph_fingerprint",
    "trajectory_fingerprint",
    "payload_digest",
    "FORMAT_VERSION",
    "IndexFormatError",
]
