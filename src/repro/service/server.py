"""Asynchronous HTTP serving front end over an :class:`IndexFarm`.

:class:`PlacementServer` turns the in-process placement services of one
:class:`~repro.service.farm.IndexFarm` into a network service: a
hand-rolled HTTP/1.1 front end on :func:`asyncio.start_server` (stdlib
only — no web framework, no ``http.server``).  There is one serving path:
``python -m repro.service serve`` is a farm holding one directory-less
tenant (:data:`~repro.service.farm.DEFAULT_TENANT`) and ``python -m
repro.service farm`` is a farm of directory tenants.  The endpoints:

``POST /t/<tenant>/query`` and ``POST /query``
    A JSON array of :class:`~repro.service.specs.QuerySpec` objects (or
    ``{"specs": [...], "use_cache": true}``) answered through the tenant's
    :meth:`PlacementService.batch_query`; placements, utilities and
    per-trajectory utility vectors come back byte-identical to a direct
    in-process call.  The plain path addresses the default tenant and
    answers ``404`` when the farm has none.
``POST /t/<tenant>/update`` and ``POST /update``
    One :class:`~repro.core.netclus.UpdateBatch` delta (the CLI's JSON
    vocabulary: ``add_trajectories`` / ``remove_trajectories`` /
    ``add_sites`` / ``remove_sites``) applied through
    :meth:`IndexFarm.apply_updates` (the service's exclusive writer lock,
    then a write-through save for a tenant with a directory); the response
    reports the applied count and the index-version bump.
``GET /metrics``
    Prometheus-style text: farm gauges, every tenant's
    :class:`ServiceStats` counters (plus kernel, coverage-cache and
    index-version series for resident tenants) labelled ``tenant=...`` —
    the default tenant's series carry no label — and the server-level
    counters of :class:`ServerStats` (in-flight gauge, rejections,
    timeouts, p50/p99 latency reservoirs).
``GET /healthz``
    Liveness: status, draining flag, tenancy, and the default tenant's
    index version when there is one.

The correctness mechanics, not the routing, are the point of this module:

* **Bounded admission + backpressure** — at most ``max_inflight``
  query/update requests are admitted at once; request number
  ``max_inflight + 1`` is rejected immediately with ``503`` and a
  ``Retry-After`` hint rather than queueing without bound.  ``/healthz``
  and ``/metrics`` are always served.
* **Per-request timeouts** — a request that exceeds ``request_timeout``
  seconds answers ``504``; the underlying computation is *not* abandoned
  (it cannot be cancelled mid-NumPy): it finishes on the worker pool and
  publishes its greedy order for the requests waiting on it and later
  ones.
* **Event-loop isolation** — every blocking farm call (placements, tenant
  loads and the evictions they trigger, write-through saves) runs on a
  sized ``ThreadPoolExecutor`` (``worker_threads``), so the event loop
  keeps accepting, parsing and answering meanwhile.
* **Graceful drain** — :meth:`PlacementServer.shutdown` stops accepting,
  lets in-flight requests finish (bounded by ``drain_timeout``), then
  closes lingering keep-alive connections; requests arriving mid-drain
  answer ``503``.

:func:`serve_in_background` runs a server on a dedicated event-loop
thread and returns a :class:`ServerHandle` — the harness the test suite
drives real sockets through.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro.core.netclus import UpdateBatch
from repro.core.query import TOPSResult
from repro.network.graph import RoadNetwork
from repro.service.farm import DEFAULT_TENANT, IndexFarm
from repro.service.specs import QuerySpec, update_batch_from_dict
from repro.utils.concurrency import guarded_by
from repro.utils.validation import require

__all__ = [
    "LatencyReservoir",
    "PlacementServer",
    "ServerHandle",
    "ServerStats",
    "serve_in_background",
]

#: HTTP status phrases the server emits (stdlib ``http`` not needed).
_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _BadRequest(ValueError):
    """A client error the handler converts into a 400 response."""


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request or header line; a line over the reader's limit is a 400."""
    try:
        return await reader.readline()
    except ValueError:  # asyncio's LimitOverrunError, re-raised by readline
        raise _BadRequest("request or header line too long") from None


def _nearest_rank(ordered: list[float], q: float) -> float:
    """The nearest-rank *q*-quantile of sorted *ordered*; 0.0 if empty."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


@guarded_by("_lock", "_samples", "_cursor", "_total", "_capacity")
class LatencyReservoir:
    """A bounded ring of the most recent request latencies.

    Quantiles are computed over the last *capacity* samples — a sliding
    window, not a lifetime histogram — which is what a load test or a
    dashboard wants from ``/metrics``.  Thread-safe: the server records
    from the event loop while benchmarks read over HTTP, and the handle
    API exposes it to other threads.
    """

    def __init__(self, capacity: int = 4096) -> None:
        require(capacity >= 1, "reservoir capacity must be >= 1")
        self._capacity = capacity
        self._samples: list[float] = []
        self._cursor = 0
        self._total = 0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        """Add one latency sample (overwrites the oldest when full)."""
        with self._lock:
            self._total += 1
            if len(self._samples) < self._capacity:
                self._samples.append(float(seconds))
            else:
                self._samples[self._cursor] = float(seconds)
                self._cursor = (self._cursor + 1) % self._capacity

    @property
    def count(self) -> int:
        """Lifetime number of recorded samples (not capped)."""
        with self._lock:
            return self._total

    def quantile(self, q: float) -> float:
        """The *q*-quantile (nearest-rank) of the windowed samples; 0.0 if empty."""
        require(0.0 <= q <= 1.0, "quantile must be in [0, 1]")
        with self._lock:
            ordered = sorted(self._samples)
        return _nearest_rank(ordered, q)

    def snapshot(self) -> dict[str, float]:
        """p50/p90/p99 plus the sample count, as one consistent dict."""
        with self._lock:
            ordered = sorted(self._samples)
            total = self._total
        return {
            "count": float(total),
            "p50": _nearest_rank(ordered, 0.5),
            "p90": _nearest_rank(ordered, 0.9),
            "p99": _nearest_rank(ordered, 0.99),
        }


@dataclass
class ServerStats:
    """Server-level counters of a :class:`PlacementServer`.

    These sit *above* :class:`~repro.service.placement.ServiceStats`: the
    service counts placement work (coverage builds, greedy runs, cache
    hits, coalesced specs), the server counts HTTP traffic — admissions,
    rejections, timeouts — and keeps per-endpoint latency
    reservoirs.  All mutation happens on the event loop; reads from other
    threads see at worst a one-request-stale counter, never a torn value
    (ints are swapped atomically).
    """

    requests_total: dict[str, int] = field(
        default_factory=lambda: {"query": 0, "update": 0, "metrics": 0, "healthz": 0}
    )
    responses_by_status: dict[int, int] = field(default_factory=dict)
    in_flight: int = 0
    rejected_total: int = 0
    timeouts_total: int = 0
    specs_received: int = 0
    updates_applied: int = 0
    latency: dict[str, LatencyReservoir] = field(
        default_factory=lambda: {"query": LatencyReservoir(), "update": LatencyReservoir()}
    )

    def count_response(self, status: int) -> None:
        """Tally one response by status code."""
        self.responses_by_status[status] = self.responses_by_status.get(status, 0) + 1

    def as_dict(self) -> dict:
        """Plain-JSON counters (reporting / the benchmark harness)."""
        return {
            "requests_total": dict(self.requests_total),
            "responses_by_status": {str(k): v for k, v in self.responses_by_status.items()},
            "in_flight": self.in_flight,
            "rejected_total": self.rejected_total,
            "timeouts_total": self.timeouts_total,
            "specs_received": self.specs_received,
            "updates_applied": self.updates_applied,
            "latency": {name: res.snapshot() for name, res in self.latency.items()},
        }


def _render_metric(
    lines: list[str], name: str, kind: str, help_text: str, value: float, **labels: str
) -> None:
    """Append one metric (with ``# HELP`` / ``# TYPE`` once per name).

    An empty label value is omitted, as Prometheus reads it: the default
    tenant's series come out unlabelled.
    """
    header = f"# HELP {name} {help_text}"
    if header not in lines:
        lines.append(header)
        lines.append(f"# TYPE {name} {kind}")
    labels = {key: val for key, val in labels.items() if val}
    if labels:
        rendered = ",".join(f'{key}="{val}"' for key, val in sorted(labels.items()))
        lines.append(f"{name}{{{rendered}}} {value}")
    else:
        lines.append(f"{name} {value}")


@dataclass
class _Request:
    """One parsed HTTP/1.1 request."""

    method: str
    path: str
    headers: dict[str, str]
    body: bytes
    keep_alive: bool


@dataclass
class _Response:
    """One response about to be serialised onto the socket."""

    status: int
    body: bytes
    content_type: str = "application/json"

    @classmethod
    def json(cls, status: int, payload: dict) -> "_Response":
        return cls(status, (json.dumps(payload) + "\n").encode())

    @classmethod
    def error(cls, status: int, message: str) -> "_Response":
        return cls.json(status, {"error": message})


class PlacementServer:
    """An asyncio HTTP/1.1 front end over one :class:`IndexFarm`.

    Parameters
    ----------
    farm:
        The tenants to serve.  ``POST /t/<tenant>/query`` and
        ``POST /t/<tenant>/update`` address a registered tenant (404
        otherwise); plain ``POST /query`` and ``POST /update`` address the
        farm's :data:`~repro.service.farm.DEFAULT_TENANT` — the in-memory
        service :meth:`IndexFarm.add_service` registers — and answer 404
        when there is none.  Each tenant's service makes concurrent
        query + update traffic safe (its readers-writer lock) and runs one
        greedy step per selection key at a time (its in-flight slots, per
        tenant by construction); the server adds admission control and
        the HTTP surface.  Eviction and reload under the farm's memory budget are
        invisible to clients (at worst a slower first query).
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start` — the test/bench harness
        relies on this).
    max_inflight:
        Bound on concurrently admitted query/update requests.
        Request ``max_inflight + 1`` is answered ``503`` immediately —
        bounded admission instead of an unbounded queue.
    worker_threads:
        Size of the thread pool blocking farm calls run on.  The event
        loop itself never computes a placement or loads a tenant.
    request_timeout:
        Per-request budget in seconds; exceeding it answers ``504``
        while the computation finishes in the background (the service
        still publishes its greedy order).
    max_body_bytes:
        Reject larger request bodies with ``413``.
    """

    def __init__(
        self,
        farm: IndexFarm,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        worker_threads: int = 4,
        request_timeout: float = 30.0,
        max_body_bytes: int = 8 << 20,
    ) -> None:
        require(max_inflight >= 1, "max_inflight must be >= 1")
        require(worker_threads >= 1, "worker_threads must be >= 1")
        require(request_timeout > 0, "request_timeout must be positive")
        self.farm = farm
        self.host = host
        self.port = port
        self.max_inflight = int(max_inflight)
        self.worker_threads = int(worker_threads)
        self.request_timeout = float(request_timeout)
        self.max_body_bytes = int(max_body_bytes)
        self.stats = ServerStats()
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._inflight_requests = 0
        self._draining = False
        self._shutdown_started = False
        self._closed_event: asyncio.Event | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listening socket and start accepting connections."""
        require(self._server is None, "server already started")
        self._loop = asyncio.get_running_loop()
        self._closed_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.worker_threads, thread_name_prefix="placement-serve"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (ephemeral port resolved after start)."""
        return (self.host, self.port)

    @property
    def draining(self) -> bool:
        """True once shutdown has begun (new work is rejected)."""
        return self._draining

    async def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` completes (from another task)."""
        require(self._closed_event is not None, "server not started")
        await self._closed_event.wait()

    async def shutdown(self, drain_timeout: float = 10.0) -> None:
        """Stop accepting, drain in-flight requests, close connections.

        Idempotent; concurrent callers all return once the first
        shutdown finishes.  In-flight requests get up to *drain_timeout*
        seconds to complete before their connections are closed.
        """
        if self._shutdown_started:
            await self._closed_event.wait()
            return
        self._shutdown_started = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = self._loop.time() + drain_timeout
        while self._inflight_requests and self._loop.time() < deadline:
            await asyncio.sleep(0.01)
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        self._closed_event.set()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    await self._write_response(
                        writer, _Response.error(400, str(exc)), keep_alive=False
                    )
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                keep_alive = request.keep_alive and not self._draining
                await self._write_response(writer, response, keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                await writer.wait_closed()

    async def _read_request(self, reader: asyncio.StreamReader) -> _Request | None:
        """Parse one HTTP/1.1 request; ``None`` on a cleanly closed socket."""
        try:
            request_line = await _read_line(reader)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(f"malformed request line: {request_line!r}")
        method, target, version = parts
        headers: dict[str, str] = {}
        while True:
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) > 100:
                raise _BadRequest("too many headers")
            name, separator, value = line.decode("latin-1").partition(":")
            if not separator:
                raise _BadRequest(f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0") or "0"
        # int() would also take "+5", "-1", "1_0" and non-ASCII digits
        if not (length_text.isascii() and length_text.isdigit()):
            raise _BadRequest(f"malformed content-length: {length_text!r}")
        length = int(length_text)
        if length > self.max_body_bytes:
            raise _BadRequest(f"request body over {self.max_body_bytes} bytes")
        body = await reader.readexactly(length) if length else b""
        connection = headers.get("connection", "").lower()
        keep_alive = connection != "close" and version != "HTTP/1.0"
        path = target.split("?", 1)[0]
        return _Request(
            method=method, path=path, headers=headers, body=body, keep_alive=keep_alive
        )

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: _Response, keep_alive: bool
    ) -> None:
        self.stats.count_response(response.status)
        phrase = _PHRASES.get(response.status, "Unknown")
        head = (
            f"HTTP/1.1 {response.status} {phrase}\r\n"
            f"Content-Type: {response.content_type}\r\n"
            f"Content-Length: {len(response.body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        )
        if response.status == 503:
            head += "Retry-After: 1\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + response.body)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    async def _dispatch(self, request: _Request) -> _Response:
        route = (request.method, request.path)
        if route == ("GET", "/healthz"):
            self.stats.requests_total["healthz"] += 1
            payload = {
                "status": "ok",
                "draining": self._draining,
                "in_flight": self._inflight_requests,
                "tenants": len(self.farm.tenants()),
                "resident_tenants": self.farm.resident_tenants(),
            }
            if self.farm.has_tenant(DEFAULT_TENANT):
                payload["index_version"] = self._index_version(DEFAULT_TENANT)
            return _Response.json(200, payload)
        if route == ("GET", "/metrics"):
            self.stats.requests_total["metrics"] += 1
            return _Response(200, self.render_metrics().encode(), "text/plain; version=0.0.4")
        if request.path.startswith("/t/"):
            return await self._dispatch_tenant(request)
        if route in (("POST", "/query"), ("POST", "/update")):
            endpoint = request.path[1:]
            self.stats.requests_total[endpoint] += 1
            if not self.farm.has_tenant(DEFAULT_TENANT):
                return _Response.error(404, f"farm mode: use /t/<tenant>/{endpoint}")
            return await self._admitted(request, endpoint, DEFAULT_TENANT)
        if request.path in ("/healthz", "/metrics", "/query", "/update"):
            return _Response.error(405, f"{request.method} not allowed on {request.path}")
        return _Response.error(404, f"no such endpoint: {request.path}")

    async def _dispatch_tenant(self, request: _Request) -> _Response:
        """Route ``/t/<tenant>/query`` and ``/t/<tenant>/update``."""
        parts = request.path.split("/")
        if len(parts) != 4 or parts[3] not in ("query", "update") or not parts[2]:
            return _Response.error(404, f"no such endpoint: {request.path}")
        tenant, endpoint = parts[2], parts[3]
        if request.method != "POST":
            return _Response.error(405, f"{request.method} not allowed on {request.path}")
        if not self.farm.has_tenant(tenant):
            return _Response.error(404, f"no such tenant: {tenant}")
        self.stats.requests_total[endpoint] += 1
        return await self._admitted(request, endpoint, tenant)

    def _index_version(self, tenant: str) -> int:
        version = self.farm.index_version(tenant)
        return -1 if version is None else version

    async def _admitted(self, request: _Request, endpoint: str, tenant: str) -> _Response:
        """Run the *endpoint* handler under admission control, timing and timeout."""
        if self._draining:
            return _Response.error(503, "server is draining")
        if self._inflight_requests >= self.max_inflight:
            self.stats.rejected_total += 1
            return _Response.error(503, f"over capacity ({self.max_inflight} in flight)")
        self._inflight_requests += 1
        self.stats.in_flight = self._inflight_requests
        start = self._loop.time()
        try:
            handler = self._handle_query if endpoint == "query" else self._handle_update
            work = asyncio.ensure_future(handler(request, tenant))
            try:
                response = await asyncio.wait_for(
                    asyncio.shield(work), self.request_timeout
                )
            except asyncio.TimeoutError:
                # the computation is not cancelled: it completes on the
                # worker pool and publishes its order to the service cache
                self.stats.timeouts_total += 1
                return _Response.error(504, f"request exceeded {self.request_timeout}s")
            except _BadRequest as exc:
                return _Response.error(400, str(exc))
            except Exception as exc:  # noqa: BLE001 - boundary: keep serving
                return _Response.error(500, f"{type(exc).__name__}: {exc}")
            return response
        finally:
            self._inflight_requests -= 1
            self.stats.in_flight = self._inflight_requests
            self.stats.latency[endpoint].record(self._loop.time() - start)

    # ------------------------------------------------------------------ #
    # /query
    # ------------------------------------------------------------------ #
    @staticmethod
    def _parse_specs(body: bytes) -> tuple[list[QuerySpec], bool]:
        try:
            payload = json.loads(body or b"null")
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"body is not valid JSON: {exc}") from None
        use_cache = True
        if isinstance(payload, dict):
            unknown = sorted(set(payload) - {"specs", "use_cache"})
            if unknown:
                raise _BadRequest(f"unknown request fields: {unknown}")
            use_cache = payload.get("use_cache", True)
            if not isinstance(use_cache, bool):
                raise _BadRequest(f"use_cache must be true or false, got {use_cache!r}")
            payload = payload.get("specs")
        if not isinstance(payload, list) or not payload:
            raise _BadRequest("expected a non-empty JSON array of query specs")
        try:
            specs = [QuerySpec.from_dict(entry) for entry in payload]
        except (ValueError, TypeError, AttributeError) as exc:
            raise _BadRequest(f"bad query spec: {exc}") from None
        return specs, use_cache

    async def _handle_query(self, request: _Request, tenant: str) -> _Response:
        specs, use_cache = self._parse_specs(request.body)
        self.stats.specs_received += len(specs)
        # a lazy tenant load (and any eviction it triggers) and the
        # placement work both run on the worker pool, never on the loop
        call = functools.partial(self.farm.batch_query, tenant, specs, use_cache=use_cache)
        results = await self._loop.run_in_executor(self._executor, call)
        body = {
            "results": [
                self._result_payload(spec, result)
                for spec, result in zip(specs, results)
            ],
            "index_version": self._index_version(tenant),
        }
        if tenant:
            body["tenant"] = tenant
        return _Response.json(200, body)

    @staticmethod
    def _result_payload(spec: QuerySpec, result: TOPSResult) -> dict:
        return {
            "spec": spec.to_dict(),
            "sites": list(result.sites),
            "utility": result.utility,
            "per_trajectory_utility": list(result.per_trajectory_utility),
            "algorithm": result.algorithm,
            "instance_id": result.metadata.get("instance_id"),
            "elapsed_seconds": result.elapsed_seconds,
        }

    # ------------------------------------------------------------------ #
    # /update
    # ------------------------------------------------------------------ #
    @staticmethod
    def _parse_update(body: bytes, network: RoadNetwork) -> UpdateBatch:
        try:
            payload = json.loads(body or b"null")
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"body is not valid JSON: {exc}") from None
        try:
            return update_batch_from_dict(payload, network)
        except (ValueError, TypeError, KeyError) as exc:
            raise _BadRequest(f"bad update delta: {exc}") from None

    async def _handle_update(self, request: _Request, tenant: str) -> _Response:
        # resolving the tenant may page its index in — worker pool
        service = await self._loop.run_in_executor(
            self._executor, self.farm.service, tenant
        )
        batch = self._parse_update(request.body, service.index.network)
        try:
            # the versions come from the service the batch went to: an
            # eviction since the lookup above makes that a fresh load
            outcome = await self._loop.run_in_executor(
                self._executor, self.farm.apply_updates, tenant, batch
            )
        except (ValueError, KeyError) as exc:
            # apply_updates validates the whole batch up front; a bad
            # member (unknown site, duplicate id, ...) is a client error
            message = exc.args[0] if exc.args else str(exc)
            raise _BadRequest(str(message)) from None
        self.stats.updates_applied += outcome.applied
        body: dict[str, Any] = outcome._asdict()
        if tenant:
            body["tenant"] = tenant
        return _Response.json(200, body)

    # ------------------------------------------------------------------ #
    # /metrics
    # ------------------------------------------------------------------ #
    def render_metrics(self) -> str:
        """The Prometheus-style text body of ``GET /metrics``.

        One loop renders every tenant: its cumulative service counters
        (folded across evictions) always, and its kernel, coverage-cache
        and index-version series while it is resident — rendering never
        loads a tenant.
        """
        lines: list[str] = []
        farm = self.farm
        described = farm.describe()
        if described["memory_budget_bytes"] is not None:
            _render_metric(
                lines,
                "netclus_farm_memory_budget_bytes",
                "gauge",
                "memory budget over resident tenant indexes",
                described["memory_budget_bytes"],
            )
        _render_metric(
            lines,
            "netclus_farm_resident_bytes",
            "gauge",
            "summed storage bytes of resident tenant indexes",
            described["resident_bytes"],
        )
        _render_metric(
            lines,
            "netclus_farm_loads_total",
            "counter",
            "tenant index loads from disk",
            described["loads_total"],
        )
        _render_metric(
            lines,
            "netclus_farm_evictions_total",
            "counter",
            "tenant evictions under the memory budget",
            described["evictions_total"],
        )
        for tenant, info in described["tenants"].items():
            _render_metric(
                lines,
                "netclus_farm_tenant_resident",
                "gauge",
                "whether the tenant index is currently in memory",
                1.0 if info["resident"] else 0.0,
                tenant=tenant,
            )
            _render_metric(
                lines,
                "netclus_farm_tenant_storage_bytes",
                "gauge",
                "Table 9-style storage bytes of the tenant index",
                info["storage_bytes"],
                tenant=tenant,
            )
            for name, value in farm.tenant_stats(tenant).items():
                kind = "counter" if isinstance(value, int) else "gauge"
                _render_metric(
                    lines,
                    f"netclus_service_{name}",
                    kind,
                    f"PlacementService {name.replace('_', ' ')}",
                    value,
                    tenant=tenant,
                )
            service = farm.resident_service(tenant)
            if service is None:
                continue
            for kernel, (calls, seconds) in service.stats.kernel_snapshot().items():
                _render_metric(
                    lines,
                    "netclus_kernel_calls_total",
                    "counter",
                    "coverage kernel invocations per kernel",
                    calls,
                    kernel=kernel,
                    tenant=tenant,
                )
                _render_metric(
                    lines,
                    "netclus_kernel_seconds_total",
                    "counter",
                    "cumulative seconds spent per coverage kernel",
                    seconds,
                    kernel=kernel,
                    tenant=tenant,
                )
            if service.coverage_cache is not None:
                for name, value in service.coverage_cache.stats().items():
                    # every stat but the live part count is cumulative
                    kind = "gauge" if name == "parts" else "counter"
                    _render_metric(
                        lines,
                        f"netclus_covcache_{name}",
                        kind,
                        f"CoverageCache {name.replace('_', ' ')}",
                        value,
                        tenant=tenant,
                    )
            _render_metric(
                lines,
                "netclus_index_version",
                "gauge",
                "monotonic version of the served index",
                self._index_version(tenant),
                tenant=tenant,
            )
        stats = self.stats
        for endpoint, count in sorted(stats.requests_total.items()):
            _render_metric(
                lines,
                "netclus_server_requests_total",
                "counter",
                "HTTP requests received per endpoint",
                count,
                endpoint=endpoint,
            )
        for status, count in sorted(stats.responses_by_status.items()):
            _render_metric(
                lines,
                "netclus_server_responses_total",
                "counter",
                "HTTP responses sent per status code",
                count,
                status=str(status),
            )
        _render_metric(
            lines,
            "netclus_server_in_flight",
            "gauge",
            "query/update requests currently admitted",
            stats.in_flight,
        )
        _render_metric(
            lines,
            "netclus_server_rejected_total",
            "counter",
            "requests rejected with 503 by the admission bound",
            stats.rejected_total,
        )
        _render_metric(
            lines,
            "netclus_server_timeouts_total",
            "counter",
            "requests answered 504 after exceeding the request timeout",
            stats.timeouts_total,
        )
        _render_metric(
            lines,
            "netclus_server_specs_received_total",
            "counter",
            "query specs received across all /query requests",
            stats.specs_received,
        )
        _render_metric(
            lines,
            "netclus_server_updates_applied_total",
            "counter",
            "update items applied through /update",
            stats.updates_applied,
        )
        for endpoint, reservoir in sorted(stats.latency.items()):
            snapshot = reservoir.snapshot()
            for quantile, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
                _render_metric(
                    lines,
                    "netclus_server_request_latency_seconds",
                    "summary",
                    "request latency quantiles over a sliding sample window",
                    snapshot[key],
                    endpoint=endpoint,
                    quantile=quantile,
                )
            _render_metric(
                lines,
                "netclus_server_request_latency_count",
                "counter",
                "requests contributing to the latency reservoirs",
                snapshot["count"],
                endpoint=endpoint,
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- #
# background harness (tests + benchmarks + examples)
# ---------------------------------------------------------------------- #
class ServerHandle:
    """A running :class:`PlacementServer` on its own event-loop thread.

    The synchronous world's view of the async server: construction via
    :func:`serve_in_background` starts the loop thread and blocks until
    the socket is bound; :meth:`close` drains and joins.  Usable as a
    context manager.
    """

    def __init__(self, server: PlacementServer) -> None:
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._started: threading.Event = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="placement-server", daemon=True
        )

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to the starter
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        try:
            self._loop.run_until_complete(self.server.serve_forever())
        finally:
            self._loop.close()

    def start(self) -> "ServerHandle":
        """Start the loop thread; returns once the socket is bound."""
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        return self.server.address

    def close(self, drain_timeout: float = 10.0) -> None:
        """Drain and stop the server, then join the loop thread (idempotent)."""
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain_timeout=drain_timeout), self._loop
        )
        future.result(timeout=drain_timeout + 30)
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def serve_in_background(farm: IndexFarm, **server_kwargs: Any) -> ServerHandle:
    """Start a :class:`PlacementServer` on a dedicated thread; return its handle.

    To serve one in-memory service on the plain ``/query`` and ``/update``
    endpoints, register it first with :meth:`IndexFarm.add_service`.
    ``port`` defaults to 0 (ephemeral) — read the real address back from
    ``handle.address``.  The handle is a context manager::

        farm = IndexFarm()
        farm.add_service(service)
        with serve_in_background(farm) as handle:
            host, port = handle.address
            ...  # real HTTP against the live server

    This is the harness the server test-suite drives sockets through; the
    CLI's ``serve`` and ``farm`` subcommands run the same server on the
    main thread instead.
    """
    return ServerHandle(PlacementServer(farm, **server_kwargs)).start()
