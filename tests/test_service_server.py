"""Tests for the asyncio HTTP serving front end (``repro.service.server``).

Everything here drives a real server over real sockets: the
:func:`~repro.service.server.serve_in_background` handle binds an
ephemeral port on a dedicated event-loop thread and the tests speak plain
``http.client`` (or raw socket bytes) to it — the same server the CI
serving-smoke job exercises.

The single-flight / backpressure / timeout / drain tests inject a
:class:`GatedService` whose greedy step blocks on an event until the test
releases it, which makes "while the first request is still computing" a
deterministic state instead of a sleep-tuned race.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.service.farm import IndexFarm
from repro.service.placement import PlacementService
from repro.service.server import (
    LatencyReservoir,
    PlacementServer,
    serve_in_background,
)
from repro.service.specs import QuerySpec


class GatedService(PlacementService):
    """A placement service whose greedy steps wait for a test-held gate.

    The gate sits inside ``batch_query``, after the batch has claimed its
    selection key's in-flight slot, so a second batch on that key is
    provably waiting inside the service.  ``calls`` counts the greedy
    steps entered, and ``gate`` starts open so construction-time queries
    run through.
    """

    def __init__(self, index, **kwargs) -> None:
        super().__init__(index, **kwargs)
        self.gate = threading.Event()
        self.gate.set()
        self.calls = 0
        self._call_count_lock = threading.Lock()

    def _select(self, lead, group, entry):
        with self._call_count_lock:
            self.calls += 1
        assert self.gate.wait(timeout=20), "test gate never released"
        return super()._select(lead, group, entry)


def one_tenant_farm(service: PlacementService) -> IndexFarm:
    """A farm serving *service* on the plain ``/query`` and ``/update``."""
    farm = IndexFarm()
    farm.add_service(service)
    return farm


def request(
    address: tuple[str, int],
    method: str,
    path: str,
    payload=None,
    timeout: float = 20.0,
):
    """One HTTP request; returns ``(status, headers, parsed-or-text body)``."""
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        is_json = content_type.startswith("application/json")
        parsed = json.loads(raw) if is_json else raw.decode()
        return response.status, dict(response.getheaders()), parsed
    finally:
        conn.close()


def wait_until(predicate, timeout: float = 10.0, message: str = "condition"):
    """Poll *predicate* until true (sub-ms requests make sleeps racy)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture(scope="module")
def served(tiny_netclus):
    """A served (read-only) tiny index + a direct reference service."""
    service = PlacementService(tiny_netclus)
    reference = PlacementService(tiny_netclus)
    with serve_in_background(one_tenant_farm(service)) as handle:
        yield handle, service, reference


# ---------------------------------------------------------------------- #
# basic endpoints + parity
# ---------------------------------------------------------------------- #
def test_healthz(served):
    handle, _, _ = served
    status, _, body = request(handle.address, "GET", "/healthz")
    assert status == 200
    assert body["status"] == "ok"
    assert body["draining"] is False


def test_unknown_endpoint_404(served):
    handle, _, _ = served
    status, _, body = request(handle.address, "GET", "/nope")
    assert status == 404
    assert "no such endpoint" in body["error"]


def test_wrong_method_405(served):
    handle, _, _ = served
    status, _, _ = request(handle.address, "POST", "/healthz")
    assert status == 405
    status, _, _ = request(handle.address, "GET", "/query")
    assert status == 405


def test_bad_json_400(served):
    handle, _, _ = served
    host, port = handle.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    conn.request("POST", "/query", body=b"{not json")
    response = conn.getresponse()
    assert response.status == 400
    assert b"not valid JSON" in response.read()
    conn.close()


def test_bad_spec_400(served):
    handle, _, _ = served
    status, _, body = request(
        handle.address, "POST", "/query", [{"k": 3, "tau_km": 0.8, "typo": 1}]
    )
    assert status == 400
    assert "typo" in body["error"]
    status, _, _ = request(handle.address, "POST", "/query", [])
    assert status == 400
    # non-finite floats (an overflowing literal or JSON's Infinity), a k,
    # capacity or existing site that is not an integer, and a zero site
    # cost: each is a client error, never a 500, a truncated or defaulted
    # number, and never a 200 whose body is not valid JSON
    host, port = handle.address
    for raw in (
        b'[{"k": 3, "tau_km": 1e400}]',
        b'[{"k": 3, "tau_km": Infinity}]',
        b'[{"k": 2.5, "tau_km": 0.8}]',
        b'[{"k": true, "tau_km": 0.8}]',
        b'[{"k": 1, "tau_km": 0.8, "budget": 1e400}]',
        b'[{"k": 1, "tau_km": 0.8, "budget": 3.0, "site_cost": Infinity}]',
        b'[{"k": 3, "tau_km": 0.8, "capacity": 2.5}]',
        b'[{"k": 3, "tau_km": 0.8, "capacity": true}]',
        b'[{"k": 3, "tau_km": 0.8, "existing_sites": [3.7]}]',
        b'[{"k": 3, "tau_km": 0.8, "existing_sites": [true]}]',
        b'[{"k": 3, "tau_km": 0.8, "existing_sites": "37"}]',
        b'[{"k": 3, "tau_km": 0.8, "existing_sites": ["3"]}]',
        b'[{"k": 1, "tau_km": 0.8, "budget": 3.0, "site_cost": 0}]',
    ):
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("POST", "/query", body=raw)
            response = conn.getresponse()
            assert response.status == 400, raw
            assert "error" in json.loads(response.read())
        finally:
            conn.close()


def test_served_placements_byte_identical_to_direct_service(served):
    """The acceptance bar: HTTP answers == in-process ``batch_query``."""
    handle, _, reference = served
    specs = [
        QuerySpec(k=3, tau_km=0.8),
        QuerySpec(k=6, tau_km=0.8),
        QuerySpec(k=4, tau_km=1.6, preference="linear"),
        QuerySpec(k=3, tau_km=0.8, capacity=25),
        QuerySpec(k=1, tau_km=0.8, budget=3.0),
    ]
    status, _, body = request(
        handle.address, "POST", "/query", [spec.to_dict() for spec in specs]
    )
    assert status == 200
    direct = reference.batch_query(specs, use_cache=False)
    assert len(body["results"]) == len(direct)
    for served_entry, want, spec in zip(body["results"], direct, specs):
        assert tuple(served_entry["sites"]) == want.sites
        assert served_entry["utility"] == want.utility
        assert (
            np.asarray(served_entry["per_trajectory_utility"], dtype=np.float64).tobytes()
            == np.asarray(want.per_trajectory_utility, dtype=np.float64).tobytes()
        ), f"per-trajectory utilities diverged for {spec}"


@pytest.mark.parametrize(
    "extra", [{"use_cache": True}, {"use_cache": False}, {}], ids=["true", "false", "absent"]
)
def test_query_accepts_object_envelope(served, extra):
    handle, _, _ = served
    spec = {"k": 3, "tau_km": 0.8}
    status, _, body = request(handle.address, "POST", "/query", {"specs": [spec], **extra})
    assert status == 200
    assert len(body["results"]) == 1
    assert body["results"][0]["spec"]["k"] == 3


@pytest.mark.parametrize(
    "extra",
    [{"use_cache": "false"}, {"use_cache": [0]}, {"use_cache": None}, {"usecache": False}],
    ids=["string", "list", "null", "unknown-key"],
)
def test_query_envelope_refuses_non_boolean_use_cache_and_unknown_keys(served, extra):
    handle, service, _ = served
    _, _, health = request(handle.address, "GET", "/healthz")
    version, served_before = health["index_version"], service.stats.queries_served
    status, _, body = request(
        handle.address, "POST", "/query", {"specs": [{"k": 3, "tau_km": 0.8}], **extra}
    )
    assert status == 400
    assert "error" in body
    assert service.stats.queries_served == served_before
    _, _, health = request(handle.address, "GET", "/healthz")
    assert health["index_version"] == version


def test_metrics_exposes_service_and_server_counters(served):
    handle, _, _ = served
    # ensure there is traffic to report
    request(handle.address, "POST", "/query", [{"k": 3, "tau_km": 0.8}])
    status, headers, text = request(handle.address, "GET", "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    lines = text.splitlines()
    assert any(line.startswith("netclus_service_queries_served") for line in lines)
    assert 'netclus_server_requests_total{endpoint="query"}' in text
    assert 'netclus_server_responses_total{status="200"}' in text
    assert (
        'netclus_server_request_latency_seconds{endpoint="query",quantile="0.99"}'
        in text
    )
    assert "netclus_index_version" in text
    # HELP/TYPE headers rendered once per metric name
    helps = [line for line in lines if line.startswith("# HELP")]
    assert len(helps) == len(set(helps))


def _raw_exchange(address: tuple[str, int], data: bytes) -> bytes:
    """Send raw request bytes, half-close, and read the reply to EOF."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.mark.parametrize(
    "head",
    [
        b"Content-Length: abc\r\n",
        b"Content-Length: +5\r\n",
        b"Content-Length: 1_0\r\n",
        b"X-Padding: " + b"a" * (70 * 1024) + b"\r\n",
        b"Content-Length: -1\r\n",
        b"Content-Length: \xb2\r\n",  # latin-1 superscript two: isdigit(), not int()
        b"Content-Length: 999999999999\r\n",
    ],
    ids=[
        "non-numeric-length",
        "signed-length",
        "underscore-length",
        "oversized-header",
        "negative-length",
        "non-ascii-digit-length",
        "over-body-limit",
    ],
)
def test_malformed_headers_answer_400_and_close(served, head):
    handle, _, _ = served
    before = handle.server.stats.responses_by_status.get(400, 0)
    reply = _raw_exchange(
        handle.address, b"POST /query HTTP/1.1\r\nHost: test\r\n" + head + b"\r\n"
    )
    assert reply.startswith(b"HTTP/1.1 400 "), reply[:80]
    assert b"\r\nConnection: close\r\n" in reply
    assert handle.server.stats.responses_by_status.get(400, 0) == before + 1
    status, _, _ = request(handle.address, "GET", "/healthz")
    assert status == 200


def test_oversized_request_line_answers_400_and_close(served):
    handle, _, _ = served
    before = handle.server.stats.responses_by_status.get(400, 0)
    target = b"/query?" + b"a" * (70 * 1024)
    reply = _raw_exchange(handle.address, b"GET " + target + b" HTTP/1.1\r\n\r\n")
    assert reply.startswith(b"HTTP/1.1 400 "), reply[:80]
    assert b"\r\nConnection: close\r\n" in reply
    assert handle.server.stats.responses_by_status.get(400, 0) == before + 1


# ---------------------------------------------------------------------- #
# one greedy step per selection key
# ---------------------------------------------------------------------- #
def _background_query(handle, payload, results, key):
    results[key] = request(handle.address, "POST", "/query", payload, timeout=30)


def _utility_bytes(entry) -> bytes:
    return np.asarray(entry["per_trajectory_utility"], dtype=np.float64).tobytes()


def test_identical_concurrent_specs_share_one_greedy_step(tiny_netclus):
    """Two concurrent requests for one spec run ONE greedy step: the second
    waits on the first's in-flight slot and answers from its order."""
    service = GatedService(tiny_netclus)
    spec = {"k": 4, "tau_km": 0.8}
    with serve_in_background(one_tenant_farm(service)) as handle:
        service.gate.clear()
        results: dict[str, tuple] = {}
        first = threading.Thread(
            target=_background_query, args=(handle, [spec], results, "first")
        )
        first.start()
        wait_until(lambda: service.calls == 1, message="first request's greedy step")
        second = threading.Thread(
            target=_background_query, args=(handle, [spec], results, "second")
        )
        second.start()
        # a miss that finds the slot held is committed to waiting on it
        wait_until(
            lambda: service.stats.cache_misses == 2,
            message="second request to wait on the slot",
        )
        service.gate.set()
        first.join(timeout=20)
        second.join(timeout=20)

        assert results["first"][0] == 200 and results["second"][0] == 200
        first_entry = results["first"][2]["results"][0]
        second_entry = results["second"][2]["results"][0]
        assert first_entry["sites"] == second_entry["sites"]
        assert _utility_bytes(first_entry) == _utility_bytes(second_entry)
        assert service.calls == 1
        assert service.stats.greedy_runs == 1
        assert service.stats.coverage_builds == 1
        assert service.stats.coalesced_specs == 1
        _, _, text = request(handle.address, "GET", "/metrics")
        assert "netclus_service_coalesced_specs 1" in text.splitlines()


def test_duplicate_specs_within_one_request_coalesce(tiny_netclus):
    """Byte-equal specs in one request share the batch's one greedy run."""
    service = GatedService(tiny_netclus)
    spec = {"k": 3, "tau_km": 0.8}
    with serve_in_background(one_tenant_farm(service)) as handle:
        status, _, body = request(handle.address, "POST", "/query", [spec, spec, spec])
        assert status == 200
        assert service.calls == 1
        assert service.stats.greedy_runs == 1
        entries = body["results"]
        assert entries[0]["sites"] == entries[1]["sites"] == entries[2]["sites"]
        assert len({_utility_bytes(entry) for entry in entries}) == 1


# ---------------------------------------------------------------------- #
# backpressure
# ---------------------------------------------------------------------- #
def test_queue_full_rejects_503_without_corrupting_inflight_work(tiny_netclus):
    service = GatedService(tiny_netclus)
    reference = PlacementService(tiny_netclus)
    slow_spec = {"k": 4, "tau_km": 0.8}
    with serve_in_background(one_tenant_farm(service), max_inflight=1) as handle:
        service.gate.clear()
        results: dict[str, tuple] = {}
        first = threading.Thread(
            target=_background_query, args=(handle, [slow_spec], results, "slow")
        )
        first.start()
        wait_until(lambda: service.calls == 1, message="slow request to be admitted")

        status, headers, body = request(
            handle.address, "POST", "/query", [{"k": 2, "tau_km": 1.6}]
        )
        assert status == 503
        assert "over capacity" in body["error"]
        assert headers.get("Retry-After") == "1"
        assert handle.server.stats.rejected_total == 1
        # health/metrics stay reachable while queries are saturated
        assert request(handle.address, "GET", "/healthz")[0] == 200
        assert request(handle.address, "GET", "/metrics")[0] == 200

        service.gate.set()
        first.join(timeout=20)
        # the in-flight request finished unharmed and correct
        assert results["slow"][0] == 200
        want = reference.query(QuerySpec(**slow_spec), use_cache=False)
        assert tuple(results["slow"][2]["results"][0]["sites"]) == want.sites

        # capacity is released: the previously rejected spec now answers
        status, _, _ = request(handle.address, "POST", "/query", [{"k": 2, "tau_km": 1.6}])
        assert status == 200


# ---------------------------------------------------------------------- #
# per-request timeout
# ---------------------------------------------------------------------- #
def test_request_timeout_answers_504_and_computation_survives(tiny_netclus):
    service = GatedService(tiny_netclus)
    spec = {"k": 3, "tau_km": 0.8}
    with serve_in_background(one_tenant_farm(service), request_timeout=0.2) as handle:
        service.gate.clear()
        status, _, body = request(handle.address, "POST", "/query", [spec], timeout=30)
        assert status == 504
        assert "exceeded" in body["error"]
        assert handle.server.stats.timeouts_total == 1

        # the computation was not abandoned: once the gate opens it
        # completes, releases its slot and warms the cache
        service.gate.set()
        wait_until(lambda: service.stats.greedy_runs >= 1, message="background completion")
        wait_until(lambda: not service._slots, message="the slot table to empty")
        status, _, body = request(handle.address, "POST", "/query", [spec])
        assert status == 200
        wait_until(lambda: service.stats.cache_hits >= 1, message="cache hit")


# ---------------------------------------------------------------------- #
# updates through the writer lock
# ---------------------------------------------------------------------- #
@pytest.fixture
def mutable_served(tiny_problem):
    """A freshly built (mutable) served index — mutation tests only."""
    index = tiny_problem.build_netclus_index(gamma=0.75, tau_min_km=0.4, tau_max_km=4.0)
    service = PlacementService(index)
    with serve_in_background(one_tenant_farm(service)) as handle:
        yield handle, service


def test_update_bumps_version_and_later_queries_see_it(mutable_served):
    handle, service = mutable_served
    spec = {"k": 5, "tau_km": 0.8}
    status, _, before = request(handle.address, "POST", "/query", [spec])
    assert status == 200
    victim = before["results"][0]["sites"][0]

    status, _, body = request(
        handle.address, "POST", "/update", {"remove_sites": [victim]}
    )
    assert status == 200
    assert body["applied"] == 1
    assert body["index_version"] == body["index_version_before"] + 1
    assert service.index.version == body["index_version"]

    status, _, health = request(handle.address, "GET", "/healthz")
    assert health["index_version"] == body["index_version"]

    status, _, after = request(handle.address, "POST", "/query", [spec])
    assert status == 200
    assert victim not in after["results"][0]["sites"]
    assert after["index_version"] == body["index_version"]


def test_update_add_trajectory_over_http(mutable_served, tiny_problem):
    handle, service = mutable_served
    # a valid two-node walk along an existing edge of the network
    network = service.index.network
    node = next(n for n in network.node_ids() if network.successors(n))
    neighbor = next(iter(network.successors(node)))
    new_id = max(service.index.trajectory_ids) + 1
    status, _, body = request(
        handle.address,
        "POST",
        "/update",
        {"add_trajectories": [{"traj_id": new_id, "nodes": [node, neighbor]}]},
    )
    assert status == 200
    assert body["applied"] == 1
    assert new_id in service.index.trajectory_ids


def test_update_rejects_bad_deltas(mutable_served):
    handle, service = mutable_served
    status, _, body = request(handle.address, "POST", "/update", {"bogus": [1]})
    assert status == 400
    assert "unknown update fields" in body["error"]
    status, _, body = request(handle.address, "POST", "/update", {})
    assert status == 400
    assert "empty update" in body["error"]
    # a site the index does not know: validated up front, nothing applied
    status, _, body = request(
        handle.address, "POST", "/update", {"remove_sites": [99999]}
    )
    assert status == 400
    # ids must be lists of integers: a string is not the list of its
    # digits, and a fraction or a bool is not an id
    network = service.index.network
    node = next(n for n in network.node_ids() if network.successors(n))
    walk = [node, next(iter(network.successors(node)))]
    new_id = max(service.index.trajectory_ids) + 1
    site = min(service.index.sites)
    for delta in (
        {"remove_sites": "12"},
        {"remove_sites": [str(site)]},
        {"add_trajectories": [{"traj_id": str(new_id), "nodes": walk}]},
        {"add_trajectories": [{"traj_id": new_id, "nodes": [str(n) for n in walk]}]},
        {"remove_sites": 12},
        {"remove_sites": [2.9]},
        {"add_sites": [True]},
        {"remove_trajectories": [True]},
        {"add_trajectories": [{"traj_id": new_id + 0.5, "nodes": walk}]},
        {"add_trajectories": [{"traj_id": new_id, "nodes": "12"}]},
    ):
        status, _, body = request(handle.address, "POST", "/update", delta)
        assert status == 400, delta
        assert "error" in body
    assert service.index.version == 0
    _, _, health = request(handle.address, "GET", "/healthz")
    assert health["index_version"] == 0


def test_concurrent_keep_alive_queries_and_updates_all_succeed(mutable_served):
    """Mixed load: keep-alive query clients beside a writer toggling one
    site; every request answers 200 and every update is applied."""
    handle, service = mutable_served
    site = sorted(service.index.sites)[0]
    version_before = service.index.version
    num_updates, queries_per_client = 6, 8
    specs = [{"k": 3, "tau_km": 0.8}, {"k": 5, "tau_km": 1.6, "preference": "linear"}]
    statuses: list[int] = []
    applied: list[int] = []
    lock = threading.Lock()

    def query_client(seed: int) -> None:
        conn = http.client.HTTPConnection(*handle.address, timeout=30)
        try:
            for i in range(queries_per_client):
                spec = specs[(seed + i) % len(specs)]
                conn.request("POST", "/query", body=json.dumps([spec]))
                response = conn.getresponse()
                response.read()
                with lock:
                    statuses.append(response.status)
        finally:
            conn.close()

    def updater() -> None:
        conn = http.client.HTTPConnection(*handle.address, timeout=30)
        try:
            for i in range(num_updates):
                key = "add_sites" if i % 2 else "remove_sites"
                conn.request("POST", "/update", body=json.dumps({key: [site]}))
                response = conn.getresponse()
                body = json.loads(response.read())
                with lock:
                    statuses.append(response.status)
                    applied.append(body.get("applied", 0))
        finally:
            conn.close()

    threads = [threading.Thread(target=query_client, args=(seed,)) for seed in range(3)]
    threads.append(threading.Thread(target=updater))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert statuses == [200] * (3 * queries_per_client + num_updates)
    assert sum(applied) == num_updates
    assert service.index.version == version_before + num_updates
    assert site in service.index.sites


def test_update_then_query_served_from_patched_coverage_cache(tiny_problem):
    """The zero-rebuild bar over HTTP: ``POST /update`` then ``POST /query``
    on the same (τ, ψ) answers from the *patched* cache — exactly zero
    coverage builds after warm-up — and the answer is byte-identical to a
    cold coverage rebuild on the updated index."""
    import copy

    index = tiny_problem.build_netclus_index(
        gamma=0.75, tau_min_km=0.4, tau_max_km=4.0
    )
    service = PlacementService(index, coverage_cache=True)
    spec = {"k": 5, "tau_km": 0.8}
    with serve_in_background(one_tenant_farm(service)) as handle:
        status, _, before = request(handle.address, "POST", "/query", [spec])
        assert status == 200
        assert service.stats.coverage_builds == 1  # the one cold warm-up build
        builds_after_warmup = service.stats.coverage_builds

        victim = before["results"][0]["sites"][0]
        status, _, body = request(
            handle.address, "POST", "/update", {"remove_sites": [victim]}
        )
        assert status == 200
        assert body["applied"] == 1

        status, _, after = request(handle.address, "POST", "/query", [spec])
        assert status == 200
        assert victim not in after["results"][0]["sites"]
        # the defining property: the post-update answer required no
        # coverage build — the part was patched, not rebuilt
        assert service.stats.coverage_builds == builds_after_warmup
        assert service.coverage_cache.stats()["patches"] == 1
        assert service.coverage_cache.stats()["invalidations"] == 0

        # byte parity against a cold coverage build on the updated index
        cold_index = copy.deepcopy(service.index)
        cold_index.coverage_cache = None
        cold = PlacementService(cold_index)
        want = cold.batch_query([QuerySpec(k=5, tau_km=0.8)], use_cache=False)[0]
        assert tuple(after["results"][0]["sites"]) == want.sites
        assert (
            np.asarray(
                after["results"][0]["per_trajectory_utility"], dtype=np.float64
            ).tobytes()
            == np.asarray(want.per_trajectory_utility, dtype=np.float64).tobytes()
        )

        # /metrics exposes the cache counters
        status, _, text = request(handle.address, "GET", "/metrics")
        assert status == 200
        assert "netclus_covcache_patches 1" in text
        assert "netclus_covcache_parts 1" in text
        # the live part count rises and falls; every other stat is cumulative
        assert "# TYPE netclus_covcache_parts gauge" in text
        for name in (
            "hits",
            "misses",
            "stores",
            "patches",
            "invalidations",
            "materialisations",
            "patch_seconds",
            "materialise_seconds",
        ):
            assert f"# TYPE netclus_covcache_{name} counter" in text


# ---------------------------------------------------------------------- #
# graceful drain
# ---------------------------------------------------------------------- #
def test_shutdown_drains_inflight_requests(tiny_netclus):
    service = GatedService(tiny_netclus)
    spec = {"k": 3, "tau_km": 1.6}
    handle = serve_in_background(one_tenant_farm(service))
    service.gate.clear()
    results: dict[str, tuple] = {}
    slow = threading.Thread(
        target=_background_query, args=(handle, [spec], results, "slow")
    )
    slow.start()
    wait_until(lambda: service.calls == 1, message="request to be in flight")

    closer = threading.Thread(target=handle.close)
    closer.start()
    wait_until(lambda: handle.server.draining, message="drain to begin")
    service.gate.set()
    slow.join(timeout=20)
    closer.join(timeout=20)

    # the in-flight request completed despite the concurrent shutdown
    assert results["slow"][0] == 200
    assert results["slow"][2]["results"][0]["sites"]
    # and the socket is really gone afterwards
    with pytest.raises(ConnectionRefusedError):
        http.client.HTTPConnection(*handle.address, timeout=2).request("GET", "/healthz")


def test_close_is_idempotent(tiny_netclus):
    handle = serve_in_background(one_tenant_farm(PlacementService(tiny_netclus)))
    handle.close()
    handle.close()


# ---------------------------------------------------------------------- #
# latency reservoir
# ---------------------------------------------------------------------- #
def test_latency_reservoir_quantiles():
    reservoir = LatencyReservoir(capacity=100)
    assert reservoir.quantile(0.5) == 0.0
    for value in range(1, 101):
        reservoir.record(value / 100.0)
    assert reservoir.count == 100
    assert reservoir.quantile(0.5) == pytest.approx(0.5)
    assert reservoir.quantile(0.99) == pytest.approx(0.99)
    assert reservoir.quantile(1.0) == pytest.approx(1.0)
    snapshot = reservoir.snapshot()
    assert snapshot["count"] == 100
    assert snapshot["p50"] == pytest.approx(0.5)


def test_latency_reservoir_windows_over_capacity():
    reservoir = LatencyReservoir(capacity=10)
    for _ in range(50):
        reservoir.record(1.0)
    for _ in range(10):
        reservoir.record(5.0)  # the window now holds only these
    assert reservoir.count == 60
    assert reservoir.quantile(0.5) == 5.0
    assert reservoir.quantile(0.99) == 5.0


def test_latency_reservoir_validates():
    with pytest.raises(ValueError):
        LatencyReservoir(capacity=0)
    with pytest.raises(ValueError):
        LatencyReservoir().quantile(1.5)


# ---------------------------------------------------------------------- #
# construction validation
# ---------------------------------------------------------------------- #
def test_server_validates_parameters(tiny_netclus):
    farm = one_tenant_farm(PlacementService(tiny_netclus))
    with pytest.raises(ValueError):
        PlacementServer(farm, max_inflight=0)
    with pytest.raises(ValueError):
        PlacementServer(farm, worker_threads=0)
    with pytest.raises(ValueError):
        PlacementServer(farm, request_timeout=0.0)
