"""Tests for the multi-tenant index farm (``repro.service.farm``).

The core contract under test: a farm serving N tenants under a memory
budget — with lazy loads, LRU evictions and write-through updates — must
answer every query **byte-identically** to a dedicated per-tenant
:class:`PlacementService` that never evicts.  The seeded state-machine
test interleaves queries, updates and evictions across three tenants and
byte-compares every probe against mirrored direct services.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.core.netclus import NetClusIndex, UpdateBatch
from repro.network.generators import grid_network
from repro.service import (
    IndexFarm,
    PlacementService,
    QuerySpec,
    load_index,
    load_manifest,
    save_index,
    serve_in_background,
)
from repro.service.farm import DEFAULT_TENANT, UnknownTenantError
from repro.service.serialization import payload_digest
from repro.trajectory.generators import commuter_trajectories

TENANTS = ("nyk", "bjg", "tky")


def _build_city(seed: int) -> NetClusIndex:
    network = grid_network(6, 6, spacing_km=0.5)
    dataset = commuter_trajectories(network, 30, seed=seed)
    index = NetClusIndex.build(
        network,
        dataset,
        network.node_ids()[::3],
        gamma=0.75,
        tau_min_km=0.4,
        tau_max_km=2.0,
    )
    index.enable_coverage_cache()
    return index


@pytest.fixture(scope="module")
def tenant_dirs(tmp_path_factory):
    """Three tenant index directories (distinct seeds → distinct cities)."""
    root = tmp_path_factory.mktemp("farm")
    return {
        name: save_index(_build_city(seed=11 + i), root / f"{name}.ncx")
        for i, name in enumerate(TENANTS)
    }


def _one_tenant_budget(tenant_dirs) -> int:
    """A budget that fits roughly one tenant (forces eviction churn)."""
    largest = max(
        int(load_manifest(path)["storage_bytes"]) for path in tenant_dirs.values()
    )
    return int(largest * 1.5)


def _probe(result):
    """The byte-comparable essence of one placement result."""
    return (
        tuple(result.sites),
        np.asarray(result.per_trajectory_utility).tobytes(),
    )


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
def test_unknown_tenant_raises(tenant_dirs):
    farm = IndexFarm()
    farm.add_tenant("nyk", tenant_dirs["nyk"])
    with pytest.raises(UnknownTenantError):
        farm.query("nope", QuerySpec(k=3, tau_km=1.0))
    with pytest.raises(UnknownTenantError):
        farm.evict("nope")


def test_duplicate_and_bad_names_refused(tenant_dirs):
    farm = IndexFarm()
    farm.add_tenant("nyk", tenant_dirs["nyk"])
    with pytest.raises(ValueError):
        farm.add_tenant("nyk", tenant_dirs["bjg"])
    with pytest.raises(ValueError):
        farm.add_tenant("a/b", tenant_dirs["bjg"])
    with pytest.raises(ValueError):
        farm.add_tenant("", tenant_dirs["bjg"])


def test_registration_is_lazy(tenant_dirs):
    """add_tenant reads only the manifest; no tenant is resident."""
    farm = IndexFarm()
    for name, path in tenant_dirs.items():
        record = farm.add_tenant(name, path)
        assert not record.resident
        assert record.storage_bytes > 0  # from the manifest, not a load
    assert farm.resident_tenants() == []
    assert farm.loads_total == 0


def test_each_load_reads_the_manifest_once(tenant_dirs, monkeypatch):
    """A tenant load reads its manifest once (inside ``load_index``); the
    storage accounting comes from the loaded index and equals the manifest."""
    from repro.service import farm as farm_module
    from repro.service import serialization

    original = serialization.load_manifest
    calls: list[str] = []

    def counting_load_manifest(path):
        calls.append(str(path))
        return original(path)

    monkeypatch.setattr(serialization, "load_manifest", counting_load_manifest)
    monkeypatch.setattr(farm_module, "load_manifest", counting_load_manifest)
    farm = IndexFarm()
    record = farm.add_tenant("nyk", tenant_dirs["nyk"])
    manifest_bytes = int(original(tenant_dirs["nyk"])["storage_bytes"])
    calls.clear()
    for _ in range(2):
        farm.service("nyk")
        assert record.storage_bytes == manifest_bytes
        assert farm.evict("nyk")
    assert record.loads == 2
    assert calls == [str(tenant_dirs["nyk"])] * 2


def test_remove_tenant_keeps_directory(tenant_dirs):
    farm = IndexFarm()
    farm.add_tenant("nyk", tenant_dirs["nyk"])
    farm.query("nyk", QuerySpec(k=3, tau_km=1.0))
    farm.remove_tenant("nyk")
    assert farm.tenants() == []
    assert (tenant_dirs["nyk"] / "manifest.json").is_file()


# ---------------------------------------------------------------------- #
# budget / eviction
# ---------------------------------------------------------------------- #
def test_budget_evicts_lru_never_the_touched_tenant(tenant_dirs):
    farm = IndexFarm(memory_budget_bytes=_one_tenant_budget(tenant_dirs))
    for name, path in tenant_dirs.items():
        farm.add_tenant(name, path)
    spec = QuerySpec(k=4, tau_km=1.0)
    farm.query("nyk", spec)
    assert farm.resident_tenants() == ["nyk"]
    farm.query("bjg", spec)
    # nyk (LRU) was evicted to fit bjg; bjg itself was never evicted
    assert farm.resident_tenants() == ["bjg"]
    assert farm.evictions_total == 1
    farm.query("tky", spec)
    assert farm.resident_tenants() == ["tky"]
    assert farm.evictions_total == 2
    assert farm.resident_bytes() <= farm.memory_budget_bytes


def test_oversized_tenant_still_serves(tenant_dirs):
    """A budget smaller than any single index still serves one tenant."""
    farm = IndexFarm(memory_budget_bytes=1)
    farm.add_tenant("nyk", tenant_dirs["nyk"])
    result = farm.query("nyk", QuerySpec(k=3, tau_km=1.0))
    assert result.sites
    assert farm.resident_tenants() == ["nyk"]


def test_no_budget_never_evicts(tenant_dirs):
    farm = IndexFarm()
    for name, path in tenant_dirs.items():
        farm.add_tenant(name, path)
    spec = QuerySpec(k=3, tau_km=1.0)
    for name in TENANTS:
        farm.query(name, spec)
    assert farm.resident_tenants() == sorted(TENANTS)
    assert farm.evictions_total == 0


def test_eviction_and_reload_are_transparent(tenant_dirs):
    farm = IndexFarm(memory_budget_bytes=_one_tenant_budget(tenant_dirs))
    for name, path in tenant_dirs.items():
        farm.add_tenant(name, path)
    spec = QuerySpec(k=5, tau_km=0.8)
    before = {name: _probe(farm.query(name, spec)) for name in TENANTS}
    assert farm.evictions_total >= 2  # the budget forced churn
    after = {name: _probe(farm.query(name, spec)) for name in TENANTS}
    assert after == before


def test_tenant_stats_survive_eviction(tenant_dirs):
    farm = IndexFarm()
    farm.add_tenant("nyk", tenant_dirs["nyk"])
    spec = QuerySpec(k=3, tau_km=1.0)
    farm.query("nyk", spec)
    farm.evict("nyk")
    farm.query("nyk", spec)
    stats = farm.tenant_stats("nyk")
    assert stats["queries_served"] == 2
    assert stats["greedy_runs"] == 2  # fresh service: no shared result cache
    assert farm.tenant_stats("nyk")["coverage_builds"] >= 1


def test_explicit_evict_reports_residency(tenant_dirs):
    farm = IndexFarm()
    farm.add_tenant("nyk", tenant_dirs["nyk"])
    assert farm.evict("nyk") is False  # never loaded
    farm.query("nyk", QuerySpec(k=3, tau_km=1.0))
    assert farm.evict("nyk") is True
    assert farm.evict("nyk") is False  # already out


def test_directory_less_tenant_is_pinned_and_never_saved(tenant_dirs, monkeypatch):
    """An in-memory tenant beside two directory tenants under a one-tenant
    budget: loads churn the directory tenants, never it; its updates save
    nothing; its stats are its live service's."""
    farm = IndexFarm(memory_budget_bytes=_one_tenant_budget(tenant_dirs))
    for name in ("nyk", "bjg"):
        farm.add_tenant(name, tenant_dirs[name])
    service = PlacementService(_build_city(seed=99))
    record = farm.add_service(service)
    assert record.directory is None and record.resident
    with pytest.raises(ValueError):
        farm.add_service(PlacementService(_build_city(seed=99)))
    spec = QuerySpec(k=4, tau_km=1.0)
    for name in ("nyk", DEFAULT_TENANT, "bjg", DEFAULT_TENANT, "nyk", "bjg"):
        farm.query(name, spec)
        assert DEFAULT_TENANT in farm.resident_tenants()
    assert farm.loads_total == 4
    assert farm.evictions_total == 3  # every load after the first evicted
    assert record.evictions == 0 and record.service is service
    assert farm.evict(DEFAULT_TENANT) is False

    def no_save(*args, **kwargs):
        raise AssertionError("a directory-less tenant was saved")

    monkeypatch.setattr(PlacementService, "save", no_save)
    ids = list(service.index.trajectory_ids)[:5]
    assert farm.apply_updates(DEFAULT_TENANT, UpdateBatch(remove_trajectories=ids)) == 5
    assert record.storage_bytes == service.index.storage_bytes()
    assert farm.tenant_stats(DEFAULT_TENANT) == service.stats.as_dict()
    farm.close()
    assert farm.resident_tenants() == [DEFAULT_TENANT]


# ---------------------------------------------------------------------- #
# write-through updates
# ---------------------------------------------------------------------- #
def test_updates_write_through_and_survive_eviction(tenant_dirs, tmp_path):
    # work on a copy: other tests share the module-scoped directories
    import shutil

    directory = tmp_path / "nyk.ncx"
    shutil.copytree(tenant_dirs["nyk"], directory)
    farm = IndexFarm()
    farm.add_tenant("nyk", directory)
    spec = QuerySpec(k=4, tau_km=1.0)
    sites = sorted(farm.service("nyk").index.sites)
    applied = farm.apply_updates("nyk", UpdateBatch(remove_sites=sites[:2]))
    assert applied == 2
    updated = _probe(farm.query("nyk", spec))
    farm.evict("nyk")
    # the reload reads the written-through directory, not the stale state
    assert _probe(farm.query("nyk", spec)) == updated
    assert farm.index_version("nyk") == 1


def test_update_refreshes_storage_accounting(tenant_dirs, tmp_path):
    import shutil

    directory = tmp_path / "nyk.ncx"
    shutil.copytree(tenant_dirs["nyk"], directory)
    farm = IndexFarm()
    record = farm.add_tenant("nyk", directory)
    before = record.storage_bytes
    ids = list(farm.service("nyk").index.trajectory_ids)[:10]
    farm.apply_updates("nyk", UpdateBatch(remove_trajectories=ids))
    assert record.storage_bytes < before


def test_update_racing_an_eviction_is_not_lost(tenant_dirs, tmp_path, monkeypatch):
    """While one update's write-through save runs, a load of another tenant
    cannot evict the tenant and a second update waits for the save, so the
    directory ends equal to applying both batches in order."""
    import shutil

    dirs = {
        name: shutil.copytree(tenant_dirs[name], tmp_path / f"{name}.ncx")
        for name in ("nyk", "bjg")
    }
    farm = IndexFarm(memory_budget_bytes=_one_tenant_budget(tenant_dirs))
    for name, directory in dirs.items():
        farm.add_tenant(name, directory)
    sites = sorted(farm.service("nyk").index.sites)
    batches = [UpdateBatch(remove_sites=sites[:1]), UpdateBatch(remove_sites=sites[1:2])]

    saving, release = threading.Event(), threading.Event()
    real_save = PlacementService.save
    saves: list[object] = []

    def gated_save(self, path, dataset=None):
        saves.append(path)
        if len(saves) == 1:  # hold the first update inside its save
            saving.set()
            assert release.wait(30)
        return real_save(self, path, dataset=dataset)

    monkeypatch.setattr(PlacementService, "save", gated_save)
    errors: list[BaseException] = []

    def update(batch):
        try:
            farm.apply_updates("nyk", batch)
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)

    first = threading.Thread(target=update, args=(batches[0],))
    first.start()
    assert saving.wait(30)
    farm.query("bjg", QuerySpec(k=3, tau_km=1.0))  # loads bjg over the budget
    assert "nyk" in farm.resident_tenants()
    second = threading.Thread(target=update, args=(batches[1],))
    second.start()
    second.join(timeout=1.0)  # blocked on nyk's writer lock until the save
    release.set()
    for thread in (first, second):
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert errors == []

    expected = load_index(tenant_dirs["nyk"])
    for batch in batches:
        expected.apply_updates(batch)
    reloaded = load_index(dirs["nyk"])
    assert reloaded.version == expected.version
    assert payload_digest(reloaded) == payload_digest(expected)


def _content_city(tmp_path):
    """A tenant directory saved with its dataset's content fingerprint."""
    network = grid_network(6, 6, spacing_km=0.5)
    dataset = commuter_trajectories(network, 30, seed=11)
    index = NetClusIndex.build(
        network, dataset, network.node_ids()[::3], gamma=0.75, tau_min_km=0.4, tau_max_km=2.0
    )
    directory = save_index(index, tmp_path / "city.ncx", dataset=dataset)
    return directory, dataset


def test_site_only_update_keeps_content_fingerprint(tmp_path):
    """The farm's write-through saves without a dataset; a site-only batch
    leaves the trajectories as they were, so the fingerprint stays and a
    load against the dataset still checks content."""
    directory, dataset = _content_city(tmp_path)
    fingerprint = load_manifest(directory)["fingerprints"]["trajectory_content"]
    farm = IndexFarm()
    farm.add_tenant("city", directory)
    site = min(farm.service("city").index.sites)
    farm.apply_updates("city", UpdateBatch(remove_sites=[site]))
    assert load_manifest(directory)["fingerprints"]["trajectory_content"] == fingerprint
    assert load_index(directory, dataset=dataset).trajectory_content == fingerprint


def test_trajectory_update_drops_content_fingerprint(tmp_path):
    """Removing a trajectory changes the content the fingerprint covered."""
    directory, _ = _content_city(tmp_path)
    farm = IndexFarm()
    farm.add_tenant("city", directory)
    victim = farm.service("city").index.trajectory_ids[0]
    farm.apply_updates("city", UpdateBatch(remove_trajectories=[victim]))
    assert "trajectory_content" not in load_manifest(directory)["fingerprints"]
    assert farm.service("city").index.trajectory_content is None


# ---------------------------------------------------------------------- #
# the seeded state machine: farm vs mirrored direct services
# ---------------------------------------------------------------------- #
def test_state_machine_matches_unevicted_direct_services(tenant_dirs, tmp_path):
    """Interleaved queries/updates/evictions across 3 tenants, byte-compared.

    The farm runs under a one-tenant budget (constant eviction churn);
    the mirrors are plain per-tenant services that never evict.  Every
    query probe must agree byte-for-byte, proving eviction, lazy reload
    and write-through can never change a result.
    """
    import shutil

    dirs = {}
    for name, source in tenant_dirs.items():
        dirs[name] = tmp_path / f"{name}.ncx"
        shutil.copytree(source, dirs[name])
    farm = IndexFarm(memory_budget_bytes=_one_tenant_budget(tenant_dirs))
    mirrors = {}
    for name, directory in dirs.items():
        farm.add_tenant(name, directory)
        mirrors[name] = PlacementService.from_path(directory)

    rng = random.Random(20260808)
    specs = [
        QuerySpec(k=3, tau_km=0.6),
        QuerySpec(k=5, tau_km=1.0),
        QuerySpec(k=4, tau_km=1.5),
    ]
    updates_done = 0
    for step in range(40):
        name = rng.choice(TENANTS)
        action = rng.random()
        if action < 0.6:
            spec = rng.choice(specs)
            assert _probe(farm.query(name, spec)) == _probe(
                mirrors[name].query(spec)
            ), f"step {step}: {name} diverged on {spec}"
        elif action < 0.8 and updates_done < 6:
            live_sites = sorted(mirrors[name].index.sites)
            if len(live_sites) > 4:
                batch = UpdateBatch(remove_sites=live_sites[:1])
                assert farm.apply_updates(name, batch) == mirrors[
                    name
                ].apply_updates(batch)
                updates_done += 1
        else:
            farm.evict(name)
    assert farm.evictions_total > 0, "the state machine never exercised eviction"
    assert updates_done > 0, "the state machine never exercised updates"
    # closing probe: all tenants, all specs, one last byte-compare
    for name in TENANTS:
        for spec in specs:
            assert _probe(farm.query(name, spec)) == _probe(mirrors[name].query(spec))
    farm.close()


# ---------------------------------------------------------------------- #
# HTTP farm mode
# ---------------------------------------------------------------------- #
def _http(address, method, path, payload=None):
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=20)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        raw = response.read()
        parsed = (
            json.loads(raw)
            if response.getheader("Content-Type", "").startswith("application/json")
            else raw.decode()
        )
        return response.status, parsed
    finally:
        conn.close()


@pytest.fixture()
def served_farm(tenant_dirs):
    farm = IndexFarm(
        memory_budget_bytes=_one_tenant_budget(tenant_dirs), coverage_cache=True
    )
    for name, path in tenant_dirs.items():
        farm.add_tenant(name, path)
    with serve_in_background(farm) as handle:
        yield farm, handle
    farm.close()


def test_http_tenant_query_matches_direct(served_farm, tenant_dirs):
    farm, handle = served_farm
    spec = QuerySpec(k=4, tau_km=1.0)
    direct = PlacementService.from_path(tenant_dirs["bjg"]).query(spec)
    status, body = _http(
        handle.address, "POST", "/t/bjg/query", {"specs": [spec.to_dict()]}
    )
    assert status == 200
    assert body["tenant"] == "bjg"
    result = body["results"][0]
    assert result["sites"] == list(direct.sites)
    assert result["per_trajectory_utility"] == pytest.approx(
        list(direct.per_trajectory_utility)
    )


class GatedFarm(IndexFarm):
    """A farm whose ``batch_query`` counts calls per tenant and waits on a
    test-held gate (open at first), so requests stay in flight on demand."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.gate = threading.Event()
        self.gate.set()
        self.calls: Counter[str] = Counter()
        self._calls_lock = threading.Lock()

    def batch_query(self, name, specs, use_cache=True):
        with self._calls_lock:
            self.calls[name] += 1
        assert self.gate.wait(timeout=20), "test gate never released"
        return super().batch_query(name, specs, use_cache=use_cache)


def _wait_until(predicate, message):
    deadline = time.monotonic() + 10
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {message}"
        time.sleep(0.005)


def test_http_coalescing_is_tenant_scoped(tenant_dirs):
    """While one spec is in flight for a tenant, the same spec for that
    tenant joins it (one ``batch_query``), but the same spec for another
    tenant runs on its own and answers from that tenant's index."""
    farm = GatedFarm()
    for name in ("nyk", "bjg"):
        farm.add_tenant(name, tenant_dirs[name])
    spec = {"k": 4, "tau_km": 1.0}
    replies: dict[str, tuple] = {}

    def post(key, tenant):
        replies[key] = _http(handle.address, "POST", f"/t/{tenant}/query", [spec])

    with serve_in_background(farm) as handle:
        farm.gate.clear()
        threads = {
            key: threading.Thread(target=post, args=(key, tenant))
            for key, tenant in (("nyk1", "nyk"), ("nyk2", "nyk"), ("bjg", "bjg"))
        }
        threads["nyk1"].start()
        _wait_until(lambda: farm.calls["nyk"] == 1, "the first nyk request")
        threads["nyk2"].start()
        _wait_until(lambda: handle.server.stats.coalesced_specs == 1, "nyk to coalesce")
        threads["bjg"].start()
        _wait_until(lambda: farm.calls["bjg"] == 1, "the bjg request")
        farm.gate.set()
        for thread in threads.values():
            thread.join(timeout=20)
        assert handle.server.stats.coalesced_specs == 1
    farm.close()

    assert farm.calls == {"nyk": 1, "bjg": 1}
    assert {key: reply[0] for key, reply in replies.items()} == dict.fromkeys(replies, 200)
    answers = {key: reply[1]["results"][0] for key, reply in replies.items()}
    assert answers["nyk1"] == answers["nyk2"]
    for key, tenant in (("nyk1", "nyk"), ("bjg", "bjg")):
        direct = PlacementService.from_path(tenant_dirs[tenant]).query(QuerySpec(**spec))
        assert answers[key]["sites"] == list(direct.sites)
        assert answers[key]["per_trajectory_utility"] == list(direct.per_trajectory_utility)
    assert answers["nyk1"]["sites"] != answers["bjg"]["sites"]  # distinct cities


def test_http_unknown_tenant_404(served_farm):
    _, handle = served_farm
    status, body = _http(
        handle.address,
        "POST",
        "/t/atlantis/query",
        {"specs": [{"k": 3, "tau_km": 1.0}]},
    )
    assert status == 404
    assert "atlantis" in body["error"]


def test_http_plain_endpoints_404_in_farm_mode(served_farm):
    _, handle = served_farm
    status, body = _http(
        handle.address, "POST", "/query", {"specs": [{"k": 3, "tau_km": 1.0}]}
    )
    assert status == 404
    assert "/t/<tenant>/query" in body["error"]


def test_http_eviction_between_requests_is_invisible(served_farm):
    farm, handle = served_farm
    spec = {"specs": [{"k": 5, "tau_km": 0.8}]}
    _, first = _http(handle.address, "POST", "/t/nyk/query", spec)
    farm.evict("nyk")
    _, second = _http(handle.address, "POST", "/t/nyk/query", spec)
    assert first["results"][0]["sites"] == second["results"][0]["sites"]
    assert (
        first["results"][0]["per_trajectory_utility"]
        == second["results"][0]["per_trajectory_utility"]
    )


def test_http_metrics_carry_tenant_labels(served_farm):
    farm, handle = served_farm
    _http(handle.address, "POST", "/t/nyk/query", {"specs": [{"k": 3, "tau_km": 1.0}]})
    status, text = _http(handle.address, "GET", "/metrics")
    assert status == 200
    assert 'netclus_service_queries_served{tenant="nyk"}' in text
    assert "netclus_farm_resident_bytes" in text
    assert "netclus_farm_evictions_total" in text
    assert "netclus_farm_memory_budget_bytes" in text
    assert 'netclus_farm_tenant_resident{tenant="nyk"}' in text
    # kernel, coverage-cache and version series of the resident tenant
    assert farm.resident_tenants() == ["nyk"]
    assert 'netclus_covcache_misses{tenant="nyk"} 1' in text
    assert 'netclus_covcache_parts{tenant="nyk"}' in text
    assert 'netclus_index_version{tenant="nyk"} 0' in text
    assert 'netclus_kernel_calls_total{kernel="marginal_gains",tenant="nyk"}' in text
    # a tenant that is not resident reports no live-index series
    assert 'netclus_index_version{tenant="bjg"}' not in text


def test_http_healthz_reports_tenancy(served_farm):
    farm, handle = served_farm
    status, body = _http(handle.address, "GET", "/healthz")
    assert status == 200
    assert body["tenants"] == len(TENANTS)
    assert set(body["resident_tenants"]) <= set(TENANTS)
