"""The ``farm_http`` workload: three Fig 11 cities behind the farm HTTP server.

The cities (``new_york_like``, ``atlanta_like``, ``bangalore_like``,
2,000 trajectories each) are built, warmed and saved as v4 with coverage
parts.  ``python -m repro.service farm`` serves them from a child process,
so the client never shares the server's interpreter lock.  The memory
budget fits two of the three tenants, so a tenant switch can evict and
reload.  One keep-alive connection sends tenant-scoped queries, staying
on the current tenant with probability 0.85.  Every 26th request is a
sliding-window update on the current tenant, which the farm writes
through to the tenant's directory.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import inputs
from inprocess import WINDOW_STEP, SlidingWindow, same_answer, shuffled, utility_ratios
from measure import (
    Calibration,
    OpLog,
    calibrate,
    child_peak_rss_mb,
    mean,
    min_samples,
    normalised_setup,
    phase_seconds,
)
from spans import BUILD_STAGES, SpanTable, Tracer, layer_metrics, rebased

from repro.core.query import TOPSResult
from repro.service import PlacementService, QuerySpec, load_manifest

HERE = Path(__file__).resolve().parent
BUILD = {"gamma": 0.75, "tau_min_km": 0.4, "tau_max_km": 4.0}
SERVICE = {"engine": "auto"}
SETUP_REPS = 3
SERVER_FLAGS = (
    "--engine", "auto", "--coverage-cache", "--worker-threads", "1", "--query-workers", "1",
)
FARM_KEYS = ((0.8, "binary"), (1.6, "binary"), (1.2, "linear"))
FARM_KEY_WEIGHTS = (0.5, 0.3, 0.2)
FARM_K = (2, 20)
STAY = 0.85
UPDATE_EVERY = 26
MIN_REQUESTS = UPDATE_EVERY * min_samples(0.75)
PROBE_SPECS = (
    QuerySpec(k=5, tau_km=0.8),
    QuerySpec(k=12, tau_km=1.6),
    QuerySpec(k=8, tau_km=1.2, preference="linear"),
    QuerySpec(k=6, tau_km=2.0),
)
UTILITY_SPECS = (
    QuerySpec(k=10, tau_km=0.8),
    QuerySpec(k=10, tau_km=1.6),
    QuerySpec(k=10, tau_km=1.2, preference="linear"),
)
START_TIMEOUT_S = 60.0


class FarmServer:
    """A ``repro.service farm`` child process and one keep-alive client connection."""

    def __init__(self, directories: dict[str, Path], budget_mb: float, trace_out: Path | None):
        command = [sys.executable, str(HERE / "farm_server.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["farm", "--memory-budget-mb", repr(budget_mb), "--port", "0", *SERVER_FLAGS]
        for name, directory in directories.items():
            command += ["--tenant", f"{name}={directory}"]
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        host, port = self._address()
        self.connection = http.client.HTTPConnection(host, port, timeout=120)

    def _address(self) -> tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT_S
        assert self.process.stdout is not None
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 1.0)
            if not ready:
                continue
            line = self.process.stdout.readline()
            if not line:
                break
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match:
                return match.group(1), int(match.group(2))
        self.stop()
        raise RuntimeError("farm server did not start")

    def post(self, path: str, body: bytes) -> tuple[int, bytes, float, float]:
        """One request; returns (status, body, send time, receive time)."""
        sent = time.perf_counter()
        self.connection.request("POST", path, body, {"Content-Type": "application/json"})
        response = self.connection.getresponse()
        data = response.read()
        return response.status, data, sent, time.perf_counter()

    def metrics(self) -> dict[str, float]:
        """``/metrics`` summed over labels, plus non-200 responses as ``failed``."""
        self.connection.request("GET", "/metrics")
        text = self.connection.getresponse().read().decode()
        totals: dict[str, float] = {"failed": 0.0}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            series, value = line.rsplit(" ", 1)
            name = series.split("{", 1)[0]
            totals[name] = totals.get(name, 0.0) + float(value)
            status = re.search(r'status="(\d+)"', series)
            if name == "netclus_server_responses_total" and status and status.group(1) != "200":
                totals["failed"] += float(value)
        return totals

    def stop(self) -> None:
        """SIGINT (graceful drain), then wait; kill if it does not exit."""
        if getattr(self, "connection", None) is not None:
            self.connection.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


def query_body(specs: list[QuerySpec], use_cache: bool = True) -> bytes:
    return json.dumps({"specs": [s.to_dict() for s in specs], "use_cache": use_cache}).encode()


def schedule(names: list[str]) -> list[str]:
    """The tenant of each request in one pass: the same for every seed."""
    rng = random.Random("farm_http:tenants")
    tenant, tenants = names[0], []
    for _ in range(MIN_REQUESTS):
        if rng.random() > STAY:
            tenant = rng.choice([n for n in names if n != tenant])
        tenants.append(tenant)
    return tenants


def requests(windows: dict[str, SlidingWindow]) -> Any:
    """``(tenant, kind, body)`` forever: a fixed tenant schedule and a fixed
    query sequence (the same for every seed, so the cache and farm counts
    are too), with updates built from the seeded city data."""
    mix = random.Random("farm_http:queries")
    queries = []
    for _ in range(MIN_REQUESTS):
        tau, preference = mix.choices(FARM_KEYS, weights=FARM_KEY_WEIGHTS)[0]
        ks = sorted({mix.randint(*FARM_K) for _ in range(mix.randint(1, 2))})
        queries.append([QuerySpec(k=k, tau_km=tau, preference=preference) for k in ks])
    order = shuffled(queries, random.Random("farm_http:order"))
    tenants = schedule(list(windows))
    position = 0
    while True:
        tenant = tenants[position % len(tenants)]
        position += 1
        if position % UPDATE_EVERY == 0:
            added, removed = windows[tenant].step(WINDOW_STEP)
            body = {
                "add_trajectories": [{"traj_id": t.traj_id, "nodes": list(t.nodes)} for t in added],
                "remove_trajectories": removed,
            }
            yield tenant, "update", json.dumps(body).encode()
        else:
            yield tenant, "query", query_body(next(order))


def counts_of(now: dict[str, float], base: dict[str, float]) -> dict[str, int]:
    def delta(name: str) -> int:
        return round(now.get(name, 0.0) - base.get(name, 0.0))

    return {
        "result_cache_hits": delta("netclus_service_cache_hits"),
        "result_cache_misses": delta("netclus_service_cache_misses"),
        "greedy_runs": delta("netclus_service_greedy_runs"),
        "covcache_hits": delta("netclus_service_coverage_cache_hits"),
        "covcache_misses": delta("netclus_service_coverage_cache_misses"),
        "farm_loads": delta("netclus_farm_loads_total"),
        "farm_evictions": delta("netclus_farm_evictions_total"),
        "failed": delta("failed"),
        "rejected": delta("netclus_server_rejected_total"),
        "coalesced": delta("netclus_server_coalesced_specs_total"),
    }


def save_all(indexes: dict[str, Any], bundles: dict[str, Any], root: Path) -> dict[str, Path]:
    directories = {}
    for name, index in indexes.items():
        directories[name] = root / name
        PlacementService(index, **SERVICE).save(directories[name], dataset=bundles[name].trajectories)
    return directories


def budget_mb(directories: dict[str, Path]) -> float:
    """Room for any two tenants but not all three."""
    sizes = [int(load_manifest(d)["storage_bytes"]) for d in directories.values()]
    return (sum(sizes) - min(sizes) / 2) / 1e6


def start(directories: dict[str, Path], trace_out: Path | None = None) -> FarmServer:
    """Start the server and page every tenant in once (the last load evicts the first)."""
    server = FarmServer(directories, budget_mb(directories), trace_out)
    warm = [QuerySpec(k=10, tau_km=t, preference=p) for t, p in FARM_KEYS]
    for name in directories:
        status, _, _, _ = server.post(f"/t/{name}/query", query_body(warm, use_cache=False))
        if status != 200:
            server.stop()
            raise RuntimeError(f"warm-up query on {name} answered {status}")
    return server


def set_up(bundles: dict[str, Any], root: Path) -> tuple[float, FarmServer, dict, dict]:
    """Build and warm every city, save as v4, start the farm and page tenants in."""
    started = time.perf_counter()
    indexes = {}
    for name, bundle in bundles.items():
        index = bundle.problem().build_netclus_index(**BUILD)
        index.enable_coverage_cache()
        builder = PlacementService(index, **SERVICE)
        for tau, preference in FARM_KEYS:
            builder.batch_query([QuerySpec(k=10, tau_km=tau, preference=preference)])
        indexes[name] = index
    directories = save_all(indexes, bundles, root)
    server = start(directories)
    return time.perf_counter() - started, server, indexes, directories


def drive(
    server: FarmServer, stream: Any, seconds: float
) -> tuple[OpLog, list[tuple[str, str, bytes]], list[tuple[float, float]], dict, dict]:
    """The closed loop; *seconds* of 0 sends exactly MIN_REQUESTS requests."""
    log = OpLog()
    sent: list[tuple[str, str, bytes]] = []
    windows: list[tuple[float, float]] = []
    base = server.metrics()
    snapshot: dict[str, int] = {}
    log.calibration.sample()
    started = time.perf_counter()
    for tenant, kind, body in stream:
        status, _, t0, t1 = server.post(f"/t/{tenant}/{kind}", body)
        log.record(kind, t0, t1 - t0, status == 200)
        sent.append((tenant, kind, body))
        windows.append((t0, t1))
        log.between_ops()
        if len(sent) >= MIN_REQUESTS:
            if not snapshot:
                snapshot = counts_of(server.metrics(), base)
            if time.perf_counter() - started >= seconds:
                break
    return log, sent, windows, snapshot, counts_of(server.metrics(), base)


def probe(server: FarmServer, directories: dict[str, Path], log: OpLog) -> tuple[int, int]:
    """Probe specs over HTTP vs an in-process service on each tenant's directory."""
    checked = mismatches = 0
    for name, directory in directories.items():
        status, data, t0, t1 = server.post(f"/t/{name}/query", query_body(list(PROBE_SPECS)))
        log.record("probe", t0, t1 - t0, status == 200)
        reference = PlacementService.from_path(
            directory, engine="auto", cache_size=0, coverage_cache=False
        )
        expected = reference.batch_query(list(PROBE_SPECS))
        served = json.loads(data)["results"] if status == 200 else []
        for position, want in enumerate(expected):
            checked += 1
            if position >= len(served):
                mismatches += 1
                continue
            got = served[position]
            got_result = TOPSResult(
                sites=tuple(got["sites"]),
                utility=got["utility"],
                per_trajectory_utility=tuple(got["per_trajectory_utility"]),
                elapsed_seconds=0.0,
                algorithm=got["algorithm"],
            )
            mismatches += not same_answer(got_result, want)
    return checked, mismatches


def server_self(loop: SpanTable, windows: list[tuple[float, float]]) -> list[float]:
    """Per request: client latency minus the in-server top-level spans inside it."""
    roots = sorted((s.start, s.seconds) for s in loop.top_level())
    selfs = []
    cursor = 0
    for t0, t1 in windows:
        inside = 0.0
        while cursor < len(roots) and roots[cursor][0] <= t1:
            if roots[cursor][0] >= t0:
                inside += roots[cursor][1]
            cursor += 1
        selfs.append((t1 - t0) - inside)
    return selfs


def run(seed: int, seconds: float, trace: bool, workdir: Path) -> dict[str, Any]:
    wall = {"start": time.perf_counter()}
    bundles = inputs.load("cities", seed)
    wall["inputs"] = time.perf_counter()

    def stream() -> Any:
        windows = {
            name: SlidingWindow(bundle.network, list(bundle.trajectories), [])
            for name, bundle in bundles.items()
        }
        return requests(windows)

    tracer = Tracer() if trace else None
    # the traced run reports build spans per set-up, so one set-up is enough
    reps = 1 if trace else SETUP_REPS
    if tracer:
        tracer.install()
    setup_seconds: list[float] = []
    setup_speed = Calibration()
    stage_seconds = dict.fromkeys(BUILD_STAGES, 0.0)
    server = None
    try:
        for rep in range(reps):
            if server is not None:
                server.stop()
            calibrate(setup_speed)
            started = time.perf_counter()
            elapsed, server, indexes, directories = set_up(bundles, workdir / f"setup-{rep}")
            setup_seconds.append((started, elapsed))
            for index in indexes.values():
                for stage in index.build_stats:
                    stage_seconds[stage.stage] += stage.seconds
        calibrate(setup_speed)
        if tracer:
            tracer.uninstall()
        wall["loop"] = time.perf_counter()
        log, sent, windows, snapshot, totals = drive(server, stream(), 0.0 if trace else seconds)
        peak_rss = child_peak_rss_mb(server.process.pid)
        ops_per_s = log.rate()
        if trace:
            untraced_seconds = log.busy_seconds()
            server.stop()
            directories = save_all(indexes, bundles, workdir / "traced")
            trace_file = workdir / "server-spans.json"
            server = start(directories, trace_out=trace_file)
            log, windows = OpLog(), []
            base = server.metrics()
            log.calibration.sample()
            for tenant, kind, body in sent:
                status, _, t0, t1 = server.post(f"/t/{tenant}/{kind}", body)
                log.record(kind, t0, t1 - t0, status == 200)
                windows.append((t0, t1))
                log.between_ops()
            totals = counts_of(server.metrics(), base)
        wall["check"] = time.perf_counter()
        checked, mismatches = probe(server, directories, log)
    finally:
        if server is not None:
            server.stop()

    sizes = {
        name: {
            "nodes": bundle.network.num_nodes,
            "trajectories": len(bundle.trajectories),
            "sites": len(bundle.sites),
            "index_instances": indexes[name].num_instances,
            "storage_bytes": int(load_manifest(workdir / f"setup-{reps - 1}" / name)["storage_bytes"]),
            "warm_coverage_parts": len(FARM_KEYS),
        }
        for name, bundle in bundles.items()
    }
    sizes["farm_budget_mb"] = budget_mb(
        {name: workdir / f"setup-{reps - 1}" / name for name in bundles}
    )

    if trace:
        child_spans, kernel_seconds = Tracer.load(trace_file)
        # spans are recorded in start order: the loop's lie between the
        # warm-up requests before it and the probe requests after it
        first = next(i for i, s in enumerate(child_spans) if s.start >= windows[0][0])
        end = next((i for i, s in enumerate(child_spans) if s.start > windows[-1][1]), None)
        loop = SpanTable(rebased(child_spans[:end], first))
        selfs = server_self(loop, windows)
        traced_seconds = log.busy_seconds()
        raw_seconds = sum(t1 - t0 for t0, t1 in windows)
        attributed = sum(s.seconds for s in loop.top_level())
        hits, misses = totals["result_cache_hits"], totals["result_cache_misses"]
        metrics = layer_metrics(
            SpanTable(list(tracer.spans)),
            loop,
            kernel_seconds,
            setup_reps=reps,
            build_stage_seconds=stage_seconds,
            result_cache_hit_ratio=hits / (hits + misses) if hits + misses else 0.0,
            farm_evictions=totals["farm_evictions"],
            server={
                "self_ms": 1e3 * sum(selfs) / len(selfs),
                "failed": totals["failed"],
                "rejected": totals["rejected"],
                "coalesced": totals["coalesced"],
            },
            unattributed_share=(raw_seconds - attributed) / raw_seconds,
            overhead=(traced_seconds - untraced_seconds) / untraced_seconds,
        )
    else:
        metrics = {
            "setup_s": normalised_setup(setup_seconds, setup_speed),
            "peak_rss_mb": peak_rss,
            "ops_per_s": ops_per_s,
            "query_p50_ms": log.p50_ms("query"),
            "query_p99_ms": log.ms("query", 0.99),
            "update_p50_ms": log.p50_ms("update"),
            "update_p75_ms": log.ms("update", 0.75),
            "utility_ratio": mean([
                ratio
                for name, exact in inputs.detours("cities", seed).items()
                for ratio in utility_ratios(indexes[name], exact, bundles[name].sites, UTILITY_SPECS)
            ]),
        }
    return {
        "metrics": metrics,
        "log": log,
        "checked": checked,
        "mismatches": mismatches,
        "counts": {"requests": snapshot},
        "inputs": sizes,
        "settings": {
            **BUILD,
            "server_flags": list(SERVER_FLAGS),
            "setup_reps": reps,
            "update_every": UPDATE_EVERY,
        },
        "setup_seconds": [seconds for _, seconds in setup_seconds],
        "speed_factors": {
            "setup": setup_speed.mean_factor(), "loop": log.calibration.mean_factor()
        },
        "wall_seconds": phase_seconds(wall),
    }
