"""``python -m repro.service`` — build, query, serve, farm, update, inspect.

Six subcommands::

    # offline phase: build a NetClus index for a dataset preset, save to disk
    python -m repro.service build --dataset beijing --scale tiny --out city.ncx

    # online phase: answer a JSON/CSV batch of query specs from the index
    python -m repro.service query --index city.ncx --specs specs.json

    # serving phase: the asyncio HTTP front end (POST /query, POST /update,
    # GET /metrics, GET /healthz) with coalescing + bounded admission
    python -m repro.service serve --index city.ncx --port 8321 --max-inflight 64

    # multi-tenant serving: N indexes in one process under a memory budget
    # (POST /t/<tenant>/query, /t/<tenant>/update; LRU eviction + lazy reload)
    python -m repro.service farm --tenant nyk=nyk.ncx --tenant bjg=bjg.ncx \\
        --memory-budget-mb 256 --port 8321

    # dynamic updates: absorb trajectory/site deltas as one batch, save back
    python -m repro.service update --index city.ncx \\
        --add-trajectories new_trips.json --remove-sites closed.json

    # print the manifest (format version, build params, fingerprints, stats)
    python -m repro.service inspect --index city.ncx

``specs.json`` is a JSON array of :class:`~repro.service.specs.QuerySpec`
objects (``[{"k": 5, "tau_km": 1.0}, ...]``); a ``.csv`` file with columns
``k,tau_km[,preference,capacity,budget,site_cost]`` is accepted too.

``update`` delta files: site files are JSON arrays of node ids; the
trajectory-removal file is a JSON array of trajectory ids; the
trajectory-addition file is a JSON array of ``{"traj_id": ..., "nodes":
[...]}`` objects whose node sequences must follow edges of the index's road
network (along-path distances are recomputed from the network).  See
``docs/api.md`` for the full spec vocabulary and ``docs/index-format.md``
for the on-disk format.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import Callable, Sequence

from repro.datasets import (
    atlanta_like,
    bangalore_like,
    beijing_like,
    beijing_small_like,
    new_york_like,
)
from repro.datasets.base import DatasetBundle
from repro.service.farm import IndexFarm
from repro.service.placement import PlacementService
from repro.service.serialization import load_manifest, save_index
from repro.service.server import PlacementServer
from repro.service.specs import QuerySpec, update_batch_from_dict

__all__ = ["main"]


def _dataset_builders() -> dict[str, Callable[..., DatasetBundle]]:
    return {
        "beijing": beijing_like,
        "beijing-small": lambda scale, seed: beijing_small_like(seed=seed),
        "new-york": lambda scale, seed: new_york_like(seed=seed),
        "atlanta": lambda scale, seed: atlanta_like(seed=seed),
        "bangalore": lambda scale, seed: bangalore_like(seed=seed),
    }


# ---------------------------------------------------------------------- #
# build
# ---------------------------------------------------------------------- #
def _cmd_build(args: argparse.Namespace) -> int:
    builders = _dataset_builders()
    if args.dataset == "beijing":
        bundle = builders["beijing"](scale=args.scale or "small", seed=args.seed)
    else:
        if args.scale is not None:
            raise SystemExit(
                f"--scale applies to the 'beijing' dataset only; "
                f"'{args.dataset}' has a fixed size"
            )
        bundle = builders[args.dataset](None, args.seed)
    problem = bundle.problem()
    print(
        f"Building NetClus index for {bundle.name} "
        f"({bundle.num_nodes} nodes, {bundle.num_trajectories} trajectories, "
        f"{bundle.num_sites} sites)..."
    )
    index = problem.build_netclus_index(
        gamma=args.gamma,
        tau_min_km=args.tau_min,
        tau_max_km=args.tau_max,
        max_instances=args.max_instances,
        representative_strategy=args.representative_strategy,
    )
    directory = save_index(index, args.out, dataset=bundle.trajectories)
    for stat in index.build_stats:
        print(f"  stage {stat.stage:<16} {stat.seconds:7.2f}s")
    print(
        f"Saved {index.num_instances} instances "
        f"({index.storage_bytes() / 1e6:.2f} MB payload estimate, built in "
        f"{index.build_seconds():.1f}s) to {directory}"
    )
    return 0


# ---------------------------------------------------------------------- #
# query
# ---------------------------------------------------------------------- #
def _load_specs(path: Path) -> list[QuerySpec]:
    """Read a batch of specs from a ``.json`` array or a ``.csv`` table."""
    if path.suffix.lower() == ".csv":
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        return [
            QuerySpec.from_dict({k: v for k, v in row.items() if v not in (None, "")})
            for row in rows
        ]
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, list):
        raise SystemExit(f"{path}: expected a JSON array of spec objects")
    return [QuerySpec.from_dict(entry) for entry in payload]


def _cmd_query(args: argparse.Namespace) -> int:
    specs = _load_specs(Path(args.specs))
    if not specs:
        raise SystemExit(f"{args.specs}: no query specs found")
    service = PlacementService.from_path(
        args.index, coverage_cache=True if args.coverage_cache else None
    )
    results = service.batch_query(specs)
    if args.save_coverage:
        if service.coverage_cache is None:
            raise SystemExit(
                "--save-coverage needs a coverage cache; pass --coverage-cache "
                "or query an index saved with coverage parts"
            )
        directory = save_index(service.index, args.index)
        parts = len(service.coverage_cache.describe_parts())
        print(f"Persisted {parts} coverage part(s) back to {directory}")

    rows = []
    for spec, result in zip(specs, results):
        rows.append(
            {
                "spec": spec.to_dict(),
                "sites": list(result.sites),
                "utility": result.utility,
                "algorithm": result.algorithm,
                "instance_id": result.metadata.get("instance_id"),
                "elapsed_seconds": result.elapsed_seconds,
            }
        )
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(rows, handle, indent=2)
            handle.write("\n")
        print(f"Wrote {len(rows)} results to {args.output}")
    header = f"{'k':>4} {'tau_km':>7} {'pref':<12} {'utility':>9}  sites"
    print(header)
    print("-" * len(header))
    for spec, result in zip(specs, results):
        label = "budget" if spec.budget is not None else spec.preference
        print(
            f"{spec.k:>4} {spec.tau_km:>7.2f} {label:<12} "
            f"{result.utility:>9.2f}  {list(result.sites)}"
        )
    stats = service.stats
    print(
        f"\n{stats.queries_served} specs | {stats.instance_resolutions} instance "
        f"resolutions | {stats.coverage_builds} coverage builds | "
        f"{stats.greedy_runs} greedy runs | {stats.cache_hits} cache hits"
    )
    if service.coverage_cache is not None:
        print(
            f"coverage cache: {stats.coverage_cache_hits} warm / "
            f"{stats.coverage_cache_misses} cold coverage lookups "
            f"({len(service.coverage_cache.describe_parts())} part(s) cached)"
        )
    print(
        f"stage seconds: coverage {stats.coverage_build_seconds:.3f} | "
        f"greedy {stats.greedy_seconds:.3f} | replay {stats.replay_seconds:.3f}"
    )
    return 0


# ---------------------------------------------------------------------- #
# serve / farm
# ---------------------------------------------------------------------- #
def _serve_until_signal(
    farm: IndexFarm, args: argparse.Namespace, banner: Callable[[str], list[str]]
) -> PlacementServer:
    """Serve *farm* until SIGINT/SIGTERM, drain, and return the stopped server.

    *banner* maps the bound ``http://host:port`` URL to the startup lines;
    the first one carries the URL, which scripts read the port from.
    """
    import asyncio
    import signal

    server = PlacementServer(
        farm,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        worker_threads=args.worker_threads,
        request_timeout=args.request_timeout,
    )

    async def _serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-Unix loops
                pass
        host, port = server.address
        for line in banner(f"http://{host}:{port}"):
            print(line, flush=True)
        await stop.wait()
        print("Signal received — draining in-flight requests...", flush=True)
        await server.shutdown(drain_timeout=args.drain_timeout)

    asyncio.run(_serve())
    farm.close()
    return server


def _cmd_serve(args: argparse.Namespace) -> int:
    # one directory-less tenant: served on the plain endpoints, and never
    # written through, so serving never changes --index on disk
    farm = IndexFarm()
    farm.add_service(
        PlacementService.from_path(
            args.index, coverage_cache=True if args.coverage_cache else None
        )
    )
    server = _serve_until_signal(
        farm,
        args,
        lambda url: [
            f"Serving {args.index} on {url} (max-inflight {args.max_inflight}, "
            f"{args.worker_threads} worker threads, "
            f"request timeout {args.request_timeout:g}s)",
            "Endpoints: POST /query | POST /update | GET /metrics | GET /healthz",
        ],
    )
    stats = server.stats
    print(
        f"Served {stats.requests_total['query']} query / "
        f"{stats.requests_total['update']} update requests "
        f"({stats.coalesced_specs} specs coalesced, "
        f"{stats.rejected_total} rejected); shut down cleanly."
    )
    return 0


def _cmd_farm(args: argparse.Namespace) -> int:
    farm = IndexFarm(
        memory_budget_bytes=(
            None if args.memory_budget_mb is None else int(args.memory_budget_mb * 1e6)
        ),
        coverage_cache=True if args.coverage_cache else None,
    )
    for entry in args.tenant:
        name, separator, directory = entry.partition("=")
        if not separator or not name or not directory:
            raise SystemExit(f"--tenant expects NAME=INDEX_DIR, got {entry!r}")
        farm.add_tenant(name, directory)
    budget = (
        "no memory budget"
        if farm.memory_budget_bytes is None
        else f"budget {farm.memory_budget_bytes / 1e6:.0f} MB"
    )
    server = _serve_until_signal(
        farm,
        args,
        lambda url: [
            f"Serving {len(farm.tenants())} tenant(s) on {url} "
            f"({budget}, max-inflight {args.max_inflight}, "
            f"{args.worker_threads} worker threads)",
            "Endpoints: POST /t/<tenant>/query | POST /t/<tenant>/update | "
            "GET /metrics | GET /healthz",
            *(f"  tenant {name}" for name in farm.tenants()),
        ],
    )
    stats = server.stats
    print(
        f"Served {stats.requests_total['query']} query / "
        f"{stats.requests_total['update']} update requests across "
        f"{len(farm.tenants())} tenant(s) "
        f"({farm.loads_total} loads, {farm.evictions_total} evictions); "
        f"shut down cleanly."
    )
    return 0


# ---------------------------------------------------------------------- #
# update
# ---------------------------------------------------------------------- #
def _cmd_update(args: argparse.Namespace) -> int:
    from repro.service.serialization import load_index
    from repro.utils.timer import Timer

    keys = ("add_trajectories", "remove_trajectories", "add_sites", "remove_sites")
    files = {key: getattr(args, key) for key in keys if getattr(args, key)}
    if not files:
        raise SystemExit("update: no delta files given (nothing to do)")
    index = load_index(args.index)
    delta = {key: json.loads(Path(path).read_text()) for key, path in files.items()}
    try:
        batch = update_batch_from_dict(delta, index.network)
    except (ValueError, TypeError, KeyError) as exc:
        raise SystemExit(f"update: bad delta: {exc}") from None
    version_before = index.version
    with Timer() as timer:
        applied = index.apply_updates(batch)
    # the index carries the manifest's content fingerprint through a
    # site-only delta; a trajectory delta clears it
    directory = save_index(index, args.out or args.index)
    print(
        f"Applied {applied} updates "
        f"(+{len(batch.add_trajectories)}/-{len(batch.remove_trajectories)} "
        f"trajectories, +{len(batch.add_sites)}/-{len(batch.remove_sites)} sites) "
        f"in {timer.elapsed:.3f}s; index version {version_before} -> {index.version}"
    )
    print(
        f"Saved {index.num_trajectories} trajectories / {len(index.sites)} sites "
        f"to {directory}"
    )
    cache = index.coverage_cache
    if cache is not None and cache.describe_parts():
        counters = cache.stats()
        print(
            f"Coverage cache: patched {counters['patches']} part(s) in place "
            f"({counters['invalidations']} invalidated); "
            f"{len(cache.describe_parts())} part(s) saved warm"
        )
    return 0


# ---------------------------------------------------------------------- #
# inspect
# ---------------------------------------------------------------------- #
def _cmd_inspect(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.index)
    if args.json:
        json.dump(manifest, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    params = manifest["build_params"]
    prints = manifest["fingerprints"]
    print(f"format           : {manifest['format']} v{manifest['format_version']}")
    print(f"update version   : {manifest['index_version']}")
    print(
        f"build params     : gamma={params['gamma']}, "
        f"tau=[{params['tau_min_km']}, {params['tau_max_km']}] km"
    )
    max_instances = params["max_instances"]
    print(
        f"representatives  : {params['representative_strategy']}, "
        f"instance cap "
        f"{'none (full ladder)' if max_instances is None else max_instances}"
    )
    print(
        f"size             : {manifest['num_instances']} instances, "
        f"{manifest['num_trajectories']} trajectories, "
        f"{manifest['num_sites']} sites, {manifest['num_nodes']} nodes"
    )
    print(
        f"offline phase    : {manifest['build_seconds']:.1f}s build, "
        f"~{manifest['storage_bytes'] / 1e6:.2f} MB payload"
    )
    print(f"graph sha256     : {prints['graph'][:16]}…")
    print(f"trajectories sha : {prints['trajectories'][:16]}…")
    print(f"payload sha256   : {prints['payload_sha256'][:16]}…")
    build_stats = manifest["build_stats"]
    if build_stats:
        print()
        print("offline pipeline :")
        for stat in build_stats:
            print(f"  {stat['stage']:<16} {stat['seconds']:7.2f}s")
    print()
    header = (
        f"{'inst':>4} {'radius_km':>10} {'tau range (km)':>18} "
        f"{'clusters':>9} {'reps':>6} {'build_s':>8}"
    )
    print(header)
    print("-" * len(header))
    for entry in manifest["instances"]:
        low, high = entry["tau_range_km"]
        print(
            f"{entry['instance_id']:>4} {entry['radius_km']:>10.3f} "
            f"{f'[{low:.2f}, {high:.2f})':>18} {entry['num_clusters']:>9} "
            f"{entry['num_representatives']:>6} {entry['build_seconds']:>8.2f}"
        )
    coverage_parts = manifest["coverage_parts"]
    if coverage_parts:
        print()
        header = (
            f"{'part':>4} {'tau_km':>7} {'preference':<14} {'inst':>4} "
            f"{'version':>7} {'entries':>9}"
        )
        print(f"coverage parts   : {len(coverage_parts)} warm")
        print(header)
        print("-" * len(header))
        for entry in coverage_parts:
            print(
                f"{entry['slot']:>4} {entry['tau_km']:>7.2f} "
                f"{entry['preference']:<14} {entry['instance_id']:>4} "
                f"{entry['index_version']:>7} {entry['num_entries']:>9}"
            )
    if args.timings:
        _print_probe_timings(args.index, manifest)
    return 0


def _print_probe_timings(index_path: str, manifest: dict) -> None:
    """Load the index and report per-stage timings of one probe batch.

    The probe runs a small k-sweep at a mid-range τ through a
    :class:`PlacementService`, then prints the service's per-stage query
    timings (coverage build / greedy / prefix replay) — the live
    counterpart of the static manifest numbers above.
    """
    params = manifest["build_params"]
    tau = min(2.0 * float(params["tau_min_km"]), float(params["tau_max_km"]))
    service = PlacementService.from_path(index_path)
    specs = [QuerySpec(k=k, tau_km=tau) for k in (3, 5, 8)]
    service.batch_query(specs, use_cache=False)
    stats = service.stats
    print()
    print(
        f"query timings    : probe batch ({len(specs)} specs at tau={tau:g} km)"
    )
    for stage, seconds in stats.stage_seconds().items():
        print(f"  {stage:<24} {seconds:8.4f}s")


# ---------------------------------------------------------------------- #
def _add_serving_flags(parser: argparse.ArgumentParser) -> None:
    """The HTTP serving flags ``serve`` and ``farm`` share."""
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8321, help="bind port (0 picks an ephemeral port)"
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="bound on concurrently admitted query/update requests; the "
        "next request is answered 503 instead of queueing without bound",
    )
    parser.add_argument(
        "--worker-threads",
        type=int,
        default=4,
        help="thread-pool size for blocking placement work (tenant loads "
        "and evictions also happen here, never on the event loop)",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="per-request budget in seconds before a 504 is answered",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds to let in-flight requests finish on shutdown",
    )
    parser.add_argument(
        "--coverage-cache",
        action="store_true",
        help="keep materialised coverage warm across requests — POST /update "
        "patches the cached parts instead of forcing a coverage rebuild on "
        "the next query (an index saved with coverage parts enables this "
        "automatically)",
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Command-line entry point (returns the process exit code)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service", description=__doc__.split("\n\n")[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build an index and save it to disk")
    build.add_argument(
        "--dataset",
        default="beijing",
        choices=sorted(_dataset_builders()),
        help="dataset preset to build the index for",
    )
    build.add_argument(
        "--scale",
        default=None,
        choices=["tiny", "small", "medium"],
        help="dataset scale — 'beijing' only (default: small); the other "
        "presets have a fixed size",
    )
    build.add_argument("--seed", type=int, default=42)
    build.add_argument("--gamma", type=float, default=0.75, help="index resolution γ")
    build.add_argument("--tau-min", type=float, default=0.4, help="τ_min in km")
    build.add_argument("--tau-max", type=float, default=8.0, help="τ_max in km")
    build.add_argument(
        "--max-instances", type=int, default=None, help="cap the instance ladder"
    )
    build.add_argument(
        "--representative-strategy",
        default="closest",
        choices=["closest", "most_frequent"],
        help="how clusters elect their representative site: nearest to the "
        "center (the paper's choice) or most visited by trajectories",
    )
    build.add_argument("--out", required=True, help="output index directory")
    build.set_defaults(func=_cmd_build)

    query = sub.add_parser("query", help="answer a batch of specs from an index")
    query.add_argument("--index", required=True, help="index directory (from build)")
    query.add_argument("--specs", required=True, help="JSON array or CSV of specs")
    query.add_argument(
        "--coverage-cache",
        action="store_true",
        help="keep materialised coverage in an in-process cache so repeated "
        "(tau, preference) specs skip the coverage build (an index saved "
        "with coverage parts enables this automatically)",
    )
    query.add_argument(
        "--save-coverage",
        action="store_true",
        help="after answering, save the warmed coverage parts back into the "
        "index directory so later runs start warm",
    )
    query.add_argument("--output", default=None, help="write results JSON here")
    query.set_defaults(func=_cmd_query)

    serve = sub.add_parser(
        "serve", help="serve an index over HTTP (asyncio front end)"
    )
    serve.add_argument("--index", required=True, help="index directory (from build)")
    _add_serving_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    farm = sub.add_parser(
        "farm", help="serve many tenant indexes from one process (memory budget)"
    )
    farm.add_argument(
        "--tenant",
        action="append",
        required=True,
        metavar="NAME=INDEX_DIR",
        help="register one tenant: a name and its index directory; repeat "
        "the flag for every tenant (indexes load lazily on first query)",
    )
    farm.add_argument(
        "--memory-budget-mb",
        type=float,
        default=None,
        help="cap on the summed storage bytes of resident tenant indexes; "
        "least-recently-used tenants are evicted to fit (evicted tenants "
        "reload transparently on their next query); default: no budget",
    )
    _add_serving_flags(farm)
    # accepted and ignored: the farm_http benchmark's frozen server
    # command line still passes both (ψ picks the coverage structure)
    farm.add_argument("--engine", choices=["auto"], help=argparse.SUPPRESS)
    farm.add_argument("--query-workers", help=argparse.SUPPRESS)
    farm.set_defaults(func=_cmd_farm)

    update = sub.add_parser(
        "update", help="apply trajectory/site deltas to an index as one batch"
    )
    update.add_argument("--index", required=True, help="index directory (from build)")
    update.add_argument(
        "--add-trajectories",
        default=None,
        help="JSON array of {traj_id, nodes} objects to add",
    )
    update.add_argument(
        "--remove-trajectories",
        default=None,
        help="JSON array of trajectory ids to remove",
    )
    update.add_argument(
        "--add-sites", default=None, help="JSON array of node ids to register"
    )
    update.add_argument(
        "--remove-sites", default=None, help="JSON array of node ids to unregister"
    )
    update.add_argument(
        "--out",
        default=None,
        help="output index directory (default: update --index in place)",
    )
    update.set_defaults(func=_cmd_update)

    inspect = sub.add_parser("inspect", help="print an index manifest")
    inspect.add_argument("--index", required=True, help="index directory")
    inspect.add_argument("--json", action="store_true", help="raw manifest JSON")
    inspect.add_argument(
        "--timings",
        action="store_true",
        help="additionally load the index and report per-stage query "
        "timings of a small probe batch (coverage build / greedy / replay)",
    )
    inspect.set_defaults(func=_cmd_inspect)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `... inspect | head`; not an error
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
