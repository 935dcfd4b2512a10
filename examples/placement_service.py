"""Persist & serve: build a NetClus index once, save it, answer batches.

The paper's pitch is that NetClus is an *index* — built once per city and
queried many times at varying (τ, k, cost, capacity).  This example walks the
full service lifecycle:

1. build a city + trajectories and a NetClus index (offline phase),
2. save the index to disk (a packed payload blob + the JSON manifest that
   names it; renaming the manifest into place commits the save),
3. reload it in a fresh :class:`~repro.service.PlacementService`,
4. answer a mixed batch of query specs with shared-work amortisation,
5. show the order cache and the work counters doing their job.

Run with::

    python examples/placement_service.py [--keep DIR]

With ``--keep DIR`` the index directory is written there (and left on disk
for inspection with ``python -m repro.service inspect --index DIR``);
otherwise a temporary directory is used.
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro import PlacementService, QuerySpec, TOPSProblem
from repro.network import grid_network
from repro.service import load_manifest
from repro.trajectory import commuter_trajectories


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--keep", default=None, metavar="DIR",
                        help="write the index here instead of a temp dir")
    args = parser.parse_args()

    # 1. A city and its mobility: a 10x10 grid, 200 commuter trajectories.
    network = grid_network(10, 10, spacing_km=0.5)
    trajectories = commuter_trajectories(network, 200, num_hotspots=4, seed=11)
    problem = TOPSProblem(network, trajectories)

    # 2. Offline phase: build the index through a (lazy) service and save it.
    service = PlacementService.from_problem(problem, tau_min_km=0.4, tau_max_km=4.0)
    with tempfile.TemporaryDirectory() as tmp:
        index_dir = Path(args.keep) if args.keep else Path(tmp) / "city.ncx"
        service.save(index_dir)
        manifest = load_manifest(index_dir)
        print(f"saved index   : {index_dir}")
        print(f"  format      : {manifest['format']} v{manifest['format_version']}")
        print(f"  instances   : {manifest['num_instances']}, "
              f"~{manifest['storage_bytes'] / 1e3:.0f} kB payload estimate")
        print(f"  graph sha   : {manifest['fingerprints']['graph'][:16]}…")

        # 3. Reload in a fresh service — fingerprints are verified on load.
        served = PlacementService.from_path(index_dir)

        # 4. A mixed batch: varying k and τ, a capacitated spec, a budgeted
        #    spec, and a non-binary preference.
        specs = [
            QuerySpec(k=3, tau_km=1.0),
            QuerySpec(k=6, tau_km=1.0),            # same (τ, ψ): shares one greedy run
            QuerySpec(k=9, tau_km=1.0),            # ... so does this one
            QuerySpec(k=5, tau_km=2.0),
            QuerySpec(k=5, tau_km=2.0, capacity=30),
            QuerySpec(k=4, tau_km=1.0, budget=3.0),
            QuerySpec(k=5, tau_km=1.0, preference="linear"),
        ]
        results = served.batch_query(specs)

        print("\nbatch results")
        for spec, result in zip(specs, results):
            extras = []
            if spec.capacity is not None:
                extras.append(f"cap={spec.capacity}")
            if spec.budget is not None:
                extras.append(f"budget={spec.budget}")
            if spec.preference != "binary":
                extras.append(spec.preference)
            label = f" ({', '.join(extras)})" if extras else ""
            print(f"  k={spec.k} τ={spec.tau_km:.1f}{label:<16} "
                  f"utility={result.utility:7.2f}  sites={list(result.sites)}")

        stats = served.stats
        print(f"\nshared work   : {stats.queries_served} specs answered with "
              f"{stats.instance_resolutions} instance resolutions, "
              f"{stats.coverage_builds} coverage builds, "
              f"{stats.greedy_runs} greedy runs")

        # 5. The order cache keeps each key's greedy order: at τ=1.0 a
        #    repeat and a new smaller k are prefixes of the k=9 order (no
        #    greedy step), and a larger k for the linear ψ resumes its k=5
        #    run with one greedy step instead of restarting.
        runs_before = stats.greedy_runs
        again = served.query(QuerySpec(k=6, tau_km=1.0))
        assert again.sites == results[1].sites
        smaller = served.query(QuerySpec(k=4, tau_km=1.0))
        assert smaller.sites == results[2].sites[:4]
        print(f"cache         : a repeat and a smaller k were prefixes of the "
              f"stored order (hits={stats.cache_hits}, greedy runs still {runs_before})")
        larger = served.query(QuerySpec(k=8, tau_km=1.0, preference="linear"))
        assert larger.sites[:5] == results[6].sites
        print(f"              : linear k=8 resumed the stored k=5 run "
              f"(greedy runs {runs_before} -> {stats.greedy_runs})")


if __name__ == "__main__":
    main()
