"""Ablations of the design choices called out in the paper.

Three choices that the paper discusses but does not chart:

* **Representative selection** (Section 4.2) — the candidate site closest to
  the cluster center versus the most frequently visited one.  The paper found
  the two "quite similar, the [closest] marginally better"; this ablation
  regenerates that comparison.  The index elects only the closest site; the
  most-visited side re-elects every cluster of a query-only copy.
* **Greedy loop** — Algorithm 1's incremental α-updates versus the CELF
  lazy heap (the loop capacitated queries run); the ablation times both on
  the same dense coverage and checks the selections agree.
* **Greedy-GDSP coverage counting** — exact lazy counting versus FM-sketch
  estimates during index construction (Section 4.1.2).
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.gdsp import GreedyGDSP
from repro.core.greedy import IncGreedy, LazyGreedy
from repro.core.netclus import NetClusIndex
from repro.core.query import TOPSQuery
from repro.datasets import beijing_like
from repro.datasets.base import DatasetBundle
from repro.experiments.reporting import print_table
from repro.experiments.runner import DEFAULT_TAU_RANGE
from repro.utils.timer import Timer

__all__ = [
    "run_representative_strategy",
    "most_visited_copy",
    "run_greedy_loop",
    "run_gdsp_counting",
    "run",
    "main",
]


def run_representative_strategy(
    bundle: DatasetBundle,
    k_values: tuple[int, ...] = (5, 10),
    tau_km: float = 0.8,
    gamma: float = 0.75,
) -> list[dict]:
    """Utility of NetClus under the two representative-election strategies."""
    problem = bundle.problem()
    closest = problem.build_netclus_index(
        gamma=gamma, tau_min_km=DEFAULT_TAU_RANGE[0], tau_max_km=DEFAULT_TAU_RANGE[1]
    )
    visit_counts = bundle.trajectories.node_visit_counts(bundle.network.num_nodes)
    indexes = {
        "closest": closest,
        "most_frequent": most_visited_copy(closest, visit_counts),
    }
    rows: list[dict] = []
    for k in k_values:
        query = TOPSQuery(k=k, tau_km=tau_km)
        row: dict = {"k": k, "tau_km": tau_km}
        for strategy, index in indexes.items():
            result = index.query(query)
            row[f"{strategy}_utility_pct"] = problem.utility_percent(result.sites, query)
        rows.append(row)
    return rows


def most_visited_copy(index: NetClusIndex, visit_counts: np.ndarray) -> NetClusIndex:
    """A query-only copy of *index* whose clusters elect the candidate site
    visited by the most trajectories (*visit_counts*, per node).

    Ties go to the site closest to the center, then to the earlier member
    in GDSP order; ``rep_rt`` stays the winner's round trip to the center,
    which the online estimate needs.  Clusters without a candidate site
    keep no representative.
    """
    copied = copy.deepcopy(index)
    sites = np.fromiter(index.sites, np.int64, len(index.sites))
    for instance in copied.instances:
        owners = instance.nodes.owners()
        entries = np.flatnonzero(np.isin(instance.nodes.ids, sites))
        owners, members = owners[entries], instance.nodes.ids[entries]
        legs = instance.nodes.vals[entries]
        order = np.lexsort((entries, legs, -visit_counts[members], owners))
        ranked = owners[order]
        # the first candidate of every cluster's run wins
        best = order[np.r_[True, ranked[1:] != ranked[:-1]]] if len(order) else order
        reps, rep_rt = instance.reps.copy(), instance.rep_rt.copy()
        reps[owners[best]] = members[best]
        rep_rt[owners[best]] = legs[best]
        instance.reps, instance.rep_rt = reps, rep_rt
    return copied


def run_greedy_loop(
    bundle: DatasetBundle,
    k: int = 10,
    tau_km: float = 0.8,
) -> list[dict]:
    """Runtime and utility of the incremental loop and the CELF loop.

    Both run uncapacitated on the same dense coverage index, so only the
    loop differs; ``"lazy"`` is the CELF heap that capacitated queries use.
    """
    problem = bundle.problem()
    query = TOPSQuery(k=k, tau_km=tau_km)
    coverage = problem.coverage(query)
    rows: list[dict] = []
    for loop, greedy in (
        ("incremental", IncGreedy(coverage)),
        ("lazy", LazyGreedy(coverage)),
    ):
        with Timer() as timer:
            columns, utilities, _ = greedy.select(k)
        rows.append(
            {
                "loop": loop,
                "k": k,
                "utility": float(utilities.sum()),
                "selection_time_s": timer.elapsed,
            }
        )
    return rows


def run_gdsp_counting(
    bundle: DatasetBundle,
    radius_km: float = 0.3,
    num_sketches: int = 30,
) -> list[dict]:
    """Cluster count and build time: exact lazy counting vs FM sketches."""
    rows: list[dict] = []
    for counting, fm_sketches in (("exact-lazy", None), ("fm-sketch", num_sketches)):
        result = GreedyGDSP(bundle.network, fm_sketches=fm_sketches).cluster(radius_km)
        rows.append(
            {
                "counting": counting,
                "radius_km": radius_km,
                "num_clusters": result.num_clusters,
                "build_seconds": result.build_seconds,
            }
        )
    return rows


def run(scale: str = "small", seed: int = 42) -> dict[str, list[dict]]:
    """All three ablations on the Beijing-like dataset."""
    bundle = beijing_like(scale=scale, seed=seed)
    return {
        "representative_strategy": run_representative_strategy(bundle),
        "greedy_loop": run_greedy_loop(bundle),
        "gdsp_counting": run_gdsp_counting(bundle),
    }


def main() -> dict[str, list[dict]]:
    """Run at default scale and print all three ablation tables."""
    panels = run()
    print_table(
        panels["representative_strategy"],
        title="Ablation — cluster-representative selection (Section 4.2)",
    )
    print()
    print_table(panels["greedy_loop"], title="Ablation — greedy loop (incremental vs CELF)")
    print()
    print_table(panels["gdsp_counting"], title="Ablation — Greedy-GDSP coverage counting")
    return panels


if __name__ == "__main__":
    main()
