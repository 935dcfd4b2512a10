"""Staged offline build pipeline for the NetClus index.

The offline phase (Section 4 of the paper) decomposes into four explicit
stages, run in order over the whole instance ladder on one shared
shortest-path engine:

1. **clustering** — one Greedy-GDSP run per index instance (each sees only
   the road network and its radius ``R_p``).  GDSP emits the centers and the
   members with their round trips to the center, taken from its own
   dominance sweep, as the arrays the instance stores.
2. **representatives** — per cluster, elect the candidate site closest to
   the center as its representative.
3. **registration** — register every trajectory into every instance via
   the shared lexsort + grouped-minimum kernel
   (:func:`repro.core.netclus.register_trajectory_batch`) — the same
   implementation the streaming update engine uses online.
4. **neighbors** — per cluster, the clusters whose centers lie within
   round-trip ``4 R_p (1 + γ)``.

Each stage produces a :class:`BuildStats` record (stage name, seconds,
per-instance breakdown) which the resulting index carries in
:attr:`NetClusIndex.build_stats`; ``save_index`` persists the records in
the manifest so ``inspect`` and the Table 11 driver can report the stage
breakdown of a loaded index.  Every stage is deterministic (Greedy-GDSP's
greedy order, the registration kernel's insertion order, the neighbour
sort), so two builds of the same data serialize identically apart from
their timings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.core.gdsp import GDSPResult, GreedyGDSP
from repro.core.netclus import (
    NetClusIndex,
    NetClusInstance,
    Ragged,
    register_trajectory_batch,
)
from repro.network.graph import RoadNetwork
from repro.network.shortest_path import ShortestPathEngine
from repro.trajectory.model import TrajectoryDataset
from repro.utils.timer import Timer
from repro.utils.validation import require, require_positive

__all__ = ["BuildStats", "build_index", "compute_neighbor_lists"]

#: the stage names, in pipeline order
STAGES = ("clustering", "representatives", "registration", "neighbors")


@dataclass(frozen=True)
class BuildStats:
    """One stage of the offline build pipeline.

    Attributes
    ----------
    stage:
        Stage name — one of ``"clustering"``, ``"representatives"``,
        ``"registration"``, ``"neighbors"``.
    seconds:
        Total seconds of the stage, summed across instances.
    per_instance_seconds:
        The stage's seconds per index instance, in instance order.
    """

    stage: str
    seconds: float
    per_instance_seconds: tuple[float, ...] = field(default_factory=tuple)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (persisted in the index manifest)."""
        return {
            "stage": self.stage,
            "seconds": self.seconds,
            "per_instance_seconds": list(self.per_instance_seconds),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "BuildStats":
        """Inverse of :meth:`as_dict` (manifest loading)."""
        return cls(
            stage=str(payload["stage"]),
            seconds=float(payload["seconds"]),
            per_instance_seconds=tuple(float(s) for s in payload["per_instance_seconds"]),
        )


def compute_neighbor_lists(
    centers: Sequence[int],
    engine: ShortestPathEngine,
    radius_km: float,
    gamma: float,
) -> Ragged:
    """Neighbour lists ``CL(g_i)`` for one instance's cluster centers.

    For every cluster, the (cluster id, center round-trip distance) pairs
    of the other clusters whose centers lie within round-trip
    ``4 R_p (1 + γ)``, sorted by distance (ties keep cluster-id order).
    """
    centers = list(centers)
    threshold = 4.0 * radius_km * (1.0 + gamma)
    forward = engine.distances_from(centers, limit=threshold)[:, centers]
    round_trip = forward + forward.T
    within = round_trip <= threshold
    np.fill_diagonal(within, False)
    owners, neighbor_ids = np.nonzero(within)
    distances = round_trip[owners, neighbor_ids]
    order = np.lexsort((neighbor_ids, distances, owners))
    return Ragged(
        np.concatenate(([0], np.cumsum(within.sum(axis=1), dtype=np.int64))),
        neighbor_ids[order].astype(np.int64),
        distances[order].astype(np.float64),
    )


def build_index(
    network: RoadNetwork,
    dataset: TrajectoryDataset,
    sites: Sequence[int],
    *,
    gamma: float = 0.75,
    tau_min_km: float = 0.4,
    tau_max_km: float = 8.0,
    max_instances: int | None = None,
) -> NetClusIndex:
    """Run the staged offline build pipeline; see the module docstring.

    Parameters mirror :meth:`NetClusIndex.build` (which delegates here).
    """
    require_positive(gamma, "gamma")
    require_positive(tau_min_km, "tau_min_km")
    require(tau_max_km > tau_min_km, "tau_max_km must exceed tau_min_km")
    site_set = set(int(s) for s in sites)
    for site in sorted(site_set):
        require(network.has_node(site), f"site {site} is not a network node")

    num_instances = int(math.floor(math.log(tau_max_km / tau_min_km, 1.0 + gamma))) + 1
    if max_instances is not None:
        num_instances = min(num_instances, max_instances)
    base_radius = tau_min_km / 4.0
    radii = [base_radius * (1.0 + gamma) ** p for p in range(num_instances)]
    engine = ShortestPathEngine(network)
    stats: list[BuildStats] = []

    # stage 1 — per-instance GDSP clustering
    gdsp = GreedyGDSP(network, engine=engine)
    gdsp_results = [gdsp.cluster(radius) for radius in radii]
    clustering_per_instance = [result.build_seconds for result in gdsp_results]
    stats.append(
        BuildStats(
            stage="clustering",
            seconds=sum(clustering_per_instance),
            per_instance_seconds=tuple(clustering_per_instance),
        )
    )

    # stage 2 — representative election
    election_per_instance: list[float] = []
    instances: list[NetClusInstance] = []
    for instance_id, gdsp_result in enumerate(gdsp_results):
        with Timer() as election_timer:
            instance = _clustered_instance(instance_id, radii[instance_id], gamma, gdsp_result)
            NetClusIndex._elect_representative(
                instance, np.arange(instance.num_clusters), site_set
            )
            instances.append(instance)
        election_per_instance.append(election_timer.elapsed)
    stats.append(
        BuildStats(
            stage="representatives",
            seconds=sum(election_per_instance),
            per_instance_seconds=tuple(election_per_instance),
        )
    )

    # stage 3 — trajectory registration through the shared lexsort +
    # grouped-min kernel (also warms the per-instance node lookup tables
    # the streaming update engine reads on every batch)
    traj_ids = dataset.ids()
    node_arrays = [trajectory.nodes_array() for trajectory in dataset]
    registration_per_instance: list[float] = []
    for instance in instances:
        with Timer() as registration_timer:
            register_trajectory_batch(instance, traj_ids, node_arrays)
        registration_per_instance.append(registration_timer.elapsed)
    stats.append(
        BuildStats(
            stage="registration",
            seconds=sum(registration_per_instance),
            per_instance_seconds=tuple(registration_per_instance),
        )
    )

    # stage 4 — neighbour lists
    neighbors_per_instance: list[float] = []
    for instance in instances:
        with Timer() as neighbor_timer:
            instance.nb = compute_neighbor_lists(
                instance.centers.tolist(), engine, instance.radius_km, gamma
            )
        neighbors_per_instance.append(neighbor_timer.elapsed)
    stats.append(
        BuildStats(
            stage="neighbors",
            seconds=sum(neighbors_per_instance),
            per_instance_seconds=tuple(neighbors_per_instance),
        )
    )

    # per-instance build_seconds: that instance's share of every stage
    for position, instance in enumerate(instances):
        instance.build_seconds = (
            clustering_per_instance[position]
            + election_per_instance[position]
            + registration_per_instance[position]
            + neighbors_per_instance[position]
        )

    index = NetClusIndex(
        network=network,
        sites=site_set,
        instances=instances,
        tau_min_km=tau_min_km,
        tau_max_km=tau_max_km,
        gamma=gamma,
        trajectory_ids=traj_ids,
        build_stats=stats,
        max_instances=max_instances,
    )
    return index


def _clustered_instance(
    instance_id: int, radius_km: float, gamma: float, gdsp_result: GDSPResult
) -> NetClusInstance:
    """An instance holding one GDSP clustering, before any election or
    registration: GDSP's centers and members."""
    return NetClusInstance(
        instance_id=instance_id,
        radius_km=radius_km,
        gamma=gamma,
        centers=gdsp_result.centers,
        nodes=gdsp_result.members,
        mean_dominating_set_size=gdsp_result.mean_dominating_set_size,
    )
