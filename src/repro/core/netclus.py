"""NetClus: the multi-resolution clustering index and its query algorithm.

Offline phase (Section 4)
-------------------------
For a ladder of cluster radii ``R_p = (1+γ)^p · R_0`` with ``R_0 = τ_min/4``
and ``t = ⌊log_{1+γ}(τ_max/τ_min)⌋ + 1`` instances, the road network is
partitioned by Greedy-GDSP into clusters of round-trip radius at most
``2 R_p``.  Construction runs through the staged pipeline of
:mod:`repro.core.build` (clustering → representative election → trajectory
registration → neighbour lists).  Every cluster stores

1. its center ``c_i``,
2. its representative ``r_i`` — the candidate site closest to the center,
3. the trajectory list ``T L(g_i) = {⟨T_j, dr(T_j, c_i)⟩}`` of trajectories
   passing through the cluster,
4. its neighbour list ``CL(g_i)`` — clusters whose centers are within
   round-trip distance ``4 R_p (1+γ)``,
5. its member nodes with their round-trip distance to the center.

Trajectories are thereby stored as (deduplicated) sequences of clusters — the
compressed representation that gives NetClus its small footprint.

Online phase (Section 5)
------------------------
Given a query (k, τ, ψ), the instance ``p = ⌊log_{1+γ}(τ/τ_min)⌋`` (clamped)
is selected so that ``4R_p ≤ τ < 4R_p(1+γ)``.  For every cluster
representative the detour to a trajectory is *estimated* as
``d̂r(T_j, r_i) = dr(T_j, c_j) + dr(c_j, c_i) + dr(c_i, r_i)`` using only
information stored offline, the approximate covers ``T̂C`` are formed, and
Inc-Greedy (or FM-greedy for the binary instance) runs over the cluster
representatives.

Dynamic updates (Section 6) — addition/deletion of candidate sites and
trajectories — modify the affected clusters of every instance in place.
Updates can be applied one at a time (:meth:`NetClusIndex.add_trajectory`
and friends) or, far cheaper per item, as a batch through
:class:`UpdateBatch`/:meth:`NetClusIndex.apply_updates` and the plural
``add_trajectories``/``remove_trajectories``/``add_sites``/``remove_sites``
APIs, which share per-instance lookup structures and the shortest-path
engine across the whole batch.  Every mutation bumps the monotonic
:attr:`NetClusIndex.version` counter, which downstream caches (the
placement service) use to detect staleness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from repro.core.bitcov import BitsetCoverageIndex
from repro.core.covcache import DEFAULT_PART_LIMIT, CoverageCache, materialise_coverage
from repro.core.coverage import (
    CoverageIndex,
    SparseCoverageIndex,
    canonical_entries,
    resolve_engine,
)
from repro.core.fm_greedy import FMGreedy
from repro.core.greedy import IncGreedy
from repro.core.preference import PreferenceFunction
from repro.core.query import TOPSQuery, TOPSResult
from repro.network.graph import RoadNetwork
from repro.network.shortest_path import ShortestPathEngine
from repro.trajectory.model import Trajectory, TrajectoryDataset
from repro.utils.timer import Timer
from repro.utils.validation import require, require_positive

__all__ = [
    "NetClusCluster",
    "NetClusInstance",
    "NetClusIndex",
    "ClusteredCoverage",
    "UpdateBatch",
    "register_trajectory_batch",
]

#: relative tolerance used to snap τ onto an instance boundary: τ equal to
#: ``τ_min·(1+γ)^p`` up to float noise must select instance p, not p-1
_TAU_BOUNDARY_RTOL = 1e-9


def register_trajectory_batch(
    instance: "NetClusInstance",
    num_nodes: int,
    traj_ids: Sequence[int],
    node_arrays: Sequence[np.ndarray],
) -> None:
    """Register a batch of trajectories into one index instance.

    The single registration implementation shared by the offline build and
    the streaming update engine.  Builds dense node→cluster and
    node→round-trip lookup arrays once per instance (cached on the
    instance), then reduces the *whole batch's* (trajectory, node) pairs to
    per-(cluster, trajectory) minimum legs with a single lexsort + grouped
    minimum instead of per-node dictionary probes per trajectory.

    The produced trajectory lists carry, per cluster, ``dr(T, c_i)`` — the
    minimum round-trip from any visited member node to the cluster center —
    with dict insertion order equal to batch order (clusters see
    trajectories in the order they were registered, which downstream
    tie-breaks rely on).  Node ids outside ``[0, num_nodes)`` or outside
    every cluster are ignored, like an unclustered node in a per-node walk.
    """
    cluster_of, round_trip_of = instance.node_lookup_arrays(num_nodes)
    if not len(node_arrays):
        return
    all_nodes = np.concatenate(list(node_arrays))
    positions = np.repeat(
        np.arange(len(node_arrays)), [len(nodes) for nodes in node_arrays]
    )
    # node ids outside the network are unclustered — they must not wrap
    # around (negative) or overflow the dense lookup arrays
    in_range = (all_nodes >= 0) & (all_nodes < len(cluster_of))
    cluster_ids = np.full(len(all_nodes), -1, dtype=np.int64)
    legs = np.full(len(all_nodes), np.inf, dtype=np.float64)
    cluster_ids[in_range] = cluster_of[all_nodes[in_range]]
    legs[in_range] = round_trip_of[all_nodes[in_range]]
    valid = (cluster_ids >= 0) & np.isfinite(legs)
    cluster_ids, legs, positions = cluster_ids[valid], legs[valid], positions[valid]
    if len(cluster_ids) == 0:
        return
    # group by (cluster, batch position): position-minor order reproduces
    # the insertion order of a per-trajectory registration walk
    order = np.lexsort((positions, cluster_ids))
    cluster_ids, legs, positions = (
        cluster_ids[order],
        legs[order],
        positions[order],
    )
    boundary = np.r_[
        True,
        (cluster_ids[1:] != cluster_ids[:-1]) | (positions[1:] != positions[:-1]),
    ]
    starts = np.flatnonzero(boundary)
    min_legs = np.minimum.reduceat(legs, starts)
    clusters = instance.clusters
    traj_ids = [int(t) for t in traj_ids]
    for cluster_id, position, leg in zip(
        cluster_ids[starts].tolist(), positions[starts].tolist(), min_legs.tolist()
    ):
        clusters[cluster_id].trajectory_list[traj_ids[position]] = leg


@dataclass
class NetClusCluster:
    """All per-cluster information stored by a NetClus index instance."""

    cluster_id: int
    center: int
    nodes: dict[int, float]  # node -> round-trip distance to center
    representative: int | None = None
    representative_round_trip_km: float = math.inf
    trajectory_list: dict[int, float] = field(default_factory=dict)  # traj_id -> dr(T, c_i)
    neighbors: list[tuple[int, float]] = field(default_factory=list)  # (cluster_id, dr(c_i, c_j))

    @property
    def has_representative(self) -> bool:
        """Whether the cluster contains at least one candidate site."""
        return self.representative is not None

    @property
    def num_trajectories(self) -> int:
        """|T L(g_i)| — trajectories passing through the cluster."""
        return len(self.trajectory_list)


class NetClusInstance:
    """One clustering resolution ``I_p`` of the NetClus index."""

    def __init__(
        self,
        instance_id: int,
        radius_km: float,
        gamma: float,
        clusters: list[NetClusCluster],
        node_to_cluster: dict[int, int],
        build_seconds: float = 0.0,
        mean_dominating_set_size: float = 0.0,
    ) -> None:
        self.instance_id = instance_id
        self.radius_km = radius_km
        self.gamma = gamma
        self.clusters = clusters
        self.node_to_cluster = node_to_cluster
        self.build_seconds = build_seconds
        self.mean_dominating_set_size = mean_dominating_set_size
        self._node_lookup: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    @property
    def num_clusters(self) -> int:
        """η_p — number of clusters in this instance."""
        return len(self.clusters)

    @property
    def tau_range(self) -> tuple[float, float]:
        """The half-open range of coverage thresholds this instance serves."""
        return 4.0 * self.radius_km, 4.0 * self.radius_km * (1.0 + self.gamma)

    def representatives(self) -> list[NetClusCluster]:
        """Clusters that have a representative candidate site."""
        return [cluster for cluster in self.clusters if cluster.has_representative]

    def cluster_of_node(self, node: int) -> NetClusCluster:
        """Return the cluster containing *node*."""
        return self.clusters[self.node_to_cluster[node]]

    def node_lookup_arrays(self, num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
        """Dense node→cluster and node→round-trip lookup arrays (cached).

        Cluster membership is fixed after the offline build except for the
        rare dynamic attach of an unclustered node, which calls
        :meth:`invalidate_node_lookup`; the arrays are therefore built once
        and shared by every batched registration.
        """
        if self._node_lookup is None or len(self._node_lookup[0]) != num_nodes:
            cluster_of = np.full(num_nodes, -1, dtype=np.int64)
            if self.node_to_cluster:
                keys = np.fromiter(
                    self.node_to_cluster.keys(), np.int64, len(self.node_to_cluster)
                )
                values = np.fromiter(
                    self.node_to_cluster.values(), np.int64, len(self.node_to_cluster)
                )
                cluster_of[keys] = values
            round_trip_of = np.full(num_nodes, np.inf, dtype=np.float64)
            for cluster in self.clusters:
                if not cluster.nodes:
                    continue
                member_ids = np.fromiter(
                    cluster.nodes.keys(), np.int64, len(cluster.nodes)
                )
                member_legs = np.fromiter(
                    cluster.nodes.values(), np.float64, len(cluster.nodes)
                )
                # only the owning cluster's leg counts (a node can also appear
                # in another cluster's nodes after a dynamic attach)
                owned = cluster_of[member_ids] == cluster.cluster_id
                round_trip_of[member_ids[owned]] = member_legs[owned]
            self._node_lookup = (cluster_of, round_trip_of)
        return self._node_lookup

    def invalidate_node_lookup(self) -> None:
        """Drop the cached lookup arrays (cluster membership changed)."""
        self._node_lookup = None

    def mean_trajectory_list_size(self) -> float:
        """Average |T L| across clusters (Table 11)."""
        if not self.clusters:
            return 0.0
        return float(np.mean([c.num_trajectories for c in self.clusters]))

    def mean_neighbor_count(self) -> float:
        """Average |CL| across clusters (Table 11)."""
        if not self.clusters:
            return 0.0
        return float(np.mean([len(c.neighbors) for c in self.clusters]))

    # ------------------------------------------------------------------ #
    def coverage_entries(
        self,
        trajectory_rows: dict[int, int],
        tau_km: float,
        cluster_ids: Sequence[int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int], list[int]]:
        """The clustered-space coverage entries with ``d̂r ≤ τ`` (Section 5.1).

        Every representative ``r_i`` is estimated against the trajectories
        of its own cluster and of each neighbour cluster whose center lies
        within τ: ``d̂r(T_j, r_i) = dr(T_j, c_j) + dr(c_j, c_i) + dr(c_i, r_i)``,
        evaluated left to right.  A ``(row, column)`` pair reached through
        several source clusters is emitted once per source; consumers keep
        the smallest estimate (:func:`~repro.core.coverage.canonical_entries`).

        Parameters
        ----------
        trajectory_rows:
            Mapping ``traj_id -> row``; trajectories it does not name are
            skipped, so a partial mapping restricts the rows.
        tau_km:
            Coverage threshold.
        cluster_ids:
            Restrict the columns to the representatives of these clusters
            (``None``: every representative).

        Returns
        -------
        (rows, cols, estimates, representative_sites, representative_cluster_ids)
            Columns are positions in the current :meth:`representatives`
            list, which the last two lists describe in full.
        """
        reps = self.representatives()
        rep_sites = [cluster.representative for cluster in reps]
        rep_cluster_ids = [cluster.cluster_id for cluster in reps]
        if cluster_ids is None:
            columns = list(range(len(reps)))
        else:
            wanted = {int(c) for c in cluster_ids}
            columns = [col for col, cid in enumerate(rep_cluster_ids) if cid in wanted]
        selected = [reps[col] for col in columns]

        # 1. membership CSR: cluster -> (registry rows, legs)
        member_offsets, member_rows, member_legs = self._membership(trajectory_rows)

        # 2. (column, source cluster, center distance, representative leg)
        #    pairs: each column's own cluster first, then its neighbours
        pair_counts = np.fromiter(
            (len(cluster.neighbors) + 1 for cluster in selected), np.int64, len(selected)
        )
        own = np.cumsum(pair_counts) - pair_counts
        is_neighbor = np.ones(int(pair_counts.sum()), dtype=bool)
        is_neighbor[own] = False
        neighbors = list(chain.from_iterable(cluster.neighbors for cluster in selected))
        sources = np.empty(len(is_neighbor), dtype=np.int64)
        sources[own] = [cluster.cluster_id for cluster in selected]
        sources[is_neighbor] = [neighbor_id for neighbor_id, _ in neighbors]
        centers = np.zeros(len(is_neighbor), dtype=np.float64)
        centers[is_neighbor] = [center_distance for _, center_distance in neighbors]
        rep_legs = [cluster.representative_round_trip_km for cluster in selected]
        pair_cols = np.repeat(np.asarray(columns, dtype=np.int64), pair_counts)
        pair_rep_legs = np.repeat(np.asarray(rep_legs, dtype=np.float64), pair_counts)
        near = centers <= tau_km
        sources, centers = sources[near], centers[near]
        pair_cols, pair_rep_legs = pair_cols[near], pair_rep_legs[near]

        # 3. expand every pair over its source cluster's members
        starts = member_offsets[sources]
        lengths = member_offsets[sources + 1] - starts
        shifts = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        members = np.arange(len(shifts), dtype=np.int64) + shifts

        # 4. the estimate in the online phase's float order, one ≤ τ filter
        estimates = (
            member_legs[members]
            + np.repeat(centers, lengths)
            + np.repeat(pair_rep_legs, lengths)
        )
        within = estimates <= tau_km
        return (
            member_rows[members][within],
            np.repeat(pair_cols, lengths)[within],
            estimates[within],
            rep_sites,
            rep_cluster_ids,
        )

    def _membership(
        self, trajectory_rows: dict[int, int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cluster → (registry rows, legs) CSR over the mapped trajectories.

        Returns ``(offsets, rows, legs)``: cluster ``c``'s members are
        ``rows[offsets[c]:offsets[c + 1]]`` in trajectory-list order.  Ids
        are matched by binary search over the sorted mapping keys, so no
        array is sized by the largest id.
        """
        lists = [cluster.trajectory_list for cluster in self.clusters]
        sizes = np.fromiter(map(len, lists), np.int64, len(lists))
        total = int(sizes.sum())
        ids = np.fromiter(chain.from_iterable(lists), np.int64, total)
        legs = np.fromiter(chain.from_iterable(tl.values() for tl in lists), np.float64, total)
        known_ids = np.fromiter(trajectory_rows.keys(), np.int64, len(trajectory_rows))
        known_rows = np.fromiter(trajectory_rows.values(), np.int64, len(trajectory_rows))
        order = np.argsort(known_ids)
        known_ids, known_rows = known_ids[order], known_rows[order]
        at = np.searchsorted(known_ids, ids)
        found = at < len(known_ids)
        found[found] = known_ids[at[found]] == ids[found]
        owners = np.repeat(np.arange(len(lists), dtype=np.int64), sizes)[found]
        offsets = np.zeros(len(lists) + 1, dtype=np.int64)
        np.cumsum(np.bincount(owners, minlength=len(lists)), out=offsets[1:])
        return offsets, known_rows[at[found]], legs[found]

    def storage_bytes(self) -> int:
        """Approximate bytes of the per-cluster payload (Table 7 / Table 9)."""
        total = 0
        for cluster in self.clusters:
            total += 16 * len(cluster.nodes)
            total += 16 * len(cluster.trajectory_list)
            total += 16 * len(cluster.neighbors)
            total += 32  # center, representative, radii bookkeeping
        return total


class ClusteredCoverage:
    """A prepared clustered-space coverage: everything :meth:`NetClusIndex.query`
    derives from ``(τ, ψ)`` before the greedy runs.

    Produced by :meth:`NetClusIndex.prepare_coverage` and reusable across any
    number of queries sharing the same ``(τ, ψ)`` — varying k, capacity,
    budget or existing services.  The placement service builds one of these
    per ``(τ, ψ)`` group of a batch, which is what amortises the
    instance-resolution and coverage-construction work.

    The backing instance may be supplied *deferred*: a coverage-cache hit
    only ever reads three instance scalars (id, radius, cluster count) for
    result metadata, so on a lazily-rebuilt ladder (v4 mmap loads) the
    cache passes ``instance_factory`` + ``instance_summary`` instead of a
    materialised instance, and the rung's cluster dictionaries are only
    rebuilt if something genuinely needs them (``existing_sites`` mapping,
    update patching).

    Attributes
    ----------
    instance:
        The index instance ``I_p`` selected for τ (materialised on first
        access when the coverage was built with a deferred instance).
    coverage:
        The coverage index over the cluster representatives (dense,
        sparse or bitset, depending on the requested engine).
    representative_sites:
        Node id of each representative, aligned with coverage columns.
    representative_clusters:
        Cluster id of each representative, aligned with coverage columns.
    engine:
        ``"dense"``, ``"sparse"`` or ``"bitset"`` — which representation
        was built (``"auto"`` is resolved before building).
    index_version:
        The :attr:`NetClusIndex.version` the structures were built at;
        :meth:`NetClusIndex.query` refuses a prepared coverage whose version
        no longer matches the (since-mutated) index.
    """

    def __init__(
        self,
        instance: NetClusInstance | None = None,
        coverage: (
            CoverageIndex | SparseCoverageIndex | BitsetCoverageIndex
        ) = None,  # type: ignore[assignment]
        representative_sites: list[int] = None,  # type: ignore[assignment]
        representative_clusters: list[int] = None,  # type: ignore[assignment]
        engine: str = None,  # type: ignore[assignment]
        index_version: int = 0,
        *,
        instance_factory: Callable[[], NetClusInstance] | None = None,
        instance_summary: tuple[int, float, int] | None = None,
    ) -> None:
        require(
            (instance is None) != (instance_factory is None),
            "ClusteredCoverage needs exactly one of instance or instance_factory",
        )
        require(
            instance is not None or instance_summary is not None,
            "a deferred instance needs an (id, radius_km, num_clusters) summary",
        )
        require(coverage is not None, "ClusteredCoverage needs a coverage index")
        require(engine is not None, "ClusteredCoverage needs an engine name")
        self._instance = instance
        self._instance_factory = instance_factory
        self._instance_summary = instance_summary
        self.coverage = coverage
        self.representative_sites = (
            list(representative_sites) if representative_sites is not None else []
        )
        self.representative_clusters = (
            list(representative_clusters) if representative_clusters is not None else []
        )
        self.engine = engine
        self.index_version = int(index_version)

    @property
    def instance(self) -> NetClusInstance:
        """The backing instance, rebuilding a deferred one on first access."""
        if self._instance is None:
            assert self._instance_factory is not None
            self._instance = self._instance_factory()
        return self._instance

    @property
    def instance_id(self) -> int:
        """Instance id — answered from the summary without materialising."""
        if self._instance is None and self._instance_summary is not None:
            return int(self._instance_summary[0])
        return self.instance.instance_id

    @property
    def instance_radius_km(self) -> float:
        """Instance cluster radius — summary-backed like :attr:`instance_id`."""
        if self._instance is None and self._instance_summary is not None:
            return float(self._instance_summary[1])
        return self.instance.radius_km

    @property
    def num_clusters(self) -> int:
        """Instance cluster count — summary-backed like :attr:`instance_id`."""
        if self._instance is None and self._instance_summary is not None:
            return int(self._instance_summary[2])
        return self.instance.num_clusters

    @property
    def tau_km(self) -> float:
        """The coverage threshold the structures were built for."""
        return self.coverage.tau_km

    def existing_columns(self, existing_sites: Sequence[int]) -> list[int]:
        """Map existing service locations to representative columns.

        Each existing site is represented by the representative of its
        cluster (the same proxying the online phase applies to candidate
        sites); sites whose cluster has no representative are dropped.
        """
        cluster_to_column = {
            cid: col for col, cid in enumerate(self.representative_clusters)
        }
        columns: list[int] = []
        for site in existing_sites:
            cluster_id = self.instance.node_to_cluster.get(int(site))
            if cluster_id is None:
                continue
            column = cluster_to_column.get(cluster_id)
            if column is not None and column not in columns:
                columns.append(column)
        return columns


@dataclass(frozen=True)
class UpdateBatch:
    """One batch of dynamic updates for :meth:`NetClusIndex.apply_updates`.

    The batch is applied in a fixed order — trajectory removals, site
    removals, trajectory additions, site additions — and is guaranteed to
    leave the index in exactly the state the equivalent sequence of
    one-at-a-time calls (in that same order) would produce; batching only
    amortises per-call setup work, it never changes the computation.

    Attributes
    ----------
    add_trajectories:
        New trajectories; ids must not collide with indexed ones.
    remove_trajectories:
        Ids of indexed trajectories to drop.
    add_sites:
        Node ids to register as candidate sites (already-registered ids are
        ignored, matching :meth:`NetClusIndex.add_site`).
    remove_sites:
        Node ids to unregister (unknown ids raise ``KeyError``).
    """

    add_trajectories: tuple[Trajectory, ...] = ()
    remove_trajectories: tuple[int, ...] = ()
    add_sites: tuple[int, ...] = ()
    remove_sites: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "add_trajectories", tuple(self.add_trajectories))
        object.__setattr__(
            self, "remove_trajectories", tuple(int(t) for t in self.remove_trajectories)
        )
        object.__setattr__(self, "add_sites", tuple(int(s) for s in self.add_sites))
        object.__setattr__(self, "remove_sites", tuple(int(s) for s in self.remove_sites))

    def __len__(self) -> int:
        """Total number of update items in the batch."""
        return (
            len(self.add_trajectories)
            + len(self.remove_trajectories)
            + len(self.add_sites)
            + len(self.remove_sites)
        )


class NetClusIndex:
    """The multi-resolution NetClus index (offline structure + online query).

    Build it with :meth:`build`; answer TOPS queries with :meth:`query`;
    apply dynamic updates with :meth:`add_site`, :meth:`remove_site`,
    :meth:`add_trajectory` and :meth:`remove_trajectory` — or, for whole
    batches of updates, with :meth:`apply_updates` and the plural
    :meth:`add_trajectories`/:meth:`remove_trajectories`/:meth:`add_sites`/
    :meth:`remove_sites`, which amortise per-call setup across the batch.
    Every mutation bumps :attr:`version`.  For repeated queries sharing one
    ``(τ, ψ)``, :meth:`prepare_coverage` exposes the reusable
    clustered-space structures; :mod:`repro.service` builds index
    persistence (save/load) and a batch-query façade on top of these hooks.
    """

    algorithm_name = "netclus"

    def __init__(
        self,
        network: RoadNetwork,
        sites: Sequence[int],
        instances: Sequence[NetClusInstance],
        tau_min_km: float,
        tau_max_km: float,
        gamma: float,
        trajectory_ids: Sequence[int],
        representative_strategy: str = "closest",
        version: int = 0,
        node_visit_counts: np.ndarray | None = None,
        trajectory_nodes: dict[int, np.ndarray] | None = None,
        build_stats: Sequence["BuildStats"] | None = None,
        max_instances: int | None = None,
    ) -> None:
        self.network = network
        self.sites = set(int(s) for s in sites)
        self.instances = instances
        self.tau_min_km = tau_min_km
        self.tau_max_km = tau_max_km
        self.gamma = gamma
        self.representative_strategy = representative_strategy
        #: per-stage offline-phase records (clustering, representatives,
        #: registration, neighbors) from :mod:`repro.core.build`; empty for
        #: indexes loaded from manifests that predate the staged pipeline
        self.build_stats = list(build_stats or [])
        #: the ``max_instances`` cap the index was built with (``None`` =
        #: full ladder); round-tripped through the manifest
        self.max_instances = max_instances
        self._trajectory_ids = list(trajectory_ids)
        self._trajectory_rows = {
            traj_id: row for row, traj_id in enumerate(self._trajectory_ids)
        }
        #: monotonic mutation counter: bumped by every state-changing update
        #: call; caches keyed on a selection (the placement service's LRU)
        #: compare it to detect staleness.  Persisted in the index manifest.
        self.version = int(version)
        # visit-count bookkeeping backing "most_frequent" re-election: the
        # per-node distinct-trajectory counts and, per trajectory, its unique
        # node array (needed to decrement counts on removal).  ``None`` for
        # "closest" indexes — and for "most_frequent" indexes loaded from a
        # format-v1 payload, which re-elect by proximity as before.
        self._node_visit_counts = node_visit_counts
        self._trajectory_nodes = trajectory_nodes
        self._engine: ShortestPathEngine | None = None
        #: optional persistent coverage cache (zero-rebuild queries);
        #: ``None`` until :meth:`enable_coverage_cache` attaches one —
        #: opt-in, so plain indexes behave exactly as before
        self.coverage_cache: CoverageCache | None = None

    def enable_coverage_cache(self, limit: int | None = None) -> CoverageCache:
        """Attach (or return) the index's :class:`~repro.core.covcache.CoverageCache`.

        Once enabled, :meth:`prepare_coverage` serves warm ``(τ, ψ)``
        structures from the cache and stores fresh ones on a miss, and
        :meth:`apply_updates` patches the cached parts in place instead of
        letting them go stale — steady-state queries then run greedy with
        zero coverage-build work.  Idempotent; *limit* resizes the LRU part
        budget when given.
        """
        if self.coverage_cache is None:
            self.coverage_cache = CoverageCache(
                limit=DEFAULT_PART_LIMIT if limit is None else limit
            )
        elif limit is not None:
            self.coverage_cache.resize(limit)
        return self.coverage_cache

    # ------------------------------------------------------------------ #
    # offline construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        network: RoadNetwork,
        dataset: TrajectoryDataset,
        sites: Sequence[int],
        gamma: float = 0.75,
        tau_min_km: float = 0.4,
        tau_max_km: float = 8.0,
        use_fm_sketches: bool = False,
        num_sketches: int = 30,
        gdsp_chunk_size: int = 512,
        max_instances: int | None = None,
        representative_strategy: str = "closest",
    ) -> "NetClusIndex":
        """Construct the index (offline phase).

        The construction runs through the staged build pipeline of
        :mod:`repro.core.build` — per-instance GDSP clustering →
        representative election → trajectory registration → neighbour
        lists — which records a :class:`~repro.core.build.BuildStats` per
        stage on the returned index (:attr:`build_stats`).

        Parameters
        ----------
        network, dataset, sites:
            The road network, map-matched trajectories, and candidate sites.
        gamma:
            Index resolution parameter γ (> 0): consecutive radii grow by
            ``1 + γ``; the paper fixes 0.75 as the best space/quality balance.
        tau_min_km, tau_max_km:
            The supported coverage-threshold range; the paper sets these to
            the min/max round-trip distance between candidate sites, which the
            caller may compute and pass explicitly.
        use_fm_sketches:
            Run Greedy-GDSP with FM-sketch estimated coverage.
        max_instances:
            Optional cap on the number of index instances (testing aid).
        representative_strategy:
            How each cluster elects its representative site (Section 4.2):
            ``"closest"`` — the candidate site nearest to the cluster center
            (the paper's choice), or ``"most_frequent"`` — the candidate site
            visited by the largest number of trajectories.

        Returns
        -------
        NetClusIndex
            ``t = ⌊log_{1+γ}(τ_max/τ_min)⌋ + 1`` instances (fewer when
            capped), ready to answer queries.  All distances here and
            throughout the index — radii, detours, τ — are in kilometres;
            no metre-denominated quantity exists in this library.
        """
        from repro.core.build import build_index

        return build_index(
            network,
            dataset,
            sites,
            gamma=gamma,
            tau_min_km=tau_min_km,
            tau_max_km=tau_max_km,
            use_fm_sketches=use_fm_sketches,
            num_sketches=num_sketches,
            gdsp_chunk_size=gdsp_chunk_size,
            max_instances=max_instances,
            representative_strategy=representative_strategy,
        )

    @staticmethod
    def _elect_representative(
        cluster: NetClusCluster,
        sites: set[int],
        strategy: str,
        visit_counts: np.ndarray | None,
    ) -> None:
        """Choose the cluster representative among its candidate sites.

        ``"closest"`` picks the site with the smallest round-trip distance to
        the cluster center; ``"most_frequent"`` picks the site visited by the
        largest number of trajectories (ties broken by proximity to the
        center).  The stored ``representative_round_trip_km`` is always the
        representative's distance to the center, as the online estimate needs
        it regardless of how the representative was elected.
        """
        candidate_sites = [
            (node, round_trip) for node, round_trip in cluster.nodes.items() if node in sites
        ]
        if not candidate_sites:
            return
        if strategy == "most_frequent" and visit_counts is not None:
            best_node, best_round_trip = max(
                candidate_sites,
                key=lambda item: (visit_counts[item[0]], -item[1]),
            )
        else:
            best_node, best_round_trip = min(candidate_sites, key=lambda item: item[1])
        cluster.representative = best_node
        cluster.representative_round_trip_km = best_round_trip

    # ------------------------------------------------------------------ #
    # online query
    # ------------------------------------------------------------------ #
    def instance_for(self, tau_km: float) -> NetClusInstance:
        """Select the index instance serving coverage threshold *tau_km*.

        ``p = ⌊log_{1+γ}(τ/τ_min)⌋`` clamped into the available ladder; below
        τ_min the finest instance is used (NetClus degenerates towards plain
        Inc-Greedy), above τ_max the coarsest.  A τ equal to an instance
        boundary ``τ_min·(1+γ)^p`` up to float rounding selects instance p:
        ``math.log`` can undershoot the exact integer, so the ratio is
        snapped to the next boundary within a relative tolerance.
        """
        require_positive(tau_km, "tau_km")
        if tau_km <= self.tau_min_km:
            return self.instances[0]
        ratio = tau_km / self.tau_min_km
        p = int(math.floor(math.log(ratio, 1.0 + self.gamma)))
        if ratio >= (1.0 + self.gamma) ** (p + 1) * (1.0 - _TAU_BOUNDARY_RTOL):
            p += 1
        p = max(0, min(p, len(self.instances) - 1))
        return self.instances[p]

    def prepare_coverage(
        self,
        tau_km: float,
        preference: PreferenceFunction,
        engine: str = "dense",
        instance: NetClusInstance | None = None,
    ) -> ClusteredCoverage:
        """Build the reusable clustered-space coverage for one ``(τ, ψ)``.

        Resolves the index instance for *tau_km* (or takes a caller-resolved
        *instance* — how the placement service shares one resolution across
        several ψ at the same τ; any instance other than
        ``instance_for(tau_km)`` raises ``ValueError``).  A warm
        coverage-cache part is served as it is; otherwise
        :meth:`NetClusInstance.coverage_entries` computes the ≤ τ entries,
        they are canonicalised once, stored if a cache is attached, and
        materialised as the *engine*'s view — ``"dense"``, ``"sparse"``,
        ``"bitset"`` (binary ψ only), or ``"auto"`` (see
        :func:`repro.core.coverage.resolve_engine`).  Every view holds the
        same entries; the dense matrix is ``inf`` wherever the estimate
        exceeds τ.

        The returned :class:`ClusteredCoverage` can answer any number of
        queries at this ``(τ, ψ)`` — pass it back via :meth:`query`'s
        ``prepared`` argument, or hand it to the solvers/variant drivers
        directly.  All distances are in kilometres.
        """
        engine = resolve_engine(engine, preference)
        if instance is not None:
            expected = self.instance_for(tau_km).instance_id
            require(
                instance.instance_id == expected,
                f"instance {instance.instance_id} does not serve tau_km={tau_km} "
                f"(instance_for gives {expected})",
            )
        if self.coverage_cache is not None:
            warm = self.coverage_cache.lookup(self, tau_km, preference, engine=engine)
            if warm is not None:
                return warm
        if instance is None:
            instance = self.instance_for(tau_km)
        rows, cols, estimates, rep_sites, rep_clusters = instance.coverage_entries(
            self._trajectory_rows, tau_km
        )
        entries = canonical_entries(rows, cols, estimates, tau_km)
        prepared = materialise_coverage(
            self,
            tau_km,
            preference,
            *entries,
            rep_sites,
            rep_clusters,
            instance.instance_id,
            engine,
            instance=instance,
        )
        if self.coverage_cache is not None:
            self.coverage_cache.store_entries(
                self,
                tau_km,
                preference,
                *entries,
                rep_sites,
                rep_clusters,
                instance.instance_id,
                prepared=prepared,
            )
        return prepared

    def query(
        self,
        query: TOPSQuery,
        use_fm_sketches: bool = False,
        num_sketches: int = 30,
        existing_sites: Sequence[int] = (),
        engine: str = "dense",
        prepared: ClusteredCoverage | None = None,
    ) -> TOPSResult:
        """Answer a TOPS query ``(k, τ, ψ)`` over the clustered space.

        The reported ``utility`` is the clustered-space (estimated) utility;
        experiments additionally score the returned sites with the exact
        :class:`repro.core.distances.DistanceOracle` for quality comparisons.
        ``existing_sites`` seeds the greedy with already-operating services
        (their clusters' representatives are used as proxies).

        Parameters
        ----------
        query:
            The TOPS query; ``query.tau_km`` is in kilometres.
        use_fm_sketches:
            Run FM-greedy over the representatives instead of Inc-Greedy
            (only effective for a binary ψ; the result's ``algorithm`` is
            then ``"fm-netclus"``).
        num_sketches:
            Number of FM sketches f when *use_fm_sketches* is set.
        existing_sites:
            Node ids of already-operating services (Section 7.3).
        engine:
            Coverage representation: ``"dense"`` builds the estimated-detour
            matrix; ``"sparse"`` feeds the qualifying estimates into a
            sparse index; ``"bitset"`` packs the binary coverage into
            uint64 words with popcount gains (binary ψ only);
            ``"auto"`` picks bitset for binary ψ and sparse otherwise.
            Inc-Greedy runs the same loop on every engine, so the
            selections are identical.
        prepared:
            A :class:`ClusteredCoverage` from :meth:`prepare_coverage` to
            reuse; its ``(τ, engine)`` must match the query and its
            ``index_version`` the current :attr:`version` (a prepared
            coverage from before a dynamic update is refused rather than
            silently serving stale selections).  Skips the
            instance-resolution and coverage-construction work entirely.

        Returns
        -------
        TOPSResult
            Selected sites (node ids, in selection order), clustered-space
            utility, per-trajectory utilities, and metadata identifying the
            instance and engine used.
        """
        engine = resolve_engine(engine, query.preference)
        with Timer() as timer:
            if prepared is None:
                prepared = self.prepare_coverage(query.tau_km, query.preference, engine)
            else:
                require(
                    prepared.engine == engine,
                    "prepared coverage was built with a different engine",
                )
                require(
                    prepared.tau_km == query.tau_km,
                    "prepared coverage was built for a different tau_km",
                )
                require(
                    prepared.index_version == self.version,
                    "prepared coverage is stale: the index was mutated after "
                    "prepare_coverage (rebuild it to answer queries)",
                )
            coverage = prepared.coverage
            existing_columns: list[int] = []
            if existing_sites:
                existing_columns = prepared.existing_columns(existing_sites)
            if use_fm_sketches and getattr(query.preference, "is_binary", False):
                solver = FMGreedy(coverage, num_sketches=num_sketches)
                inner = solver.solve(query)
                columns = coverage.columns_for_labels(inner.sites)
                utilities = coverage.per_trajectory_utility(columns)
                algorithm = "fm-netclus"
            else:
                columns, utilities, _ = IncGreedy(coverage).select(
                    query.k, existing_columns=existing_columns
                )
                algorithm = self.algorithm_name
            sites = tuple(int(coverage.site_labels[c]) for c in columns)
        return TOPSResult(
            sites=sites,
            utility=float(np.sum(utilities)),
            per_trajectory_utility=tuple(float(u) for u in utilities),
            elapsed_seconds=timer.elapsed,
            algorithm=algorithm,
            metadata={
                # summary-backed accessors: a coverage-cache hit reports
                # these without materialising the backing instance
                "instance_id": prepared.instance_id,
                "instance_radius_km": prepared.instance_radius_km,
                "num_clusters": prepared.num_clusters,
                "num_representatives": len(prepared.representative_sites),
                "engine": engine,
            },
        )

    # ------------------------------------------------------------------ #
    # dynamic updates (Section 6)
    # ------------------------------------------------------------------ #
    def apply_updates(self, batch: UpdateBatch) -> int:
        """Apply a whole :class:`UpdateBatch` and return the number of items.

        Application order is fixed — trajectory removals, site removals,
        trajectory additions, site additions — and the final index state is
        identical to issuing the same updates through the one-at-a-time
        methods in that order; only the per-call setup work (shortest-path
        engine, per-instance node→cluster lookup tables, trajectory-registry
        rebuilds, representative re-elections) is shared across the batch.
        Bumps :attr:`version` once per non-empty sub-batch.

        The whole batch is validated up front: an invalid member (unknown
        removal id, duplicate or colliding addition, site at a non-network
        node) raises before *any* sub-batch is applied, so a failed
        ``apply_updates`` never leaves the index partially updated.
        """
        self._validate_batch(batch)
        probe = (
            self.coverage_cache.begin_delta(self, batch)
            if self.coverage_cache is not None
            else None
        )
        applied = 0
        applied += self.remove_trajectories(batch.remove_trajectories)
        applied += self.remove_sites(batch.remove_sites)
        applied += self.add_trajectories(batch.add_trajectories)
        applied += self.add_sites(batch.add_sites)
        if probe is not None:
            self.coverage_cache.finish_delta(self, batch, probe)
        return applied

    def _validate_batch(self, batch: UpdateBatch) -> None:
        """Raise if any member of *batch* would fail, before mutating.

        Mirrors the sub-batch validations, applied against the state each
        sub-batch will see (e.g. a trajectory id removed earlier in the
        batch may legitimately be re-added later in the same batch).
        """
        removed_trajectories: set[int] = set()
        for traj_id in batch.remove_trajectories:
            if traj_id not in self._trajectory_rows or traj_id in removed_trajectories:
                raise KeyError(f"trajectory {traj_id} is not indexed")
            removed_trajectories.add(traj_id)
        removed_sites: set[int] = set()
        for site in batch.remove_sites:
            if site not in self.sites or site in removed_sites:
                raise KeyError(f"site {site} is not a registered candidate site")
            removed_sites.add(site)
        added_trajectories: set[int] = set()
        for trajectory in batch.add_trajectories:
            traj_id = trajectory.traj_id
            already_indexed = (
                traj_id in self._trajectory_rows and traj_id not in removed_trajectories
            )
            require(
                not already_indexed and traj_id not in added_trajectories,
                f"trajectory id {traj_id} already present",
            )
            added_trajectories.add(traj_id)
        for site in batch.add_sites:
            require(self.network.has_node(site), f"site {site} is not a network node")

    def add_trajectory(self, trajectory: Trajectory) -> None:
        """Add a new trajectory to every index instance."""
        self.add_trajectories([trajectory])

    def remove_trajectory(self, traj_id: int) -> None:
        """Remove a trajectory from every index instance."""
        self.remove_trajectories([traj_id])

    def add_site(self, site: int) -> None:
        """Register a new candidate site located at an existing network node."""
        self.add_sites([site])

    def remove_site(self, site: int) -> None:
        """Unregister a candidate site; clusters elect a new representative."""
        self.remove_sites([site])

    def add_trajectories(self, trajectories: Sequence[Trajectory]) -> int:
        """Add *trajectories* to every instance; returns the number added.

        Ids must be new.  Every addition, a single trajectory included,
        registers instance by instance through
        :func:`register_trajectory_batch` — the lexsort + grouped-minimum
        kernel the offline build uses — against each instance's cached
        node→(cluster, round-trip) lookup table.
        """
        trajectories = list(trajectories)
        batch_ids: set[int] = set()
        for trajectory in trajectories:
            require(
                trajectory.traj_id not in self._trajectory_rows
                and trajectory.traj_id not in batch_ids,
                f"trajectory id {trajectory.traj_id} already present",
            )
            batch_ids.add(trajectory.traj_id)
        if not trajectories:
            return 0
        for trajectory in trajectories:
            self._trajectory_rows[trajectory.traj_id] = len(self._trajectory_ids)
            self._trajectory_ids.append(trajectory.traj_id)
        traj_ids = [trajectory.traj_id for trajectory in trajectories]
        node_arrays = [t.nodes_array() for t in trajectories]
        for instance in self.instances:
            register_trajectory_batch(
                instance, self.network.num_nodes, traj_ids, node_arrays
            )
        if self._tracks_visits:
            self._ensure_writable_visit_counts()
            touched: set[int] = set()
            num_nodes = len(self._node_visit_counts)
            for trajectory in trajectories:
                unique_nodes = np.unique(trajectory.nodes_array())
                # nodes outside the network carry no visit count (they are
                # invisible to most_frequent elections, like a fresh build)
                unique_nodes = unique_nodes[
                    (unique_nodes >= 0) & (unique_nodes < num_nodes)
                ]
                self._node_visit_counts[unique_nodes] += 1
                self._trajectory_nodes[trajectory.traj_id] = unique_nodes
                touched.update(int(n) for n in unique_nodes)
            self._reelect_clusters_of_nodes(touched)
        self.version += 1
        return len(trajectories)

    def remove_trajectories(self, traj_ids: Sequence[int]) -> int:
        """Remove the given trajectories; returns the number removed.

        A batch pays the trajectory-registry rebuild and the sweep over the
        per-cluster trajectory lists once, instead of once per id.
        """
        removal_order = [int(t) for t in traj_ids]
        removed: set[int] = set()
        for traj_id in removal_order:
            if traj_id not in self._trajectory_rows or traj_id in removed:
                raise KeyError(f"trajectory {traj_id} is not indexed")
            removed.add(traj_id)
        if not removed:
            return 0
        self._trajectory_ids = [t for t in self._trajectory_ids if t not in removed]
        self._trajectory_rows = {
            traj_id: row for row, traj_id in enumerate(self._trajectory_ids)
        }
        for instance in self.instances:
            for cluster in instance.clusters:
                for traj_id in sorted(removed.intersection(cluster.trajectory_list)):
                    del cluster.trajectory_list[traj_id]
        if self._tracks_visits:
            self._ensure_writable_visit_counts()
            touched: set[int] = set()
            for traj_id in sorted(removed):
                unique_nodes = self._trajectory_nodes.pop(traj_id, None)
                if unique_nodes is None:
                    continue
                self._node_visit_counts[unique_nodes] -= 1
                touched.update(int(n) for n in unique_nodes)
            self._reelect_clusters_of_nodes(touched)
        self.version += 1
        return len(removed)

    def add_sites(self, sites: Sequence[int]) -> int:
        """Register candidate sites; returns how many were actually new.

        Already-registered sites are skipped (like :meth:`add_site`).  Each
        affected cluster re-elects its representative under the index's
        ``representative_strategy``, exactly as a fresh build would.
        """
        new_sites: list[int] = []
        new_site_set: set[int] = set()
        for site in sites:
            site = int(site)
            require(self.network.has_node(site), f"site {site} is not a network node")
            if site not in self.sites and site not in new_site_set:
                new_sites.append(site)
                new_site_set.add(site)
        if not new_sites:
            return 0
        self.sites.update(new_site_set)
        for instance in self.instances:
            affected: set[int] = set()
            for site in new_sites:
                cluster_id = instance.node_to_cluster.get(site)
                if cluster_id is None:
                    # node unseen by this instance (should not happen when the
                    # instance clustered every node); attach to nearest center
                    cluster_id = self._nearest_cluster(instance, site)
                    instance.node_to_cluster[site] = cluster_id
                    instance.invalidate_node_lookup()
                cluster = instance.clusters[cluster_id]
                if site not in cluster.nodes:
                    cluster.nodes[site] = self._round_trip_to_center(
                        cluster.center, site
                    )
                    instance.invalidate_node_lookup()
                affected.add(cluster_id)
            for cluster_id in sorted(affected):
                self._reelect(instance.clusters[cluster_id])
        self.version += 1
        return len(new_sites)

    def remove_sites(self, sites: Sequence[int]) -> int:
        """Unregister candidate sites; returns the number removed.

        Unknown sites raise ``KeyError``.  Only clusters whose current
        representative was removed re-elect — dropping a non-representative
        candidate can never change the election outcome.
        """
        removed: list[int] = []
        removed_set: set[int] = set()
        for site in sites:
            site = int(site)
            if site not in self.sites or site in removed_set:
                raise KeyError(f"site {site} is not a registered candidate site")
            removed_set.add(site)
            removed.append(site)
        if not removed:
            return 0
        self.sites.difference_update(removed_set)
        for instance in self.instances:
            affected: set[int] = set()
            for site in removed:
                cluster_id = instance.node_to_cluster.get(site)
                if (
                    cluster_id is not None
                    and instance.clusters[cluster_id].representative in removed_set
                ):
                    affected.add(cluster_id)
            for cluster_id in sorted(affected):
                self._reelect(instance.clusters[cluster_id])
        self.version += 1
        return len(removed)

    # ------------------------------------------------------------------ #
    # update internals
    # ------------------------------------------------------------------ #
    @property
    def _tracks_visits(self) -> bool:
        """Whether visit counts are maintained for ``most_frequent`` elections."""
        return (
            self.representative_strategy == "most_frequent"
            and self._node_visit_counts is not None
            and self._trajectory_nodes is not None
        )

    def _ensure_writable_visit_counts(self) -> None:
        """Copy-on-write the visit-count array before in-place mutation.

        A format-v4 load hands the index a read-only zero-copy view over the
        mmap'd payload blob; the first mutating update materialises a private
        writable copy, so updates never write through to the on-disk file.
        """
        if (
            self._node_visit_counts is not None
            and not self._node_visit_counts.flags.writeable
        ):
            self._node_visit_counts = np.array(self._node_visit_counts, dtype=np.int64)

    def _reelect(self, cluster: NetClusCluster) -> None:
        """Re-run the representative election of one cluster from scratch."""
        cluster.representative = None
        cluster.representative_round_trip_km = math.inf
        self._elect_representative(
            cluster, self.sites, self.representative_strategy, self._node_visit_counts
        )

    def _reelect_clusters_of_nodes(self, nodes: set[int]) -> None:
        """Re-elect every cluster containing one of *nodes* (all instances).

        Called when visit counts changed: under ``most_frequent`` a count
        change can flip the election anywhere the trajectory passed.
        """
        for instance in self.instances:
            affected = {
                cluster_id
                for node in nodes
                if (cluster_id := instance.node_to_cluster.get(node)) is not None
            }
            for cluster_id in sorted(affected):
                self._reelect(instance.clusters[cluster_id])

    def _shortest_path_engine(self) -> ShortestPathEngine:
        """The shared shortest-path engine (built once, reused by updates)."""
        if self._engine is None:
            self._engine = ShortestPathEngine(self.network)
        return self._engine

    def _nearest_cluster(self, instance: NetClusInstance, node: int) -> int:
        engine = self._shortest_path_engine()
        round_trip = engine.round_trip_from(node)
        centers = [cluster.center for cluster in instance.clusters]
        distances = [round_trip[center] for center in centers]
        return int(np.argmin(distances))

    def _round_trip_to_center(self, center: int, node: int) -> float:
        engine = self._shortest_path_engine()
        forward = engine.distances_from([center])[0][node]
        backward = engine.distances_to([center])[0][node]
        return float(forward + backward)

    # ------------------------------------------------------------------ #
    @property
    def num_instances(self) -> int:
        """Number of index instances t."""
        return len(self.instances)

    @property
    def num_trajectories(self) -> int:
        """Number of indexed trajectories."""
        return len(self._trajectory_ids)

    @property
    def trajectory_ids(self) -> list[int]:
        """Ids of the indexed trajectories, in registration order (copy)."""
        return list(self._trajectory_ids)

    def storage_bytes(self) -> int:
        """Total estimated index payload bytes across all instances."""
        return sum(instance.storage_bytes() for instance in self.instances)

    def build_seconds(self) -> float:
        """Total offline construction time across instances."""
        return sum(instance.build_seconds for instance in self.instances)

    def construction_statistics(self) -> list[dict[str, float]]:
        """Per-instance statistics in the spirit of Table 11."""
        stats = []
        for instance in self.instances:
            stats.append(
                {
                    "radius_km": instance.radius_km,
                    "num_clusters": instance.num_clusters,
                    "mean_dominating_set_size": instance.mean_dominating_set_size,
                    "mean_trajectory_list_size": instance.mean_trajectory_list_size(),
                    "mean_neighbor_count": instance.mean_neighbor_count(),
                    "build_seconds": instance.build_seconds,
                    "storage_bytes": instance.storage_bytes(),
                }
            )
        return stats
