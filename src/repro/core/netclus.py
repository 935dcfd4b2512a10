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
Inc-Greedy runs over the cluster representatives (FM-NetClus, FM-greedy
over the same covers, is composed by :mod:`repro.experiments.runner`).
ψ alone picks how the covers are stored: packed bitsets for a binary ψ,
sparse CSR/CSC lists otherwise
(:func:`~repro.core.covcache.materialise_coverage`); the selections do
not depend on it.

Dynamic updates (Section 6) — addition/deletion of candidate sites and
trajectories — edit the affected clusters of every instance: vectorised
edits of the instance's arrays, each made on a copy (copy-on-write).
Updates can be applied one at a time (:meth:`NetClusIndex.add_trajectory`
and friends) or, far cheaper per item, as a batch through
:class:`UpdateBatch`/:meth:`NetClusIndex.apply_updates` and the plural
``add_trajectories``/``remove_trajectories``/``add_sites``/``remove_sites``
APIs, which share per-instance lookup structures across the whole batch.
Cluster membership itself is fixed offline: a site must be a node the
build clustered.  Every mutation bumps the monotonic
:attr:`NetClusIndex.version` counter, which downstream caches (the
placement service) use to detect staleness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection, NamedTuple, Sequence

import numpy as np

from repro.core.bitcov import BitsetCoverageIndex
from repro.core.covcache import DEFAULT_PART_LIMIT, CoverageCache, materialise_coverage
from repro.core.coverage import CoverageIndex, SparseCoverageIndex, canonical_entries
from repro.core.greedy import IncGreedy
from repro.core.preference import PreferenceFunction
from repro.core.query import TOPSQuery, TOPSResult
from repro.network.graph import RoadNetwork
from repro.trajectory.model import Trajectory, TrajectoryDataset
from repro.utils.timer import Timer
from repro.utils.validation import require, require_positive

__all__ = [
    "NetClusCluster",
    "NetClusInstance",
    "NetClusIndex",
    "ClusteredCoverage",
    "Ragged",
    "UpdateBatch",
    "register_trajectory_batch",
]

#: relative tolerance used to snap τ onto an instance boundary: τ equal to
#: ``τ_min·(1+γ)^p`` up to float noise must select instance p, not p-1
_TAU_BOUNDARY_RTOL = 1e-9


def register_trajectory_batch(
    instance: "NetClusInstance",
    traj_ids: Sequence[int],
    node_arrays: Sequence[np.ndarray],
) -> None:
    """Register a batch of trajectories into one index instance.

    The single registration implementation shared by the offline build and
    the streaming update engine.  Maps the *whole batch's* (trajectory,
    node) pairs through the instance's cached node→cluster and
    node→round-trip lookup arrays, then reduces them to per-(cluster,
    trajectory) minimum legs with a single lexsort + grouped minimum.

    Each cluster's trajectory list gains ``dr(T, c_i)`` — the minimum
    round-trip from any visited member node to the cluster center — after
    its existing entries, in batch order (clusters see trajectories in the
    order they were registered, which downstream tie-breaks rely on).  Node
    ids outside the network or outside every cluster are ignored.
    """
    if not len(node_arrays):
        return
    cluster_of, round_trip_of = instance.node_lookup_arrays()
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
    # group by (cluster, batch position): cluster-major runs, position-minor
    # order reproduces the insertion order of a per-trajectory walk
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
    ids = np.asarray(traj_ids, dtype=np.int64)
    instance.tl = instance.tl.append(
        cluster_ids[starts], ids[positions[starts]], np.minimum.reduceat(legs, starts)
    )


class Ragged(NamedTuple):
    """Per-cluster ragged lists in CSR form.

    Cluster ``c`` owns ``ids[indptr[c]:indptr[c + 1]]`` and the aligned
    ``vals`` slice, in list order.  Edits return a new :class:`Ragged` and
    never write into the arrays, so read-only views (a mapped index blob)
    are copied exactly when, and only where, something changes them.
    """

    indptr: np.ndarray
    ids: np.ndarray
    vals: np.ndarray

    @classmethod
    def empty(cls, num_rows: int) -> "Ragged":
        """``num_rows`` empty lists."""
        return cls(
            np.zeros(num_rows + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

    @property
    def num_rows(self) -> int:
        """Number of lists (clusters)."""
        return len(self.indptr) - 1

    def lengths(self) -> np.ndarray:
        """Length of every list."""
        return np.diff(self.indptr)

    def owners(self) -> np.ndarray:
        """The owning row of every entry."""
        return np.repeat(np.arange(self.num_rows, dtype=np.int64), self.lengths())

    def expand(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(lengths, entries)``: every entry position of *rows*, row by row."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        shifts = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        return lengths, np.arange(len(shifts), dtype=np.int64) + shifts

    def keep(self, mask: np.ndarray) -> "Ragged":
        """The entries where *mask* holds, each list keeping its order."""
        if mask.all():
            return self
        kept = np.concatenate(([0], np.cumsum(mask, dtype=np.int64)))
        return Ragged(kept[self.indptr], self.ids[mask], self.vals[mask])

    def append(self, owners: np.ndarray, ids: np.ndarray, vals: np.ndarray) -> "Ragged":
        """Append entries (*owners* non-decreasing) after each list's entries."""
        if not len(owners):
            return self
        all_owners = np.concatenate((self.owners(), owners))
        # a stable sort of two sorted runs is one linear merge; existing
        # entries precede new ones within each list
        order = np.argsort(all_owners, kind="stable")
        indptr = np.zeros(self.num_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(all_owners, minlength=self.num_rows), out=indptr[1:])
        return Ragged(
            indptr,
            np.concatenate((self.ids, ids)).astype(np.int64, copy=False)[order],
            np.concatenate((self.vals, vals)).astype(np.float64, copy=False)[order],
        )

    def rows(self) -> list[list[tuple[int, float]]]:
        """Every list as Python ``(id, value)`` pairs (snapshots, reports)."""
        ids, vals, bounds = self.ids.tolist(), self.vals.tolist(), self.indptr.tolist()
        return [
            list(zip(ids[start:stop], vals[start:stop]))
            for start, stop in zip(bounds, bounds[1:])
        ]


@dataclass
class NetClusCluster:
    """A read-only snapshot of one cluster of a :class:`NetClusInstance`.

    Built on demand by :attr:`NetClusInstance.clusters` for tests and
    reports; editing it does not change the instance.
    """

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
    """One clustering resolution ``I_p`` of the NetClus index.

    The state is a handful of arrays — exactly the ones an index directory
    stores, so a loaded instance wraps read-only views of the mapped blob:

    * ``centers`` — center node of every cluster;
    * ``reps`` / ``rep_rt`` — representative node (−1: none) and its
      round-trip distance to the center (``inf``: none);
    * ``nodes`` — member nodes with their round-trip to the center, in
      GDSP order (which breaks re-election ties);
    * ``tl`` — the trajectory lists ``T L(g_i)`` (trajectory id,
      ``dr(T, c_i)``), in registration order;
    * ``nb`` — the neighbour lists ``CL(g_i)`` (cluster id,
      ``dr(c_i, c_j)``), nearest first.

    Everything else is read off these: the node → cluster assignment is
    ``nodes`` read the other way round, and the coverage columns are the
    clusters with ``reps >= 0`` (:meth:`representative_clusters`).

    Updates replace an array with an edited copy rather than writing into
    it, so a loaded instance never writes through to its file.
    """

    def __init__(
        self,
        instance_id: int,
        radius_km: float,
        gamma: float,
        *,
        centers: np.ndarray,
        nodes: Ragged,
        reps: np.ndarray | None = None,
        rep_rt: np.ndarray | None = None,
        tl: Ragged | None = None,
        nb: Ragged | None = None,
        build_seconds: float = 0.0,
        mean_dominating_set_size: float = 0.0,
    ) -> None:
        num_clusters = len(centers)
        self.instance_id = instance_id
        self.radius_km = radius_km
        self.gamma = gamma
        self.centers = centers
        self.nodes = nodes
        self.reps = np.full(num_clusters, -1, dtype=np.int64) if reps is None else reps
        self.rep_rt = (
            np.full(num_clusters, np.inf, dtype=np.float64) if rep_rt is None else rep_rt
        )
        self.tl = Ragged.empty(num_clusters) if tl is None else tl
        self.nb = Ragged.empty(num_clusters) if nb is None else nb
        self.build_seconds = build_seconds
        self.mean_dominating_set_size = mean_dominating_set_size
        self._node_lookup: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    @property
    def num_clusters(self) -> int:
        """η_p — number of clusters in this instance."""
        return len(self.centers)

    @property
    def num_representatives(self) -> int:
        """Number of clusters that have a representative candidate site."""
        return int(np.count_nonzero(self.reps >= 0))

    def representative_clusters(self) -> np.ndarray:
        """Ids of the clusters that have a representative, ascending.

        This is the column layout of every clustered coverage at the
        current state: column ``j`` is the representative
        ``reps[representative_clusters()[j]]``.
        """
        return np.flatnonzero(self.reps >= 0)

    @property
    def tau_range(self) -> tuple[float, float]:
        """The half-open range of coverage thresholds this instance serves."""
        return 4.0 * self.radius_km, 4.0 * self.radius_km * (1.0 + self.gamma)

    @property
    def clusters(self) -> list[NetClusCluster]:
        """A per-cluster snapshot of the arrays, built on every access."""
        nodes, tl, nb = self.nodes.rows(), self.tl.rows(), self.nb.rows()
        reps, rep_rt = self.reps.tolist(), self.rep_rt.tolist()
        return [
            NetClusCluster(
                cluster_id=cid,
                center=center,
                nodes=dict(nodes[cid]),
                representative=reps[cid] if reps[cid] >= 0 else None,
                representative_round_trip_km=rep_rt[cid] if reps[cid] >= 0 else math.inf,
                trajectory_list=dict(tl[cid]),
                neighbors=nb[cid],
            )
            for cid, center in enumerate(self.centers.tolist())
        ]

    @property
    def node_to_cluster(self) -> dict[int, int]:
        """A snapshot of the node → cluster assignment, cluster by cluster."""
        return dict(zip(self.nodes.ids.tolist(), self.nodes.owners().tolist()))

    def node_lookup_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense node→cluster and node→round-trip lookup arrays (cached).

        Read off ``nodes``, indexed by node id up to the largest clustered
        node; ``-1`` / ``inf`` mark a node outside every cluster.  Cluster
        membership is fixed by the offline build: no update changes
        ``nodes``, so the cache never goes stale.
        """
        if self._node_lookup is None:
            size = int(self.nodes.ids.max()) + 1 if len(self.nodes.ids) else 0
            cluster_of = np.full(size, -1, dtype=np.int64)
            cluster_of[self.nodes.ids] = self.nodes.owners()
            round_trip_of = np.full(size, np.inf, dtype=np.float64)
            round_trip_of[self.nodes.ids] = self.nodes.vals
            self._node_lookup = (cluster_of, round_trip_of)
        return self._node_lookup

    def cluster_ids_of(self, nodes: Sequence[int] | np.ndarray) -> np.ndarray:
        """The cluster of every node in *nodes* (``-1``: none)."""
        cluster_of, _ = self.node_lookup_arrays()
        nodes = np.asarray(nodes, dtype=np.int64)
        found = np.full(len(nodes), -1, dtype=np.int64)
        inside = (nodes >= 0) & (nodes < len(cluster_of))
        found[inside] = cluster_of[nodes[inside]]
        return found

    def mean_trajectory_list_size(self) -> float:
        """Average |T L| across clusters (Table 11)."""
        if not self.num_clusters:
            return 0.0
        return float(np.mean(self.tl.lengths()))

    def mean_neighbor_count(self) -> float:
        """Average |CL| across clusters (Table 11)."""
        if not self.num_clusters:
            return 0.0
        return float(np.mean(self.nb.lengths()))

    # ------------------------------------------------------------------ #
    def coverage_entries(
        self,
        trajectory_rows: dict[int, int],
        tau_km: float,
        cluster_ids: Sequence[int] | np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
        (rows, cols, estimates)
            Columns are positions in :meth:`representative_clusters`.
        """
        rep_clusters = self.representative_clusters()
        if cluster_ids is None:
            columns = np.arange(len(rep_clusters), dtype=np.int64)
        else:
            wanted = np.fromiter(cluster_ids, np.int64, len(cluster_ids))
            columns = np.flatnonzero(np.isin(rep_clusters, wanted))
        selected = rep_clusters[columns]

        # 1. membership CSR: cluster -> (registry rows, legs)
        members = self._membership(trajectory_rows)

        # 2. (column, source cluster, center distance, representative leg)
        #    pairs: each column's own cluster first, then its neighbours
        neighbor_counts, neighbor_entries = self.nb.expand(selected)
        pair_counts = neighbor_counts + 1
        own = np.cumsum(pair_counts) - pair_counts
        is_neighbor = np.ones(int(pair_counts.sum()), dtype=bool)
        is_neighbor[own] = False
        sources = np.empty(len(is_neighbor), dtype=np.int64)
        sources[own] = selected
        sources[is_neighbor] = self.nb.ids[neighbor_entries]
        centers = np.zeros(len(is_neighbor), dtype=np.float64)
        centers[is_neighbor] = self.nb.vals[neighbor_entries]
        pair_cols = np.repeat(columns, pair_counts)
        pair_rep_legs = np.repeat(self.rep_rt[selected], pair_counts)
        near = centers <= tau_km
        sources, centers = sources[near], centers[near]
        pair_cols, pair_rep_legs = pair_cols[near], pair_rep_legs[near]

        # 3. expand every pair over its source cluster's members
        lengths, entries = members.expand(sources)

        # 4. the estimate in the online phase's float order, one ≤ τ filter
        estimates = (
            members.vals[entries]
            + np.repeat(centers, lengths)
            + np.repeat(pair_rep_legs, lengths)
        )
        within = estimates <= tau_km
        return (
            members.ids[entries][within],
            np.repeat(pair_cols, lengths)[within],
            estimates[within],
        )

    def _membership(self, trajectory_rows: dict[int, int]) -> Ragged:
        """Cluster → (registry rows, legs) over the mapped trajectories.

        The trajectory lists with every id replaced by its registry row and
        every unmapped trajectory dropped, in trajectory-list order.  Ids
        are matched by binary search over the sorted mapping keys, so no
        array is sized by the largest id.
        """
        known_ids = np.fromiter(trajectory_rows.keys(), np.int64, len(trajectory_rows))
        known_rows = np.fromiter(trajectory_rows.values(), np.int64, len(trajectory_rows))
        order = np.argsort(known_ids)
        known_ids, known_rows = known_ids[order], known_rows[order]
        ids = self.tl.ids
        at = np.searchsorted(known_ids, ids)
        found = at < len(known_ids)
        found[found] = known_ids[at[found]] == ids[found]
        kept = self.tl.keep(found)
        return Ragged(kept.indptr, known_rows[at[found]], kept.vals)

    def storage_bytes(self) -> int:
        """Approximate bytes of the per-cluster payload (Table 7 / Table 9).

        16 bytes per member node, trajectory-list entry and neighbour, plus
        32 per cluster for its center, representative and radii.
        """
        entries = len(self.nodes.ids) + len(self.tl.ids) + len(self.nb.ids)
        return 16 * entries + 32 * self.num_clusters


class ClusteredCoverage:
    """A prepared clustered-space coverage: everything :meth:`NetClusIndex.query`
    derives from ``(τ, ψ)`` before the greedy runs.

    Produced by :meth:`NetClusIndex.prepare_coverage` and reusable across any
    number of queries sharing the same ``(τ, ψ)`` — varying k, capacity,
    budget or existing services.  The placement service builds one of these
    per ``(τ, ψ)`` group of a batch, which is what amortises the
    instance-resolution and coverage-construction work.

    Attributes
    ----------
    instance:
        The index instance ``I_p`` selected for τ.
    coverage:
        The coverage index over the cluster representatives: bitset for a
        binary ψ, sparse otherwise (see :func:`materialise_coverage`).
    index_version:
        The :attr:`NetClusIndex.version` the structures were built at;
        :meth:`NetClusIndex.query` refuses a prepared coverage whose version
        no longer matches the (since-mutated) index.
    representative_clusters:
        Cluster id of each representative, aligned with coverage columns:
        :meth:`NetClusInstance.representative_clusters` read at
        construction, which must happen at ``index_version``.
    representative_sites:
        Node id of each representative, aligned with coverage columns.
    """

    def __init__(
        self,
        instance: NetClusInstance,
        coverage: CoverageIndex | SparseCoverageIndex | BitsetCoverageIndex,
        index_version: int = 0,
    ) -> None:
        self.instance = instance
        self.coverage = coverage
        self.index_version = int(index_version)
        clusters = instance.representative_clusters()
        self.representative_clusters = clusters.tolist()
        self.representative_sites = instance.reps[clusters].tolist()

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
        for cluster_id in self.instance.cluster_ids_of(existing_sites).tolist():
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
        # "closest" indexes.
        require(
            representative_strategy != "most_frequent"
            or (node_visit_counts is not None and trajectory_nodes is not None),
            "a most_frequent index needs node_visit_counts and trajectory_nodes",
        )
        self._node_visit_counts = node_visit_counts
        self._trajectory_nodes = trajectory_nodes
        #: the trajectories' content fingerprint, when known: a load reads it
        #: from the manifest, a save writes it back, a trajectory update clears it
        self.trajectory_content: str | None = None
        #: the network's payload arrays and graph fingerprint, cached by the
        #: first save or seeded by a load (no update changes the network)
        self._network_payload: tuple[dict[str, np.ndarray], str] | None = None
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
            max_instances=max_instances,
            representative_strategy=representative_strategy,
        )

    @staticmethod
    def _elect_representative(
        instance: NetClusInstance,
        cluster_ids: np.ndarray,
        sites: Collection[int],
        strategy: str,
        visit_counts: np.ndarray | None,
    ) -> None:
        """Elect the representative of each cluster in *cluster_ids* afresh.

        ``"closest"`` picks the candidate site with the smallest round-trip
        distance to the cluster center; ``"most_frequent"`` picks the site
        visited by the largest number of trajectories (ties broken by
        proximity to the center).  Remaining ties go to the earlier member
        in GDSP order.  The stored ``rep_rt`` is always the representative's
        distance to the center, as the online estimate needs it regardless
        of how the representative was elected; a cluster without a
        candidate site gets ``-1`` / ``inf``.
        """
        cluster_ids = np.unique(np.asarray(cluster_ids, dtype=np.int64))
        if not len(cluster_ids):
            return
        lengths, entries = instance.nodes.expand(cluster_ids)
        owners = np.repeat(cluster_ids, lengths)
        members = instance.nodes.ids[entries]
        is_site = np.isin(members, np.fromiter(sites, np.int64, len(sites)))
        owners, entries, members = owners[is_site], entries[is_site], members[is_site]
        legs = instance.nodes.vals[entries]
        if strategy == "most_frequent":
            order = np.lexsort((entries, legs, -visit_counts[members], owners))
        else:
            order = np.lexsort((entries, legs, owners))
        ranked = owners[order]
        # the first candidate of every cluster's run wins
        best = order[np.r_[True, ranked[1:] != ranked[:-1]]] if len(order) else order
        reps = instance.reps.copy()
        rep_rt = instance.rep_rt.copy()
        reps[cluster_ids] = -1
        rep_rt[cluster_ids] = np.inf
        reps[owners[best]] = members[best]
        rep_rt[owners[best]] = legs[best]
        instance.reps, instance.rep_rt = reps, rep_rt

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
        materialised by :func:`~repro.core.covcache.materialise_coverage`:
        a bitset index when ψ is binary, a sparse index otherwise.

        The returned :class:`ClusteredCoverage` can answer any number of
        queries at this ``(τ, ψ)`` — pass it back via :meth:`query`'s
        ``prepared`` argument, or hand it to the solvers/variant drivers
        directly.  All distances are in kilometres.
        """
        if instance is not None:
            expected = self.instance_for(tau_km).instance_id
            require(
                instance.instance_id == expected,
                f"instance {instance.instance_id} does not serve tau_km={tau_km} "
                f"(instance_for gives {expected})",
            )
        if self.coverage_cache is not None:
            warm = self.coverage_cache.lookup(self, tau_km, preference)
            if warm is not None:
                return warm
        if instance is None:
            instance = self.instance_for(tau_km)
        entries = canonical_entries(
            *instance.coverage_entries(self._trajectory_rows, tau_km), tau_km
        )
        prepared = materialise_coverage(
            self, tau_km, preference, *entries, instance.instance_id, instance=instance
        )
        if self.coverage_cache is not None:
            self.coverage_cache.store_entries(
                self,
                tau_km,
                preference,
                *entries,
                instance.instance_id,
                prepared=prepared,
            )
        return prepared

    def query(
        self,
        query: TOPSQuery,
        existing_sites: Sequence[int] = (),
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
        existing_sites:
            Node ids of already-operating services (Section 7.3).
        prepared:
            A :class:`ClusteredCoverage` from :meth:`prepare_coverage` to
            reuse; its τ must match the query and its
            ``index_version`` the current :attr:`version` (a prepared
            coverage from before a dynamic update is refused rather than
            silently serving stale selections).  Skips the
            instance-resolution and coverage-construction work entirely.

        Returns
        -------
        TOPSResult
            Selected sites (node ids, in selection order), clustered-space
            utility, per-trajectory utilities, and metadata identifying the
            instance used.
        """
        with Timer() as timer:
            if prepared is None:
                prepared = self.prepare_coverage(query.tau_km, query.preference)
            else:
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
            columns, utilities, _ = IncGreedy(coverage).select(
                query.k, existing_columns=existing_columns
            )
            sites = tuple(int(coverage.site_labels[c]) for c in columns)
        return TOPSResult(
            sites=sites,
            utility=float(np.sum(utilities)),
            per_trajectory_utility=tuple(float(u) for u in utilities),
            elapsed_seconds=timer.elapsed,
            algorithm=self.algorithm_name,
            metadata={
                "instance_id": prepared.instance.instance_id,
                "instance_radius_km": prepared.instance.radius_km,
                "num_clusters": prepared.instance.num_clusters,
                "num_representatives": len(prepared.representative_sites),
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
        self._require_clustered_sites(batch.add_sites)

    def _require_clustered_sites(self, sites: Sequence[int]) -> None:
        """Raise unless every site is a network node that each instance clustered.

        Clusters are fixed by the offline build, so a node added to the
        network afterwards (e.g. by
        :meth:`~repro.network.graph.RoadNetwork.insert_site_on_edge`) belongs
        to no cluster and cannot become a site without a rebuild.
        """
        for site in sites:
            require(self.network.has_node(site), f"site {site} is not a network node")
        for instance in self.instances:
            unclustered = np.flatnonzero(instance.cluster_ids_of(sites) < 0)
            if len(unclustered):
                raise ValueError(
                    f"site {sites[unclustered[0]]} joined the network after the "
                    "build; no cluster holds it (rebuild the index)"
                )

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
            register_trajectory_batch(instance, traj_ids, node_arrays)
        if self.representative_strategy == "most_frequent":
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
        self.trajectory_content = None
        self.version += 1
        return len(trajectories)

    def remove_trajectories(self, traj_ids: Sequence[int]) -> int:
        """Remove the given trajectories; returns the number removed.

        A batch pays the trajectory-registry rebuild and one ``isin`` mask
        over each instance's trajectory lists, instead of one per id.
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
        removed_ids = np.fromiter(removed, np.int64, len(removed))
        for instance in self.instances:
            instance.tl = instance.tl.keep(~np.isin(instance.tl.ids, removed_ids))
        if self.representative_strategy == "most_frequent":
            touched: set[int] = set()
            for traj_id in sorted(removed):
                unique_nodes = self._trajectory_nodes.pop(traj_id)
                self._node_visit_counts[unique_nodes] -= 1
                touched.update(int(n) for n in unique_nodes)
            self._reelect_clusters_of_nodes(touched)
        self.trajectory_content = None
        self.version += 1
        return len(removed)

    def add_sites(self, sites: Sequence[int]) -> int:
        """Register candidate sites; returns how many were actually new.

        Already-registered sites are skipped (like :meth:`add_site`).  Each
        affected cluster re-elects its representative under the index's
        ``representative_strategy``, exactly as a fresh build would.  A site
        that is not a network node, or that joined the network after the
        build, raises ``ValueError`` before anything changes.
        """
        sites = [int(site) for site in sites]
        self._require_clustered_sites(sites)
        new_sites: list[int] = []
        new_site_set: set[int] = set()
        for site in sites:
            if site not in self.sites and site not in new_site_set:
                new_sites.append(site)
                new_site_set.add(site)
        if not new_sites:
            return 0
        self.sites.update(new_site_set)
        for instance in self.instances:
            self._reelect(instance, instance.cluster_ids_of(new_sites))
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
        removed_ids = np.asarray(removed, dtype=np.int64)
        for instance in self.instances:
            cluster_ids = instance.cluster_ids_of(removed_ids)
            cluster_ids = cluster_ids[cluster_ids >= 0]
            self._reelect(
                instance, cluster_ids[np.isin(instance.reps[cluster_ids], removed_ids)]
            )
        self.version += 1
        return len(removed)

    # ------------------------------------------------------------------ #
    # update internals
    # ------------------------------------------------------------------ #
    def _reelect(self, instance: NetClusInstance, cluster_ids: np.ndarray) -> None:
        """Re-run the representative election of these clusters from scratch."""
        self._elect_representative(
            instance,
            cluster_ids,
            self.sites,
            self.representative_strategy,
            self._node_visit_counts,
        )

    def _reelect_clusters_of_nodes(self, nodes: set[int]) -> None:
        """Re-elect every cluster containing one of *nodes* (all instances).

        Called when visit counts changed: under ``most_frequent`` a count
        change can flip the election anywhere the trajectory passed.
        """
        node_ids = np.fromiter(nodes, np.int64, len(nodes))
        for instance in self.instances:
            cluster_ids = instance.cluster_ids_of(node_ids)
            self._reelect(instance, cluster_ids[cluster_ids >= 0])

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
