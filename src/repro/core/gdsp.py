"""Greedy-GDSP: distance-based clustering via generalized dominating sets.

Section 4.1 of the paper partitions the road-network nodes into clusters of
round-trip radius at most ``2R`` by greedily solving the Generalized
Dominating Set Problem (GDSP): node ``u`` dominates ``v`` when
``d(u, v) + d(v, u) <= 2R``; the algorithm repeatedly picks the node with the
largest number of not-yet-clustered dominated nodes and forms a cluster from
them.

Two selection backends are provided:

* **exact / lazy** — marginal coverage counts are maintained exactly with a
  lazy (CELF-style) priority queue, giving the classic ``1 + ln n`` greedy
  guarantee;
* **FM sketches** — as in the paper, each node's dominating set is summarised
  by an FM sketch family and marginal counts are estimated via bitwise ORs.

The resulting :class:`Cluster` records (center, member nodes with round-trip
distance to the center) are consumed by the NetClus index builder.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.network.graph import RoadNetwork
from repro.network.shortest_path import ShortestPathEngine
from repro.sketch.fm import FMSketchFamily
from repro.utils.timer import Timer
from repro.utils.validation import require_positive

__all__ = ["Cluster", "GreedyGDSP", "GDSPResult"]


@dataclass
class Cluster:
    """A GDSP cluster: a center node and its member nodes.

    ``node_round_trip_km[i]`` is the round-trip distance from ``nodes[i]`` to
    the cluster center (at most ``2R`` by construction).
    """

    cluster_id: int
    center: int
    nodes: list[int]
    node_round_trip_km: list[float]

    @property
    def size(self) -> int:
        """Number of member nodes."""
        return len(self.nodes)

    def round_trip_to_center(self, node: int) -> float:
        """Round-trip distance from *node* (a member) to the cluster center."""
        return self.node_round_trip_km[self.nodes.index(node)]


@dataclass
class GDSPResult:
    """Outcome of a Greedy-GDSP run."""

    radius_km: float
    clusters: list[Cluster]
    node_to_cluster: dict[int, int]
    build_seconds: float
    mean_dominating_set_size: float = 0.0

    @property
    def num_clusters(self) -> int:
        """Number of clusters produced (η in the paper)."""
        return len(self.clusters)


class GreedyGDSP:
    """Greedy solver for the Generalized Dominating Set Problem.

    Parameters
    ----------
    network:
        The road network to cluster.
    engine:
        Optional pre-built shortest-path engine (reused across radii when
        building the multi-resolution NetClus index).  Constructing a fresh
        engine per solver costs two CSR conversions, so callers that
        already hold one should always pass it.
    use_fm_sketches:
        Estimate marginal coverage with FM sketches (the paper's approach)
        instead of exact lazy counting.
    num_sketches:
        Number of FM copies when ``use_fm_sketches`` is true.
    chunk_size:
        Source-chunk size for the bounded round-trip neighbourhood sweep.
    """

    def __init__(
        self,
        network: RoadNetwork,
        engine: ShortestPathEngine | None = None,
        use_fm_sketches: bool = False,
        num_sketches: int = 30,
        chunk_size: int = 512,
    ) -> None:
        self.network = network
        self.engine = engine if engine is not None else ShortestPathEngine(network)
        self.use_fm_sketches = use_fm_sketches
        self.num_sketches = num_sketches
        self.chunk_size = chunk_size

    # ------------------------------------------------------------------ #
    def cluster(self, radius_km: float) -> GDSPResult:
        """Partition all nodes into clusters of round-trip radius ``2R``."""
        require_positive(radius_km, "radius_km")
        self._current_radius_km = radius_km
        with Timer() as timer:
            dominating = self.engine.bounded_round_trip_neighbors(
                radius_km, chunk_size=self.chunk_size
            )
            if self.use_fm_sketches:
                order = self._greedy_order_fm(dominating)
            else:
                order = self._greedy_order_lazy(dominating)
            clusters, node_to_cluster = self._form_clusters(order, dominating)
        mean_lambda = float(np.mean([len(v) for v in dominating.values()])) if dominating else 0.0
        return GDSPResult(
            radius_km=radius_km,
            clusters=clusters,
            node_to_cluster=node_to_cluster,
            build_seconds=timer.elapsed,
            mean_dominating_set_size=mean_lambda,
        )

    # ------------------------------------------------------------------ #
    def _greedy_order_lazy(self, dominating: dict[int, np.ndarray]) -> list[int]:
        """Exact greedy order using lazy marginal-coverage evaluation."""
        uncovered: set[int] = set(dominating.keys())
        covered: set[int] = set()
        # (negated upper bound, node); lazily refreshed
        heap: list[tuple[float, int]] = [
            (-float(len(members)), node) for node, members in dominating.items()
        ]
        heapq.heapify(heap)
        stale_gain: dict[int, float] = {node: float(len(m)) for node, m in dominating.items()}
        order: list[int] = []
        clustered: set[int] = set()
        while uncovered and heap:
            neg_gain, node = heapq.heappop(heap)
            # following the paper, a vertex that is already part of a cluster
            # (i.e. dominated by a previously selected center) is not
            # considered as a further center
            if node in clustered or node in covered:
                continue
            current_gain = float(len(set(map(int, dominating[node])) - covered))
            if current_gain < -neg_gain - 1e-12:
                heapq.heappush(heap, (-current_gain, node))
                continue
            order.append(node)
            clustered.add(node)
            newly = set(map(int, dominating[node])) - covered
            covered |= newly
            uncovered -= newly
            uncovered.discard(node)
            covered.add(node)
        # any still-uncovered nodes become their own cluster centers
        for node in sorted(uncovered):
            order.append(node)
        return order

    def _greedy_order_fm(self, dominating: dict[int, np.ndarray]) -> list[int]:
        """Greedy order with FM-sketch estimated marginal coverage."""
        sketches = {
            node: FMSketchFamily.from_items(members, self.num_sketches)
            for node, members in dominating.items()
        }
        standalone = {node: sketches[node].estimate() for node in sketches}
        nodes_sorted = sorted(standalone, key=standalone.get, reverse=True)
        covered_sketch = FMSketchFamily(self.num_sketches)
        covered_estimate = 0.0
        covered_exact: set[int] = set()
        uncovered: set[int] = set(dominating.keys())
        order: list[int] = []
        clustered: set[int] = set()
        while uncovered:
            best_node = -1
            best_gain = -np.inf
            for node in nodes_sorted:
                # as in the exact variant, already-clustered nodes cannot
                # become centers
                if node in clustered or node in covered_exact:
                    continue
                if standalone[node] <= best_gain:
                    break
                union = covered_sketch.union(sketches[node])
                gain = union.estimate() - covered_estimate
                # deterministic despite the raw comparison: FM-sketch
                # estimates are pure functions of the input, and the
                # strict `>` over the sorted candidate order always keeps
                # the lowest-node winner on exact ties
                if gain > best_gain:  # noqa: RA002
                    best_gain = gain
                    best_node = node
            if best_node < 0:
                best_node = min(uncovered)
            order.append(best_node)
            clustered.add(best_node)
            covered_sketch.union_in_place(sketches[best_node])
            covered_estimate = covered_sketch.estimate()
            newly = set(map(int, dominating[best_node])) - covered_exact
            covered_exact |= newly
            uncovered -= newly
            uncovered.discard(best_node)
            covered_exact.add(best_node)
        return order

    # ------------------------------------------------------------------ #
    def _form_clusters(
        self,
        order: list[int],
        dominating: dict[int, np.ndarray],
    ) -> tuple[list[Cluster], dict[int, int]]:
        clusters: list[Cluster] = []
        node_to_cluster: dict[int, int] = {}
        assigned: set[int] = set()
        for center in order:
            if center in assigned:
                continue
            members = [int(n) for n in dominating.get(center, np.asarray([center]))]
            new_members = [n for n in members if n not in assigned]
            if center not in new_members:
                new_members.append(center)
            # exact round-trip distances center -> member (bounded sweep)
            center_rt = self._center_round_trips_for(center, new_members)
            cluster = Cluster(
                cluster_id=len(clusters),
                center=center,
                nodes=new_members,
                node_round_trip_km=[center_rt[n] for n in new_members],
            )
            clusters.append(cluster)
            for node in new_members:
                node_to_cluster[node] = cluster.cluster_id
                assigned.add(node)
        return clusters, node_to_cluster

    def _center_round_trips_for(
        self, center: int, members: Sequence[int]
    ) -> dict[int, float]:
        # members are within round-trip 2R of the center by construction, so a
        # bounded sweep (limit 2R) suffices and keeps per-cluster cost low
        limit = 2.0 * getattr(self, "_current_radius_km", np.inf)
        forward = self.engine.distances_from([center], limit=limit)[0]
        backward = self.engine.distances_to([center], limit=limit)[0]
        return {int(n): float(forward[n] + backward[n]) for n in members}
