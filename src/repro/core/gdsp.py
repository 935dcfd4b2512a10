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

Both read the one bounded round-trip sweep
(:meth:`~repro.network.shortest_path.ShortestPathEngine.bounded_round_trip_neighbors`),
which yields every dominated node together with its round trip, and track
coverage with one boolean mask.  The clustering leaves as arrays — the
centers and a :class:`~repro.core.netclus.Ragged` of members (ids ascending,
round trip to the center, both taken from the sweep) — which the NetClus
index builder wraps as they are.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.netclus import Ragged
from repro.network.graph import RoadNetwork
from repro.network.shortest_path import ShortestPathEngine
from repro.sketch.fm import FMSketchFamily
from repro.utils.timer import Timer
from repro.utils.validation import require_positive

__all__ = ["GreedyGDSP", "GDSPResult"]


@dataclass
class GDSPResult:
    """Outcome of a Greedy-GDSP run.

    Cluster ``c`` has center ``centers[c]`` and owns the member nodes
    ``members.ids[members.indptr[c]:members.indptr[c + 1]]`` (ascending),
    whose aligned ``members.vals`` are their round trips to the center (at
    most ``2R`` by construction).  Clusters are numbered in greedy order.
    """

    radius_km: float
    centers: np.ndarray
    members: Ragged
    build_seconds: float
    mean_dominating_set_size: float = 0.0

    @property
    def num_clusters(self) -> int:
        """Number of clusters produced (η in the paper)."""
        return len(self.centers)


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
    """

    def __init__(
        self,
        network: RoadNetwork,
        engine: ShortestPathEngine | None = None,
        use_fm_sketches: bool = False,
        num_sketches: int = 30,
    ) -> None:
        self.network = network
        self.engine = engine if engine is not None else ShortestPathEngine(network)
        self.use_fm_sketches = use_fm_sketches
        self.num_sketches = num_sketches

    # ------------------------------------------------------------------ #
    def cluster(self, radius_km: float) -> GDSPResult:
        """Partition all nodes into clusters of round-trip radius ``2R``."""
        require_positive(radius_km, "radius_km")
        with Timer() as timer:
            indptr, ids, round_trips = self.engine.bounded_round_trip_neighbors(radius_km)
            if self.use_fm_sketches:
                centers, picks = self._greedy_fm(indptr, ids)
            else:
                centers, picks = self._greedy_lazy(indptr, ids)
            entries = np.concatenate([np.empty(0, dtype=np.int64), *picks])
            members = Ragged(
                np.cumsum([0, *map(len, picks)], dtype=np.int64),
                ids[entries],
                round_trips[entries],
            )
        num_nodes = len(indptr) - 1
        return GDSPResult(
            radius_km=radius_km,
            centers=np.asarray(centers, dtype=np.int64),
            members=members,
            build_seconds=timer.elapsed,
            mean_dominating_set_size=len(ids) / num_nodes if num_nodes else 0.0,
        )

    # ------------------------------------------------------------------ #
    # Both greedy orders return the centers in pick order and, per center,
    # the sweep positions of the nodes it claims: those it dominates that
    # no earlier center covered.  The center dominates itself, so it is
    # always among its own claims.
    @staticmethod
    def _greedy_lazy(indptr: np.ndarray, ids: np.ndarray) -> tuple[list[int], list[np.ndarray]]:
        """Exact greedy order using lazy marginal-coverage evaluation."""
        covered = np.zeros(len(indptr) - 1, dtype=bool)
        uncovered = len(covered)
        # (negated upper bound, node); lazily refreshed
        heap: list[tuple[float, int]] = [
            (-float(size), node) for node, size in enumerate(np.diff(indptr).tolist())
        ]
        heapq.heapify(heap)
        centers: list[int] = []
        picks: list[np.ndarray] = []
        # an uncovered node stays in the heap until it is picked, so the heap
        # outlives the uncovered nodes
        while uncovered:
            neg_gain, node = heapq.heappop(heap)
            # following the paper, a vertex that is already part of a cluster
            # (i.e. dominated by a previously selected center) is not
            # considered as a further center
            if covered[node]:
                continue
            fresh = _unclaimed(node, indptr, ids, covered)
            current_gain = float(len(fresh))
            if current_gain < -neg_gain - 1e-12:
                heapq.heappush(heap, (-current_gain, node))
                continue
            centers.append(node)
            picks.append(fresh)
            covered[ids[fresh]] = True
            uncovered -= len(fresh)
        return centers, picks

    def _greedy_fm(
        self, indptr: np.ndarray, ids: np.ndarray
    ) -> tuple[list[int], list[np.ndarray]]:
        """Greedy order with FM-sketch estimated marginal coverage."""
        num_nodes = len(indptr) - 1
        sketches = [
            FMSketchFamily.from_items(ids[indptr[node] : indptr[node + 1]], self.num_sketches)
            for node in range(num_nodes)
        ]
        standalone = [sketch.estimate() for sketch in sketches]
        nodes_sorted = sorted(range(num_nodes), key=standalone.__getitem__, reverse=True)
        covered_sketch = FMSketchFamily(self.num_sketches)
        covered_estimate = 0.0
        covered = np.zeros(num_nodes, dtype=bool)
        uncovered = num_nodes
        centers: list[int] = []
        picks: list[np.ndarray] = []
        while uncovered:
            best_node = -1
            best_gain = -np.inf
            for node in nodes_sorted:
                # as in the exact variant, already-clustered nodes cannot
                # become centers
                if covered[node]:
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
                best_node = int(np.argmin(covered))
            covered_sketch.union_in_place(sketches[best_node])
            covered_estimate = covered_sketch.estimate()
            fresh = _unclaimed(best_node, indptr, ids, covered)
            centers.append(best_node)
            picks.append(fresh)
            covered[ids[fresh]] = True
            uncovered -= len(fresh)
        return centers, picks


def _unclaimed(
    node: int, indptr: np.ndarray, ids: np.ndarray, covered: np.ndarray
) -> np.ndarray:
    """Sweep positions of the nodes *node* dominates that are not yet covered."""
    start = indptr[node]
    return start + np.flatnonzero(~covered[ids[start : indptr[node + 1]]])
