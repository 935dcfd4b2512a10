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
  by a row of FM sketches (:mod:`repro.sketch.fm`) and marginal counts are
  estimated via bitwise ORs.

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
from repro.sketch.fm import estimate_rows, hash_items
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
    fm_sketches:
        Estimate marginal coverage with this many FM sketch copies ``f``
        (the paper's approach); ``None`` counts it exactly and lazily.
    """

    def __init__(
        self,
        network: RoadNetwork,
        engine: ShortestPathEngine | None = None,
        fm_sketches: int | None = None,
    ) -> None:
        if fm_sketches is not None:
            require_positive(fm_sketches, "fm_sketches")
        self.network = network
        self.engine = engine if engine is not None else ShortestPathEngine(network)
        self.fm_sketches = fm_sketches

    # ------------------------------------------------------------------ #
    def cluster(self, radius_km: float) -> GDSPResult:
        """Partition all nodes into clusters of round-trip radius ``2R``."""
        require_positive(radius_km, "radius_km")
        with Timer() as timer:
            indptr, ids, round_trips = self.engine.bounded_round_trip_neighbors(radius_km)
            if self.fm_sketches is not None:
                centers, picks = self._greedy_fm(indptr, ids, self.fm_sketches)
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

    @staticmethod
    def _greedy_fm(
        indptr: np.ndarray, ids: np.ndarray, num_sketches: int
    ) -> tuple[list[int], list[np.ndarray]]:
        """Greedy order with FM-sketch estimated marginal coverage.

        Each pick scans the uncovered nodes in descending standalone
        estimate (stable on ties), stops at the first node whose standalone
        estimate cannot beat the best gain seen before it, and takes the
        first best gain among the scanned nodes.  Every scanned gain is one
        vectorised estimate over the candidates' sketch rows.
        """
        num_nodes = len(indptr) - 1
        # every node dominates itself, so no dominance segment is empty
        sketches = np.bitwise_or.reduceat(
            hash_items(np.arange(num_nodes), num_sketches)[ids], indptr[:-1], axis=0
        )
        standalone = estimate_rows(sketches)
        order = np.argsort(-standalone, kind="stable")
        covered_bits = np.zeros(num_sketches, dtype=np.uint32)
        covered_estimate = 0.0
        covered = np.zeros(num_nodes, dtype=bool)
        uncovered = num_nodes
        centers: list[int] = []
        picks: list[np.ndarray] = []
        while uncovered:
            # as in the exact variant, already-clustered nodes cannot become
            # centers
            candidates = order[~covered[order]]
            gains = estimate_rows(sketches[candidates] | covered_bits) - covered_estimate
            best_before = np.maximum.accumulate(np.concatenate(([-np.inf], gains[:-1])))
            stops = np.flatnonzero(standalone[candidates] <= best_before)
            scanned = gains[: stops[0]] if len(stops) else gains
            best_node = int(candidates[np.argmax(scanned)])
            covered_bits |= sketches[best_node]
            covered_estimate = float(estimate_rows(covered_bits))
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
