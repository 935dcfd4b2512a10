"""Shortest-path engine for road networks.

Two layers are provided:

* :func:`dijkstra_single_source` — a plain binary-heap Dijkstra over the
  adjacency dictionaries.  Used for trajectory routing, map-matching and for
  small ad-hoc queries; also serves as the reference implementation in tests.
* :class:`ShortestPathEngine` — bulk computations on the CSR adjacency via
  :func:`scipy.sparse.csgraph.dijkstra`: multi-source distance tables
  (``d(site -> v)`` and ``d(v -> site)`` for every node), pairwise
  round-trip distances and the bounded round-trip sweep of Greedy-GDSP,
  which returns every dominated node *with* its round trip in CSR form, so
  clustering never recomputes a member's distance to its center.

All distances are in kilometres; unreachable pairs are ``inf``.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

from repro.network.graph import RoadNetwork
from repro.utils.validation import require

__all__ = [
    "dijkstra_single_source",
    "shortest_path_nodes",
    "ShortestPathEngine",
]

#: sources per block of the bounded round-trip sweep; bounds the two dense
#: ``(chunk, N)`` distance blocks it holds at a time
ROUND_TRIP_CHUNK = 512


def dijkstra_single_source(
    network: RoadNetwork,
    source: int,
    cutoff: float | None = None,
    reverse: bool = False,
) -> dict[int, float]:
    """Dijkstra distances from *source* over the adjacency dictionaries.

    Parameters
    ----------
    network:
        The road network.
    source:
        Start node.
    cutoff:
        If given, nodes farther than *cutoff* are not expanded (their distance
        is omitted from the result).
    reverse:
        If ``True``, travel edges backwards, i.e. compute ``d(v -> source)``.

    Returns
    -------
    dict
        ``{node: distance}`` for every reached node (including the source at
        distance 0).
    """
    neighbors = network.predecessors if reverse else network.successors
    dist: dict[int, float] = {source: 0.0}
    heap: list[tuple[float, int]] = [(0.0, source)]
    settled: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v, length in neighbors(u).items():
            nd = d + length
            if cutoff is not None and nd > cutoff:
                continue
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def shortest_path_nodes(network: RoadNetwork, source: int, target: int) -> list[int]:
    """Return the node sequence of a shortest path ``source -> target``.

    Raises ``ValueError`` if *target* is unreachable.  Used by the trajectory
    generators to produce realistic (map-matched-like) node sequences.
    """
    dist: dict[int, float] = {source: 0.0}
    parent: dict[int, int] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    settled: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u == target:
            break
        for v, length in network.successors(u).items():
            nd = d + length
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    if target not in dist:
        raise ValueError(f"node {target} is not reachable from {source}")
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


class ShortestPathEngine:
    """Bulk shortest-path computations over a :class:`RoadNetwork`.

    The engine wraps the CSR adjacency (and its transpose) and exposes the
    distance tables the TOPS algorithms need:

    * ``distances_from(sources)`` — ``d(s -> v)`` for every source and node;
    * ``distances_to(targets)`` — ``d(v -> t)`` for every target and node;
    * ``round_trip_matrix(nodes)`` — pairwise ``dr(u, v) = d(u,v) + d(v,u)``;
    * ``bounded_round_trip_neighbors(R)`` — every node's nodes within
      round-trip ``2R`` (the GDSP dominance relation) with those round trips,
      as CSR arrays computed in source blocks to bound memory.
    """

    def __init__(self, network: RoadNetwork) -> None:
        self.network = network
        self._csr = network.to_csr(reverse=False)
        self._csr_rev = network.to_csr(reverse=True)
        self.num_nodes = int(self._csr.shape[0])

    # ------------------------------------------------------------------ #
    def distances_from(
        self, sources: Sequence[int], limit: float = np.inf
    ) -> np.ndarray:
        """Return ``(len(sources), N)`` array of ``d(source -> node)``.

        Entries beyond *limit* are ``inf``.
        """
        require(len(sources) > 0, "sources must be non-empty")
        return csgraph_dijkstra(
            self._csr, directed=True, indices=np.asarray(sources, dtype=np.int64), limit=limit
        )

    def distances_to(self, targets: Sequence[int], limit: float = np.inf) -> np.ndarray:
        """Return ``(len(targets), N)`` array of ``d(node -> target)``.

        Computed as forward Dijkstra on the reversed graph.
        """
        require(len(targets) > 0, "targets must be non-empty")
        return csgraph_dijkstra(
            self._csr_rev, directed=True, indices=np.asarray(targets, dtype=np.int64), limit=limit
        )

    def round_trip_matrix(
        self, nodes: Sequence[int], limit: float = np.inf
    ) -> np.ndarray:
        """Pairwise round-trip distances among *nodes*.

        ``result[i, j] = d(nodes[i], nodes[j]) + d(nodes[j], nodes[i])``.
        """
        forward = self.distances_from(nodes, limit=limit)[:, list(nodes)]
        return forward + forward.T

    # ------------------------------------------------------------------ #
    def bounded_round_trip_neighbors(
        self, radius: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every node's dominated nodes and their round trips, in CSR form.

        This is the dominance relation of the Generalized Dominating Set
        Problem (Problem 2 in the paper): ``u`` dominates ``v`` when
        ``dr(u, v) = d(u, v) + d(v, u) <= 2R``.  Sources are swept in blocks
        of :data:`ROUND_TRIP_CHUNK` to keep the dense distance blocks small.

        Returns
        -------
        tuple
            ``(indptr, ids, round_trips)``: node ``u`` dominates
            ``ids[indptr[u]:indptr[u + 1]]`` (ascending, always including
            ``u`` itself), and ``round_trips`` holds the aligned ``dr(u, v)``
            summed as ``d(u, v) + d(v, u)``.
        """
        threshold = 2.0 * radius
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        ids: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        round_trips: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        for start in range(0, self.num_nodes, ROUND_TRIP_CHUNK):
            chunk = np.arange(start, min(start + ROUND_TRIP_CHUNK, self.num_nodes))
            forward = self.distances_from(chunk, limit=threshold)
            round_trip = forward + self.distances_to(chunk, limit=threshold)
            rows, cols = np.nonzero(round_trip <= threshold)
            indptr[start + 1 : start + len(chunk) + 1] = np.bincount(rows, minlength=len(chunk))
            ids.append(cols.astype(np.int64, copy=False))
            round_trips.append(round_trip[rows, cols])
        np.cumsum(indptr, out=indptr)
        return indptr, np.concatenate(ids), np.concatenate(round_trips)
