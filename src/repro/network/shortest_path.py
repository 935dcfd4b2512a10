"""Shortest-path engine for road networks.

Two layers are provided:

* :func:`dijkstra_single_source` — a plain binary-heap Dijkstra over the
  adjacency dictionaries.  Used for trajectory routing, map-matching and for
  small ad-hoc queries; also serves as the reference implementation in tests.
* :class:`ShortestPathEngine` — bulk computations on the CSR adjacency via
  :func:`scipy.sparse.csgraph.dijkstra`: multi-source distance tables
  (``d(site -> v)`` and ``d(v -> site)`` for every node), bounded round-trip
  neighbourhoods (used by Greedy-GDSP) and pairwise round-trip distances.

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
    "bounded_round_trip_neighbors",
]


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
    * ``bounded_round_trip_neighbors`` — nodes within round-trip ``2R`` of each
      node (the GDSP dominance relation), computed in source chunks to bound
      memory.
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

    def single_source(self, source: int, limit: float = np.inf) -> np.ndarray:
        """Return a length-``N`` vector of ``d(source -> node)``."""
        return self.distances_from([source], limit=limit)[0]

    def single_target(self, target: int, limit: float = np.inf) -> np.ndarray:
        """Return a length-``N`` vector of ``d(node -> target)``."""
        return self.distances_to([target], limit=limit)[0]

    def round_trip_matrix(
        self, nodes: Sequence[int], limit: float = np.inf
    ) -> np.ndarray:
        """Pairwise round-trip distances among *nodes*.

        ``result[i, j] = d(nodes[i], nodes[j]) + d(nodes[j], nodes[i])``.
        """
        forward = self.distances_from(nodes, limit=limit)[:, list(nodes)]
        return forward + forward.T

    def round_trip_from(self, source: int, limit: float = np.inf) -> np.ndarray:
        """Round-trip distance from *source* to every node: ``d(s,v) + d(v,s)``."""
        out = self.distances_from([source], limit=limit)[0]
        back = self.distances_to([source], limit=limit)[0]
        return out + back

    # ------------------------------------------------------------------ #
    def bounded_round_trip_neighbors(
        self,
        radius: float,
        nodes: Sequence[int] | None = None,
        chunk_size: int = 512,
    ) -> dict[int, np.ndarray]:
        """For each node, the nodes within round-trip distance ``2 * radius``.

        This is the dominance relation of the Generalized Dominating Set
        Problem (Problem 2 in the paper): ``u`` dominates ``v`` when
        ``d(u, v) + d(v, u) <= 2R``.  Sources are processed in chunks of
        *chunk_size* to keep the dense distance blocks small.

        Returns
        -------
        dict
            ``{node: sorted int array of dominated nodes}`` (always including
            the node itself).
        """
        if nodes is None:
            nodes = list(range(self.num_nodes))
        nodes = list(nodes)
        threshold = 2.0 * radius
        result: dict[int, np.ndarray] = {}
        for start in range(0, len(nodes), chunk_size):
            chunk = nodes[start : start + chunk_size]
            fwd = self.distances_from(chunk, limit=threshold)
            bwd = self.distances_to(chunk, limit=threshold)
            round_trip = fwd + bwd
            for row, node in enumerate(chunk):
                dominated = np.flatnonzero(round_trip[row] <= threshold)
                result[node] = dominated.astype(np.int64)
        return result


def bounded_round_trip_neighbors(
    network: RoadNetwork,
    radius: float,
    chunk_size: int = 512,
    engine: ShortestPathEngine | None = None,
) -> dict[int, np.ndarray]:
    """Convenience wrapper: GDSP dominance neighbourhoods for every node.

    Pass an *engine* already built over *network* to reuse its CSR
    adjacencies; without one, a fresh :class:`ShortestPathEngine` (two CSR
    conversions) is constructed for this single call.
    """
    if engine is None:
        engine = ShortestPathEngine(network)
    return engine.bounded_round_trip_neighbors(radius, chunk_size=chunk_size)
