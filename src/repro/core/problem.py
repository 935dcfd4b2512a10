"""High-level facade tying network, trajectories and candidate sites together.

:class:`TOPSProblem` is the entry point a downstream user works with: it owns
the distance oracle, builds coverage structures per query, runs any of the
solvers (Inc-Greedy, FM-Greedy, the exact solver, NetClus) and scores
arbitrary site sets.  The examples and the experiment harness are built on
top of it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.bitcov import BitsetCoverageIndex
from repro.core.coverage import CoverageIndex, SparseCoverageIndex, resolve_engine
from repro.core.distances import DistanceOracle
from repro.core.fm_greedy import FMGreedy
from repro.core.greedy import IncGreedy
from repro.core.netclus import NetClusIndex
from repro.core.optimal import OptimalSolver
from repro.core.query import TOPSQuery, TOPSResult
from repro.network.graph import RoadNetwork
from repro.trajectory.model import TrajectoryDataset
from repro.utils.timer import Timer
from repro.utils.validation import require

__all__ = ["TOPSProblem", "flat_coverage"]

#: the flat-space coverage class of each concrete engine name
_ENGINE_CLASSES: dict[
    str, type[CoverageIndex] | type[SparseCoverageIndex] | type[BitsetCoverageIndex]
] = {"dense": CoverageIndex, "sparse": SparseCoverageIndex, "bitset": BitsetCoverageIndex}


def flat_coverage(
    detours: np.ndarray,
    query: TOPSQuery,
    engine: str,
    site_labels: Sequence[int],
    trajectory_ids: Sequence[int],
) -> CoverageIndex | SparseCoverageIndex | BitsetCoverageIndex:
    """The flat-space coverage of a detour matrix on the requested *engine*.

    *engine* is ``"dense"``, ``"sparse"``, ``"bitset"`` (binary ψ only)
    or ``"auto"`` (:func:`~repro.core.coverage.resolve_engine`).
    """
    index_cls = _ENGINE_CLASSES[resolve_engine(engine, query.preference)]
    return index_cls(
        detours,
        query.tau_km,
        query.preference,
        site_labels=site_labels,
        trajectory_ids=trajectory_ids,
    )


class TOPSProblem:
    """A TOPS problem instance: one road network, one trajectory dataset, one
    set of candidate sites.

    Parameters
    ----------
    network:
        The road network.
    trajectories:
        Map-matched trajectories over the network.
    sites:
        Candidate site node ids.  Defaults to *all* network nodes (the
        paper's default assumption in Section 8.1).

    Examples
    --------
    >>> from repro.network import grid_network
    >>> from repro.trajectory import random_route_trajectories
    >>> net = grid_network(6, 6, spacing_km=0.5)
    >>> trajs = random_route_trajectories(net, 40, seed=1)
    >>> problem = TOPSProblem(net, trajs)
    >>> result = problem.solve(TOPSQuery(k=3, tau_km=0.8))
    >>> len(result.sites)
    3
    """

    def __init__(
        self,
        network: RoadNetwork,
        trajectories: TrajectoryDataset,
        sites: Sequence[int] | None = None,
    ) -> None:
        require(len(trajectories) > 0, "the trajectory dataset is empty")
        self.network = network
        self.trajectories = trajectories
        if sites is None:
            sites = network.node_ids()
        self.sites = [int(s) for s in sites]
        self._oracle: DistanceOracle | None = None
        self._detour_matrix: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    @property
    def oracle(self) -> DistanceOracle:
        """The (lazily built) distance oracle for the candidate sites."""
        if self._oracle is None:
            self._oracle = DistanceOracle(self.network, self.sites)
        return self._oracle

    @property
    def num_trajectories(self) -> int:
        """Number of trajectories m."""
        return len(self.trajectories)

    @property
    def num_sites(self) -> int:
        """Number of candidate sites n."""
        return len(self.sites)

    def detour_matrix(self) -> np.ndarray:
        """The full ``(m, n)`` detour matrix (cached)."""
        if self._detour_matrix is None:
            self._detour_matrix = self.oracle.detour_matrix(self.trajectories)
        return self._detour_matrix

    def coverage(
        self, query: TOPSQuery, engine: str = "dense"
    ) -> CoverageIndex | SparseCoverageIndex | BitsetCoverageIndex:
        """Coverage structures (TC, SC, weights) for the query's (τ, ψ).

        ``engine="sparse"`` stores only the covered (trajectory, site) pairs
        in CSR/CSC form — the fast representation for realistic τ.
        ``engine="bitset"`` packs the binary
        coverage into uint64 word blocks (binary ψ only) so gains become
        popcounts; ``engine="auto"`` picks bitset for binary ψ and sparse
        otherwise.  Selections are identical for any engine.
        """
        return flat_coverage(
            self.detour_matrix(), query, engine, self.sites, self.trajectories.ids()
        )

    # ------------------------------------------------------------------ #
    def solve(
        self,
        query: TOPSQuery,
        method: str = "inc-greedy",
        existing_sites: Sequence[int] = (),
        num_sketches: int = 30,
        engine: str = "dense",
    ) -> TOPSResult:
        """Solve the query on the flat site space with the requested method.

        Parameters
        ----------
        query:
            The ``(k, τ, ψ)`` query; ``query.tau_km`` is in kilometres.
        method:
            ``"inc-greedy"`` (the paper's ``(1 − 1/e)`` heuristic),
            ``"fm-greedy"`` (FM-sketch estimated gains, binary ψ), or
            ``"optimal"`` (exact solver; exponential, small instances only).
            NetClus has its own offline phase; see
            :meth:`build_netclus_index` / :meth:`placement_service`.
        existing_sites:
            Node ids of already-operating services (seed the greedy,
            Section 7.3).  Only ``"inc-greedy"`` accepts them; the other
            methods refuse a non-empty list with :class:`ValueError`
            rather than answer as if no service existed.
        num_sketches:
            Number of FM sketches f for ``method="fm-greedy"``.
        engine:
            Coverage representation: ``"sparse"`` runs Inc-Greedy over
            CSR/CSC structures; ``"bitset"`` runs it over popcount gains
            (binary ψ only); ``"auto"`` picks bitset for binary ψ and
            sparse otherwise.  All engines return the same selections as
            the dense Inc-Greedy.  The optimal solver requires the dense
            engine.

        Returns
        -------
        TOPSResult
            ``sites`` are node ids in selection order; ``elapsed_seconds``
            includes the coverage build, broken out in
            ``metadata["preprocess_seconds"]``.
        """
        require(
            engine == "dense" or method != "optimal",
            "the optimal solver requires the dense engine",
        )
        require(
            method not in ("fm-greedy", "optimal") or len(existing_sites) == 0,
            f"method {method!r} cannot seed existing sites; use 'inc-greedy'",
        )
        with Timer() as timer:
            coverage = self.coverage(query, engine=engine)
        preprocess_seconds = timer.elapsed
        if method == "inc-greedy":
            result = IncGreedy(coverage).solve(query, existing_sites=existing_sites)
        elif method == "fm-greedy":
            result = FMGreedy(coverage, num_sketches=num_sketches).solve(query)
        elif method == "optimal":
            result = OptimalSolver(coverage).solve(query)
        else:
            raise ValueError(f"unknown method {method!r}")
        metadata = dict(result.metadata)
        metadata["preprocess_seconds"] = preprocess_seconds
        return TOPSResult(
            sites=result.sites,
            utility=result.utility,
            per_trajectory_utility=result.per_trajectory_utility,
            elapsed_seconds=result.elapsed_seconds + preprocess_seconds,
            algorithm=result.algorithm,
            metadata=metadata,
        )

    # ------------------------------------------------------------------ #
    def build_netclus_index(
        self,
        gamma: float = 0.75,
        tau_min_km: float = 0.4,
        tau_max_km: float = 8.0,
        max_instances: int | None = None,
    ) -> NetClusIndex:
        """Build a NetClus index over this problem's data (offline phase).

        Parameters are forwarded to :meth:`NetClusIndex.build`; distances
        (``tau_min_km``, ``tau_max_km``) are in kilometres.  The returned index answers any ``(k, τ, ψ)`` with τ in the
        supported range without touching this problem's detour matrix
        again; persist it with :func:`repro.service.save_index`.
        """
        return NetClusIndex.build(
            self.network,
            self.trajectories,
            self.sites,
            gamma=gamma,
            tau_min_km=tau_min_km,
            tau_max_km=tau_max_km,
            max_instances=max_instances,
        )

    def placement_service(self, cache_size: int = 128, **build_kwargs):
        """A lazily-built :class:`~repro.service.PlacementService` over this problem.

        *build_kwargs* are forwarded to :meth:`build_netclus_index`.  The
        offline phase runs on the first query (or ``service.save``), so
        constructing the service is free; see :mod:`repro.service` for the
        batch-query and persistence surface.
        """
        from repro.service.placement import PlacementService

        return PlacementService.from_problem(self, cache_size=cache_size, **build_kwargs)

    # ------------------------------------------------------------------ #
    def evaluate(self, sites: Sequence[int], query: TOPSQuery) -> tuple[float, np.ndarray]:
        """Exact utility of an arbitrary site selection under *query*."""
        return self.oracle.evaluate_utility(
            self.trajectories, list(sites), query.tau_km, query.preference
        )

    def utility_percent(self, sites: Sequence[int], query: TOPSQuery) -> float:
        """Exact utility as a percentage of the trajectory count."""
        utility, _ = self.evaluate(sites, query)
        return 100.0 * utility / self.num_trajectories
