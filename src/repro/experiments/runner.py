"""Shared experiment context: dataset + problem + NetClus index, built once.

Most figure/table drivers compare the same four algorithms (Inc-Greedy, FMG,
NetClus, FM-NetClus) over sweeps of k or τ on the Beijing-like dataset.
:class:`ExperimentContext` bundles the dataset, the flat problem (distance
oracle and coverage builder), and a NetClus index so that drivers share the
expensive pre-computation.  The ``scale`` knob maps to the dataset presets
("tiny" for unit tests and CI, "small" for the default benchmark runs).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.bitcov import BitsetCoverageIndex
from repro.core.coverage import CoverageIndex, SparseCoverageIndex
from repro.core.fm_greedy import FMGreedy
from repro.core.greedy import IncGreedy
from repro.core.netclus import NetClusIndex
from repro.core.problem import TOPSProblem, flat_coverage
from repro.core.query import TOPSQuery, TOPSResult
from repro.datasets import beijing_like
from repro.datasets.base import DatasetBundle
from repro.service.placement import PlacementService
from repro.service.serialization import (
    IndexFormatError,
    load_index,
    load_manifest,
    save_index,
)
from repro.utils.timer import Timer

__all__ = [
    "ExperimentContext",
    "build_context",
    "fm_netclus",
    "DEFAULT_GAMMA",
    "DEFAULT_TAU_RANGE",
]

DEFAULT_GAMMA = 0.75
DEFAULT_TAU_RANGE = (0.4, 8.0)


def fm_netclus(index: NetClusIndex, query: TOPSQuery, num_sketches: int = 30) -> TOPSResult:
    """FM-NetClus: FM-greedy over the clustered coverage NetClus would query.

    The clustered coverage of ``(τ, ψ)`` is resolved exactly as
    :meth:`NetClusIndex.query` resolves it, and the reported utility is its
    clustered-space utility of the chosen sites, so the result compares
    with a NetClus answer like for like.  ψ must be binary (FM-greedy
    counts covered trajectories).
    """
    with Timer() as timer:
        prepared = index.prepare_coverage(query.tau_km, query.preference)
        result = FMGreedy(prepared.coverage, num_sketches=num_sketches).solve(query)
    instance = prepared.instance
    return dataclasses.replace(
        result,
        elapsed_seconds=timer.elapsed,
        algorithm="fm-netclus",
        metadata={
            **result.metadata,
            "instance_id": instance.instance_id,
            "instance_radius_km": instance.radius_km,
            "num_clusters": instance.num_clusters,
            "num_representatives": len(prepared.representative_sites),
        },
    )


@dataclass
class ExperimentContext:
    """Everything a figure/table driver needs to run its sweeps."""

    bundle: DatasetBundle
    problem: TOPSProblem
    netclus: NetClusIndex
    gamma: float = DEFAULT_GAMMA
    num_sketches: int = 30
    #: flat-space coverage engine ("dense", "sparse", "bitset" or "auto");
    #: NetClus's clustered space picks its own structure from ψ
    engine: str = "dense"
    _service: PlacementService | None = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    @property
    def num_trajectories(self) -> int:
        """Number of trajectories m."""
        return self.bundle.num_trajectories

    @property
    def service(self) -> PlacementService:
        """The placement service wrapping this context's NetClus index.

        Shared by every driver that queries the clustered space; the
        drivers bypass its order cache (``use_cache=False``) so timing
        sweeps measure real query work, but batch amortisation and the
        service counters still apply.
        """
        if self._service is None:
            self._service = PlacementService(self.netclus)
        return self._service

    def coverage(
        self, query: TOPSQuery
    ) -> CoverageIndex | SparseCoverageIndex | BitsetCoverageIndex:
        """Flat-space coverage index for the query (cached detour matrix)."""
        return self.problem.coverage(query, engine=self.engine)

    def fresh_coverage(
        self, query: TOPSQuery
    ) -> CoverageIndex | SparseCoverageIndex | BitsetCoverageIndex:
        """Flat-space coverage index built from scratch (no cached detours).

        The paper charges Inc-Greedy/FMG the O(mn) covering-set computation at
        query time (Section 3.4): only the per-site distance tables are
        pre-computed offline.  The timed comparisons therefore rebuild the
        detour matrix from the oracle's tables on every query, while NetClus
        answers purely from its pre-built index.
        """
        return flat_coverage(
            self.problem.oracle.detour_matrix(self.problem.trajectories),
            query,
            self.engine,
            self.problem.sites,
            self.problem.trajectories.ids(),
        )

    # ------------------------------------------------------------------ #
    def run_inc_greedy(self, query: TOPSQuery) -> TOPSResult:
        """Inc-Greedy on the flat site space (includes covering-set build time).

        Runs the paper's Algorithm 1 on whichever engine the runner builds.
        """
        return IncGreedy(self.fresh_coverage(query)).solve(query)

    def run_fm_greedy(self, query: TOPSQuery) -> TOPSResult:
        """FM-sketch greedy on the flat site space (includes covering-set build)."""
        coverage = self.fresh_coverage(query)
        return FMGreedy(coverage, num_sketches=self.num_sketches).solve(query)

    def run_netclus(self, query: TOPSQuery) -> TOPSResult:
        """NetClus query (clustered space, greedy over representatives).

        Routed through the shared :attr:`service` with the order cache
        bypassed, so each call measures real query work (instance
        resolution + coverage build + greedy), exactly like
        ``netclus.query`` — with identical selections.  The service's
        ``stats`` counters record the work for inspection.
        """
        return self.service.query(query, use_cache=False)

    def run_fm_netclus(self, query: TOPSQuery) -> TOPSResult:
        """FM-NetClus query (clustered space, FM-greedy over representatives)."""
        return fm_netclus(self.netclus, query, self.num_sketches)

    def exact_utility_percent(self, result: TOPSResult, query: TOPSQuery) -> float:
        """Score a result's site set with exact detours, as a percent of m."""
        return self.problem.utility_percent(result.sites, query)

    # ------------------------------------------------------------------ #
    def compare_algorithms(
        self,
        query: TOPSQuery,
        algorithms: tuple[str, ...] = ("incg", "fmg", "netclus", "fmnetclus"),
    ) -> dict[str, dict[str, float]]:
        """Run the requested algorithms and score them on a common footing.

        Returns ``{algorithm: {"utility_pct", "runtime_s", "raw_utility"}}``.
        """
        runners = {
            "incg": self.run_inc_greedy,
            "fmg": self.run_fm_greedy,
            "netclus": self.run_netclus,
            "fmnetclus": self.run_fm_netclus,
        }
        results: dict[str, dict[str, float]] = {}
        for name in algorithms:
            with Timer() as timer:
                result = runners[name](query)
            results[name] = {
                "utility_pct": self.exact_utility_percent(result, query),
                "runtime_s": timer.elapsed,
                "raw_utility": result.utility,
                "num_sites": float(len(result.sites)),
            }
        return results


def build_context(
    scale: str = "small",
    seed: int = 42,
    gamma: float = DEFAULT_GAMMA,
    tau_min_km: float = DEFAULT_TAU_RANGE[0],
    tau_max_km: float = DEFAULT_TAU_RANGE[1],
    num_sketches: int = 30,
    bundle: DatasetBundle | None = None,
    engine: str = "dense",
    index_path: str | Path | None = None,
) -> ExperimentContext:
    """Build an :class:`ExperimentContext` (Beijing-like by default).

    ``engine`` selects the flat-space coverage engine for every driver
    that goes through the context: ``"dense"`` (the paper's matrices),
    ``"sparse"`` (CSR/CSC coverage over the covered pairs), ``"bitset"``
    (uint64-packed binary coverage with popcount gains; binary ψ only) or
    ``"auto"`` (bitset for binary ψ, sparse otherwise).  NetClus queries
    always use the ``"auto"`` structure; selections are the same on every
    engine.

    ``index_path`` persists the NetClus index across runs: when the
    directory holds a saved index it is loaded instead of rebuilt (the
    offline phase dominates context construction) — refusing with
    :class:`~repro.service.IndexFormatError` if its fingerprints do not
    match this dataset; otherwise the index is built and saved there for
    the next run.
    """
    if bundle is None:
        bundle = beijing_like(scale=scale, seed=seed)
    problem = bundle.problem()
    netclus = None
    if index_path is not None and (Path(index_path) / "manifest.json").is_file():
        manifest = load_manifest(index_path)
        saved_params = manifest["build_params"]
        requested = {
            "gamma": gamma,
            "tau_min_km": tau_min_km,
            "tau_max_km": tau_max_km,
        }
        mismatched = any(saved_params[key] != value for key, value in requested.items())
        # a --max-instances-capped index has the right params but a short
        # ladder; the full ladder has ⌊log_{1+γ}(τ_max/τ_min)⌋ + 1 instances
        expected_instances = (
            int(math.floor(math.log(tau_max_km / tau_min_km, 1.0 + gamma))) + 1
        )
        if mismatched or manifest["num_instances"] != expected_instances:
            raise IndexFormatError(
                f"index cache at {index_path} was built with {saved_params} "
                f"({manifest['num_instances']} instances), but this run "
                f"requests {requested} ({expected_instances} instances); "
                "pick a different --index-cache directory or delete it"
            )
        netclus = load_index(
            index_path, network=bundle.network, dataset=bundle.trajectories
        )
    if netclus is None:
        netclus = problem.build_netclus_index(
            gamma=gamma,
            tau_min_km=tau_min_km,
            tau_max_km=tau_max_km,
        )
        if index_path is not None:
            save_index(netclus, index_path, dataset=bundle.trajectories)
    return ExperimentContext(
        bundle=bundle,
        problem=problem,
        netclus=netclus,
        gamma=gamma,
        num_sketches=num_sketches,
        engine=engine,
    )
