"""Core TOPS / NetClus algorithms (the paper's contribution)."""

from repro.core.preference import (
    PreferenceFunction,
    BinaryPreference,
    LinearPreference,
    ExponentialPreference,
    ConvexProbabilityPreference,
    InconveniencePreference,
)
from repro.core.query import TOPSQuery, TOPSResult
from repro.core.distances import DistanceOracle
from repro.core.coverage import CoverageIndex, SparseCoverageIndex
from repro.core.covcache import CoverageCache, CoveragePart
from repro.core.greedy import IncGreedy
from repro.core.fm_greedy import FMGreedy
from repro.core.optimal import OptimalSolver
from repro.core.gdsp import GreedyGDSP
from repro.core.netclus import NetClusIndex, NetClusInstance
from repro.core.build import BuildStats, build_index
from repro.core.variants import (
    solve_tops_cost,
    solve_tops_capacity,
    solve_tops_with_existing,
    solve_tops_market_share,
)
from repro.core.baselines import top_k_by_traffic, random_sites, static_demand_greedy
from repro.core.jaccard import jaccard_clustering

__all__ = [
    "PreferenceFunction",
    "BinaryPreference",
    "LinearPreference",
    "ExponentialPreference",
    "ConvexProbabilityPreference",
    "InconveniencePreference",
    "TOPSQuery",
    "TOPSResult",
    "DistanceOracle",
    "CoverageIndex",
    "SparseCoverageIndex",
    "CoverageCache",
    "CoveragePart",
    "IncGreedy",
    "FMGreedy",
    "OptimalSolver",
    "GreedyGDSP",
    "NetClusIndex",
    "NetClusInstance",
    "BuildStats",
    "build_index",
    "solve_tops_cost",
    "solve_tops_capacity",
    "solve_tops_with_existing",
    "solve_tops_market_share",
    "top_k_by_traffic",
    "random_sites",
    "static_demand_greedy",
    "jaccard_clustering",
]
