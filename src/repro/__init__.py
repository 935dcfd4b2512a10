"""repro — a reproduction of NetClus (ICDE 2017).

Trajectory-aware top-k facility location on road networks: the TOPS query,
the Inc-Greedy and FM-sketch greedy heuristics, the exact solver, and the
NetClus multi-resolution clustering index, together with the road-network and
trajectory substrates, dataset builders, and the experiment harness that
regenerates every table and figure of the paper's evaluation.

Quickstart
----------
>>> from repro import TOPSProblem, TOPSQuery
>>> from repro.network import grid_network
>>> from repro.trajectory import commuter_trajectories
>>> net = grid_network(10, 10, spacing_km=0.5)
>>> trajs = commuter_trajectories(net, 200, seed=7)
>>> problem = TOPSProblem(net, trajs)
>>> result = problem.solve(TOPSQuery(k=5, tau_km=1.0))
>>> index = problem.build_netclus_index(tau_min_km=0.4, tau_max_km=4.0)
>>> fast = index.query(TOPSQuery(k=5, tau_km=1.0))

Persist & serve
---------------
>>> from repro import PlacementService, QuerySpec, save_index, load_index
>>> save_index(index, "city.ncx")                        # doctest: +SKIP
>>> service = PlacementService.from_path("city.ncx")     # doctest: +SKIP
>>> results = service.batch_query(                       # doctest: +SKIP
...     [QuerySpec(k=5, tau_km=1.0), QuerySpec(k=10, tau_km=1.0)]
... )
"""

from repro.core.problem import TOPSProblem
from repro.core.query import TOPSQuery, TOPSResult
from repro.core.preference import (
    BinaryPreference,
    LinearPreference,
    ExponentialPreference,
    ConvexProbabilityPreference,
    InconveniencePreference,
)
from repro.core.distances import DistanceOracle
from repro.core.coverage import CoverageIndex, SparseCoverageIndex
from repro.core.greedy import IncGreedy
from repro.core.fm_greedy import FMGreedy
from repro.core.optimal import OptimalSolver
from repro.core.netclus import NetClusIndex
from repro.network.graph import RoadNetwork
from repro.service import PlacementService, QuerySpec, load_index, save_index
from repro.trajectory.model import Trajectory, TrajectoryDataset

__version__ = "1.2.0"

__all__ = [
    "TOPSProblem",
    "TOPSQuery",
    "TOPSResult",
    "BinaryPreference",
    "LinearPreference",
    "ExponentialPreference",
    "ConvexProbabilityPreference",
    "InconveniencePreference",
    "DistanceOracle",
    "CoverageIndex",
    "SparseCoverageIndex",
    "IncGreedy",
    "FMGreedy",
    "OptimalSolver",
    "NetClusIndex",
    "PlacementService",
    "QuerySpec",
    "save_index",
    "load_index",
    "RoadNetwork",
    "Trajectory",
    "TrajectoryDataset",
    "__version__",
]
