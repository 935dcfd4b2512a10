"""Road-network substrate: graph model, shortest paths, generators, and I/O."""

from repro.network.graph import RoadNetwork, Node, Edge
from repro.network.shortest_path import ShortestPathEngine, dijkstra_single_source
from repro.network.generators import (
    grid_network,
    star_network,
    polycentric_network,
    ring_radial_network,
    random_planar_network,
)
from repro.network.io import (
    save_network_json,
    load_network_json,
    save_edge_list,
    load_edge_list,
)

__all__ = [
    "RoadNetwork",
    "Node",
    "Edge",
    "ShortestPathEngine",
    "dijkstra_single_source",
    "grid_network",
    "star_network",
    "polycentric_network",
    "ring_radial_network",
    "random_planar_network",
    "save_network_json",
    "load_network_json",
    "save_edge_list",
    "load_edge_list",
]
