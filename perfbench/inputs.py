"""Seeded benchmark inputs and exact detour matrices, cached per checkout.

Generating trajectories is pure-Python path search: about fifteen seconds
for the Beijing-like medium city.  So each dataset is generated once per
checkout as a fixed *pool* (fixed network, fixed generator seed, more
trajectories than a run uses), by this file run as a script, and pickled
under ``.perfbench/inputs``.  A run's inputs are a ``--seed``-drawn sample
of its pool, renumbered ``0..n-1``: the same seed gives the same
trajectories in the same order, and different seeds give different
trajectory sets on the same road network.  The cache key includes a hash
of the generator sources, so an edited generator never serves stale
pools.  Generating in a child process also keeps the generator's memory
out of the measured process's peak resident set.

:func:`detours` caches the exact detour matrix of each pool, which the
utility ratio's exact baseline needs, under a hash of every program
source, so it is computed once per checkout and program version.

Usage::

    python perfbench/inputs.py {beijing,cities} OUT.pickle
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDS = ROOT / ".perfbench"
SRC = ROOT / "src" / "repro"
GENERATOR_SOURCES = (SRC / "datasets", SRC / "network", SRC / "trajectory")
POOL_SEED = 42
#: (trajectories in the pool, trajectories a run draws from it)
BEIJING_TRAJECTORIES = (2000, 1500)
CITY_TRAJECTORIES = (2500, 2000)


def generate(kind: str) -> Any:
    """The pool for *kind*.

    ``beijing``: the network and commuter model of ``beijing_like(scale="medium")``
    with a larger trajectory pool; ``cities``: the three Fig 11 cities.
    """
    from repro.datasets import DatasetBundle, atlanta_like, bangalore_like, new_york_like
    from repro.network.generators import ring_radial_network
    from repro.trajectory.generators import CommuterModel

    if kind == "beijing":
        network = ring_radial_network(
            num_rings=10, nodes_per_ring=150, ring_spacing_km=0.9, core_grid=24, core_spacing_km=0.35
        )
        model = CommuterModel(
            network,
            num_hotspots=8,
            hotspot_radius_km=1.2,
            background_fraction=0.35,
            perturbation=0.35,
            seed=POOL_SEED,
        )
        trajectories = model.generate(BEIJING_TRAJECTORIES[0])
        return DatasetBundle("Beijing-like (medium)", network, trajectories, network.node_ids())
    cities = (("nyk", new_york_like), ("atl", atlanta_like), ("blr", bangalore_like))
    return {
        name: make(num_trajectories=CITY_TRAJECTORIES[0], seed=POOL_SEED) for name, make in cities
    }


def source_hash(directories: tuple[Path, ...] = GENERATOR_SOURCES) -> str:
    digest = hashlib.sha256()
    for directory in directories:
        for path in sorted(directory.rglob("*.py")):
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def sample_rows(pool_size: int, size: int, seed: int | str) -> list[int]:
    """The pool rows a seed draws, in draw order."""
    return random.Random(seed).sample(range(pool_size), size)


def draw(pool: Any, size: int, seed: int | str) -> Any:
    """A seeded sample of *size* of the pool's trajectories, renumbered ``0..size-1``."""
    from repro.trajectory.model import TrajectoryDataset

    trajectories = list(pool.trajectories)
    chosen = [trajectories[row] for row in sample_rows(len(trajectories), size, seed)]
    renumbered = TrajectoryDataset(dataclasses.replace(t, traj_id=i) for i, t in enumerate(chosen))
    return dataclasses.replace(pool, trajectories=renumbered)


def city_seed(seed: int, name: str) -> str:
    return f"{seed}:{name}"


@functools.lru_cache(maxsize=None)
def pool(kind: str) -> Any:
    """The pool for *kind*, generated in a child process the first time."""
    path = RECORDS / "inputs" / f"{kind}-pool-{source_hash()}.pickle"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), kind, str(path)],
            check=True,
            timeout=600,
        )
    with path.open("rb") as handle:
        return pickle.load(handle)


def load(kind: str, seed: int) -> Any:
    """The inputs for *kind* and *seed*.

    ``beijing``: one bundle of 1,500 trajectories; ``cities``: a dict of
    three bundles of 2,000 trajectories each.
    """
    if kind == "beijing":
        return draw(pool(kind), BEIJING_TRAJECTORIES[1], seed)
    return {
        name: draw(bundle, CITY_TRAJECTORIES[1], city_seed(seed, name))
        for name, bundle in pool(kind).items()
    }


def detours(kind: str, seed: int) -> Any:
    """Exact detour-matrix rows of :func:`load`'s trajectories, in their order.

    The utility ratio's exact baseline needs the full detour matrix, about
    6 s of work for the Beijing-like city.  A trajectory's row depends only
    on the network, the sites and the trajectory, so the pool's matrix is
    computed once per program version (``TOPSProblem.detour_matrix``),
    cached, and sliced per seed.  Shapes follow :func:`load`: one matrix
    for ``beijing``, a dict of three for ``cities``.
    """
    from repro.core.problem import TOPSProblem

    path = RECORDS / "memo" / f"detours-{kind}-{source_hash((SRC,))}.pickle"
    bundles = pool(kind) if kind == "cities" else {"": pool(kind)}
    if not path.exists():
        matrices = {
            name: TOPSProblem(b.network, b.trajectories, b.sites).detour_matrix()
            for name, b in bundles.items()
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(f".{os.getpid()}.tmp")
        with partial.open("wb") as handle:
            pickle.dump(matrices, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(partial, path)
    with path.open("rb") as handle:
        matrices = pickle.load(handle)
    if kind == "beijing":
        return matrices[""][sample_rows(BEIJING_TRAJECTORIES[0], BEIJING_TRAJECTORIES[1], seed)]
    return {
        name: matrix[sample_rows(CITY_TRAJECTORIES[0], CITY_TRAJECTORIES[1], city_seed(seed, name))]
        for name, matrix in matrices.items()
    }


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    kind, out = sys.argv[1], Path(sys.argv[2])
    partial = out.with_suffix(f".{os.getpid()}.tmp")
    with partial.open("wb") as handle:
        pickle.dump(generate(kind), handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(partial, out)
