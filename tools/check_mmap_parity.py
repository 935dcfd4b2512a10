"""CI gate: v4 mmap loads must answer byte-identically to v3 loads and fresh builds.

Builds the Beijing-like workload once, saves it in both writable formats
(v3 compressed ``.npz``, v4 packed mmap blob), reloads each, and runs the
same query battery against all three indexes — fresh / v3-loaded /
v4-loaded — byte-comparing selections and per-trajectory utilities
(``float64`` buffers, not approximate sums) across three scenarios:

* **plain** — sparse-engine queries over several (k, τ);
* **warm covcache** — a second copy saved *with* persisted coverage
  parts, so the loaded indexes answer through the zero-copy part path;
* **post-update** — the same :class:`UpdateBatch` applied to all three
  (exercising the v4 copy-on-write mutation path), then re-queried.

Exits non-zero on any divergence.  Run from the repository root::

    python tools/check_mmap_parity.py [--scale tiny|small|medium]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.netclus import NetClusIndex, UpdateBatch  # noqa: E402
from repro.core.query import TOPSQuery  # noqa: E402
from repro.datasets import beijing_like  # noqa: E402
from repro.service.serialization import load_index, save_index  # noqa: E402

#: the query battery: several (k, τ) pairs spanning the instance ladder
QUERIES = ((5, 0.6), (3, 1.2), (8, 2.4))


def _probe(index: NetClusIndex) -> list[tuple]:
    """Selections + exact utility bytes for the whole query battery."""
    out = []
    for k, tau_km in QUERIES:
        result = index.query(TOPSQuery(k=k, tau_km=tau_km), engine="sparse")
        utilities = np.asarray(result.per_trajectory_utility, dtype=np.float64)
        out.append((tuple(result.sites), utilities.tobytes()))
    return out


def _compare(label: str, fresh: list, v3: list, v4: list) -> bool:
    if fresh == v3 == v4:
        print(f"{label:<16}: {len(QUERIES)} queries, selections + utilities identical")
        return True
    for position, (k, tau_km) in enumerate(QUERIES):
        if not (fresh[position] == v3[position] == v4[position]):
            print(f"FAIL [{label}]: divergence at k={k} tau_km={tau_km}")
            print(f"  fresh sites: {fresh[position][0]}")
            print(f"  v3 sites   : {v3[position][0]}")
            print(f"  v4 sites   : {v4[position][0]}")
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", default="tiny", choices=["tiny", "small", "medium"])
    args = parser.parse_args(argv)

    bundle = beijing_like(scale=args.scale, seed=42)
    print(f"Building {bundle.name} fresh...")
    fresh = bundle.problem().build_netclus_index(
        gamma=0.75, tau_min_km=0.4, tau_max_km=4.0
    )

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        v3 = load_index(save_index(fresh, root / "plain_v3", format_version=3))
        v4 = load_index(save_index(fresh, root / "plain_v4"))

        ok &= _compare("plain", _probe(fresh), _probe(v3), _probe(v4))

        # a second copy saved with persisted coverage parts: warm every
        # battery τ so the loaded indexes answer through the part path
        warm = bundle.problem().build_netclus_index(
            gamma=0.75, tau_min_km=0.4, tau_max_km=4.0
        )
        warm.enable_coverage_cache()
        _probe(warm)
        warm_v3 = load_index(save_index(warm, root / "warm_v3", format_version=3))
        warm_v4 = load_index(save_index(warm, root / "warm_v4"))
        ok &= _compare("warm covcache", _probe(warm), _probe(warm_v3), _probe(warm_v4))

        # same dynamic updates applied to all three (v4 copies-on-write),
        # then the battery re-run
        batch = UpdateBatch(
            remove_sites=tuple(sorted(fresh.sites)[:2]),
            remove_trajectories=tuple(fresh.trajectory_ids[:5]),
        )
        for index in (fresh, v3, v4):
            index.apply_updates(batch)
        ok &= _compare("post-update", _probe(fresh), _probe(v3), _probe(v4))

    if not ok:
        return 1
    print("OK: v4 mmap loads are query-identical to v3 loads and fresh builds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
