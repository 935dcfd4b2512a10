"""CI gate: the bitset engine must answer byte-identically to sparse/dense.

Builds the NetClus index for the small Beijing-like workload once, then
compares two configurations against the ``engine="sparse"`` baseline:

* ``engine="bitset"`` on a binary-ψ spec batch (k-sweeps, two τ,
  capacity, budget, existing services — every selection rule the bitset
  kernels serve; TOPS3 min-inconvenience is excluded, it is dense-only);
* ``engine="auto"`` on a *mixed*-ψ batch — binary specs must resolve to
  the bitset engine, graded specs to sparse, with identical answers.

The sparse baseline runs first, so the bitset and auto services exercise
the warm coverage-cache path (bitset views materialised from cached
entries).  Every result is byte-compared: selected site tuples element
for element and per-trajectory utility vectors via
``np.ndarray.tobytes``.  Exits non-zero on any divergence.  Run from the
repository root::

    python tools/check_bitset_parity.py [--scale tiny|small|medium]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.datasets import beijing_like  # noqa: E402
from repro.service.placement import PlacementService  # noqa: E402
from repro.service.specs import QuerySpec  # noqa: E402


def _binary_specs() -> list[QuerySpec]:
    """Binary-ψ specs over every selection rule the bitset engine serves."""
    return [
        QuerySpec(k=3, tau_km=0.8),
        QuerySpec(k=8, tau_km=0.8),
        QuerySpec(k=5, tau_km=1.6),
        QuerySpec(k=4, tau_km=0.8, capacity=15),
        QuerySpec(k=1, tau_km=0.8, budget=5.0),
        QuerySpec(k=3, tau_km=1.6, existing_sites=(0, 5)),
    ]


def _mixed_specs() -> list[QuerySpec]:
    """Binary and graded ψ together: the ``auto`` resolution workload."""
    return _binary_specs() + [
        QuerySpec(k=5, tau_km=0.8, preference="linear"),
        QuerySpec(k=5, tau_km=0.8, preference="exponential"),
    ]


def _compare(baseline, results, specs, label: str) -> int:
    failures = 0
    for spec, want, got in zip(specs, baseline, results):
        spec_label = f"{label} spec={spec.to_dict()}"
        if got.sites != want.sites:
            print(f"FAIL [{spec_label}]: sites {got.sites} != {want.sites}")
            failures += 1
            continue
        want_bytes = np.asarray(want.per_trajectory_utility).tobytes()
        got_bytes = np.asarray(got.per_trajectory_utility).tobytes()
        if got_bytes != want_bytes:
            print(f"FAIL [{spec_label}]: per-trajectory utilities diverge")
            failures += 1
    if not failures:
        print(f"{label}: {len(specs)} specs byte-identical to the sparse baseline")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", default="small", choices=["tiny", "small", "medium"])
    args = parser.parse_args(argv)

    bundle = beijing_like(scale=args.scale, seed=42)
    problem = bundle.problem()
    print(f"Building NetClus index for {bundle.name}...")
    index = problem.build_netclus_index(gamma=0.75, tau_min_km=0.4, tau_max_km=8.0)
    binary_specs = _binary_specs()
    mixed_specs = _mixed_specs()

    baseline_service = PlacementService(index, engine="sparse")
    binary_baseline = baseline_service.batch_query(binary_specs, use_cache=False)
    mixed_baseline = baseline_service.batch_query(mixed_specs, use_cache=False)

    failures = 0
    bitset_service = PlacementService(index, engine="bitset")
    failures += _compare(
        binary_baseline,
        bitset_service.batch_query(binary_specs, use_cache=False),
        binary_specs,
        "engine=bitset",
    )

    auto_service = PlacementService(index, engine="auto")
    failures += _compare(
        mixed_baseline,
        auto_service.batch_query(mixed_specs, use_cache=False),
        mixed_specs,
        "engine=auto (mixed ψ)",
    )

    if failures:
        print(f"FAIL: {failures} divergent result(s)")
        return 1
    print(
        "OK: bitset and auto answers are byte-identical to the sparse "
        "baseline (plain and warm coverage cache)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
