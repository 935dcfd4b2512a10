"""Run every experiment of the evaluation and print its table/figure rows.

Usage::

    python -m repro.experiments.run_all            # default ("small") scale
    python -m repro.experiments.run_all --scale tiny
    python -m repro.experiments.run_all --only fig05 fig06 table09

Each experiment id maps to a driver in :mod:`repro.experiments.figures`; the
printed rows are the reproduction's counterpart of the corresponding table or
figure in the paper (see EXPERIMENTS.md for the side-by-side reading).
"""

from __future__ import annotations

import argparse
from typing import Callable

from repro.experiments.figures import (
    ablation_design_choices,
    fig04_optimal,
    fig05_quality,
    fig06_runtime,
    fig07_cost_capacity,
    fig08_tops2,
    fig10_scalability,
    fig11_city_geometries,
    fig12_traj_length,
    table07_gamma,
    table08_fm_sketches,
    table09_memory,
    table10_updates,
    table11_index_construction,
    table12_jaccard,
)
from repro.experiments.reporting import print_table
from repro.experiments.runner import build_context
from repro.utils.timer import Timer

__all__ = ["main", "EXPERIMENTS"]


def _run_fig04(scale: str, seed: int, context) -> None:
    rows = fig04_optimal.run(
        k_values=(1, 3, 5), num_trajectories=100, num_sites=20, seed=seed
    )
    print_table(rows, title="Fig. 4 — comparison with optimal (Beijing-Small-like)")


def _run_fig05(scale: str, seed: int, context) -> None:
    panels = fig05_quality.run(context=context)
    print_table(panels["varying_k"], title="Fig. 5a — utility vs k (τ = 0.8 km)")
    print()
    print_table(panels["varying_tau"], title="Fig. 5b — utility vs τ (k = 5)")


def _run_fig06(scale: str, seed: int, context) -> None:
    panels = fig06_runtime.run(context=context)
    print_table(panels["varying_k"], title="Fig. 6a — running time vs k (τ = 0.8 km)")
    print()
    print_table(panels["varying_tau"], title="Fig. 6b — running time vs τ (k = 5)")


def _run_fig07(scale: str, seed: int, context) -> None:
    panels = fig07_cost_capacity.run(context=context)
    print_table(panels["cost"], title="Fig. 7a / Fig. 9 — TOPS-COST")
    print()
    print_table(panels["capacity"], title="Fig. 7b — TOPS-CAPACITY")


def _run_fig08(scale: str, seed: int, context) -> None:
    print_table(fig08_tops2.run(context=context), title="Fig. 8 — TOPS2 (convex preference)")


def _run_fig10(scale: str, seed: int, context) -> None:
    panels = fig10_scalability.run(scale=scale, seed=seed, engine=context.engine)
    print_table(panels["varying_sites"], title="Fig. 10a — scalability vs #sites")
    print()
    print_table(panels["varying_trajectories"], title="Fig. 10b — scalability vs #trajectories")


def _run_fig11(scale: str, seed: int, context) -> None:
    print_table(
        fig11_city_geometries.run(seed=seed, engine=context.engine),
        title="Fig. 11 — city geometries",
    )


def _run_fig12(scale: str, seed: int, context) -> None:
    print_table(
        fig12_traj_length.run(scale=scale, seed=seed, engine=context.engine),
        title="Fig. 12 — trajectory length",
    )


def _run_table07(scale: str, seed: int, context) -> None:
    print_table(
        table07_gamma.run(scale=scale, seed=seed, engine=context.engine),
        title="Table 7 — index resolution γ",
    )


def _run_table08(scale: str, seed: int, context) -> None:
    print_table(
        table08_fm_sketches.run(context=context), title="Table 8 — number of FM sketches f"
    )


def _run_table09(scale: str, seed: int, context) -> None:
    print_table(table09_memory.run(context=context), title="Table 9 — memory footprint vs τ")


def _run_table10(scale: str, seed: int, context) -> None:
    print_table(
        table10_updates.run(scale=scale, seed=seed), title="Table 10 — index update cost"
    )


def _run_table11(scale: str, seed: int, context) -> None:
    print_table(
        table11_index_construction.run(context=context),
        title="Table 11 — index construction details",
    )
    stages = table11_index_construction.stage_rows(context)
    if stages:
        print()
        print_table(stages, title="Table 11b — offline phase by pipeline stage")


def _run_table12(scale: str, seed: int, context) -> None:
    print_table(table12_jaccard.run(context=context), title="Table 12 — Jaccard clustering")


def _run_ablations(scale: str, seed: int, context) -> None:
    panels = ablation_design_choices.run(scale=scale, seed=seed)
    print_table(panels["representative_strategy"], title="Ablation — representative selection")
    print()
    print_table(panels["greedy_loop"], title="Ablation — greedy loop (incremental vs CELF)")
    print()
    print_table(panels["gdsp_counting"], title="Ablation — GDSP coverage counting")


#: experiment id -> (description, runner)
EXPERIMENTS: dict[str, tuple[str, Callable]] = {
    "fig04": ("comparison with the optimal algorithm", _run_fig04),
    "fig05": ("solution quality vs k and τ", _run_fig05),
    "fig06": ("query running time vs k and τ", _run_fig06),
    "fig07": ("TOPS-COST and TOPS-CAPACITY extensions", _run_fig07),
    "fig08": ("TOPS2 variant (convex preference)", _run_fig08),
    "fig10": ("scalability with #sites and #trajectories", _run_fig10),
    "fig11": ("effect of city geometries", _run_fig11),
    "fig12": ("effect of trajectory length", _run_fig12),
    "table07": ("effect of index resolution γ", _run_table07),
    "table08": ("effect of the number of FM sketches", _run_table08),
    "table09": ("memory footprint vs τ", _run_table09),
    "table10": ("dynamic update cost", _run_table10),
    "table11": ("index construction details", _run_table11),
    "table12": ("Jaccard clustering baseline", _run_table12),
    "ablations": ("design-choice ablations", _run_ablations),
}


def main(argv: list[str] | None = None) -> None:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=["tiny", "small", "medium"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--engine",
        default="dense",
        choices=["dense", "sparse", "bitset", "auto"],
        help="flat-space coverage + greedy engine: the paper's dense "
        "matrices, the CSR/CSC coverage over the covered pairs, the uint64 "
        "popcount engine (binary ψ only), or auto (bitset for binary ψ, "
        "sparse otherwise) — same selections on every engine; NetClus "
        "always uses the auto structure",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        help=f"subset of experiment ids to run (available: {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--index-cache",
        default=None,
        metavar="DIR",
        help="persist the shared NetClus index in this directory: loaded if "
        "present (fingerprint-checked), built and saved otherwise — skips "
        "the offline phase on repeat runs",
    )
    args = parser.parse_args(argv)

    selected = args.only if args.only else list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment ids: {unknown}")

    print(
        f"Building shared context (scale={args.scale}, seed={args.seed}, "
        f"engine={args.engine})..."
    )
    context = build_context(
        scale=args.scale,
        seed=args.seed,
        engine=args.engine,
        index_path=args.index_cache,
    )
    for name in selected:
        description, runner = EXPERIMENTS[name]
        print()
        print("=" * 78)
        print(f"{name}: {description}")
        print("=" * 78)
        with Timer() as timer:
            runner(args.scale, args.seed, context)
        print(f"[{name} finished in {timer.elapsed:.1f}s]")


if __name__ == "__main__":
    main()
