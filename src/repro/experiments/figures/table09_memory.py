"""Table 9 — memory footprint of the algorithms across τ.

Inc-Greedy / FMG must hold the full site-to-trajectory covering structures,
which grow with τ (and blow past available memory beyond τ = 1.2 km in the
paper); NetClus / FM-NetClus only touch the index instance serving τ, whose
size *shrinks* as τ grows because coarser clusterings compress trajectories
more.  We report analytic byte estimates that preserve those trends, plus
the measured ``storage_bytes()`` of the three coverage engines (dense,
sparse, bitset) on the flat space — dense grows as 8·m·n, sparse with the
covered-pair count, and bitset is a flat m·n/8 bit matrix regardless of τ.
"""

from __future__ import annotations

from repro.core.preference import BinaryPreference
from repro.core.query import TOPSQuery
from repro.experiments.metrics import incgreedy_memory_bytes, netclus_memory_bytes
from repro.experiments.reporting import print_table
from repro.experiments.runner import ExperimentContext, build_context

__all__ = ["run", "main"]


def run(
    tau_values: tuple[float, ...] = (0.1, 0.2, 0.4, 0.8, 1.2, 1.6),
    scale: str = "small",
    seed: int = 42,
    context: ExperimentContext | None = None,
    num_sketches: int = 30,
) -> list[dict]:
    """Estimated bytes for INCG / FMG / NetClus / FM-NetClus at each τ,
    plus measured per-engine coverage ``storage_bytes``."""
    if context is None:
        context = build_context(scale=scale, seed=seed)
    rows: list[dict] = []
    for tau_km in tau_values:
        query = TOPSQuery(k=5, tau_km=tau_km)
        coverage = context.coverage(query)
        incg_bytes = incgreedy_memory_bytes(context.problem.oracle, coverage)
        # FMG additionally stores f 32-bit words per candidate site
        fmg_bytes = incg_bytes + 4 * num_sketches * coverage.num_sites
        netclus_bytes = netclus_memory_bytes(context.netclus, tau_km)
        instance = context.netclus.instance_for(tau_km)
        fm_netclus_bytes = netclus_bytes + 4 * num_sketches * instance.num_representatives
        # measured engine footprints (binary ψ so the bitset engine applies)
        binary_query = TOPSQuery(k=5, tau_km=tau_km, preference=BinaryPreference())
        engine_bytes = {
            engine: context.problem.coverage(binary_query, engine=engine).storage_bytes()
            for engine in ("dense", "sparse", "bitset")
        }
        rows.append(
            {
                "tau_km": tau_km,
                "incg_mb": incg_bytes / 1e6,
                "fmg_mb": fmg_bytes / 1e6,
                "netclus_mb": netclus_bytes / 1e6,
                "fm_netclus_mb": fm_netclus_bytes / 1e6,
                "dense_cov_mb": engine_bytes["dense"] / 1e6,
                "sparse_cov_mb": engine_bytes["sparse"] / 1e6,
                "bitset_cov_mb": engine_bytes["bitset"] / 1e6,
            }
        )
    return rows


def main() -> list[dict]:
    """Run at default scale and print the Table 9 rows."""
    rows = run()
    print_table(rows, title="Table 9 — memory footprint (estimated MB) vs τ")
    return rows


if __name__ == "__main__":
    main()
