"""Benchmark — ablations of design choices (Section 4.2 and implementation).

Regenerates the representative-selection, greedy-loop and GDSP-counting
ablation tables and measures the two greedy loops.
"""

from __future__ import annotations

from repro.core.greedy import IncGreedy, LazyGreedy
from repro.core.query import TOPSQuery
from repro.experiments.figures import ablation_design_choices
from repro.experiments.reporting import print_table


def test_inc_greedy_incremental_updates(benchmark, small_context):
    """Algorithm 1's incremental marginal updates (k = 10)."""
    query = TOPSQuery(k=10, tau_km=0.8)
    coverage = small_context.coverage(query)
    greedy = IncGreedy(coverage)
    columns, _, _ = benchmark(lambda: greedy.select(10))
    assert len(columns) == 10


def test_celf_lazy_heap(benchmark, small_context):
    """The CELF heap capacitated queries run, here uncapacitated (k = 10)."""
    query = TOPSQuery(k=10, tau_km=0.8)
    coverage = small_context.coverage(query)
    greedy = LazyGreedy(coverage)
    columns, _, _ = benchmark(lambda: greedy.select(10))
    assert len(columns) == 10


def test_ablation_tables(benchmark, tiny_bundle):
    def run_all_ablations():
        return {
            "representative_strategy": ablation_design_choices.run_representative_strategy(
                tiny_bundle, k_values=(5,)
            ),
            "greedy_loop": ablation_design_choices.run_greedy_loop(tiny_bundle, k=5),
            "gdsp_counting": ablation_design_choices.run_gdsp_counting(tiny_bundle),
        }

    panels = benchmark.pedantic(run_all_ablations, rounds=1, iterations=1)
    print()
    print_table(panels["representative_strategy"], title="Ablation — representative selection")
    print()
    print_table(panels["greedy_loop"], title="Ablation — greedy loop (incremental vs CELF)")
    print()
    print_table(panels["gdsp_counting"], title="Ablation — GDSP coverage counting")
    # the two greedy loops must land on the same utility
    utilities = [row["utility"] for row in panels["greedy_loop"]]
    assert abs(utilities[0] - utilities[1]) < 1e-6
    # the closest-to-center strategy should not be materially worse
    for row in panels["representative_strategy"]:
        assert row["closest_utility_pct"] >= row["most_frequent_utility_pct"] - 10.0
