"""Benchmark E2 — Table 8: effect of the number of FM sketches f.

Benchmarks FM-NetClus queries at small and large f and regenerates the
utility-error / speed-up rows.
"""

from __future__ import annotations

from repro.experiments.figures import table08_fm_sketches
from repro.experiments.reporting import print_table
from repro.experiments.runner import fm_netclus


def test_fm_netclus_query_f30(benchmark, small_context, default_query):
    """FM-NetClus query with the paper's chosen f = 30."""
    result = benchmark(lambda: fm_netclus(small_context.netclus, default_query, 30))
    assert len(result.sites) == default_query.k


def test_fm_netclus_query_f4(benchmark, small_context, default_query):
    """FM-NetClus query with very few copies (cheapest, least accurate)."""
    result = benchmark(lambda: fm_netclus(small_context.netclus, default_query, 4))
    assert len(result.sites) == default_query.k


def test_table08_rows(benchmark, small_context):
    rows = benchmark.pedantic(
        lambda: table08_fm_sketches.run(f_values=(1, 4, 10, 30), context=small_context),
        rounds=1,
        iterations=1,
    )
    print()
    print_table(rows, title="Table 8 — variation across number of FM sketches f")
    # with f = 30 copies the utility loss against exact NetClus is bounded
    final = rows[-1]
    assert final["rel_error_pct"] <= 25.0
