"""Shared fixtures for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper (see
DESIGN.md's experiment index) at a laptop-friendly scale and measures the
operation that dominates that experiment.  Run with::

    pytest benchmarks/ --benchmark-only

Pass ``-s`` to also see the regenerated rows printed by each module.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.core.query import TOPSQuery
from repro.datasets import beijing_like, beijing_small_like
from repro.experiments.runner import build_context

#: Script-style benchmark modules: every module listed here exposes a
#: module-level ``build_parser()`` whose options include ``--smoke`` and a
#: ``main(argv)`` entry point, so ``python benchmarks/<name>.py --smoke``
#: is a fast, CI-sized run.  CI's bench-smoke job iterates THIS registry
#: for its script-entry steps (instead of hand-maintained per-file steps
#: with ``--ignore`` patterns), and ``bench_smoke_entries.py`` asserts the
#: registry matches the modules on disk — a new script-style benchmark
#: that forgets to register, or a registered module that drops its
#: ``--smoke`` flag, fails the pytest ``-k smoke`` pass instead of
#: silently diverging from the script steps.
SCRIPT_SMOKE_BENCHMARKS = ("bench_bitset_kernels",)


def script_entry_modules() -> tuple[str, ...]:
    """Benchmark modules on disk that have a ``__main__`` script entry."""
    directory = Path(__file__).parent
    return tuple(
        sorted(
            path.stem
            for path in directory.glob("bench_*.py")
            if '__name__ == "__main__"' in path.read_text()
        )
    )


def load_script_benchmark(name: str):
    """Import a registered benchmark module by file path.

    Path-based (not ``import``-based) so the loader works identically
    under pytest and from a standalone script regardless of ``sys.path``
    — ``benchmarks/`` is not a package.
    """
    path = Path(__file__).parent / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_script_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def tiny_context():
    """Experiment context over the tiny Beijing-like dataset."""
    return build_context(scale="tiny", seed=42, tau_max_km=4.0)


@pytest.fixture(scope="session")
def small_context():
    """Experiment context over the small Beijing-like dataset (default scale)."""
    return build_context(scale="small", seed=42, tau_max_km=8.0)


@pytest.fixture(scope="session")
def beijing_small_context():
    """Context over the Beijing-Small analogue used for the optimal comparison."""
    bundle = beijing_small_like(num_trajectories=80, num_sites=20, seed=42)
    return build_context(bundle=bundle, tau_max_km=4.0)


@pytest.fixture(scope="session")
def default_query():
    """The paper's default query: k = 5, τ = 0.8 km, binary preference."""
    return TOPSQuery(k=5, tau_km=0.8)


@pytest.fixture(scope="session")
def tiny_bundle():
    """The tiny Beijing-like bundle for drivers that need raw data."""
    return beijing_like(scale="tiny", seed=42)
