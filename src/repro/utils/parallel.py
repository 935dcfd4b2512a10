"""Worker-count resolution shared by every parallel surface.

Everything in the library that accepts a ``workers`` knob — the offline
build (``NetClusIndex.build``/``build_index``), the service CLI, the
experiment harness (``run_all``) and the benchmarks — accepts either a
positive integer or the string ``"auto"``.  ``"auto"`` resolves to the number of CPUs this
process may *actually* schedule on (the cgroup/affinity-aware count), not
the machine-wide ``os.cpu_count()``: on a two-core CI container a request
for "all the cores" must come back 2, not the host's 64, or the pool
oversubscribes and runs slower than sequential.
"""

from __future__ import annotations

import os

__all__ = ["usable_cpu_count", "resolve_workers", "capped_cpu_workers"]


def usable_cpu_count() -> int:
    """CPUs this process may actually schedule on (affinity/cgroup-aware).

    Prefers ``os.process_cpu_count`` (Python 3.13+), then the Linux
    scheduler affinity mask, then ``os.cpu_count()``; never less than 1.
    """
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:  # pragma: no cover - Python 3.13+
        count = counter()
        if count:
            return max(1, int(count))
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def capped_cpu_workers(cap: int) -> int:
    """``min(cap, usable CPUs)`` — the shared benchmark pool-sizing rule.

    Benchmarks that document an N-way measurement (e.g. "a 4-worker
    build") size their pools with this so a container with fewer usable
    CPUs never oversubscribes; the parallel-build and serving benchmarks
    use it.
    """
    return min(int(cap), usable_cpu_count())


def resolve_workers(workers: int | str) -> int:
    """Resolve a ``workers`` knob to a concrete positive worker count.

    ``"auto"`` (case-insensitive) resolves to :func:`usable_cpu_count`;
    integers (or integer-valued strings, as argparse hands them over) are
    validated to be >= 1.  Booleans and non-integral floats are refused
    rather than truncated to a worker count.
    """
    if isinstance(workers, bool) or (
        isinstance(workers, float) and not workers.is_integer()
    ):
        raise ValueError(
            f"workers must be a positive integer or 'auto', got {workers!r}"
        )
    if isinstance(workers, str):
        if workers.strip().lower() == "auto":
            return usable_cpu_count()
        try:
            workers = int(workers)
        except ValueError:
            raise ValueError(
                f"workers must be a positive integer or 'auto', got {workers!r}"
            ) from None
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1 or 'auto', got {workers}")
    return workers
