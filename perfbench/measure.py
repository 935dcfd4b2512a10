"""Measurement helpers shared by the workloads.

Latencies are taken with ``time.perf_counter`` (CLOCK_MONOTONIC on Linux,
so the farm server child and this process read the same clock).  A
percentile is reported only when it has at least :data:`TAIL_SAMPLES`
samples beyond it; the workloads size their loops so every run has them.
Tail percentiles are smoothed over neighbouring ranks (:func:`percentile`).

**Speed normalisation.**  On a shared virtual machine the CPU's speed
drifts by ±30% within seconds to minutes, so raw times of one workload
spread by 15–45% between runs.  Each phase therefore times a fixed
reference kernel (:func:`reference_kernel`: benchmark code, never program
code) every :data:`CALIBRATION_INTERVAL_S` between operations, outside
every timed region.  Each operation's time is multiplied by
``REFERENCE_KERNEL_S / median(kernel times within CALIBRATION_WINDOW_S of
the operation)``.  The result is the time the operation would take on a
machine where the kernel takes exactly :data:`REFERENCE_KERNEL_S`.  The
run record keeps raw set-up times and the run's mean factors.
"""

from __future__ import annotations

import functools
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: samples that must lie beyond a reported percentile
TAIL_SAMPLES = 10
#: nominal duration of one reference kernel (the unit of normalised time)
REFERENCE_KERNEL_S = 0.012
CALIBRATION_INTERVAL_S = 0.25
#: kernel samples within this many seconds of an operation set its factor
CALIBRATION_WINDOW_S = 1.5


@functools.lru_cache(maxsize=1)
def _kernel_data() -> tuple[dict[int, int], list[int], Any, Any]:
    import numpy as np

    rng = np.random.default_rng(0)
    table = {i: 3 * i for i in range(100_000)}
    keys = [int(k) for k in rng.integers(0, 100_000, 20_000)]
    return table, keys, rng.random(1_000_000), rng.integers(0, 1_000_000, 100_000)


def reference_kernel() -> None:
    """Fixed benchmark-owned work: dict probes, a cache-missing gather, small sorts.

    Memory-bound parts are included because a busy neighbour on the host
    slows the program's dict- and array-heavy code more than it slows
    register-bound arithmetic.
    """
    import numpy as np

    table, keys, values, positions = _kernel_data()
    total = 0
    for key in keys:
        total += table[key]
    gathered = values[positions]
    gathered.sort()
    for _ in range(4):
        np.sqrt(gathered[:20_000] * 1.0001 + 1.0).sort()


class Calibration:
    """Reference-kernel times, with when they were taken (see the module docstring)."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self._next = 0.0

    def sample(self) -> None:
        started = time.perf_counter()
        reference_kernel()
        self.times.append(started)
        self.samples.append(time.perf_counter() - started)
        self._next = time.perf_counter() + CALIBRATION_INTERVAL_S

    def maybe_sample(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Multiplier from measured to normalised seconds for work in [start, end]."""
        low, high = start - CALIBRATION_WINDOW_S, end + CALIBRATION_WINDOW_S
        nearby = [d for t, d in zip(self.times, self.samples) if low <= t <= high]
        if not nearby:
            nearest = min(range(len(self.times)), key=lambda i: abs(self.times[i] - start))
            nearby = [self.samples[nearest]]
        return REFERENCE_KERNEL_S / median(nearby)

    def mean_factor(self) -> float:
        return REFERENCE_KERNEL_S / median(self.samples)


def min_samples(q: float) -> int:
    """Samples a run needs before percentile *q* has ``TAIL_SAMPLES`` beyond it."""
    return math.ceil(TAIL_SAMPLES / (1.0 - q) - 1e-9)


def percentile(values: list[float], q: float) -> float:
    """Smoothed percentile *q* (0 < q < 1) of *values*.

    The mean of the order statistics within ``h = ceil(sqrt(n q (1 - q)))``
    ranks (one binomial standard deviation of the rank) of the nearest
    rank.  A tail percentile of these workloads sits among a dozen or so
    operations of similar cost (``query_p99_ms`` on ``query``: the cold
    coverage builds), and each of them jitters by ±15% between runs; the
    nearest rank alone then spread 14% over eight runs of one seed, the
    smoothed value 9%.
    """
    if len(values) < min_samples(q):
        raise ValueError(
            f"p{round(q * 100)} needs {min_samples(q)} samples, run has {len(values)}"
        )
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    h = math.ceil(math.sqrt(len(ordered) * q * (1.0 - q)))
    return mean(ordered[max(0, rank - h) : rank + h + 1])


def mean(values: list[float]) -> float:
    return sum(values) / len(values)


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


@dataclass
class OpLog:
    """Per-kind latencies plus attempted/failed counts of one closed loop.

    Call :meth:`between_ops` after each step of the loop.  The ``*_ms``
    accessors and :meth:`rate` report normalised time.
    """

    #: per kind: (start, raw seconds) of every completed operation
    latencies: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    calibration: Calibration = field(default_factory=Calibration)

    def between_ops(self) -> None:
        self.calibration.maybe_sample()

    def timed(self, kind: str, call: Callable[[], Any]) -> Any:
        """Run *call* once, record its latency; ``None`` (and a failure) if it raises."""
        started = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.record(kind, started, 0.0, ok=False)
            print(f"operation failed: {kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        self.record(kind, started, time.perf_counter() - started)
        return result

    def record(self, kind: str, started: float, seconds: float, ok: bool = True) -> None:
        """Record one operation (HTTP requests are timed by the caller)."""
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        self.latencies.setdefault(kind, [])
        if ok:
            self.latencies[kind].append((started, seconds))
        else:
            self.failed[kind] = self.failed.get(kind, 0) + 1

    def count(self, kind: str) -> int:
        return self.attempted.get(kind, 0)

    def samples(self, kind: str) -> int:
        return len(self.latencies.get(kind, []))

    def normalised(self, kind: str) -> list[float]:
        factor = self.calibration.factor
        return [s * factor(t, t + s) for t, s in self.latencies.get(kind, [])]

    def raw_seconds(self) -> float:
        return sum(s for values in self.latencies.values() for _, s in values)

    def busy_seconds(self, kinds: tuple[str, ...] = ("query", "update")) -> float:
        """Summed normalised latency of the given operation kinds."""
        return sum(sum(self.normalised(kind)) for kind in kinds)

    def rate(self, kinds: tuple[str, ...] = ("query", "update")) -> float:
        """Completed operations per normalised second of their summed latency."""
        return sum(self.samples(kind) for kind in kinds) / self.busy_seconds(kinds)

    def ms(self, kind: str, q: float) -> float:
        return 1e3 * percentile(self.normalised(kind), q)

    def p50_ms(self, kind: str) -> float:
        return 1e3 * median(self.normalised(kind))


def normalised_setup(seconds: list[tuple[float, float]], calibration: Calibration) -> float:
    """Median of the set-up repetitions ``(start, seconds)``, each normalised locally."""
    return median([s * calibration.factor(t, t + s) for t, s in seconds])


def calibrate(calibration: Calibration, samples: int = 3) -> None:
    """Kernel samples around a set-up repetition (set-up has no operation loop)."""
    for _ in range(samples):
        calibration.sample()


def phase_seconds(marks: dict[str, float]) -> dict[str, float]:
    """Wall seconds of each phase, from the ordered perf_counter marks."""
    marks = {**marks, "end": time.perf_counter()}
    names = list(marks)
    return {a: round(marks[b] - marks[a], 3) for a, b in zip(names, names[1:])}


def self_peak_rss_mb() -> float:
    """High-water resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mb(pid: int) -> float:
    """High-water resident set (``VmHWM``) of a live child process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def environment(root: Path) -> dict[str, Any]:
    """Interpreter and library versions, thread settings, git sha."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "thread_env": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
