#!/usr/bin/env python3
"""The repository's benchmark: ``query``, ``update`` and ``farm_http`` workloads.

Run from the repository root::

    python3 perfbench/run.py --workload query --seed 1 --seconds 10 --trace 0

Each workload is a single-client closed loop over a fixed operation
sequence on city data drawn from ``--seed``.  The command prints every metric with its
unit, then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics and ``--trace 1`` the per-layer metrics of a separate
traced run.  Every run checks the answers it was given.  The exit status
is 1 on a mismatch or a failed operation, and 2 when the program's
sources (``src/repro``) are missing.

Per-run records (seed, counts, input sizes, environment) are appended to
``.perfbench/runs.jsonl``.  A run whose counts differ from an earlier run
of the same workload and seed is flagged there and on standard output.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("query", "update", "farm_http")
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("update_p75_ms", "ms"),
    ("utility_ratio", "ratio"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(options: argparse.Namespace, workdir: Path) -> dict[str, Any]:
    trace = bool(options.trace)
    if options.workload == "farm_http":
        import farm_http

        return farm_http.run(options.seed, options.seconds, trace, workdir)
    import inprocess

    return inprocess.run(options.workload, options.seed, options.seconds, trace, workdir)


def check_determinism(log: Path, record: dict[str, Any]) -> bool:
    """Whether the counts equal those of every earlier run of this code, workload and seed."""
    if not log.exists():
        return True
    for line in log.read_text().splitlines():
        earlier = json.loads(line)
        if (
            earlier["workload"] == record["workload"]
            and earlier["seed"] == record["seed"]
            and earlier.get("code") == record["code"]
            and earlier["counts"] != record["counts"]
        ):
            return False
    return True


def main(argv: list[str] | None = None) -> int:
    options = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program's sources are missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    # one CPU for the benchmark and the farm server child, so the reference
    # kernel times the CPU the program runs on; one BLAS thread to match
    # (set before NumPy loads; the server child inherits both)
    usable_cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {usable_cpus[-1]})
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"
    from inputs import RECORDS, SRC, source_hash
    from measure import environment
    from spans import PER_LAYER

    RECORDS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{options.workload}-", dir=RECORDS))
    try:
        outcome = run_workload(options, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = dict(PER_LAYER if options.trace else END_TO_END)
    metrics = outcome["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    log = outcome["log"]
    attempted = sum(log.attempted.values())
    failed = sum(log.failed.values())
    correct = outcome["mismatches"] == 0 and failed == 0

    record = {
        "workload": options.workload,
        "seed": options.seed,
        "trace": options.trace,
        "code": source_hash((SRC, HERE)),
        "seconds": options.seconds,
        "counts": outcome["counts"],
        "samples": {kind: len(values) for kind, values in log.latencies.items()},
        "attempted": dict(log.attempted),
        "failed": dict(log.failed),
        "checked": outcome["checked"],
        "mismatches": outcome["mismatches"],
        "setup_seconds": outcome["setup_seconds"],
        "speed_factors": outcome["speed_factors"],
        "wall_seconds": outcome["wall_seconds"],
        "inputs": outcome["inputs"],
        "settings": outcome["settings"],
        "environment": {
            **environment(ROOT), "usable_cpus": len(usable_cpus), "pinned_cpu": usable_cpus[-1]
        },
        "metrics": metrics,
    }
    deterministic = check_determinism(RECORDS / "runs.jsonl", record)
    record["counts_match_earlier_runs"] = deterministic
    with (RECORDS / "runs.jsonl").open("a") as handle:
        handle.write(json.dumps(record) + "\n")

    print(f"workload {options.workload}  seed {options.seed}  trace {options.trace}")
    for name, unit in (PER_LAYER if options.trace else END_TO_END):
        print(f"  {name:36s} {metrics[name]:14.6g} {unit}")
    for kind in log.attempted:
        print(
            f"  {kind}: attempted {log.attempted[kind]}, failed {log.failed.get(kind, 0)}, "
            f"timed samples {len(log.latencies.get(kind, []))}"
        )
    print(f"  correctness: {outcome['checked']} answers compared, "
          f"{outcome['mismatches']} mismatches")
    print(f"  counts: {json.dumps(outcome['counts'], sort_keys=True)}")
    if not deterministic:
        print("  DETERMINISM: counts differ from an earlier run of this workload and seed")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
