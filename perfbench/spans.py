"""Span recorder for the traced run, and the per-layer metrics it yields.

Nothing under ``src/`` changes.  :meth:`Tracer.install` replaces each
public entry point listed in :func:`entry_points` where its callers look
it up (a class attribute, or a module global that a caller imported by
name) with a wrapper that records a span — name, start, end, parent — and
:meth:`Tracer.uninstall` puts the originals back.  Spans stay in memory;
the farm server child writes its spans to a JSON file when it exits.

A span's *self time* is its duration minus the durations of its direct
children (parents are tracked per thread).
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Callable

#: every per-layer metric of a traced run, with its unit (BENCHMARK.json
#: lists the same names); a layer a workload does not exercise reads 0
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("build.build_index_s", "s"),
    ("build.clustering_s", "s"),
    ("build.representatives_s", "s"),
    ("build.registration_s", "s"),
    ("build.neighbors_s", "s"),
    ("netclus.prepare_coverage_warm_ms", "ms"),
    ("netclus.prepare_coverage_cold_ms", "ms"),
    ("netclus.instance_for_ms", "ms"),
    ("netclus.remove_trajectories_ms", "ms"),
    ("netclus.add_trajectories_ms", "ms"),
    ("covcache.hits", "count"),
    ("covcache.misses", "count"),
    ("covcache.hit_ratio", "ratio"),
    ("covcache.begin_delta_ms", "ms"),
    ("covcache.finish_delta_ms", "ms"),
    ("covcache.patches", "count"),
    ("greedy.lazy_select_ms", "ms"),
    ("greedy.inc_select_ms", "ms"),
    ("greedy.runs", "count"),
    ("greedy.replay_ms", "ms"),
    ("kernel.marginal_gains_s", "s"),
    ("kernel.marginal_gain_s", "s"),
    ("kernel.absorb_s", "s"),
    ("kernel.gain_updates_s", "s"),
    ("placement.batch_query_self_ms", "ms"),
    ("placement.result_cache_hit_ratio", "ratio"),
    ("serialization.save_ms", "ms"),
    ("serialization.load_ms", "ms"),
    ("serialization.bytes_written", "bytes"),
    ("farm.loads", "count"),
    ("farm.evictions", "count"),
    ("farm.load_ms", "ms"),
    ("farm.write_through_ms", "ms"),
    ("server.self_ms", "ms"),
    ("server.failed", "count"),
    ("server.rejected", "count"),
    ("server.coalesced", "count"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead", "ratio"),
)

BUILD_STAGES = ("clustering", "representatives", "registration", "neighbors")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    #: a count a hook attaches (bytes written, parts patched, cache hit)
    value: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


# --------------------------------------------------------------------- #
# hooks: (before(args) -> state, after(span, args, state, result))
# --------------------------------------------------------------------- #
def _cache_hits_before(args: tuple) -> int | None:
    cache = args[0].coverage_cache
    return None if cache is None else cache.hits


def _warm_or_cold(span: Span, args: tuple, hits_before: int | None, result: Any) -> None:
    cache = args[0].coverage_cache
    warm = hits_before is not None and cache is not None and cache.hits > hits_before
    span.name += "_warm" if warm else "_cold"


def _lookup_hit(span: Span, args: tuple, state: Any, result: Any) -> None:
    span.value = 0.0 if result is None else 1.0


def _patches_before(args: tuple) -> int:
    return args[0].patches


def _patches_after(span: Span, args: tuple, before: int, result: Any) -> None:
    span.value = float(args[0].patches - before)


def _bytes_written(span: Span, args: tuple, state: Any, result: Any) -> None:
    span.value = float(sum(f.stat().st_size for f in Path(result).iterdir() if f.is_file()))


def entry_points() -> list[tuple[Any, str, str, tuple | None]]:
    """``(owner, attribute, span name, hooks)`` for every traced entry point."""
    from repro.core import build
    from repro.core.bitcov import BitsetCoverageIndex
    from repro.core.covcache import CoverageCache
    from repro.core.coverage import CoverageIndex, SparseCoverageIndex
    from repro.core.greedy import IncGreedy, LazyGreedy
    from repro.core.netclus import NetClusIndex
    from repro.service import placement
    from repro.service.farm import IndexFarm
    from repro.service.placement import PlacementService

    points: list[tuple[Any, str, str, tuple | None]] = [
        # NetClusIndex.build imports build_index from its module at call time
        (build, "build_index", "build.build_index", None),
        (NetClusIndex, "instance_for", "netclus.instance_for", None),
        (NetClusIndex, "prepare_coverage", "netclus.prepare_coverage",
         (_cache_hits_before, _warm_or_cold)),
        (NetClusIndex, "apply_updates", "netclus.apply_updates", None),
        (NetClusIndex, "remove_trajectories", "netclus.remove_trajectories", None),
        (NetClusIndex, "add_trajectories", "netclus.add_trajectories", None),
        (NetClusIndex, "remove_sites", "netclus.remove_sites", None),
        (NetClusIndex, "add_sites", "netclus.add_sites", None),
        (CoverageCache, "lookup", "covcache.lookup", (None, _lookup_hit)),
        (CoverageCache, "store_entries", "covcache.store_entries", None),
        (CoverageCache, "begin_delta", "covcache.begin_delta", None),
        (CoverageCache, "finish_delta", "covcache.finish_delta",
         (_patches_before, _patches_after)),
        (LazyGreedy, "select", "greedy.lazy_select", None),
        (IncGreedy, "select", "greedy.inc_select", None),
        (PlacementService, "batch_query", "placement.batch_query", None),
        (PlacementService, "apply_updates", "placement.apply_updates", None),
        (PlacementService, "from_path", "placement.from_path", None),
        # placement (and the farm through it) import these by name
        (placement, "load_index", "serialization.load_index", None),
        (placement, "save_index", "serialization.save_index", (None, _bytes_written)),
        (IndexFarm, "service", "farm.service", None),
        (IndexFarm, "batch_query", "farm.batch_query", None),
        (IndexFarm, "apply_updates", "farm.apply_updates", None),
    ]
    # prefix replay for smaller-k members of a shared greedy run
    for coverage_cls in (CoverageIndex, SparseCoverageIndex, BitsetCoverageIndex):
        points.append((coverage_cls, "utilities_for_selection", "greedy.replay", None))
    return points


class Tracer:
    """In-memory span recorder over the program's public entry points."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``{kernel: seconds}`` from the ``@kernel`` timers the service
        #: attaches (the values ``ServiceStats.stage_seconds`` reports)
        self.kernel_seconds: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._originals: list[tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------- #
    def install(self) -> None:
        """Wrap every entry point; kernel seconds restart from zero."""
        self.kernel_seconds = {}
        for owner, attribute, name, hooks in entry_points():
            self._wrap(owner, attribute, name, hooks)
        from repro.utils.timer import KernelTimer

        self._wrap_kernel_timer(KernelTimer)

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original, owned = self._originals.pop()
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "spans": [asdict(span) for span in self.spans],
                    "kernel_seconds": self.kernel_seconds,
                }
            )
        )

    @staticmethod
    def load(path: Path) -> tuple[list[Span], dict[str, float]]:
        payload = json.loads(path.read_text())
        return [Span(**span) for span in payload["spans"]], payload["kernel_seconds"]

    # ------------------------------------------------------------- #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, owner: Any, attribute: str, name: str, hooks: tuple | None) -> None:
        raw = inspect.getattr_static(owner, attribute)
        owned = inspect.ismodule(owner) or attribute in vars(owner)
        is_classmethod = isinstance(raw, classmethod)
        func: Callable = raw.__func__ if is_classmethod else raw
        before, after = hooks if hooks else (None, None)
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            state = before(args) if before is not None else None
            span = Span(name, 0.0, parent=stack[-1] if stack else -1)
            with tracer._lock:
                span_id = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(span_id)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                after(span, args, state, result)
            return result

        setattr(owner, attribute, classmethod(traced) if is_classmethod else traced)
        self._originals.append((owner, attribute, raw, owned))

    def _wrap_kernel_timer(self, timer_cls: type) -> None:
        original = timer_cls.record
        totals = self.kernel_seconds

        def record(timer: Any, name: str, seconds: float) -> None:
            totals[name] = totals.get(name, 0.0) + seconds
            original(timer, name, seconds)

        timer_cls.record = record
        self._originals.append((timer_cls, "record", original, True))


# --------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------- #
def rebased(spans: list[Span], start: int) -> list[Span]:
    """``spans[start:]`` with parents re-indexed (parents before *start* become roots)."""
    return [
        replace(span, parent=span.parent - start if span.parent >= start else -1)
        for span in spans[start:]
    ]


class SpanTable:
    """Durations, self times and hook values of a span list, by name."""

    def __init__(self, spans: list[Span]) -> None:
        child_seconds = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_seconds[span.parent] += span.seconds
        self.spans = spans
        self.self_seconds = [
            span.seconds - child for span, child in zip(spans, child_seconds)
        ]

    def named(self, name: str) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span.name == name]

    def count(self, name: str) -> int:
        return len(self.named(name))

    def mean_ms(self, name: str, self_time: bool = False) -> float:
        positions = self.named(name)
        if not positions:
            return 0.0
        source = self.self_seconds if self_time else [s.seconds for s in self.spans]
        return 1e3 * sum(source[i] for i in positions) / len(positions)

    def value_sum(self, name: str) -> float:
        return sum(self.spans[i].value for i in self.named(name))

    def top_level(self) -> list[Span]:
        return [span for span in self.spans if span.parent < 0]

    def write_through_ms(self) -> float:
        """Mean of ``IndexFarm.apply_updates`` minus its ``PlacementService.apply_updates``."""
        positions = self.named("farm.apply_updates")
        if not positions:
            return 0.0
        inner = {p: 0.0 for p in positions}
        for span in self.spans:
            if span.parent in inner and span.name == "placement.apply_updates":
                inner[span.parent] += span.seconds
        return 1e3 * sum(self.spans[p].seconds - inner[p] for p in positions) / len(positions)

    def farm_load_ms(self) -> tuple[int, float]:
        """Index loads the farm performed, and their mean milliseconds."""
        farm_calls = set(self.named("farm.service"))
        loads = [
            span.seconds
            for span in self.spans
            if span.name == "placement.from_path" and span.parent in farm_calls
        ]
        return len(loads), (1e3 * sum(loads) / len(loads) if loads else 0.0)


def layer_metrics(
    setup: SpanTable,
    loop: SpanTable,
    kernel_seconds: dict[str, float],
    *,
    setup_reps: int,
    build_stage_seconds: dict[str, float],
    result_cache_hit_ratio: float,
    farm_evictions: int,
    server: dict[str, float],
    unattributed_share: float,
    overhead: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` value of one traced run.

    *setup* holds the spans of all setup repetitions (build and
    serialization are set-up work on the in-process workloads); *loop*
    the spans of the traced operation block.  Build figures are per setup
    repetition; ``*_ms`` figures are means per call.
    """
    # serialization sits on the request path of the farm and in set-up elsewhere
    saves = loop if loop.count("serialization.save_index") else setup
    loads = loop if loop.count("serialization.load_index") else setup
    lookups = loop.count("covcache.lookup")
    hits = loop.value_sum("covcache.lookup")
    farm_loads, farm_load_ms = loop.farm_load_ms()
    metrics = {
        "build.build_index_s": sum(
            setup.spans[i].seconds for i in setup.named("build.build_index")
        ) / setup_reps,
        "netclus.prepare_coverage_warm_ms": loop.mean_ms("netclus.prepare_coverage_warm"),
        "netclus.prepare_coverage_cold_ms": loop.mean_ms("netclus.prepare_coverage_cold"),
        "netclus.instance_for_ms": loop.mean_ms("netclus.instance_for"),
        "netclus.remove_trajectories_ms": loop.mean_ms("netclus.remove_trajectories"),
        "netclus.add_trajectories_ms": loop.mean_ms("netclus.add_trajectories"),
        "covcache.hits": hits,
        "covcache.misses": lookups - hits,
        "covcache.hit_ratio": hits / lookups if lookups else 0.0,
        "covcache.begin_delta_ms": loop.mean_ms("covcache.begin_delta"),
        "covcache.finish_delta_ms": loop.mean_ms("covcache.finish_delta"),
        "covcache.patches": loop.value_sum("covcache.finish_delta"),
        "greedy.lazy_select_ms": loop.mean_ms("greedy.lazy_select"),
        "greedy.inc_select_ms": loop.mean_ms("greedy.inc_select"),
        "greedy.runs": loop.count("greedy.lazy_select") + loop.count("greedy.inc_select"),
        "greedy.replay_ms": loop.mean_ms("greedy.replay"),
        "placement.batch_query_self_ms": loop.mean_ms("placement.batch_query", self_time=True),
        "placement.result_cache_hit_ratio": result_cache_hit_ratio,
        "serialization.save_ms": saves.mean_ms("serialization.save_index"),
        "serialization.load_ms": loads.mean_ms("serialization.load_index"),
        "serialization.bytes_written": (
            saves.value_sum("serialization.save_index") / saves.count("serialization.save_index")
        ),
        "farm.loads": farm_loads,
        "farm.evictions": farm_evictions,
        "farm.load_ms": farm_load_ms,
        "farm.write_through_ms": loop.write_through_ms(),
        "server.self_ms": server.get("self_ms", 0.0),
        "server.failed": server.get("failed", 0),
        "server.rejected": server.get("rejected", 0),
        "server.coalesced": server.get("coalesced", 0),
        "trace.unattributed_share": unattributed_share,
        "trace.overhead": overhead,
    }
    for stage in BUILD_STAGES:
        metrics[f"build.{stage}_s"] = build_stage_seconds.get(stage, 0.0) / setup_reps
    for kernel in ("marginal_gains", "marginal_gain", "absorb", "gain_updates"):
        metrics[f"kernel.{kernel}_s"] = kernel_seconds.get(kernel, 0.0)
    return metrics
