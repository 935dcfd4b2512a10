"""Persistent, incrementally maintained coverage parts.

The placement service answers most reads from its cached greedy orders
(:class:`~repro.core.greedy.GreedyRun` prefixes), so coverage is read only
when a greedy step runs: the first selection for a ``(τ, ψ)`` key, or a
resume to a larger k. This module keeps the per-(τ, ψ) coverage as a
first-class artifact so that such a step or resume — also the first one
after an update — does not rebuild coverage cold:

* :class:`CoverageCache` — attached to a
  :class:`~repro.core.netclus.NetClusIndex` via
  :meth:`~repro.core.netclus.NetClusIndex.enable_coverage_cache` — holds one
  :class:`CoveragePart` per ``(τ, ψ-spec)`` key;
* each part stores the *canonical coverage entries* of the clustered space
  (the min-reduced, column-major sorted ``(row, column, d̂r ≤ τ)`` triples)
  and the :attr:`~repro.core.netclus.NetClusIndex.version` it is valid at;
  its columns are the representatives of its instance at that version
  (:meth:`~repro.core.netclus.NetClusInstance.representative_clusters`),
  so the part stores no layout of its own;
* each part keeps one *materialised view* over the canonical entries —
  the bitset index when ψ is binary, the sparse index otherwise (the
  ``"auto"`` rule of :func:`~repro.core.coverage.resolve_engine`) — built
  on demand by :func:`materialise_coverage`, the same builder a cold
  :meth:`~repro.core.netclus.NetClusIndex.prepare_coverage` uses;
* :meth:`CoverageCache.begin_delta` / :meth:`CoverageCache.finish_delta`
  bracket :meth:`~repro.core.netclus.NetClusIndex.apply_updates`: instead of
  invalidating, the parts are *patched* — only the trajectory rows and
  representative columns the :class:`~repro.core.netclus.UpdateBatch`
  touched are recomputed, once per instance for all the parts it backs
  (fact 4), and a previously materialised view is rebuilt from the
  patched entries so the next greedy step or resume does no
  coverage-build work.

Parity is the repo's standard bar — byte-identical coverage structures,
selections and per-trajectory utilities against a cold build — and rests
on four facts:

1. cold builds and cache hits materialise the view from the same
   canonical ≤ τ entries with the same function, so a warm view is the
   cold view;
2. patched entries come from the same kernel as the cold path
   (:meth:`~repro.core.netclus.NetClusInstance.coverage_entries`, the
   float expression ``(leg + center_distance) + rep_leg``), so they are
   bit-equal to freshly computed ones;
3. carried entries stay canonical through a patch (row compaction and
   the column remap are both monotone), the new entries' cells are
   disjoint from the carried ones, and ``min``-reduction over duplicate
   ``(row, column)`` pairs is associative — so canonicalising only the
   new entries and splicing them into the carried ones by cell key
   (:func:`splice_entries`) equals canonicalising the cold emission
   stream;
4. the touched entries of one instance, computed and canonicalised once
   at the largest τ among its parts and then cut to ``estimate ≤ τ`` per
   part, equal that part's own computation at its τ.  The kernel's only
   other use of τ is its ``center_distance ≤ τ`` pre-filter, and with
   non-negative legs ``(leg + center_distance) + rep_leg ≥
   center_distance`` holds in floating point too (rounding is monotone),
   so every pair the smaller τ skips yields only estimates above it.  A
   ``min``-reduction commutes with a threshold filter: a cell's smallest
   estimate is within τ exactly when some estimate is, and then it is
   the smallest of those within τ.  The index loader refuses negative
   or NaN legs, so the premise holds for every served index.

Parts are persisted in the index directory's payload blob (see
``docs/index-format.md``); a part whose recorded ``index_version`` no
longer matches the index is *refused* — dropped with a clean fallback to a
cold rebuild — never served stale.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.bitcov import BitsetCoverageIndex
from repro.core.coverage import (
    SparseCoverageIndex,
    canonical_entries,
    cell_keys,
    resolve_engine,
)
from repro.core.preference import PreferenceFunction, is_registered, make_preference
from repro.utils.concurrency import guarded_by, holds_lock
from repro.utils.timer import Timer
from repro.utils.validation import require

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (netclus imports us)
    from repro.core.netclus import (
        ClusteredCoverage,
        NetClusIndex,
        NetClusInstance,
        UpdateBatch,
    )

__all__ = [
    "CoverageCache",
    "CoveragePart",
    "coverage_cache_key",
    "canonical_entries",
    "materialise_coverage",
    "splice_entries",
]

#: default maximum number of (τ, ψ) parts kept (least recently used wins)
DEFAULT_PART_LIMIT = 8


def coverage_cache_key(
    tau_km: float, preference: PreferenceFunction
) -> tuple[float, str, tuple[tuple[str, float], ...]] | None:
    """The cache key of one ``(τ, ψ)`` pair, or ``None`` if not cacheable.

    Only registered preferences can be keyed (and persisted): an
    unregistered ψ subclass cannot be named in a manifest, so it bypasses
    the cache entirely rather than aliasing a registered one.
    """
    if not is_registered(preference):
        return None
    name, params = preference.spec()
    return (
        float(tau_km),
        str(name),
        tuple(sorted((str(k), float(v)) for k, v in params.items())),
    )


@dataclass
class CoveragePart:
    """Canonical coverage entries of one ``(τ, ψ)`` pair + its materialised view.

    The triple arrays are always in canonical form (see
    :func:`canonical_entries`); ``view`` is the ready-to-query
    :class:`~repro.core.netclus.ClusteredCoverage` built over them, or
    ``None`` until a lookup materialises it.  ``index_version`` is the
    :attr:`~repro.core.netclus.NetClusIndex.version` the entries are valid
    at — a mismatch means the part must be refused, never served.  Column
    ``j`` is the ``j``-th cluster with a representative in instance
    ``instance_id`` at that version.
    """

    tau_km: float
    preference_name: str
    preference_params: tuple[tuple[str, float], ...]
    instance_id: int
    index_version: int
    num_trajectories: int
    rows: np.ndarray
    cols: np.ndarray
    estimates: np.ndarray
    view: "ClusteredCoverage | None" = field(default=None, repr=False)

    @property
    def num_entries(self) -> int:
        """Number of canonical ``(row, column)`` coverage entries."""
        return int(len(self.rows))

    def preference_fn(self) -> PreferenceFunction:
        """Instantiate the part's ψ from its registered spec."""
        return make_preference(self.preference_name, **dict(self.preference_params))

    def describe(self) -> dict[str, Any]:
        """JSON-able summary (manifest ``coverage_parts`` entries, inspect)."""
        return {
            "tau_km": self.tau_km,
            "preference": self.preference_name,
            "preference_params": dict(self.preference_params),
            "instance_id": self.instance_id,
            "index_version": self.index_version,
            "num_trajectories": self.num_trajectories,
            "num_entries": self.num_entries,
        }


@dataclass
class _DeltaProbe:
    """Pre-mutation snapshot :meth:`CoverageCache.begin_delta` captures."""

    version_before: int
    #: pre-batch registry row → post-batch row (``-1``: removed)
    row_map: np.ndarray
    #: how many rows the batch removes
    num_removed: int
    #: per instance id (only those backing live parts): copies of the
    #: instance's ``(reps, rep_rt)`` arrays
    rep_state: dict[int, tuple[np.ndarray, np.ndarray]]


@dataclass
class _InstanceDelta:
    """What one batch changed in one instance, shared by the parts it backs."""

    #: pre-batch column → post-batch column (``-1``: recomputed or gone)
    old_to_new: np.ndarray
    #: canonical entries of the recomputed columns and the added rows, at
    #: the largest τ among the instance's parts
    entries: tuple[np.ndarray, np.ndarray, np.ndarray]


@guarded_by(
    "_lock",
    "parts",
    "hits",
    "misses",
    "stores",
    "patches",
    "invalidations",
    "materialisations",
    "patch_seconds",
    "materialise_seconds",
    "limit",
)
class CoverageCache:
    """LRU cache of :class:`CoveragePart` objects, keyed by ``(τ, ψ-spec)``.

    Thread-safe: lookups, stores and delta patches serialise on an internal
    lock (the placement service's read/write lock already orders updates
    against queries; the internal lock additionally protects concurrent
    ``batch_query`` threads warming different keys).  Deep copies carry the
    canonical entries but drop materialised views — a copied index
    re-materialises lazily, with fresh locks.
    """

    def __init__(self, limit: int = DEFAULT_PART_LIMIT) -> None:
        require(int(limit) >= 1, "coverage cache limit must be >= 1")
        self.limit = int(limit)
        self.parts: OrderedDict[tuple, CoveragePart] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.patches = 0
        self.invalidations = 0
        self.materialisations = 0
        self.patch_seconds = 0.0
        self.materialise_seconds = 0.0

    def resize(self, limit: int) -> None:
        """Change the LRU part budget, evicting oldest parts if shrinking."""
        require(int(limit) >= 1, "coverage cache limit must be >= 1")
        with self._lock:
            self.limit = int(limit)
            while len(self.parts) > self.limit:
                self.parts.popitem(last=False)

    # ------------------------------------------------------------------ #
    # lookup / store
    # ------------------------------------------------------------------ #
    def peek(
        self,
        index: "NetClusIndex",
        tau_km: float,
        preference: PreferenceFunction,
    ) -> bool:
        """Whether a current-version part exists for ``(τ, ψ)`` (no counters)."""
        key = coverage_cache_key(tau_km, preference)
        if key is None:
            return False
        with self._lock:
            part = self.parts.get(key)
            return part is not None and part.index_version == index.version

    def lookup(
        self,
        index: "NetClusIndex",
        tau_km: float,
        preference: PreferenceFunction,
    ) -> "ClusteredCoverage | None":
        """Return a warm :class:`ClusteredCoverage` for ``(τ, ψ)``, or ``None``.

        A part bound to a stale ``index_version`` is *refused*: dropped
        (counted as an invalidation) and reported as a miss, so the caller
        falls back to a cold build — which re-stores fresh entries.
        Materialises the part's view on demand from the canonical
        entries; a materialisation is still a *hit* (no
        cluster-space recomputation happens), its cost is tracked
        separately in :attr:`materialise_seconds`.
        """
        key = coverage_cache_key(tau_km, preference)
        if key is None:
            return None
        with self._lock:
            part = self.parts.get(key)
            if part is None:
                self.misses += 1
                return None
            if part.index_version != index.version:
                del self.parts[key]
                self.invalidations += 1
                self.misses += 1
                return None
            self.parts.move_to_end(key)
            if part.view is None:
                part.view = self._materialise(index, part)
            self.hits += 1
            return part.view

    def store_entries(
        self,
        index: "NetClusIndex",
        tau_km: float,
        preference: PreferenceFunction,
        rows: np.ndarray,
        cols: np.ndarray,
        estimates: np.ndarray,
        instance_id: int,
        prepared: "ClusteredCoverage | None" = None,
    ) -> CoveragePart | None:
        """Store freshly computed coverage entries for ``(τ, ψ)``.

        Called from the cold path of
        :meth:`~repro.core.netclus.NetClusIndex.prepare_coverage` with
        entries already in canonical form (:func:`canonical_entries`);
        *prepared* optionally seeds the part's view so the structure just
        built is served back warm.
        """
        key = coverage_cache_key(tau_km, preference)
        if key is None:
            return None
        part = CoveragePart(
            tau_km=float(tau_km),
            preference_name=key[1],
            preference_params=key[2],
            instance_id=int(instance_id),
            index_version=index.version,
            num_trajectories=len(index.trajectory_ids),
            rows=rows,
            cols=cols,
            estimates=estimates,
            view=prepared,
        )
        with self._lock:
            self.parts[key] = part
            self.parts.move_to_end(key)
            self.stores += 1
            while len(self.parts) > self.limit:
                self.parts.popitem(last=False)
        return part

    def attach_part(self, key: tuple, part: CoveragePart) -> None:
        """Attach a part loaded from an index directory without counting a store."""
        with self._lock:
            self.parts[key] = part
            self.parts.move_to_end(key)
            while len(self.parts) > self.limit:
                self.parts.popitem(last=False)

    def drop(self, key: tuple) -> None:
        """Remove one part (refusal path)."""
        with self._lock:
            if self.parts.pop(key, None) is not None:
                self.invalidations += 1

    def clear(self) -> None:
        """Drop every part."""
        with self._lock:
            self.parts.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self.parts)

    # ------------------------------------------------------------------ #
    # incremental maintenance
    # ------------------------------------------------------------------ #
    def begin_delta(
        self, index: "NetClusIndex", batch: "UpdateBatch"
    ) -> _DeltaProbe | None:
        """Snapshot the pre-mutation state :meth:`finish_delta` diffs against.

        Called by :meth:`NetClusIndex.apply_updates` after batch validation
        and before any sub-batch mutates.  Returns ``None`` when there is
        nothing to maintain.
        """
        with self._lock:
            if not self.parts:
                return None
            instance_ids = {part.instance_id for part in self.parts.values()}
        removed = np.zeros(len(index._trajectory_rows), dtype=bool)
        removed[[index._trajectory_rows[t] for t in batch.remove_trajectories]] = True
        # a kept row moves down by the number of removed rows before it
        row_map = np.cumsum(~removed, dtype=np.int64) - 1
        row_map[removed] = -1
        rep_state = {
            instance.instance_id: (instance.reps.copy(), instance.rep_rt.copy())
            for instance in index.instances
            if instance.instance_id in instance_ids
        }
        return _DeltaProbe(
            version_before=index.version,
            row_map=row_map,
            num_removed=len(batch.remove_trajectories),
            rep_state=rep_state,
        )

    def finish_delta(
        self, index: "NetClusIndex", batch: "UpdateBatch", probe: _DeltaProbe | None
    ) -> int:
        """Patch every current part after the batch mutated the index.

        The touched entries are computed once per instance, not once per
        part (fact 4 of the module docstring): :meth:`_instance_delta` runs
        the representative diff and the ``coverage_entries`` calls at the
        largest τ among the instance's live parts and canonicalises the
        result, and each part then keeps the ``estimate ≤ τ`` share of it
        (:meth:`_patch_part`).  Parts that were already stale when the batch
        started are refused (dropped); a part whose patch fails for any
        reason is likewise dropped — an instance delta that fails drops
        the parts it backs — so the fallback is always a clean cold
        rebuild, never a possibly-wrong warm answer.  A previously
        materialised view is rebuilt immediately from the patched entries
        ("query-ready maintenance": the cost lands on the update, and the
        next query at the key does zero coverage work).  Returns the number
        of parts patched.
        """
        if probe is None:
            return 0
        with self._lock:
            by_instance: dict[int, list[tuple[tuple, CoveragePart]]] = {}
            for key, part in list(self.parts.items()):
                if part.index_version != probe.version_before:
                    del self.parts[key]
                    self.invalidations += 1
                    continue
                by_instance.setdefault(part.instance_id, []).append((key, part))
            patched = 0
            for instance_id, members in by_instance.items():
                try:
                    with Timer() as delta_timer:
                        delta = self._instance_delta(
                            index,
                            batch,
                            probe,
                            instance_id,
                            max(part.tau_km for _, part in members),
                        )
                except Exception:
                    for key, _ in members:
                        self.parts.pop(key, None)
                        self.invalidations += 1
                    continue
                self.patch_seconds += delta_timer.elapsed
                for key, part in members:
                    try:
                        with Timer() as patch_timer:
                            self._patch_part(index, part, batch, probe, delta)
                            part.index_version = index.version
                        # timed by _materialise into materialise_seconds
                        if part.view is not None:
                            part.view = self._materialise(index, part)
                    except Exception:
                        self.parts.pop(key, None)
                        self.invalidations += 1
                        continue
                    self.patches += 1
                    self.patch_seconds += patch_timer.elapsed
                    patched += 1
            return patched

    @holds_lock("_lock")
    def _instance_delta(
        self,
        index: "NetClusIndex",
        batch: "UpdateBatch",
        probe: _DeltaProbe,
        instance_id: int,
        tau_km: float,
    ) -> _InstanceDelta:
        """The batch's effect on one instance, shared by every part it backs.

        1. diff the instance's representative state — carried columns keep
           their entries (column positions remapped by ``old_to_new``),
           columns whose ``(representative, round_trip)`` changed (or
           appeared) are recomputed over the full post-batch registry;
        2. compute entries of the *added* trajectories against the carried
           columns (the recomputed ones already include them);
        3. canonicalise both at *tau_km*, the largest τ of the parts.
        """
        instance = _instance_of(index, instance_id)
        old_reps, old_rep_rt = probe.rep_state[instance_id]
        has_rep = instance.reps >= 0
        changed = (old_reps != instance.reps) | (has_rep & (old_rep_rt != instance.rep_rt))
        new_rep_clusters = np.flatnonzero(has_rep)
        new_position = np.full(len(has_rep), -1, dtype=np.int64)
        new_position[new_rep_clusters] = np.arange(len(new_rep_clusters))
        new_position[changed] = -1
        old_to_new = new_position[np.flatnonzero(old_reps >= 0)]

        new: list[tuple[np.ndarray, ...]] = []
        registry = index._trajectory_rows
        recompute = np.flatnonzero(changed & has_rep)
        if len(recompute):
            new.append(instance.coverage_entries(registry, tau_km, recompute))
        if batch.add_trajectories:
            subset = {
                trajectory.traj_id: registry[trajectory.traj_id]
                for trajectory in batch.add_trajectories
            }
            carried = np.flatnonzero(~changed & has_rep)
            new.append(instance.coverage_entries(subset, tau_km, carried))
        if not new:
            return _InstanceDelta(
                old_to_new, (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
            )
        entries = canonical_entries(*(np.concatenate(arrays) for arrays in zip(*new)), tau_km)
        return _InstanceDelta(old_to_new, entries)

    @holds_lock("_lock")
    def _patch_part(
        self,
        index: "NetClusIndex",
        part: CoveragePart,
        batch: "UpdateBatch",
        probe: _DeltaProbe,
        delta: _InstanceDelta,
    ) -> None:
        """Patch one part in place to the post-batch index state.

        One gather remaps the carried entries — ``row_map[rows]`` drops the
        removed trajectories and compacts the survivors, ``old_to_new[cols]``
        drops the recomputed columns and renumbers the rest, under a single
        keep mask — and the instance delta's entries within the part's τ
        are spliced in (:func:`splice_entries`).  Both maps are monotone on
        what they keep, so the carried entries stay canonical, and the new
        entries cover cells the carried ones do not (recomputed columns,
        added rows), so no re-sort of the whole part is needed.
        """
        registry = index._trajectory_rows
        row_map = probe.row_map
        require(
            part.num_trajectories == len(row_map)
            and len(row_map) - probe.num_removed + len(batch.add_trajectories)
            == len(registry),
            "coverage patch lost track of the registry size "
            f"({part.num_trajectories} rows before, {len(registry)} after)",
        )
        rows = row_map[part.rows]
        cols = delta.old_to_new[part.cols]
        keep = (rows >= 0) & (cols >= 0)
        new_rows, new_cols, new_estimates = delta.entries
        within = new_estimates <= part.tau_km
        part.rows, part.cols, part.estimates = splice_entries(
            (rows[keep], cols[keep], part.estimates[keep]),
            (new_rows[within], new_cols[within], new_estimates[within]),
            len(registry) + 1,
        )
        part.num_trajectories = len(registry)

    # ------------------------------------------------------------------ #
    # materialisation
    # ------------------------------------------------------------------ #
    @holds_lock("_lock")
    def _materialise(
        self,
        index: "NetClusIndex",
        part: CoveragePart,
    ) -> "ClusteredCoverage":
        """Build the view over the part's canonical entries."""
        require(
            part.num_trajectories == len(index.trajectory_ids),
            "coverage part registry size does not match the index",
        )
        with Timer() as timer:
            view = materialise_coverage(
                index,
                part.tau_km,
                part.preference_fn(),
                part.rows,
                part.cols,
                part.estimates,
                part.instance_id,
            )
        self.materialisations += 1
        self.materialise_seconds += timer.elapsed
        return view

    # ------------------------------------------------------------------ #
    # reporting / copying
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, int | float]:
        """Counter snapshot (metrics endpoint, CLI ``inspect``)."""
        with self._lock:
            return {
                "parts": len(self.parts),
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "patches": self.patches,
                "invalidations": self.invalidations,
                "materialisations": self.materialisations,
                "patch_seconds": self.patch_seconds,
                "materialise_seconds": self.materialise_seconds,
            }

    def describe_parts(self) -> list[dict[str, Any]]:
        """JSON-able part summaries, in LRU order (oldest first)."""
        with self._lock:
            return [part.describe() for part in self.parts.values()]

    @holds_lock("_lock")
    def _parts_without_views(self, copy_arrays: bool) -> "OrderedDict[tuple, CoveragePart]":
        """The parts, in LRU order, each with its view dropped (views hold
        the index and rebuild on demand); *copy_arrays* also copies the
        entries."""
        parts: OrderedDict[tuple, CoveragePart] = OrderedDict()
        for key, part in self.parts.items():
            parts[key] = (
                replace(
                    part,
                    view=None,
                    rows=part.rows.copy(),
                    cols=part.cols.copy(),
                    estimates=part.estimates.copy(),
                )
                if copy_arrays
                else replace(part, view=None)
            )
        return parts

    def __deepcopy__(self, memo: dict) -> "CoverageCache":
        with self._lock:
            clone = CoverageCache(limit=self.limit)
            clone.parts = self._parts_without_views(copy_arrays=True)
        return clone

    def __getstate__(self) -> dict:
        # snapshot under the lock: a concurrent store_entries/finish_delta
        # must not mutate `parts` while pickling walks it
        with self._lock:
            state = self.__dict__.copy()
            state["_lock"] = None
            state["parts"] = self._parts_without_views(copy_arrays=False)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()


def materialise_coverage(
    index: "NetClusIndex",
    tau_km: float,
    preference: PreferenceFunction,
    rows: np.ndarray,
    cols: np.ndarray,
    estimates: np.ndarray,
    instance_id: int,
    instance: "NetClusInstance | None" = None,
) -> "ClusteredCoverage":
    """The :class:`~repro.core.netclus.ClusteredCoverage` over canonical
    entries — the single view builder of cold builds and cache hits.

    ψ picks the structure (:func:`~repro.core.coverage.resolve_engine`'s
    ``"auto"`` rule): a binary ψ packs the entries into a
    :class:`~repro.core.bitcov.BitsetCoverageIndex`, any other ψ keeps them
    as they are in a :class:`~repro.core.coverage.SparseCoverageIndex`.
    Both give the same selections and per-trajectory utilities.
    *instance* defaults to the index's instance with id *instance_id*; the
    columns are its representatives as they stand, so call this only at
    the index version the entries were computed at.
    """
    from repro.core.netclus import ClusteredCoverage

    trajectory_ids = index.trajectory_ids
    if instance is None:
        instance = _instance_of(index, instance_id)
    rep_sites = instance.reps[instance.representative_clusters()]
    coverage: SparseCoverageIndex | BitsetCoverageIndex
    if resolve_engine("auto", preference) == "bitset":
        coverage = BitsetCoverageIndex.from_coverage_lists(
            rows,
            cols,
            estimates,
            num_trajectories=len(trajectory_ids),
            num_sites=len(rep_sites),
            tau_km=tau_km,
            preference=preference,
            site_labels=rep_sites,
            trajectory_ids=trajectory_ids,
        )
    else:
        coverage = SparseCoverageIndex.from_coverage_lists(
            rows,
            cols,
            estimates,
            num_trajectories=len(trajectory_ids),
            num_sites=len(rep_sites),
            tau_km=tau_km,
            preference=preference,
            site_labels=rep_sites,
            trajectory_ids=trajectory_ids,
            canonical=True,
        )
    return ClusteredCoverage(instance=instance, coverage=coverage, index_version=index.version)


def splice_entries(
    carried: tuple[np.ndarray, np.ndarray, np.ndarray],
    new: tuple[np.ndarray, np.ndarray, np.ndarray],
    width: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge canonical *new* coverage triples into canonical *carried* ones.

    Both sides must be canonical (:func:`canonical_entries`) and no new
    cell may be a carried cell; every row must be below *width*.  The new
    triples are inserted at the positions one ``np.searchsorted`` on the
    :func:`~repro.core.coverage.cell_keys` of both sides gives, so the
    result equals ``canonical_entries`` of the concatenation byte for byte
    at the cost of one pass over the carried entries instead of a sort.
    A new cell that collides with a carried one is refused
    (``ValueError``), never merged silently.
    """
    rows, cols, estimates = carried
    new_rows, new_cols, new_estimates = new
    if not len(new_rows):
        return rows, cols, estimates
    carried_keys = cell_keys(rows, cols, width)
    new_keys = cell_keys(new_rows, new_cols, width)
    at = np.searchsorted(carried_keys, new_keys)
    inside = at < len(carried_keys)
    require(
        not np.any(carried_keys[at[inside]] == new_keys[inside]),
        "new coverage entries overlap carried cells",
    )
    return (
        np.insert(rows, at, new_rows),
        np.insert(cols, at, new_cols),
        np.insert(estimates, at, new_estimates),
    )


def _instance_of(index: "NetClusIndex", instance_id: int) -> "NetClusInstance":
    """The live index instance with the given id (refuse if gone)."""
    for instance in index.instances:
        if instance.instance_id == instance_id:
            return instance
    raise KeyError(f"index has no instance {instance_id}")
