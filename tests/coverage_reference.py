"""Reference clustered coverages for the tests, built outside the index.

NetClus picks its clustered coverage structure from ψ (a bitset index for
a binary ψ, a sparse index otherwise).  The tests check that choice
against structures built here from the same canonical ``≤ τ`` entries: a
dense :class:`~repro.core.coverage.CoverageIndex` (``inf`` wherever the
estimate exceeds τ — the paper's matrices) and, for a binary ψ, a
:meth:`~repro.core.coverage.SparseCoverageIndex.from_coverage_lists`
index.  Each is wrapped in a
:class:`~repro.core.netclus.ClusteredCoverage`, so it can be handed to
``index.query(prepared=...)`` or seeded into a coverage-cache part.
"""

from __future__ import annotations

import numpy as np

from repro.core.coverage import CoverageIndex, SparseCoverageIndex, canonical_entries
from repro.core.netclus import ClusteredCoverage


def reference_kinds(preference) -> tuple[str, ...]:
    """The references the ψ-chosen view is compared against."""
    return ("dense", "sparse") if preference.is_binary else ("dense",)


def views_for(preference) -> tuple[str, ...]:
    """``"chosen"`` (the index's own view) plus every reference kind."""
    return ("chosen", *reference_kinds(preference))


def answer_on(index, query, view, part=None):
    """``index.query`` on the ψ-chosen view or on a *view* reference.

    A reference is built from *part*'s entries when given (see
    :func:`reference_view`).
    """
    if view == "chosen":
        return index.query(query)
    reference = reference_view(index, query.tau_km, query.preference, view, part=part)
    return index.query(query, prepared=reference)


def cold_entries(index, tau_km):
    """``(rows, cols, estimates)`` computed cold: the canonical ``≤ τ``
    entries of the index's instance for τ."""
    instance = index.instance_for(tau_km)
    return canonical_entries(
        *instance.coverage_entries(index._trajectory_rows, tau_km), tau_km
    )


def reference_view(index, tau_km, preference, kind, part=None) -> ClusteredCoverage:
    """A ``"dense"`` or ``"sparse"`` view over the canonical entries.

    The entries are those of the coverage-cache *part* when given, else
    computed cold from the index's instance for τ; the columns are that
    instance's representatives.
    """
    if part is None:
        instance = index.instance_for(tau_km)
        rows, cols, estimates = cold_entries(index, tau_km)
    else:
        instance = next(i for i in index.instances if i.instance_id == part.instance_id)
        rows, cols, estimates = part.rows, part.cols, part.estimates
    rep_sites = instance.reps[instance.representative_clusters()]
    ids = index.trajectory_ids
    if kind == "dense":
        detours = np.full((len(ids), len(rep_sites)), np.inf)
        detours[rows, cols] = estimates
        coverage = CoverageIndex(
            detours, tau_km, preference, site_labels=rep_sites, trajectory_ids=ids
        )
    else:
        assert kind == "sparse", kind
        coverage = SparseCoverageIndex.from_coverage_lists(
            rows,
            cols,
            estimates,
            num_trajectories=len(ids),
            num_sites=len(rep_sites),
            tau_km=tau_km,
            preference=preference,
            site_labels=rep_sites,
            trajectory_ids=ids,
        )
    return ClusteredCoverage(instance, coverage, index_version=index.version)


def seed_reference_views(index, kind) -> int:
    """Replace every coverage-cache part's view with a *kind* reference.

    Returns the number of parts seeded; a service over *index* then
    answers every cached ``(τ, ψ)`` from the reference structures.
    """
    parts = list(index.coverage_cache.parts.values())
    for part in parts:
        part.view = reference_view(
            index, part.tau_km, part.preference_fn(), kind, part=part
        )
    return len(parts)
