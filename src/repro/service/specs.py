"""Query specifications for the placement service.

:class:`QuerySpec` is the serialisable, hashable description of one placement
request — what a row of a batch file, a cache key, and a
:class:`~repro.core.query.TOPSQuery` have in common.  It extends the paper's
``(k, τ, ψ)`` with the service-level knobs of Section 7: a uniform per-site
``capacity`` (TOPS-CAPACITY), a ``budget``/``site_cost`` pair (TOPS-COST with
uniform costs), and ``existing_sites`` (TOPS with existing services).

Being a frozen dataclass of primitives, a spec is hashable (its
``selection_key`` keys the service's order cache) and round-trips through
JSON/CSV (:meth:`QuerySpec.to_dict` / :meth:`QuerySpec.from_dict`), which
is what the ``python -m repro.service query`` CLI reads.
:func:`update_batch_from_dict` is the matching parser for update deltas
(``POST /update`` and the ``update`` CLI).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.netclus import UpdateBatch
from repro.core.preference import PreferenceFunction, make_preference
from repro.core.query import TOPSQuery
from repro.network.graph import RoadNetwork
from repro.trajectory.model import Trajectory
from repro.utils.validation import require, require_positive

__all__ = ["QuerySpec", "update_batch_from_dict"]


@dataclass(frozen=True)
class QuerySpec:
    """One placement request against a :class:`~repro.service.PlacementService`.

    Attributes
    ----------
    k:
        Number of sites to select.
    tau_km:
        Coverage threshold τ in kilometres.
    preference:
        Registry name of the preference function ψ (``"binary"``,
        ``"linear"``, ``"exponential"``, ``"convex"``, ``"inconvenience"``).
    preference_params:
        Constructor parameters of ψ as a sorted tuple of ``(name, value)``
        pairs — kept as a tuple so the spec stays hashable.
    capacity:
        Optional uniform per-site capacity (max trajectories one site may
        serve; TOPS-CAPACITY, Section 7.2).
    budget:
        Optional total cost budget (TOPS-COST, Section 7.1).  When set, the
        service runs the budgeted greedy and ``k`` is ignored.
    site_cost:
        Uniform per-site cost used with *budget* (default 1.0 — the budget
        then caps the number of sites).
    existing_sites:
        Node ids of already-operating services (Section 7.3).
    """

    k: int
    tau_km: float
    preference: str = "binary"
    preference_params: tuple[tuple[str, float], ...] = ()
    capacity: int | None = None
    budget: float | None = None
    site_cost: float = 1.0
    existing_sites: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        require(
            isinstance(self.k, numbers.Integral) and not isinstance(self.k, bool),
            f"k must be an integer, got {self.k!r}",
        )
        require_positive(self.k, "k")
        _require_finite_positive(self.tau_km, "tau_km")
        _require_finite_positive(self.site_cost, "site_cost")
        if self.capacity is not None:
            require(self.capacity >= 0, "capacity must be non-negative")
        if self.budget is not None:
            _require_finite_positive(self.budget, "budget")
            require(
                self.capacity is None,
                "budget and capacity cannot be combined in one spec",
            )
            require(
                not self.existing_sites,
                "budgeted specs do not support existing_sites",
            )
        # normalise mutable/unsorted inputs so equal specs hash equally
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(
            self,
            "preference_params",
            tuple(sorted((str(k), float(v)) for k, v in self.preference_params)),
        )
        object.__setattr__(
            self, "existing_sites", tuple(int(s) for s in self.existing_sites)
        )
        # fail fast on unknown preference names / bad params
        self.preference_fn()

    # ------------------------------------------------------------------ #
    def preference_fn(self) -> PreferenceFunction:
        """Instantiate the preference function ψ this spec names."""
        return make_preference(self.preference, **dict(self.preference_params))

    def to_query(self) -> TOPSQuery:
        """The plain ``(k, τ, ψ)`` TOPS query of this spec."""
        return TOPSQuery(k=self.k, tau_km=self.tau_km, preference=self.preference_fn())

    @classmethod
    def from_query(cls, query: TOPSQuery, **extras: Any) -> "QuerySpec":
        """Wrap a :class:`TOPSQuery` (capacity/budget/... via *extras*)."""
        name, params = query.preference.spec()
        return cls(
            k=query.k,
            tau_km=query.tau_km,
            preference=name,
            preference_params=tuple(sorted(params.items())),
            **extras,
        )

    # ------------------------------------------------------------------ #
    # grouping keys used by PlacementService.batch_query
    # ------------------------------------------------------------------ #
    @property
    def coverage_key(self) -> tuple:
        """Key identifying the coverage structures the spec needs: (τ, ψ)."""
        return (self.tau_km, self.preference, self.preference_params)

    @property
    def selection_key(self) -> tuple:
        """Key identifying a shareable greedy run: coverage + everything but k.

        Specs equal under this key differ only in ``k``; the greedy run at
        the largest k answers all of them (a greedy selection for k is a
        prefix of the selection for any larger k).  Budgeted specs never
        share runs (the budget changes the selection rule), so their key
        includes the budget.
        """
        return self.coverage_key + (
            self.capacity,
            self.budget,
            self.site_cost if self.budget is not None else None,
            self.existing_sites,
        )

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        payload: dict[str, Any] = {"k": self.k, "tau_km": self.tau_km}
        if self.preference != "binary" or self.preference_params:
            payload["preference"] = self.preference
        if self.preference_params:
            payload["preference_params"] = dict(self.preference_params)
        if self.capacity is not None:
            payload["capacity"] = self.capacity
        if self.budget is not None:
            payload["budget"] = self.budget
            if self.site_cost != 1.0:
                payload["site_cost"] = self.site_cost
        if self.existing_sites:
            payload["existing_sites"] = list(self.existing_sites)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QuerySpec":
        """Build a spec from a JSON object / CSV row dict.

        Recognised keys: ``k``, ``tau_km``, ``preference``,
        ``preference_params`` (object), ``capacity``, ``budget``,
        ``site_cost``, ``existing_sites`` (list).  Unknown keys raise, so a
        typo in a batch file fails loudly instead of being ignored.  ``k``,
        ``capacity`` must be integral (``3``, ``3.0`` or the CSV string
        ``"3"``; never ``2.5`` or a bool), ``existing_sites`` a list of
        integral JSON numbers, and τ, budget and site cost finite, positive
        numbers.
        """
        known = {
            "k",
            "tau_km",
            "preference",
            "preference_params",
            "capacity",
            "budget",
            "site_cost",
            "existing_sites",
        }
        unknown = set(payload) - known
        require(not unknown, f"unknown QuerySpec fields: {sorted(unknown)}")
        require("k" in payload and "tau_km" in payload, "a spec needs k and tau_km")
        params = payload.get("preference_params", {})
        capacity = payload.get("capacity")
        budget = payload.get("budget")
        return cls(
            k=_integral(payload["k"], "k"),
            tau_km=_number(payload["tau_km"], "tau_km"),
            preference=str(payload.get("preference", "binary")),
            preference_params=tuple(sorted((str(k), float(v)) for k, v in params.items())),
            capacity=None if capacity is None else _integral(capacity, "capacity"),
            budget=None if budget is None else _number(budget, "budget"),
            site_cost=_number(payload.get("site_cost", 1.0), "site_cost"),
            existing_sites=tuple(_ids(payload.get("existing_sites", []), "existing_sites")),
        )


def update_batch_from_dict(payload: Any, network: RoadNetwork) -> UpdateBatch:
    """Build an :class:`~repro.core.netclus.UpdateBatch` from a JSON delta.

    Keys: ``add_trajectories`` (``{"traj_id": ..., "nodes": [...]}``
    objects; nodes must follow edges of *network*), ``remove_trajectories``,
    ``add_sites``, ``remove_sites``.  Every id must be an integral JSON
    number and every id list a list of them; anything else, and an empty
    delta, raises ``ValueError``.
    """
    require(isinstance(payload, Mapping), "expected a JSON object with update-delta keys")
    known = {"add_trajectories", "remove_trajectories", "add_sites", "remove_sites"}
    unknown = set(payload) - known
    require(not unknown, f"unknown update fields: {sorted(unknown)}")
    require(any(payload.get(key) for key in known), "empty update: no delta keys given")
    entries = payload.get("add_trajectories", [])
    require(isinstance(entries, list), f"add_trajectories must be a list, got {entries!r}")
    add_trajectories: list[Trajectory] = []
    for entry in entries:
        require(
            isinstance(entry, Mapping) and {"traj_id", "nodes"} <= entry.keys(),
            "each added trajectory needs 'traj_id' and 'nodes'",
        )
        add_trajectories.append(
            Trajectory.from_nodes(
                _id(entry["traj_id"], "traj_id"), _ids(entry["nodes"], "nodes"), network
            )
        )
    return UpdateBatch(
        add_trajectories=add_trajectories,
        remove_trajectories=_ids(payload.get("remove_trajectories", []), "remove_trajectories"),
        add_sites=_ids(payload.get("add_sites", []), "add_sites"),
        remove_sites=_ids(payload.get("remove_sites", []), "remove_sites"),
    )


def _integral(value: Any, name: str) -> int:
    """An integer from a JSON number or CSV string, refusing truncation."""
    require(not isinstance(value, bool), f"{name} must be an integer, got {value!r}")
    if isinstance(value, float):
        require(value.is_integer(), f"{name} must be an integer, got {value!r}")
    return int(value)


def _number(value: Any, name: str) -> float:
    """A float from a JSON number or CSV string, refusing bools."""
    require(not isinstance(value, bool), f"{name} must be a number, got {value!r}")
    return float(value)


def _id(value: Any, name: str) -> int:
    """An id from a JSON number: ``3`` or ``3.0``, never ``"3"``, ``2.5`` or a bool."""
    is_number = isinstance(value, (numbers.Integral, float))
    require(is_number, f"{name} must be an integer, got {value!r}")
    return _integral(value, name)


def _ids(value: Any, name: str) -> list[int]:
    """A list of ids (see :func:`_id`)."""
    require(isinstance(value, (list, tuple)), f"{name} must be a list, got {value!r}")
    return [_id(item, name) for item in value]


def _require_finite_positive(value: float, name: str) -> None:
    require_positive(value, name)
    require(math.isfinite(value), f"{name} must be finite, got {value!r}")
