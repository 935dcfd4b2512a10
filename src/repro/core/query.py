"""Query and result types for TOPS."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.preference import BinaryPreference, PreferenceFunction
from repro.utils.validation import require, require_non_negative, require_positive

__all__ = ["TOPSQuery", "TOPSResult", "utility_tuple"]


@dataclass(frozen=True)
class TOPSQuery:
    """A TOPS query ``(k, τ, ψ)`` (Problem 1 of the paper).

    Attributes
    ----------
    k:
        Number of sites to select.
    tau_km:
        Coverage threshold τ in kilometres.
    preference:
        The preference function ψ; defaults to the binary instance (TOPS1).
    """

    k: int
    tau_km: float
    preference: PreferenceFunction = field(default_factory=BinaryPreference)

    def __post_init__(self) -> None:
        require_positive(self.k, "k")
        require_non_negative(self.tau_km, "tau_km")


@dataclass(frozen=True)
class TOPSResult:
    """The outcome of a TOPS solver run.

    Attributes
    ----------
    sites:
        Selected candidate sites (node ids), in selection order where the
        algorithm is iterative.
    utility:
        Total utility ``U(Q) = Σ_j max_{s in Q} ψ(T_j, s)``.
    per_trajectory_utility:
        Utility of each trajectory under the selected set, aligned with the
        trajectory order of the dataset the solver was given: a tuple of
        plain Python floats. Every solver builds it with
        :func:`utility_tuple`.
    elapsed_seconds:
        Wall-clock time of the online phase (selection), excluding any
        offline index construction.
    algorithm:
        Short algorithm label (``"inc-greedy"``, ``"netclus"``, ...).
    metadata:
        Free-form extra information (index instance used, marginal gains,
        FM parameters, ...).
    """

    sites: tuple[int, ...]
    utility: float
    per_trajectory_utility: tuple[float, ...] = ()
    elapsed_seconds: float = 0.0
    algorithm: str = ""
    metadata: dict = field(default_factory=dict)

    @property
    def num_sites(self) -> int:
        """Number of selected sites."""
        return len(self.sites)

    def utility_percent(self, num_trajectories: int) -> float:
        """Utility as a percentage of the trajectory count (the paper's metric)."""
        require(num_trajectories > 0, "num_trajectories must be positive")
        return 100.0 * self.utility / num_trajectories

    def covered_count(self, threshold: float = 0.0) -> int:
        """Number of trajectories with utility strictly above *threshold*."""
        return int(np.sum(np.asarray(self.per_trajectory_utility) > threshold))

    def stage_seconds(self) -> dict[str, float]:
        """Per-stage timing breakdown carried in the metadata.

        Collects every ``*_seconds`` metadata entry (e.g. the placement
        service's ``coverage_build_seconds`` / ``greedy_run_seconds``,
        :meth:`~repro.core.problem.TOPSProblem.solve`'s
        ``preprocess_seconds``); empty when the producing solver recorded
        no stage timings.
        """
        return {
            key: float(value)
            for key, value in self.metadata.items()
            if key.endswith("_seconds") and isinstance(value, (int, float))
        }


def utility_tuple(values: np.ndarray | Sequence[float]) -> tuple[float, ...]:
    """The public ``per_trajectory_utility`` form of a utilities array.

    ``ndarray.tolist()`` boxes each element in one C loop and yields exactly
    the doubles ``float(u)`` would, ``-0.0`` and subnormals included. The
    ``float64`` cast keeps int, bool and float32 inputs from coming back as
    Python ints or from changing the JSON encoding.
    """
    return tuple(np.asarray(values, dtype=np.float64).tolist())
