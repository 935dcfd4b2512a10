"""Invariant-enforcing static analysis for the NetClus reproduction.

Pure-stdlib AST rules guarding the invariants the runtime parity tests
can only sample: determinism of the selection path (RA001–RA004), the
declarative lock discipline of the serving layer (RA005–RA006),
and the code↔docs↔registry surfaces that otherwise drift (RA007–RA009).

Run it as a module::

    python -m repro.analysis                 # full pass, exit 1 on findings
    python -m repro.analysis --rule RA005    # one rule family member
    python -m repro.analysis --format json   # machine-readable report

See ``docs/static-analysis.md`` for the rule catalogue and suppression
policy (``# noqa: RA###`` + justification comment).
"""

from __future__ import annotations

from .base import (
    AnalysisReport,
    Analyzer,
    Finding,
    Project,
    ProjectAnalyzer,
    SourceFile,
    run_analysis,
)
from .determinism import (
    RawFloatComparison,
    UnorderedIteration,
    UnseededRandom,
    WallClockInKernel,
)
from .drift import BenchRegistryDrift, CliDocsDrift, MetricsStatsDrift
from .locks import LockDiscipline, WriteUnderReadLock

__all__ = [
    "ALL_ANALYZERS",
    "FAMILIES",
    "AnalysisReport",
    "Analyzer",
    "Finding",
    "Project",
    "ProjectAnalyzer",
    "SourceFile",
    "all_analyzers",
    "analyzers_for",
    "run_analysis",
]

#: every registered rule class, in rule-id order
ALL_ANALYZERS: tuple[type[Analyzer], ...] = (
    UnorderedIteration,  # RA001
    RawFloatComparison,  # RA002
    UnseededRandom,  # RA003
    WallClockInKernel,  # RA004
    LockDiscipline,  # RA005
    WriteUnderReadLock,  # RA006
    MetricsStatsDrift,  # RA007
    CliDocsDrift,  # RA008
    BenchRegistryDrift,  # RA009
)

#: rule families (documentation / --list-rules grouping)
FAMILIES: dict[str, tuple[str, ...]] = {
    "determinism": ("RA001", "RA002", "RA003", "RA004"),
    "locks": ("RA005", "RA006"),
    "drift": ("RA007", "RA008", "RA009"),
}


def all_analyzers() -> list[Analyzer]:
    """Fresh instances of every registered rule."""
    return [cls() for cls in ALL_ANALYZERS]


def analyzers_for(rules: list[str] | None) -> list[Analyzer]:
    """Instances for the requested rule ids (all rules when None/empty).

    Accepts rule ids (``RA005``) and family names (``locks``),
    case-insensitively; raises ``ValueError`` on an unknown selector.
    """
    if not rules:
        return all_analyzers()
    wanted: set[str] = set()
    for selector in rules:
        token = selector.strip().upper()
        family = FAMILIES.get(selector.strip().lower())
        if family is not None:
            wanted.update(family)
        elif any(cls.rule == token for cls in ALL_ANALYZERS):
            wanted.add(token)
        else:
            known = ", ".join(cls.rule for cls in ALL_ANALYZERS)
            raise ValueError(
                f"unknown rule {selector!r} (known: {known}; "
                f"families: {', '.join(FAMILIES)})"
            )
    return [cls() for cls in ALL_ANALYZERS if cls.rule in wanted]
