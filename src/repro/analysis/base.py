"""Framework of the invariant-enforcing static analysis suite.

The project's correctness bar is byte-identical selections across every
execution mode (dense/sparse/bitset engines, warm vs cold coverage
cache, HTTP vs in-process), and the bug classes that historically broke it
— last-ulp float ties, unordered iteration, service state mutated outside
its critical section, observability surfaces drifting from the code — are
all *statically visible*.  This package makes them structural instead of
test-luck-dependent:

* :class:`Finding` — one structured diagnostic: rule id, ``file:line:col``,
  message, fix hint.
* :class:`SourceFile` — a parsed analysis target: source text, AST, parent
  links, and the per-line ``# noqa: RA###`` suppression table.
* :class:`Analyzer` — per-file AST rule (``check``); subclasses restrict
  their scope via ``applies_to`` (e.g. determinism rules only scan the
  result-affecting ``src/repro/core``/``src/repro/service`` trees).
* :class:`ProjectAnalyzer` — repo-level cross-check (``check_project``)
  for drift rules that compare two artifacts (CLI flags vs docs, benchmark
  registry vs on-disk scripts).
* :func:`run_analysis` — load every Python file under the root's ``src/``
  tree (plus whatever project analyzers read), run the requested rules,
  and split the results into live findings and suppressed ones.

Suppression follows the ruff convention: ``# noqa: RA002`` on the reported
line silences that rule there (a bare ``# noqa`` silences every rule).
Every suppression is expected to carry a justification comment — see
``docs/static-analysis.md`` for the policy and the rule catalogue.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Analyzer",
    "AnalysisReport",
    "Finding",
    "Project",
    "ProjectAnalyzer",
    "SourceFile",
    "run_analysis",
]

#: ``# noqa`` / ``# noqa: RA001, RA002`` (case-insensitive, ruff-style)
_NOQA_PATTERN = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*))?",
    re.IGNORECASE,
)

#: directories never scanned
_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", ".mypy_cache", ".pytest_cache"}


@dataclass(frozen=True)
class Finding:
    """One structured diagnostic of a static-analysis rule."""

    rule: str
    path: str
    line: int
    column: int
    message: str
    hint: str = ""

    def as_dict(self) -> dict[str, int | str]:
        """JSON-ready form (the ``--format json`` output schema)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        """One-line human-readable form (``--format text``)."""
        return f"{self.path}:{self.line}:{self.column} {self.rule} {self.message}"


class SourceFile:
    """One parsed Python file: text, AST with parent links, noqa table."""

    def __init__(self, root: Path, path: Path) -> None:
        self.root = root
        self.path = path
        self.relative = path.relative_to(root).as_posix()
        self.text = path.read_text()
        self.tree: ast.Module | None
        self.parse_error: SyntaxError | None = None
        try:
            self.tree = ast.parse(self.text, filename=str(path))
        except SyntaxError as exc:
            self.tree = None
            self.parse_error = exc
        self._parents: dict[ast.AST, ast.AST] = {}
        if self.tree is not None:
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parents[child] = parent
        #: line -> frozenset of silenced rule ids; empty set = bare noqa (all)
        self.noqa: dict[int, frozenset[str]] = {}
        for number, line in enumerate(self.text.splitlines(), start=1):
            match = _NOQA_PATTERN.search(line)
            if match is None:
                continue
            codes = match.group("codes")
            self.noqa[number] = (
                frozenset()
                if codes is None
                else frozenset(code.strip().upper() for code in codes.split(","))
            )

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of *node* (None for the module)."""
        return self._parents.get(node)

    def suppresses(self, rule: str, line: int) -> bool:
        """Whether a ``# noqa`` on *line* silences *rule*."""
        codes = self.noqa.get(line)
        if codes is None:
            return False
        return not codes or rule.upper() in codes


class Analyzer:
    """Base class of a per-file AST rule.

    Subclasses set ``rule`` (the ``RA###`` id), ``title`` and ``hint``, and
    implement :meth:`check`; :meth:`applies_to` restricts which files the
    rule scans (relative posix paths).
    """

    rule: str = "RA000"
    title: str = ""
    hint: str = ""

    def applies_to(self, relative: str) -> bool:
        """Whether the rule scans the file at *relative* (posix) path."""
        return relative.endswith(".py")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        """Yield findings for one file."""
        raise NotImplementedError

    def finding(
        self, source: SourceFile, node: ast.AST, message: str, hint: str | None = None
    ) -> Finding:
        """Build a finding anchored at *node*."""
        return Finding(
            rule=self.rule,
            path=source.relative,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=self.hint if hint is None else hint,
        )


class Project:
    """Repo-level view handed to :class:`ProjectAnalyzer` rules.

    Lazily loads and caches :class:`SourceFile` objects by root-relative
    path, so a project rule can parse exactly the artifacts it
    cross-checks.  ``sources`` is the pre-loaded per-file scan set.
    """

    def __init__(self, root: Path, sources: list[SourceFile]) -> None:
        self.root = root
        self.sources = sources
        self._cache: dict[str, SourceFile | None] = {
            source.relative: source for source in sources
        }

    def source(self, relative: str) -> SourceFile | None:
        """The parsed file at *relative*, or None if absent/unreadable."""
        if relative not in self._cache:
            path = self.root / relative
            self._cache[relative] = (
                SourceFile(self.root, path) if path.is_file() else None
            )
        return self._cache[relative]

    def text(self, relative: str) -> str | None:
        """Raw text of any repo file (docs, configs), or None if absent."""
        path = self.root / relative
        return path.read_text() if path.is_file() else None


class ProjectAnalyzer(Analyzer):
    """Base class of a repo-level cross-check (drift rules)."""

    def applies_to(self, relative: str) -> bool:  # pragma: no cover - unused
        return False

    def check(self, source: SourceFile) -> Iterator[Finding]:  # pragma: no cover
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        """Yield findings for the whole repository."""
        raise NotImplementedError


@dataclass
class AnalysisReport:
    """Outcome of one :func:`run_analysis` pass."""

    root: str
    rules: list[str]
    files_scanned: int
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no live (unsuppressed) finding remains."""
        return not self.findings

    def counts(self) -> dict[str, int]:
        """Live findings per rule id (zero-filled for every requested rule)."""
        table = {rule: 0 for rule in self.rules}
        for found in self.findings:
            table[found.rule] = table.get(found.rule, 0) + 1
        return table

    def as_dict(self) -> dict:
        """The documented ``--format json`` schema (see docs/static-analysis.md)."""
        return {
            "version": 1,
            "root": self.root,
            "rules": list(self.rules),
            "files_scanned": self.files_scanned,
            "findings": [found.as_dict() for found in self.findings],
            "suppressed": [found.as_dict() for found in self.suppressed],
            "counts": self.counts(),
            "ok": self.ok,
        }


def iter_python_files(root: Path) -> Iterator[Path]:
    """Every ``.py`` file of the scan set, in deterministic sorted order.

    The scan set is the ``src/`` tree when the root has one (the library
    code the invariants protect), else every Python file under the root
    (fixture mini-repos).  Project analyzers additionally read the
    specific artifacts they cross-check (docs, benchmarks) on their own.
    """
    base = root / "src" if (root / "src").is_dir() else root
    for path in sorted(base.rglob("*.py")):
        if any(part in _SKIP_DIRS for part in path.parts):
            continue
        yield path


def run_analysis(
    root: str | Path,
    analyzers: Iterable[Analyzer],
) -> AnalysisReport:
    """Run *analyzers* over the repository at *root*.

    Returns an :class:`AnalysisReport` whose ``findings`` are the live
    diagnostics (deterministically ordered by file, line, rule) and whose
    ``suppressed`` list records every ``# noqa``-silenced one — the CI
    job and the pytest bridge assert ``findings == []``.
    """
    root = Path(root).resolve()
    analyzers = list(analyzers)
    sources = [SourceFile(root, path) for path in iter_python_files(root)]
    project = Project(root, sources)

    raw: list[Finding] = []
    for source in sources:
        if source.parse_error is not None:
            raw.append(
                Finding(
                    rule="RA000",
                    path=source.relative,
                    line=source.parse_error.lineno or 1,
                    column=(source.parse_error.offset or 0) + 1,
                    message=f"file does not parse: {source.parse_error.msg}",
                    hint="fix the syntax error; no other rule ran on this file",
                )
            )
            continue
        for analyzer in analyzers:
            if isinstance(analyzer, ProjectAnalyzer):
                continue
            if analyzer.applies_to(source.relative):
                raw.extend(analyzer.check(source))
    for analyzer in analyzers:
        if isinstance(analyzer, ProjectAnalyzer):
            raw.extend(analyzer.check_project(project))

    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for found in sorted(raw, key=lambda f: (f.path, f.line, f.column, f.rule)):
        source = project.source(found.path)
        if source is not None and source.suppresses(found.rule, found.line):
            suppressed.append(found)
        else:
            findings.append(found)
    return AnalysisReport(
        root=str(root),
        rules=[analyzer.rule for analyzer in analyzers],
        files_scanned=len(sources),
        findings=findings,
        suppressed=suppressed,
    )
