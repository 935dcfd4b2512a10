"""Tests for the ``repro.analysis`` static-analysis suite.

Three layers:

* **Repo gate** — the full pass over this repository reports zero live
  findings (the same invariant the CI ``static-analysis`` job enforces).
* **Rule fixtures** — for every rule id, a ``fires/`` mini-repo produces
  exactly the findings marked ``# expect: RA###`` (correct file:line), a
  ``clean/`` variant produces none, and a ``suppressed/`` variant turns
  each finding into a recorded suppression (``# noqa: RA###``).
* **Plumbing** — CLI exit codes and output formats, the documented JSON
  schema, rule selection, the RA000 parse-error channel, and the runtime
  behaviour of the ``@guarded_by``/``@holds_lock`` markers.

The mypy strict gate itself runs in CI (mypy is not a runtime
dependency); the config-presence test below keeps the gate wired.
"""

from __future__ import annotations

import importlib.util
import json
import threading
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_ANALYZERS,
    FAMILIES,
    all_analyzers,
    analyzers_for,
    run_analysis,
)
from repro.analysis.cli import main as analysis_main
from repro.utils.concurrency import (
    guarded_by,
    guarded_attributes,
    held_locks,
    holds_lock,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "analysis"
RULES = tuple(cls.rule for cls in ALL_ANALYZERS)


def expected_sites(root: Path, rule: str) -> set[tuple[str, int]]:
    """``(path, line)`` pairs marked ``# expect: RA###`` under *root*."""
    sites = set()
    for path in sorted(root.rglob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            if f"expect: {rule}" in line:
                sites.add((path.relative_to(root).as_posix(), number))
    return sites


class TestRepositoryGate:
    def test_full_pass_reports_zero_findings(self):
        report = run_analysis(REPO_ROOT, all_analyzers())
        rendered = "\n".join(found.render() for found in report.findings)
        assert report.findings == [], f"static analysis regressions:\n{rendered}"
        assert report.files_scanned > 50

    def test_every_repo_suppression_carries_a_justification(self):
        """Policy: a ``# noqa: RA###`` line (or the line above it) explains why."""
        report = run_analysis(REPO_ROOT, all_analyzers())
        for found in report.suppressed:
            text = (REPO_ROOT / found.path).read_text().splitlines()
            window = "\n".join(text[max(0, found.line - 4) : found.line])
            assert "#" in window.replace(f"# noqa: {found.rule}", "", 1), (
                f"suppression at {found.path}:{found.line} has no "
                "justification comment"
            )


class TestRuleFixtures:
    @pytest.mark.parametrize("rule", RULES)
    def test_fires_at_the_marked_sites(self, rule):
        root = FIXTURES / rule.lower() / "fires"
        report = run_analysis(root, analyzers_for([rule]))
        marked = expected_sites(root, rule)
        assert marked, f"fixture corpus for {rule} has no expect markers"
        assert {(f.path, f.line) for f in report.findings} == marked
        assert all(f.rule == rule for f in report.findings)
        assert not report.ok

    @pytest.mark.parametrize("rule", RULES)
    def test_clean_variant_is_silent(self, rule):
        root = FIXTURES / rule.lower() / "clean"
        report = run_analysis(root, analyzers_for([rule]))
        assert report.findings == []
        assert report.suppressed == []
        assert report.ok

    @pytest.mark.parametrize("rule", RULES)
    def test_suppressed_variant_records_but_does_not_fail(self, rule):
        root = FIXTURES / rule.lower() / "suppressed"
        report = run_analysis(root, analyzers_for([rule]))
        assert report.findings == []
        assert report.suppressed, f"{rule} suppressed fixture raised nothing"
        assert all(f.rule == rule for f in report.suppressed)
        assert report.ok

    def test_every_corpus_belongs_to_a_registered_rule(self):
        """A deleted rule's fixture corpus must go with it (and vice versa)."""
        corpora = {path.name for path in FIXTURES.iterdir() if path.is_dir()}
        assert corpora == {rule.lower() for rule in RULES}

    def test_findings_carry_rule_message_and_hint(self):
        root = FIXTURES / "ra001" / "fires"
        (finding,) = run_analysis(root, analyzers_for(["RA001"])).findings
        assert finding.rule == "RA001"
        assert "set" in finding.message
        assert finding.hint
        assert finding.column >= 1
        assert finding.render().startswith("src/repro/core/example.py:")


class TestCli:
    def test_exit_zero_on_clean_tree(self, capsys):
        code = analysis_main(
            ["--root", str(FIXTURES / "ra001" / "clean"), "--rule", "RA001"]
        )
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_and_location_on_findings(self, capsys):
        code = analysis_main(
            ["--root", str(FIXTURES / "ra001" / "fires"), "--rule", "RA001"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "src/repro/core/example.py:7" in out
        assert "RA001" in out

    def test_json_schema(self, capsys):
        code = analysis_main(
            ["--root", str(FIXTURES / "ra002" / "fires"), "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["ok"] is False
        assert payload["rules"] == list(RULES)
        assert payload["files_scanned"] >= 1
        assert payload["counts"]["RA002"] == 1
        (finding,) = payload["findings"]
        assert set(finding) == {"rule", "path", "line", "column", "message", "hint"}
        assert finding["path"] == "src/repro/core/example.py"
        assert payload["suppressed"] == []

    def test_github_format_emits_error_annotations(self, capsys):
        code = analysis_main(
            [
                "--root",
                str(FIXTURES / "ra002" / "fires"),
                "--rule",
                "RA002",
                "--format",
                "github",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "::group::RA002" in out
        assert "::error file=src/repro/core/example.py,line=" in out
        assert "::endgroup::" in out

    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out
        for family in FAMILIES:
            assert family in out

    def test_family_selector_and_unknown_rule(self):
        assert [a.rule for a in analyzers_for(["locks"])] == ["RA005", "RA006"]
        assert [a.rule for a in analyzers_for(["ra003"])] == ["RA003"]
        with pytest.raises(ValueError, match="unknown rule"):
            analyzers_for(["RA999"])


class TestFramework:
    def test_parse_error_reported_as_ra000(self, tmp_path):
        bad = tmp_path / "src" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        report = run_analysis(tmp_path, all_analyzers())
        (finding,) = report.findings
        assert finding.rule == "RA000"
        assert finding.path == "src/broken.py"
        assert "does not parse" in finding.message

    def test_bare_noqa_suppresses_any_rule(self, tmp_path):
        target = tmp_path / "src" / "repro" / "core" / "example.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "def f(values):\n"
            "    seen = set(values)\n"
            "    return [v for v in seen]  # noqa\n"
        )
        report = run_analysis(tmp_path, analyzers_for(["RA001"]))
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_rule_counts_are_zero_filled(self):
        report = run_analysis(FIXTURES / "ra001" / "clean", all_analyzers())
        assert set(report.counts()) == set(RULES)
        assert all(count == 0 for count in report.counts().values())


class TestConcurrencyMarkers:
    def test_guarded_by_records_and_is_a_runtime_noop(self):
        @guarded_by("_lock", "a", "b")
        @guarded_by("_rw", "c", rw=True)
        class Sample:
            def __init__(self):
                self._lock = threading.Lock()
                self.a = self.b = self.c = 0

        table = guarded_attributes(Sample)
        assert table["a"].lock == "_lock" and not table["a"].rw
        assert table["c"].lock == "_rw" and table["c"].rw
        instance = Sample()
        instance.a = 5  # markers never wrap attribute access
        assert instance.a == 5

    def test_guarded_by_merges_without_mutating_the_base_class(self):
        @guarded_by("_lock", "a")
        class Base:
            pass

        @guarded_by("_lock", "b")
        class Derived(Base):
            pass

        assert set(guarded_attributes(Base)) == {"a"}
        assert set(guarded_attributes(Derived)) == {"a", "b"}

    def test_holds_lock_stamps_the_function(self):
        @holds_lock("_lock")
        def helper():
            return 1

        assert held_locks(helper) == frozenset({"_lock"})
        assert helper() == 1
        assert held_locks(lambda: None) == frozenset()

    def test_marker_validation(self):
        with pytest.raises(TypeError):
            guarded_by("", "a")
        with pytest.raises(TypeError):
            guarded_by("_lock")
        with pytest.raises(TypeError):
            holds_lock("")


class TestTypingGate:
    def test_mypy_gate_is_configured(self):
        """The CI job runs `mypy` with pyproject config; keep it wired."""
        text = (REPO_ROOT / "pyproject.toml").read_text()
        assert "[tool.mypy]" in text
        assert 'follow_imports = "silent"' in text
        for module in (
            "src/repro/core/coverage.py",
            "src/repro/core/covcache.py",
            "src/repro/service",
        ):
            assert module in text
        ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "mypy" in ci

    @pytest.mark.skipif(
        importlib.util.find_spec("mypy") is None,
        reason="mypy is not installed in this environment (CI runs it)",
    )
    def test_mypy_strict_gate_passes(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
