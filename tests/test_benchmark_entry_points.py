"""The benchmark's tracer wraps program entry points by name.

``perfbench/spans.py`` lists them as ``(owner, attribute, span, hooks)``
and patches each one for a traced run, so every name it lists must stay an
importable callable.  The module is loaded by path, as the benchmark
loads it, and left unchanged.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_entry_point_resolves_to_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    points = module.entry_points()
    assert len(points) >= 20
    for owner, attribute, span, _ in points:
        assert callable(getattr(owner, attribute, None)), (
            f"{span}: {getattr(owner, '__name__', owner)}.{attribute} is not callable"
        )
