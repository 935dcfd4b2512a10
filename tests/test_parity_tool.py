"""The CI parity gate, ``tools/check_parity.py``, on the tiny workload.

Each section must pass on a correct build; the farm section must count a
divergence when a tenant's write-through save is lost, and the covcache
section one when a resumed greedy run skips a state update, so the gate
can fail.  The module is loaded by path, as CI runs it.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core.greedy import IncGreedy
from repro.datasets import beijing_like
from repro.service.placement import PlacementService

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_parity.py"


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("check_parity", TOOL)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


@pytest.fixture(scope="module")
def tiny_build(parity):
    problem = beijing_like(scale="tiny", seed=42).problem()
    return problem.build_netclus_index(**parity.BUILD_PARAMS)


def test_bitset_section_passes(parity, tiny_build, capsys):
    assert parity.check_bitset(copy.deepcopy(tiny_build)) == 0
    assert "OK bitset" in capsys.readouterr().out


def test_mmap_section_passes(parity, tiny_build, tmp_path, capsys):
    assert parity.check_mmap(copy.deepcopy(tiny_build), tmp_path) == 0
    assert "OK mmap" in capsys.readouterr().out


def test_covcache_section_passes(parity, tiny_build, tmp_path, capsys):
    assert parity.check_covcache(copy.deepcopy(tiny_build), 6, tmp_path) == 0
    assert "OK covcache: 6 deltas" in capsys.readouterr().out


def test_covcache_section_counts_a_resume_that_skips_a_state_update(
    parity, tiny_build, tmp_path, monkeypatch, capsys
):
    """A resume that starts from the utilities before the stored run's last
    step diverges from the cache-free answers on the cached k sweep."""
    resuming = IncGreedy.resuming.__func__

    def skip_last_write(cls, coverage, run):
        stale = run.prefix_utilities(len(run.columns) - 1)
        return resuming(cls, coverage, dataclasses.replace(run, utilities=stale))

    monkeypatch.setattr(IncGreedy, "resuming", classmethod(skip_last_write))
    assert parity.check_covcache(copy.deepcopy(tiny_build), 2, tmp_path) > 0
    out = capsys.readouterr().out
    assert "FAIL [covcache cached step=" in out
    assert "OK covcache" not in out


def test_farm_section_reloads_on_every_request(parity, tiny_build, tmp_path, capsys):
    assert parity.check_farm(copy.deepcopy(tiny_build), 6, tmp_path) == 0
    out = capsys.readouterr().out
    # 3 delta rounds and 3 query rounds over two tenants: 12 requests, 12 loads
    assert f"OK farm    : 6 deltas and 6 x {len(parity.COVCACHE_SPECS)} specs" in out
    assert "(12 loads, 11 evictions)" in out


def test_farm_section_counts_a_lost_write_through(
    parity, tiny_build, tmp_path, monkeypatch, capsys
):
    """With saves dropped, every reload serves the tenant's first state,
    which the in-memory services have left behind."""
    monkeypatch.setattr(PlacementService, "save", lambda self, path: Path(path))
    assert parity.check_farm(copy.deepcopy(tiny_build), 6, tmp_path) > 0
    out = capsys.readouterr().out
    assert "FAIL [farm step=" in out
    assert "OK farm" not in out


def test_main_exits_zero_on_the_tiny_workload(parity, capsys):
    assert parity.main(["--scale", "tiny", "--ops", "4"]) == 0
    assert "OK: all parity sections passed" in capsys.readouterr().out
