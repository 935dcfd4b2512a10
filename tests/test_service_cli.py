"""The ``python -m repro.service`` CLI: build, query (JSON + CSV), serve, inspect."""

from __future__ import annotations

import ast
import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.netclus import UpdateBatch
from repro.service import PlacementService, QuerySpec, cli
from repro.service.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def built_index(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "city.ncx"
    code = main(
        [
            "build",
            "--dataset", "beijing",
            "--scale", "tiny",
            "--tau-max", "2.0",
            "--max-instances", "3",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


def test_build_writes_index(built_index):
    manifest = json.loads((built_index / "manifest.json").read_text())
    assert (built_index / manifest["payload_file"]).is_file()


def test_build_records_content_fingerprint(built_index):
    """CLI-built indexes carry the trajectory-content fingerprint."""
    manifest = json.loads((built_index / "manifest.json").read_text())
    assert "trajectory_content" in manifest["fingerprints"]
    assert manifest["build_params"]["representative_strategy"] == "closest"


def test_build_rejects_scale_for_fixed_datasets(tmp_path):
    with pytest.raises(SystemExit, match="fixed size"):
        main(
            [
                "build",
                "--dataset", "new-york",
                "--scale", "tiny",
                "--out", str(tmp_path / "ny.ncx"),
            ]
        )


def test_inspect_prints_manifest(built_index, capsys):
    assert main(["inspect", "--index", str(built_index)]) == 0
    out = capsys.readouterr().out
    assert "netclus-index v6" in out
    assert "gamma=0.75" in out
    assert "graph sha256" in out


def test_inspect_json(built_index, capsys):
    assert main(["inspect", "--index", str(built_index), "--json"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["format"] == "netclus-index"


def test_query_json_specs(built_index, tmp_path, capsys):
    specs = [
        {"k": 3, "tau_km": 0.8},
        {"k": 5, "tau_km": 0.8},
        {"k": 3, "tau_km": 1.5, "capacity": 20},
        {"k": 3, "tau_km": 0.8, "budget": 2.0},
    ]
    specs_path = tmp_path / "specs.json"
    specs_path.write_text(json.dumps(specs))
    output_path = tmp_path / "results.json"
    code = main(
        [
            "query",
            "--index", str(built_index),
            "--specs", str(specs_path),
            "--output", str(output_path),
        ]
    )
    assert code == 0
    rows = json.loads(output_path.read_text())
    assert len(rows) == 4
    assert all(len(row["sites"]) >= 1 for row in rows)
    assert rows[0]["sites"] == rows[1]["sites"][:3]  # prefix property via CLI
    out = capsys.readouterr().out
    assert "1 instance resolutions" not in out  # τ ∈ {0.8, 1.5} → 2 resolutions
    assert "2 instance resolutions" in out


def test_query_csv_specs(built_index, tmp_path, capsys):
    csv_path = tmp_path / "specs.csv"
    csv_path.write_text("k,tau_km,preference\n3,0.8,binary\n4,1.5,linear\n")
    assert main(["query", "--index", str(built_index), "--specs", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "linear" in out


def test_query_rejects_bad_specs_file(built_index, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k": 3}))
    with pytest.raises(SystemExit):
        main(["query", "--index", str(built_index), "--specs", str(bad)])


def test_run_all_index_cache(tmp_path, capsys):
    """build_context --index-cache round-trips through the experiments layer."""
    from repro.datasets import beijing_like
    from repro.experiments.runner import build_context

    bundle = beijing_like(scale="tiny", seed=3)
    cache = tmp_path / "ctx.ncx"
    first = build_context(
        bundle=bundle, tau_max_km=2.0, engine="sparse", index_path=cache
    )
    assert (cache / "manifest.json").is_file()
    second = build_context(
        bundle=bundle, tau_max_km=2.0, engine="sparse", index_path=cache
    )
    from repro.core.query import TOPSQuery

    query = TOPSQuery(k=4, tau_km=0.8)
    assert second.run_netclus(query).sites == first.run_netclus(query).sites


def test_run_all_index_cache_refuses_other_seed(tmp_path):
    """A cached index never silently serves a different seed's trajectories."""
    from repro.datasets import beijing_like
    from repro.experiments.runner import build_context
    from repro.service import IndexFormatError

    cache = tmp_path / "seeded.ncx"
    build_context(
        bundle=beijing_like(scale="tiny", seed=3),
        tau_max_km=2.0,
        index_path=cache,
    )
    with pytest.raises(IndexFormatError, match="trajectory content"):
        build_context(
            bundle=beijing_like(scale="tiny", seed=4),
            tau_max_km=2.0,
            index_path=cache,
        )


def test_run_all_index_cache_refuses_other_build_params(tmp_path):
    from repro.datasets import beijing_like
    from repro.experiments.runner import build_context
    from repro.service import IndexFormatError

    bundle = beijing_like(scale="tiny", seed=3)
    cache = tmp_path / "params.ncx"
    build_context(bundle=bundle, tau_max_km=2.0, index_path=cache)
    with pytest.raises(IndexFormatError, match="build_params|built with"):
        build_context(bundle=bundle, tau_max_km=4.0, index_path=cache)


def test_run_all_index_cache_refuses_capped_ladder(tmp_path):
    """An index built with --max-instances is not a valid experiment cache."""
    from repro.datasets import beijing_like
    from repro.experiments.runner import build_context
    from repro.service import IndexFormatError, save_index

    bundle = beijing_like(scale="tiny", seed=3)
    capped = bundle.problem().build_netclus_index(
        gamma=0.75, tau_min_km=0.4, tau_max_km=8.0, max_instances=2
    )
    cache = tmp_path / "capped.ncx"
    save_index(capped, cache, dataset=bundle.trajectories)
    with pytest.raises(IndexFormatError, match="instances"):
        build_context(bundle=bundle, index_path=cache)


# ---------------------------------------------------------------------- #
# update
# ---------------------------------------------------------------------- #
def test_update_applies_deltas(built_index, tmp_path):
    from repro.service.serialization import load_index, load_manifest

    index = load_index(built_index)
    victim_site = sorted(index.sites)[0]
    remove_id = index.trajectory_ids[0]
    # a short edge-connected walk for the new trajectory
    network = index.network
    path_nodes = [network.node_ids()[0]]
    for _ in range(5):
        successors = network.successors(path_nodes[-1])
        if not successors:
            break
        path_nodes.append(next(iter(successors)))
    new_id = max(index.trajectory_ids) + 1

    add_file = tmp_path / "add_trajectories.json"
    add_file.write_text(json.dumps([{"traj_id": new_id, "nodes": path_nodes}]))
    remove_traj_file = tmp_path / "remove_trajectories.json"
    remove_traj_file.write_text(json.dumps([remove_id]))
    remove_site_file = tmp_path / "remove_sites.json"
    remove_site_file.write_text(json.dumps([victim_site]))
    out = tmp_path / "updated.ncx"

    code = main(
        [
            "update",
            "--index", str(built_index),
            "--add-trajectories", str(add_file),
            "--remove-trajectories", str(remove_traj_file),
            "--remove-sites", str(remove_site_file),
            "--out", str(out),
        ]
    )
    assert code == 0
    updated = load_index(out)
    assert new_id in updated.trajectory_ids
    assert remove_id not in updated.trajectory_ids
    assert victim_site not in updated.sites
    assert updated.version == 3  # one bump per non-empty sub-batch
    assert load_manifest(out)["index_version"] == 3
    # --out leaves the source index untouched
    assert load_index(built_index).version == 0


def test_update_without_deltas_rejected(built_index):
    with pytest.raises(SystemExit, match="nothing to do"):
        main(["update", "--index", str(built_index)])


def test_update_rejects_malformed_trajectory_file(built_index, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"nodes": [1, 2]}]))  # missing traj_id
    with pytest.raises(SystemExit, match="traj_id"):
        main(["update", "--index", str(built_index), "--add-trajectories", str(bad)])


@pytest.mark.parametrize("delta", ['"12"', '["4"]', "[2.9]", "[true]", '{"0": 1}'])
def test_update_rejects_non_integral_ids(built_index, tmp_path, delta):
    """Delta files go through the server's parser: a file that is not a
    list of integral ids exits without touching the index."""
    from repro.service.serialization import load_index

    before = {entry.name: entry.read_bytes() for entry in built_index.iterdir()}
    bad = tmp_path / "remove_sites.json"
    bad.write_text(delta)
    with pytest.raises(SystemExit, match="bad delta"):
        main(["update", "--index", str(built_index), "--remove-sites", str(bad)])
    assert {entry.name: entry.read_bytes() for entry in built_index.iterdir()} == before
    assert load_index(built_index).version == 0


def test_site_only_update_keeps_content_fingerprint(built_index, tmp_path):
    """A site-only delta carries the trajectory_content fingerprint over;
    a trajectory delta (content no longer verifiable) drops it."""
    from repro.service.serialization import load_manifest

    fingerprint = load_manifest(built_index)["fingerprints"]["trajectory_content"]
    remove_site_file = tmp_path / "rm_sites.json"
    remove_site_file.write_text(json.dumps([4]))
    out = tmp_path / "site_only.ncx"
    assert main(
        [
            "update",
            "--index", str(built_index),
            "--remove-sites", str(remove_site_file),
            "--out", str(out),
        ]
    ) == 0
    assert load_manifest(out)["fingerprints"]["trajectory_content"] == fingerprint

    from repro.service.serialization import load_index

    remove_traj_file = tmp_path / "rm_traj.json"
    remove_traj_file.write_text(json.dumps([load_index(out).trajectory_ids[0]]))
    out2 = tmp_path / "traj_delta.ncx"
    assert main(
        [
            "update",
            "--index", str(out),
            "--remove-trajectories", str(remove_traj_file),
            "--out", str(out2),
        ]
    ) == 0
    assert "trajectory_content" not in load_manifest(out2)["fingerprints"]


class TestBuildPipelineFlags:
    """`build --representative-strategy/--max-instances` and manifest round-trips."""

    @pytest.fixture(scope="class")
    def strategy_index(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli_strategy") / "city.ncx"
        code = main(
            [
                "build",
                "--dataset", "beijing",
                "--scale", "tiny",
                "--tau-max", "2.0",
                "--max-instances", "3",
                "--representative-strategy", "most_frequent",
                "--out", str(path),
            ]
        )
        assert code == 0
        return path

    def test_flags_round_trip_through_manifest(self, strategy_index):
        manifest = json.loads((strategy_index / "manifest.json").read_text())
        params = manifest["build_params"]
        assert params["representative_strategy"] == "most_frequent"
        assert params["max_instances"] == 3
        stages = [stat["stage"] for stat in manifest["build_stats"]]
        assert stages == ["clustering", "representatives", "registration", "neighbors"]
        assert "workers" not in manifest["build_stats"][0]

    def test_inspect_reports_flags_and_stages(self, strategy_index, capsys):
        assert main(["inspect", "--index", str(strategy_index)]) == 0
        out = capsys.readouterr().out
        assert "most_frequent" in out
        assert "instance cap 3" in out
        assert "offline pipeline" in out
        assert "clustering" in out

    def test_build_prints_stage_breakdown(self, tmp_path, capsys):
        code = main(
            [
                "build",
                "--dataset", "beijing",
                "--scale", "tiny",
                "--tau-max", "1.0",
                "--max-instances", "2",
                "--out", str(tmp_path / "seq.ncx"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stage clustering" in out
        assert "stage registration" in out

    def test_cli_build_equals_library_build(self, strategy_index):
        """The CLI adds nothing to the build: the same dataset and flags
        through the library give the same payload."""
        from repro.datasets import beijing_like
        from repro.service.serialization import load_index, payload_digest

        direct = beijing_like(scale="tiny", seed=42).problem().build_netclus_index(
            tau_max_km=2.0,
            max_instances=3,
            representative_strategy="most_frequent",
        )
        assert payload_digest(load_index(strategy_index), include_timings=False) == (
            payload_digest(direct, include_timings=False)
        )


def test_inspect_timings_probe(built_index, capsys):
    assert main(["inspect", "--index", str(built_index), "--timings"]) == 0
    out = capsys.readouterr().out
    assert "query timings" in out
    assert "coverage_build_seconds" in out
    assert "greedy_seconds" in out


def test_query_prints_stage_seconds(built_index, tmp_path, capsys):
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([{"k": 4, "tau_km": 0.8}, {"k": 7, "tau_km": 0.8}]))
    assert main(["query", "--index", str(built_index), "--specs", str(specs)]) == 0
    assert "stage seconds" in capsys.readouterr().out


def test_farm_accepts_the_benchmark_server_flags(monkeypatch):
    """The farm_http benchmark starts ``farm`` with a frozen flag tuple."""
    source = (REPO_ROOT / "perfbench" / "farm_http.py").read_text()
    assignment = next(
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "SERVER_FLAGS" for target in node.targets)
    )
    server_flags = ast.literal_eval(assignment.value)
    parsed = []
    monkeypatch.setattr(cli, "_cmd_farm", lambda args: parsed.append(args) or 0)
    argv = ["farm", "--memory-budget-mb", "1.5", "--port", "0", *server_flags]
    assert main([*argv, "--tenant", "a=city.ncx"]) == 0
    assert parsed[0].tenant == ["a=city.ncx"]
    assert parsed[0].coverage_cache is True


@pytest.mark.parametrize("engine", ["dense", "sparse", "bitset"])
def test_farm_refuses_engines_other_than_auto(monkeypatch, capsys, engine):
    """``farm --engine`` is hidden and accepts only the benchmark's ``auto``."""
    parsed = []
    monkeypatch.setattr(cli, "_cmd_farm", lambda args: parsed.append(args) or 0)
    argv = ["farm", "--tenant", "a=city.ncx", "--engine"]
    assert main([*argv, "auto"]) == 0
    assert len(parsed) == 1
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, engine])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert len(parsed) == 1


@pytest.mark.parametrize("command", ["query", "serve"])
def test_query_and_serve_have_no_engine_flag(command, capsys):
    argv = [command, "--index", "city.ncx", "--engine", "auto"]
    if command == "query":
        argv += ["--specs", "specs.json"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


def _directory_bytes(directory: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def _banner_address(process: subprocess.Popen, timeout: float = 60.0) -> tuple[str, int]:
    """The ``http://host:port`` a starting server prints first."""
    deadline = time.monotonic() + timeout
    lines = []
    while time.monotonic() < deadline:
        ready, _, _ = select.select([process.stdout], [], [], 1.0)
        if not ready:
            continue
        line = process.stdout.readline()
        if not line:
            break
        lines.append(line)
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match:
            return match[1], int(match[2])
    raise AssertionError(f"server printed no address: {lines}")


def _post(conn: http.client.HTTPConnection, path: str, payload) -> tuple[int, dict]:
    conn.request("POST", path, body=json.dumps(payload))
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def test_serve_end_to_end_matches_the_service_and_never_writes(built_index):
    """``serve`` in a child process answers like a direct service, exits 0
    on SIGINT and leaves every file of its index directory unchanged."""
    before = _directory_bytes(built_index)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve",
         "--index", str(built_index), "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        conn = http.client.HTTPConnection(*_banner_address(process), timeout=60)
        direct = PlacementService.from_path(built_index)
        specs = [QuerySpec(k=3, tau_km=0.8), QuerySpec(k=5, tau_km=1.2)]
        status, served = _post(conn, "/query", [spec.to_dict() for spec in specs])
        assert status == 200
        for got, want in zip(served["results"], direct.batch_query(specs), strict=True):
            assert got["sites"] == list(want.sites)
            assert got["utility"] == want.utility
            assert (
                np.asarray(got["per_trajectory_utility"]).tobytes()
                == np.asarray(want.per_trajectory_utility).tobytes()
            )
        assert served["index_version"] == direct.index_version

        victim = served["results"][0]["sites"][0]
        status, update = _post(conn, "/update", {"remove_sites": [victim]})
        assert status == 200
        applied = direct.apply_updates(UpdateBatch(remove_sites=[victim]))
        assert update == {
            "applied": applied,
            "index_version_before": 0,
            "index_version": direct.index_version,
        }
        conn.close()
        process.send_signal(signal.SIGINT)
        output, _ = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0, output
    assert "shut down cleanly" in output
    assert _directory_bytes(built_index) == before
