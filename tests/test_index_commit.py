"""The v6 save protocol: one manifest rename commits a save.

A save writes its blob under a fresh ``payload.<version>.<hex>.bin`` name,
renames ``manifest.json`` (which names that blob) into place as its only
commit, then unlinks the blob the replaced manifest named.  These tests
kill a saving process at every filesystem step and check the directory
still loads to one whole state, check that saves leave no garbage and
need no lock, and check the loader's refusals (a ``payload_file`` that is
not a blob name, a v5 directory).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.netclus import NetClusIndex, UpdateBatch
from repro.network.generators import grid_network
from repro.service import (
    IndexFormatError,
    PlacementService,
    QuerySpec,
    load_index,
    load_manifest,
    save_index,
)
from repro.service.serialization import payload_digest
from repro.trajectory.generators import commuter_trajectories

SRC = Path(__file__).resolve().parents[1] / "src"

SPECS = [
    QuerySpec(k=3, tau_km=0.6),
    QuerySpec(k=5, tau_km=1.0),
    QuerySpec(k=4, tau_km=1.5),
]

#: the exit status of a child killed at its step (tells it from a clean exit)
KILLED = 17

#: loads the pre-update directory, applies the batch, arms the kill at one
#: filesystem step of ``save_index`` and saves over the same directory
CHILD = """
import json, os, pathlib, sys
from repro.core.netclus import UpdateBatch
from repro.service import serialization

directory, step, batch = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
index = serialization.load_index(directory)
index.apply_updates(UpdateBatch(**batch))
write_blob, replace, unlink = serialization._write_blob, os.replace, pathlib.Path.unlink

def blob_written(handle, payload):
    write_blob(handle, payload)
    handle.flush()
    os._exit(%(killed)d)

def before_rename(src, dst):
    os._exit(%(killed)d)

def after_rename(src, dst):
    replace(src, dst)
    os._exit(%(killed)d)

def after_unlink(path, missing_ok=False):
    unlink(path, missing_ok=missing_ok)
    os._exit(%(killed)d)

if step == "blob":
    serialization._write_blob = blob_written
elif step == "staging":
    os.replace = before_rename
elif step == "rename":
    os.replace = after_rename
elif step == "unlink":
    pathlib.Path.unlink = after_unlink
serialization.save_index(index, directory)
""" % {"killed": KILLED}

#: the state a kill after each step must leave the directory holding
STEPS = {"blob": "pre", "staging": "pre", "rename": "post", "unlink": "post"}


def _answers(index):
    """Sites, marginal gains and per-trajectory utility bytes per spec."""
    results = PlacementService(index, cache_size=0).batch_query(SPECS)
    return [
        (
            tuple(result.sites),
            tuple(result.metadata["marginal_gains"]),
            np.asarray(result.per_trajectory_utility).tobytes(),
        )
        for result in results
    ]


def _blob_names(directory):
    return sorted(entry.name for entry in directory.iterdir() if entry.name != "manifest.json")


@pytest.fixture(scope="module")
def city():
    network = grid_network(6, 6, spacing_km=0.5)
    dataset = commuter_trajectories(network, 40, seed=7)
    index = NetClusIndex.build(
        network,
        dataset,
        network.node_ids()[::3],
        gamma=0.75,
        tau_min_km=0.4,
        tau_max_km=2.0,
        representative_strategy="most_frequent",
    )
    index.enable_coverage_cache()
    PlacementService(index).batch_query(SPECS)  # persist warm coverage parts
    return index


@pytest.fixture(scope="module")
def crash_states(city, tmp_path_factory):
    """The pre-update directory, the batch, and both states' answers."""
    pre = save_index(city, tmp_path_factory.mktemp("crash") / "pre.ncx")
    ids = list(city.trajectory_ids)
    batch = {"remove_trajectories": ids[:8], "remove_sites": sorted(city.sites)[:2]}
    post = load_index(pre)
    post.apply_updates(UpdateBatch(**batch))
    return pre, batch, {"pre": _answers(load_index(pre)), "post": _answers(post)}


@pytest.mark.parametrize("step", sorted(STEPS))
def test_kill_at_every_step_leaves_one_whole_state(crash_states, tmp_path, step):
    """A process killed at any filesystem step of a save over an existing
    directory leaves it loadable, answering exactly as the pre-update index
    before the manifest rename and as the post-update index after it."""
    pre, batch, answers = crash_states
    directory = shutil.copytree(pre, tmp_path / "city.ncx")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(directory), step, json.dumps(batch)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == KILLED, child.stderr
    assert _answers(load_index(directory)) == answers[STEPS[step]]
    if step == "unlink":  # the save ran to its end: nothing left behind
        assert _blob_names(directory) == [load_manifest(directory)["payload_file"]]


def test_sequential_saves_leave_manifest_and_one_blob(city, tmp_path):
    """Each save unlinks the blob it replaced."""
    index = load_index(save_index(city, tmp_path / "seq.ncx"))
    directory = tmp_path / "seq.ncx"
    for site in sorted(index.sites)[:5]:
        index.remove_site(site)
        save_index(index, directory)
    manifest = load_manifest(directory)
    assert manifest["payload_file"].startswith(f"payload.{index.version}.")
    assert _blob_names(directory) == [manifest["payload_file"]]


def test_two_threads_saving_one_service_leave_a_loadable_directory(city, tmp_path):
    """Saves need no lock: two threads saving one service 50 times each
    never write or rename away each other's files, and leave the
    directory loadable and equal to the service's index (a save that lost
    the race may leave its predecessor's blob behind, unnamed)."""
    service = PlacementService(load_index(save_index(city, tmp_path / "src.ncx")))
    target = tmp_path / "city.ncx"
    start = threading.Barrier(2)
    errors: list[BaseException] = []

    def saver() -> None:
        try:
            start.wait()
            for _ in range(50):
                service.save(target)
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=saver) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert not list(target.glob("*.tmp"))
    manifest = load_manifest(target)
    blob = (target / manifest["payload_file"]).read_bytes()
    assert manifest["fingerprints"]["payload_sha256"] == hashlib.sha256(blob).hexdigest()
    assert payload_digest(load_index(target)) == payload_digest(service.index)


@pytest.mark.parametrize(
    "name",
    ["../x", "/etc/passwd", "payload.bin", "payload.1.ABC.bin", "payload.1.ab.bin\n", ""],
)
def test_payload_file_must_be_a_blob_name(city, tmp_path, name):
    directory = save_index(city, tmp_path / "city.ncx")
    manifest = json.loads((directory / "manifest.json").read_text())
    manifest["payload_file"] = name
    (directory / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(IndexFormatError, match="not a payload blob name"):
        load_index(directory)


def test_v5_directory_is_refused(city, tmp_path):
    """A v5 directory (``payload.bin``, no ``payload_file``) names its
    version and asks for a rebuild."""
    directory = save_index(city, tmp_path / "city.ncx")
    manifest = json.loads((directory / "manifest.json").read_text())
    (directory / manifest.pop("payload_file")).rename(directory / "payload.bin")
    manifest["format_version"] = 5
    (directory / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(IndexFormatError, match="format version 5 .*rebuild"):
        load_index(directory)
