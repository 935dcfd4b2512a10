"""Save/load round-trip: a loaded index is indistinguishable from a fresh one."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from coverage_reference import answer_on, views_for

from repro.core.netclus import UpdateBatch
from repro.core.query import TOPSQuery
from repro.core.preference import ConvexProbabilityPreference, LinearPreference
from repro.network.generators import grid_network
from repro.service import (
    IndexFormatError,
    graph_fingerprint,
    load_index,
    load_manifest,
    save_index,
)
from repro.service import serialization
from repro.service.serialization import payload_digest, trajectory_fingerprint
from repro.trajectory.generators import commuter_trajectories
from repro.trajectory.model import Trajectory


#: a format-v3 directory (compressed ``payload.npz``) written by an older
#: release from the ``tiny_problem`` data with the ``WARM_QUERIES`` parts;
#: see ``tests/fixtures/legacy/README.md`` for how it was made
LEGACY_FIXTURE = Path(__file__).parent / "fixtures" / "legacy" / "v3_warm.ncx"


def _legacy_copy(tmp_path, name="legacy.ncx", mutate=None):
    """A writable copy of the legacy fixture, its manifest optionally edited."""
    path = shutil.copytree(LEGACY_FIXTURE, tmp_path / name)
    if mutate is not None:
        _set_manifest(path, mutate)
    return path


def _directory_digests(path):
    return {
        entry.name: hashlib.sha256(entry.read_bytes()).hexdigest()
        for entry in sorted(path.iterdir())
    }


def _assert_same_answers(a_index, b_index, queries):
    """Selections and per-trajectory utility bytes agree for every query,
    on the ψ-chosen views and on references of the same entries."""
    for query in queries:
        for view in views_for(query.preference):
            a = answer_on(a_index, query, view)
            b = answer_on(b_index, query, view)
            assert list(a.sites) == list(b.sites)
            assert (
                np.asarray(a.per_trajectory_utility).tobytes()
                == np.asarray(b.per_trajectory_utility).tobytes()
            )


@pytest.fixture(scope="module")
def saved_index(tiny_problem, tmp_path_factory):
    """A NetClus index over the tiny bundle, persisted to disk."""
    index = tiny_problem.build_netclus_index(
        gamma=0.75, tau_min_km=0.4, tau_max_km=4.0
    )
    path = tmp_path_factory.mktemp("index") / "city.ncx"
    save_index(index, path)
    return index, path


MIXED_QUERIES = [
    TOPSQuery(k=3, tau_km=0.5),
    TOPSQuery(k=5, tau_km=1.0),
    TOPSQuery(k=8, tau_km=2.0, preference=LinearPreference()),
    TOPSQuery(k=4, tau_km=3.0, preference=ConvexProbabilityPreference()),
]


# ---------------------------------------------------------------------- #
# round-trip equivalence
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("view", ["chosen", "dense"])
def test_roundtrip_query_parity(saved_index, view):
    index, path = saved_index
    loaded = load_index(path)
    for query in MIXED_QUERIES:
        fresh = answer_on(index, query, view)
        reloaded = answer_on(loaded, query, view)
        assert reloaded.sites == fresh.sites
        assert reloaded.utility == pytest.approx(fresh.utility)
        assert reloaded.per_trajectory_utility == pytest.approx(
            fresh.per_trajectory_utility
        )
        assert reloaded.metadata["instance_id"] == fresh.metadata["instance_id"]


def test_roundtrip_preserves_structure(saved_index):
    index, path = saved_index
    loaded = load_index(path)
    assert loaded.num_instances == index.num_instances
    assert loaded.num_trajectories == index.num_trajectories
    assert loaded.sites == index.sites
    assert loaded.trajectory_ids == index.trajectory_ids
    assert loaded.storage_bytes() == index.storage_bytes()
    for fresh, reloaded in zip(index.instances, loaded.instances):
        assert reloaded.num_clusters == fresh.num_clusters
        assert reloaded.radius_km == pytest.approx(fresh.radius_km)
        assert reloaded.node_to_cluster == fresh.node_to_cluster
        for a, b in zip(fresh.clusters, reloaded.clusters):
            assert b.center == a.center
            assert b.representative == a.representative
            assert b.nodes == pytest.approx(a.nodes)
            assert b.trajectory_list == pytest.approx(a.trajectory_list)
            assert b.neighbors == a.neighbors


def test_roundtrip_network_reconstruction(saved_index):
    index, path = saved_index
    loaded = load_index(path)
    assert graph_fingerprint(loaded.network) == graph_fingerprint(index.network)
    assert loaded.network.num_nodes == index.network.num_nodes
    assert loaded.network.num_edges == index.network.num_edges


def test_roundtrip_dynamic_update_parity(tiny_problem, tmp_path):
    """add/remove site + add/remove trajectory behave identically after reload."""
    index = tiny_problem.build_netclus_index(
        gamma=0.75, tau_min_km=0.4, tau_max_km=2.0, max_instances=3
    )
    path = save_index(index, tmp_path / "upd.ncx")
    loaded = load_index(path)
    query = TOPSQuery(k=4, tau_km=1.0)

    site = min(index.sites)
    for target in (index, loaded):
        target.remove_site(site)
        target.add_site(site)
    assert loaded.query(query).sites == index.query(query).sites

    new_traj = Trajectory.from_nodes(
        max(index.trajectory_ids) + 1,
        list(tiny_problem.trajectories[0].nodes),
        tiny_problem.network,
    )
    for target in (index, loaded):
        target.add_trajectory(new_traj)
    assert loaded.query(query).sites == index.query(query).sites
    assert loaded.trajectory_ids == index.trajectory_ids

    for target in (index, loaded):
        target.remove_trajectory(new_traj.traj_id)
    assert loaded.query(query).sites == index.query(query).sites


# ---------------------------------------------------------------------- #
# manifest + refusal paths
# ---------------------------------------------------------------------- #
def test_manifest_contents(saved_index):
    index, path = saved_index
    manifest = load_manifest(path)
    assert manifest["format"] == "netclus-index"
    assert manifest["format_version"] == 5
    assert manifest["payload_arrays"]  # v4 offset table
    assert manifest["payload_total_bytes"] == (path / "payload.bin").stat().st_size
    assert manifest["index_version"] == index.version
    assert manifest["build_params"]["gamma"] == pytest.approx(0.75)
    assert manifest["num_instances"] == index.num_instances
    assert len(manifest["instances"]) == index.num_instances
    prints = manifest["fingerprints"]
    assert prints["graph"] == graph_fingerprint(index.network)
    assert prints["trajectories"] == trajectory_fingerprint(index.trajectory_ids)


def test_load_accepts_matching_network_and_dataset(saved_index, tiny_problem):
    _, path = saved_index
    loaded = load_index(
        path, network=tiny_problem.network, dataset=tiny_problem.trajectories
    )
    assert loaded.network is tiny_problem.network


def test_load_refuses_wrong_network(saved_index):
    _, path = saved_index
    other = grid_network(4, 4, spacing_km=0.5)
    with pytest.raises(IndexFormatError, match="graph fingerprint"):
        load_index(path, network=other)


def test_load_refuses_wrong_dataset(saved_index, tiny_problem):
    _, path = saved_index
    other = commuter_trajectories(tiny_problem.network, 10, seed=99)
    with pytest.raises(IndexFormatError, match="trajectory fingerprint"):
        load_index(path, dataset=other)


def test_load_refuses_same_ids_different_content(tiny_problem, tmp_path):
    """Two datasets sharing an id numbering are told apart by content."""
    index = tiny_problem.build_netclus_index(
        gamma=0.75, tau_min_km=0.4, tau_max_km=2.0, max_instances=2
    )
    path = save_index(index, tmp_path / "content.ncx", dataset=tiny_problem.trajectories)
    manifest = load_manifest(path)
    assert "trajectory_content" in manifest["fingerprints"]
    # same network, same id numbering 0..m-1, different seed → different routes
    impostor = commuter_trajectories(
        tiny_problem.network, len(tiny_problem.trajectories), seed=12345
    )
    assert impostor.ids() == tiny_problem.trajectories.ids()
    with pytest.raises(IndexFormatError, match="trajectory content"):
        load_index(path, dataset=impostor)
    # the genuine dataset still loads
    load_index(path, dataset=tiny_problem.trajectories)


def test_save_refuses_foreign_dataset(saved_index, tiny_problem, tmp_path):
    index, _ = saved_index
    other = commuter_trajectories(tiny_problem.network, 10, seed=99)
    with pytest.raises(IndexFormatError, match="dataset/index mismatch"):
        save_index(index, tmp_path / "bad.ncx", dataset=other)


def test_load_refuses_corrupted_payload(saved_index, tmp_path):
    """v3's whole-file hash catches an appended byte; v4's size check does."""
    index, _ = saved_index
    path = _legacy_copy(tmp_path, "corrupt3.ncx")
    payload = path / "payload.npz"
    payload.write_bytes(payload.read_bytes() + b"tampered")
    with pytest.raises(IndexFormatError, match="payload fingerprint"):
        load_index(path)
    path = save_index(index, tmp_path / "corrupt4.ncx")
    blob = path / "payload.bin"
    blob.write_bytes(blob.read_bytes() + b"tampered")
    with pytest.raises(IndexFormatError, match="size mismatch"):
        load_index(path)


def test_load_refuses_unknown_version(saved_index, tmp_path):
    index, _ = saved_index
    path = save_index(index, tmp_path / "ver.ncx")
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = 999
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(IndexFormatError, match="version"):
        load_index(path)


def test_load_refuses_foreign_format(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(IndexFormatError, match="not a netclus-index"):
        load_manifest(tmp_path)


def test_load_refuses_missing_manifest(tmp_path):
    with pytest.raises(IndexFormatError, match="manifest"):
        load_index(tmp_path)


def test_fingerprints_are_deterministic(tiny_problem):
    net = tiny_problem.network
    assert graph_fingerprint(net) == graph_fingerprint(net.copy())
    ids = tiny_problem.trajectories.ids()
    assert trajectory_fingerprint(ids) == trajectory_fingerprint(np.asarray(ids))
    assert trajectory_fingerprint(ids) != trajectory_fingerprint(ids[::-1])


# ---------------------------------------------------------------------- #
# format v2: index version + visit-count bookkeeping (PR 3)
# ---------------------------------------------------------------------- #
def test_index_version_round_trips(tiny_problem, tmp_path):
    index = tiny_problem.build_netclus_index(
        gamma=0.75, tau_min_km=0.4, tau_max_km=2.0, max_instances=2
    )
    site = min(index.sites)
    index.remove_site(site)
    index.add_site(site)
    assert index.version == 2
    path = save_index(index, tmp_path / "ver2.ncx")
    loaded = load_index(path)
    assert loaded.version == 2
    assert load_manifest(path)["index_version"] == 2


# ---------------------------------------------------------------------- #
# persisted coverage parts — load matrix: every part test below runs
# against the committed legacy v3 directory (compressed .npz) and a fresh
# v4 save (packed mmap blob) of the same warm index
# ---------------------------------------------------------------------- #
WARM_QUERIES = [
    TOPSQuery(k=4, tau_km=1.0),
    TOPSQuery(k=3, tau_km=2.0, preference=LinearPreference()),
]


@pytest.fixture(params=["v3", "v5"])
def warm_saved_index(request, tiny_problem, tmp_path):
    """An index with a warm coverage cache, persisted with its parts (v5),
    or a copy of the legacy fixture holding the same parts (v3)."""
    index = tiny_problem.build_netclus_index(
        gamma=0.75, tau_min_km=0.4, tau_max_km=4.0
    )
    index.enable_coverage_cache()
    for query in WARM_QUERIES:
        index.query(query)
    if request.param == "v3":
        return index, _legacy_copy(tmp_path, "warm.ncx")
    return index, save_index(index, tmp_path / "warm.ncx")


def _set_manifest(path, mutate):
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    mutate(manifest)
    manifest_path.write_text(json.dumps(manifest))


def test_without_parts_loads_cold(saved_index):
    """An index saved without a cache has no parts and loads cold."""
    _, path = saved_index
    assert "coverage_parts" not in load_manifest(path)
    assert load_index(path).coverage_cache is None


def test_v3_parts_round_trip(warm_saved_index):
    index, path = warm_saved_index
    manifest = load_manifest(path)
    assert len(manifest["coverage_parts"]) == len(WARM_QUERIES)
    loaded = load_index(path)
    assert loaded.coverage_cache is not None
    assert len(loaded.coverage_cache.describe_parts()) == len(WARM_QUERIES)
    # warm answers match the original, and no store/patch was needed
    for query in WARM_QUERIES:
        a = index.query(query)
        b = loaded.query(query)
        assert list(a.sites) == list(b.sites)
        assert (
            np.asarray(a.per_trajectory_utility).tobytes()
            == np.asarray(b.per_trajectory_utility).tobytes()
        )
    stats = loaded.coverage_cache.stats()
    assert stats["hits"] == len(WARM_QUERIES)
    assert stats["stores"] == 0


def test_legacy_shard_keys_are_ignored(warm_saved_index, tmp_path, capsys):
    """Manifests written with the removed ``shards``/``shard_sizes`` keys
    load, inspect and answer exactly like the same directory without them;
    a re-save drops the keys."""
    from repro.service.cli import main

    _, path = warm_saved_index
    legacy = shutil.copytree(path, tmp_path / "legacy.ncx")
    num_trajectories = load_manifest(path)["num_trajectories"]
    third = num_trajectories // 3
    _set_manifest(
        legacy,
        lambda m: m.update(
            shards=3, shard_sizes=[third, third, num_trajectories - 2 * third]
        ),
    )
    assert main(["inspect", "--index", str(legacy), "--timings"]) == 0
    assert "query timings" in capsys.readouterr().out
    plain, with_keys = load_index(path), load_index(legacy)
    for query in WARM_QUERIES + MIXED_QUERIES:
        for view in views_for(query.preference):
            a = answer_on(plain, query, view)
            b = answer_on(with_keys, query, view)
            assert list(a.sites) == list(b.sites)
            assert (
                np.asarray(a.per_trajectory_utility).tobytes()
                == np.asarray(b.per_trajectory_utility).tobytes()
            )
    resaved = load_manifest(save_index(with_keys, tmp_path / "resaved.ncx"))
    assert "shards" not in resaved and "shard_sizes" not in resaved


def test_v3_with_coverage_false_skips_parts(warm_saved_index):
    _, path = warm_saved_index
    loaded = load_index(path, with_coverage=False)
    assert loaded.coverage_cache is None


def test_v3_stale_part_refused_not_crash(warm_saved_index):
    """A part recorded at a different index_version is skipped — the load
    succeeds and the key falls back to a cold rebuild with correct answers."""
    index, path = warm_saved_index

    def bump(manifest):
        manifest["coverage_parts"][0]["index_version"] = 999

    _set_manifest(path, bump)
    loaded = load_index(path)
    assert len(loaded.coverage_cache.describe_parts()) == len(WARM_QUERIES) - 1
    for query in WARM_QUERIES:  # including the refused key
        a = index.query(query)
        b = loaded.query(query)
        assert list(a.sites) == list(b.sites)
        assert (
            np.asarray(a.per_trajectory_utility).tobytes()
            == np.asarray(b.per_trajectory_utility).tobytes()
        )


def test_v3_all_parts_stale_loads_without_cacheless_crash(warm_saved_index):
    index, path = warm_saved_index

    def bump_all(manifest):
        for entry in manifest["coverage_parts"]:
            entry["index_version"] = 999

    _set_manifest(path, bump_all)
    loaded = load_index(path)
    cache = loaded.coverage_cache
    assert cache is None or not cache.describe_parts()
    query = WARM_QUERIES[0]
    assert loaded.query(query).sites == index.query(
        query
    ).sites


def test_v3_truncated_part_raises(warm_saved_index):
    """A manifest declaring more entries than the payload holds is corrupt."""
    _, path = warm_saved_index

    def truncate(manifest):
        entry = manifest["coverage_parts"][0]
        entry["num_entries"] = int(entry["num_entries"]) + 5

    _set_manifest(path, truncate)
    with pytest.raises(IndexFormatError, match="entry arrays are inconsistent"):
        load_index(path)


def test_v3_missing_part_arrays_raise(warm_saved_index):
    """A part slot with no payload arrays behind it is corrupt."""
    _, path = warm_saved_index

    def reslot(manifest):
        manifest["coverage_parts"][0]["slot"] = 7

    _set_manifest(path, reslot)
    with pytest.raises(IndexFormatError, match="payload arrays missing"):
        load_index(path)


def test_v3_unknown_preference_part_raises(warm_saved_index):
    _, path = warm_saved_index

    def rename(manifest):
        manifest["coverage_parts"][0]["preference"] = "no-such-psi"

    _set_manifest(path, rename)
    with pytest.raises(IndexFormatError, match="unknown preference"):
        load_index(path)


def test_v3_registry_size_mismatch_raises(warm_saved_index):
    _, path = warm_saved_index

    def shrink(manifest):
        entry = manifest["coverage_parts"][0]
        entry["num_trajectories"] = int(entry["num_trajectories"]) - 1

    _set_manifest(path, shrink)
    with pytest.raises(IndexFormatError, match="registry size mismatch"):
        load_index(path)


def test_tampered_payload_still_refused(warm_saved_index):
    """Appending bytes to the payload is refused in either format."""
    _, path = warm_saved_index
    payload = path / "payload.npz"
    if payload.is_file():
        payload.write_bytes(payload.read_bytes() + b"x")
        expected = "payload fingerprint"
    else:
        payload = path / "payload.bin"
        payload.write_bytes(payload.read_bytes() + b"x")
        expected = "size mismatch"
    with pytest.raises(IndexFormatError, match=expected):
        load_index(path)


# ---------------------------------------------------------------------- #
# format v4: packed mmap blob + offset table + copy-on-write (PR 10)
# ---------------------------------------------------------------------- #
def _tamper_offset_table(path, mutate):
    def inner(manifest):
        mutate(manifest["payload_arrays"])

    _set_manifest(path, inner)


def test_v4_truncated_blob_raises(saved_index, tmp_path):
    index, _ = saved_index
    path = save_index(index, tmp_path / "trunc.ncx")
    blob = path / "payload.bin"
    blob.write_bytes(blob.read_bytes()[:-16])
    with pytest.raises(IndexFormatError, match="size mismatch"):
        load_index(path)


def test_v4_offset_table_mismatch_raises(saved_index, tmp_path):
    index, _ = saved_index
    path = save_index(index, tmp_path / "table.ncx")

    def stretch(table):
        entry = next(iter(table.values()))
        entry["nbytes"] = int(entry["nbytes"]) + 8

    _tamper_offset_table(path, stretch)
    with pytest.raises(IndexFormatError, match="offset-table mismatch"):
        load_index(path)


def test_v4_offset_out_of_bounds_raises(saved_index, tmp_path):
    index, _ = saved_index
    path = save_index(index, tmp_path / "bounds.ncx")
    total = load_manifest(path)["payload_total_bytes"]

    def shift(table):
        entry = max(table.values(), key=lambda e: int(e["offset"]))
        entry["offset"] = int(total)  # pushes offset+nbytes past the blob

    _tamper_offset_table(path, shift)
    with pytest.raises(IndexFormatError, match="out of bounds"):
        load_index(path)


def test_v4_missing_offset_table_raises(saved_index, tmp_path):
    index, _ = saved_index
    path = save_index(index, tmp_path / "notable.ncx")
    _set_manifest(path, lambda m: m.pop("payload_arrays"))
    with pytest.raises(IndexFormatError, match="offset table"):
        load_index(path)


def test_v4_missing_blob_raises(saved_index, tmp_path):
    index, _ = saved_index
    path = save_index(index, tmp_path / "noblob.ncx")
    (path / "payload.bin").unlink()
    with pytest.raises(IndexFormatError, match="payload.bin"):
        load_index(path)


def test_v4_loaded_views_are_read_only(warm_saved_index):
    """A loaded part's entries and the instance arrays its columns are
    read off are all read-only."""
    _, path = warm_saved_index
    loaded = load_index(path)
    for part in loaded.coverage_cache.parts.values():
        instance = next(i for i in loaded.instances if i.instance_id == part.instance_id)
        for array in (part.rows, part.cols, part.estimates, instance.reps):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            part.rows[0] = 0
        assert part.cols.max() < instance.num_representatives


def _instance_state(instance):
    """Every state array of one instance, by payload key suffix."""
    state = {
        key: getattr(instance, key)
        for key in ("centers", "reps", "rep_rt")
    }
    for key in ("nodes", "tl", "nb"):
        ragged = getattr(instance, key)
        for part in ("indptr", "ids", "vals"):
            state[f"{key}_{part}"] = getattr(ragged, part)
    return state


def _mapped_file(array):
    """The file an array view maps, or ``None`` for an in-memory array."""
    base = array
    while base is not None and not isinstance(base, np.memmap):
        base = base.base
    return None if base is None else Path(base.filename)


def test_v4_instances_are_views_copied_on_first_write(saved_index):
    """A v4-loaded instance wraps read-only views over the mapped blob; the
    first update copies only the arrays it edits."""
    _, path = saved_index
    loaded = load_index(path)
    blob = (path / "payload.bin").resolve()
    before = [_instance_state(instance) for instance in loaded.instances]
    for state in before:
        for name, array in state.items():
            assert not array.flags.writeable, name
            assert _mapped_file(array) == blob, name

    victim = loaded.trajectory_ids[0]
    loaded.remove_trajectories([victim])
    for instance, old in zip(loaded.instances, before):
        edited = {"tl_indptr", "tl_ids", "tl_vals"} if victim in old["tl_ids"] else set()
        for name, array in _instance_state(instance).items():
            if name in edited:
                assert array is not old[name] and _mapped_file(array) is None, name
                assert victim not in instance.tl.ids
            else:
                assert array is old[name], name

    instance = loaded.instances[0]
    after_removal = _instance_state(instance)
    representative = int(instance.reps[instance.reps >= 0][0])
    loaded.remove_sites([representative])
    for name, array in _instance_state(instance).items():
        if name in ("reps", "rep_rt"):
            assert array is not after_removal[name] and _mapped_file(array) is None
        else:
            assert array is after_removal[name], name
    assert representative not in instance.reps


@pytest.fixture(scope="module")
def corruptible_index(tmp_path_factory):
    """``beijing_like("tiny", seed=1)`` saved as v4, and its sparse answer."""
    from repro.core.netclus import NetClusIndex
    from repro.datasets import beijing_like

    bundle = beijing_like("tiny", seed=1)
    index = NetClusIndex.build(
        bundle.network, bundle.trajectories, bundle.sites, gamma=0.75, tau_max_km=4.0
    )
    path = save_index(index, tmp_path_factory.mktemp("corrupt") / "city.ncx")
    answer = index.query(TOPSQuery(k=5, tau_km=0.8))
    return path, answer.sites


def _poke(key, position, value):
    """Overwrite one element of payload array *key* in the blob."""

    def mutate(path, table, arrays):
        entry = table[key]
        mapped = np.memmap(
            path / "payload.bin",
            dtype=np.dtype(entry["dtype"]),
            mode="r+",
            offset=entry["offset"],
            shape=tuple(entry["shape"]),
        )
        mapped[position] = value(arrays) if callable(value) else value
        mapped.flush()
        del mapped

    return mutate


def _retable(edit):
    """Edit the offset table (dtype, shape, presence) of the manifest."""

    def mutate(path, table, arrays):
        _tamper_offset_table(path, edit)

    return mutate


def _shorten(key):
    def edit(table):
        table[key]["shape"][0] -= 1
        table[key]["nbytes"] -= np.dtype(table[key]["dtype"]).itemsize

    return edit


CORRUPTIONS = {
    "tl_indptr_decreases": _poke("i1_tl_indptr", 3, lambda a: a["i1_tl_indptr"][5]),
    "nodes_indptr_nonzero_start": _poke("i1_nodes_indptr", 0, 1),
    "nb_indptr_short_end": _poke("i1_nb_indptr", -1, lambda a: a["i1_nb_indptr"][-1] - 1),
    "nb_id_negative": _poke("i1_nb_ids", 0, -1),
    "nb_id_out_of_range": _poke("i1_nb_ids", 0, lambda a: len(a["i1_centers"])),
    "node_id_out_of_range": _poke("i1_nodes_ids", 0, lambda a: len(a["net_node_ids"])),
    "node_in_two_clusters": _poke(
        "i1_nodes_ids", 0, lambda a: a["i1_nodes_ids"][a["i1_nodes_indptr"][-2]]
    ),
    "center_out_of_range": _poke("i1_centers", 0, lambda a: len(a["net_node_ids"])),
    "rep_below_minus_one": _poke("i1_reps", 0, -2),
    "rep_out_of_range": _poke(
        "i1_reps",
        slice(None),
        lambda a: np.where(a["i1_reps"] >= 0, len(a["net_node_ids"]), -1),
    ),
    "rep_rt_not_finite": _poke(
        "i1_rep_rt", slice(None), lambda a: np.where(a["i1_reps"] >= 0, np.nan, np.inf)
    ),
    "reps_wrong_dtype": _retable(lambda table: table["i1_reps"].update(dtype="<f8")),
    "rep_rt_wrong_length": _retable(_shorten("i1_rep_rt")),
    "tl_vals_wrong_length": _retable(_shorten("i1_tl_vals")),
    "nb_vals_missing": _retable(lambda table: table.pop("i1_nb_vals")),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_v4_corrupt_instance_arrays_refused_at_load(corruptible_index, tmp_path, corruption):
    """A damaged instance array in a v4 blob raises IndexFormatError at load
    instead of answering wrongly or failing with a numpy error later."""
    source, expected_sites = corruptible_index
    path = Path(shutil.copytree(source, tmp_path / "city.ncx"))
    intact = load_index(path).query(TOPSQuery(k=5, tau_km=0.8))
    assert intact.sites == expected_sites
    manifest = load_manifest(path)
    views = serialization._blob_views(*serialization._open_blob(path, manifest))
    arrays = {key: np.array(view) for key, view in views.items()}
    del views
    CORRUPTIONS[corruption](path, manifest["payload_arrays"], arrays)
    with pytest.raises(IndexFormatError, match="instance 1"):
        load_index(path)


#: the linear-ψ query whose coverage part the part-corruption test damages
PART_QUERY = TOPSQuery(k=5, tau_km=0.8, preference=LinearPreference())


@pytest.fixture(scope="module")
def corruptible_part(tmp_path_factory):
    """``beijing_like("tiny", seed=1)`` saved as v4 with one warm linear-ψ
    coverage part (slot 0), and that query's answer."""
    from repro.core.netclus import NetClusIndex
    from repro.datasets import beijing_like

    bundle = beijing_like("tiny", seed=1)
    index = NetClusIndex.build(
        bundle.network, bundle.trajectories, bundle.sites, gamma=0.75, tau_max_km=4.0
    )
    index.enable_coverage_cache()
    answer = index.query(PART_QUERY)
    path = save_index(index, tmp_path_factory.mktemp("part") / "city.ncx")
    return path, answer.sites


PART_CORRUPTIONS = {
    "entries_reversed": [
        _poke(key, slice(None), lambda a, key=key: a[key][::-1])
        for key in ("cov0_rows", "cov0_cols", "cov0_est")
    ],
    "estimate_above_tau": [_poke("cov0_est", 0, PART_QUERY.tau_km * 1.5)],
    "estimate_nan": [_poke("cov0_est", -1, np.nan)],
    "row_out_of_range": [_poke("cov0_rows", -1, 10**6)],
}


@pytest.mark.parametrize("corruption", sorted(PART_CORRUPTIONS))
def test_v4_corrupt_coverage_part_refused_at_load(corruptible_part, tmp_path, corruption):
    """A coverage part that is out of canonical order, holds an estimate
    above τ or a NaN, or names a row past the registry raises
    IndexFormatError at load instead of being materialised and served."""
    source, expected_sites = corruptible_part
    path = Path(shutil.copytree(source, tmp_path / "city.ncx"))
    assert load_index(path).query(PART_QUERY).sites == expected_sites
    manifest = load_manifest(path)
    views = serialization._blob_views(*serialization._open_blob(path, manifest))
    arrays = {key: np.array(view) for key, view in views.items()}
    del views
    for mutate in PART_CORRUPTIONS[corruption]:
        mutate(path, manifest["payload_arrays"], arrays)
    with pytest.raises(IndexFormatError, match="coverage part 0"):
        load_index(path)


def test_v4_apply_updates_never_writes_through(tmp_path):
    """The read-only contract: a mutate-and-query session on a v4-loaded
    index succeeds (copy-on-write) and leaves the file bytes untouched."""
    from repro.core.netclus import NetClusIndex, UpdateBatch

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
    query = TOPSQuery(k=4, tau_km=1.0)
    index.query(query)
    path = save_index(index, tmp_path / "cow.ncx")
    blob_before = (path / "payload.bin").read_bytes()
    manifest_before = (path / "manifest.json").read_bytes()

    loaded = load_index(path)
    batch = UpdateBatch(
        remove_sites=sorted(loaded.sites)[:2],
        remove_trajectories=list(loaded.trajectory_ids)[:5],
    )
    loaded.apply_updates(batch)
    index.apply_updates(batch)
    a = index.query(query)
    b = loaded.query(query)
    assert list(a.sites) == list(b.sites)
    assert (
        np.asarray(a.per_trajectory_utility).tobytes()
        == np.asarray(b.per_trajectory_utility).tobytes()
    )
    assert (path / "payload.bin").read_bytes() == blob_before
    assert (path / "manifest.json").read_bytes() == manifest_before


def test_v4_loaded_index_resaves_identically(warm_saved_index, tmp_path):
    """save(load(dir)) reproduces the payload — the farm's write-through
    eviction path depends on a loaded index serialising like the original."""
    index, path = warm_saved_index
    # the legacy fixture's build_seconds slots come from another build
    include_timings = not (path / "payload.npz").is_file()
    loaded = load_index(path)
    resaved = save_index(loaded, tmp_path / "resave.ncx")
    assert load_manifest(resaved)["format_version"] == 5
    digests = {payload_digest(x, include_timings=include_timings) for x in (loaded, index)}
    assert len(digests) == 1
    reloaded = load_index(resaved)
    for query in WARM_QUERIES:
        assert reloaded.query(query).sites == index.query(
            query
        ).sites


def test_most_frequent_visit_data_round_trips(tmp_path):
    """Dynamic re-election on a loaded most_frequent index matches the
    original's — the visit-count bookkeeping survives the round-trip."""
    network = grid_network(6, 6, spacing_km=0.5)
    dataset = commuter_trajectories(network, 40, seed=7)
    from repro.core.netclus import NetClusIndex

    index = NetClusIndex.build(
        network,
        dataset,
        network.node_ids()[::3],
        gamma=0.75,
        tau_min_km=0.4,
        tau_max_km=2.0,
        representative_strategy="most_frequent",
    )
    loaded = load_index(save_index(index, tmp_path / "mf.ncx"))
    for mutant in (index, loaded):
        mutant.add_sites(network.node_ids())
        mutant.remove_trajectories(list(dataset.ids())[:10])
    for instance_a, instance_b in zip(index.instances, loaded.instances):
        for cluster_a, cluster_b in zip(instance_a.clusters, instance_b.clusters):
            assert cluster_a.representative == cluster_b.representative


# ---------------------------------------------------------------------- #
# legacy v1–v3 directories: read through the v4 load path, migrated by
# the next save
# ---------------------------------------------------------------------- #
def _as_v1(manifest):
    """v1 had no index_version and no coverage parts."""
    manifest.update(format_version=1)
    del manifest["index_version"]
    del manifest["coverage_parts"]


def _as_v2(manifest):
    manifest.update(format_version=2)
    del manifest["coverage_parts"]


def _without_parts(manifest):
    del manifest["coverage_parts"]


LEGACY_VARIANTS = {"v1": _as_v1, "v2": _as_v2, "v3": None, "v3-no-parts": _without_parts}


@pytest.mark.parametrize("variant", sorted(LEGACY_VARIANTS))
def test_legacy_directory_answers_like_a_fresh_build(saved_index, tmp_path, variant):
    """Every legacy variant loads read-only (v1 at version 0), attaches
    parts only when it has them, keeps its stage records (their stale
    ``workers`` counts ignored), answers byte-identically to a fresh
    build on the chosen and reference views, and re-saves as a v5
    directory."""
    index, _ = saved_index
    path = _legacy_copy(tmp_path, mutate=LEGACY_VARIANTS[variant])
    manifest = load_manifest(path)
    arrays = serialization._legacy_arrays(path, manifest["fingerprints"])
    assert not any(array.flags.writeable for array in arrays.values())
    loaded = load_index(path)
    assert loaded.version == manifest.get("index_version", 0) == index.version
    assert (loaded.coverage_cache is not None) == ("coverage_parts" in manifest)
    assert all(stat["workers"] == 1 for stat in manifest["build_stats"])
    assert [stat.as_dict() for stat in loaded.build_stats] == [
        {key: value for key, value in stat.items() if key != "workers"}
        for stat in manifest["build_stats"]
    ]
    _assert_same_answers(index, loaded, WARM_QUERIES + MIXED_QUERIES)

    resaved = save_index(loaded, tmp_path / "resaved.ncx")
    assert load_manifest(resaved)["format_version"] == 5
    assert load_manifest(resaved)["build_stats"] == [
        stat.as_dict() for stat in loaded.build_stats
    ]
    assert sorted(entry.name for entry in resaved.iterdir()) == ["manifest.json", "payload.bin"]
    _assert_same_answers(index, load_index(resaved), WARM_QUERIES + MIXED_QUERIES)


def test_legacy_resave_after_update_migrates_in_place(tiny_problem, tmp_path):
    """Load the legacy fixture, update it and save over it: the directory
    becomes v4 and answers like a fresh build given the same update."""
    fixture_before = _directory_digests(LEGACY_FIXTURE)
    path = _legacy_copy(tmp_path)
    loaded = load_index(path)
    batch = UpdateBatch(
        remove_sites=sorted(loaded.sites)[:2],
        remove_trajectories=list(loaded.trajectory_ids)[:5],
    )
    loaded.apply_updates(batch)
    save_index(loaded, path)

    assert not (path / "payload.npz").exists()
    assert (path / "payload.bin").is_file()
    assert load_manifest(path)["format_version"] == 5
    assert _directory_digests(LEGACY_FIXTURE) == fixture_before

    fresh = tiny_problem.build_netclus_index(gamma=0.75, tau_min_km=0.4, tau_max_km=4.0)
    fresh.apply_updates(batch)
    reloaded = load_index(path)
    # the patched warm parts were persisted at the post-update version
    assert len(reloaded.coverage_cache.describe_parts()) == len(WARM_QUERIES)
    _assert_same_answers(fresh, reloaded, WARM_QUERIES + MIXED_QUERIES)


def test_crash_before_manifest_commit_keeps_legacy_directory(
    saved_index, tmp_path, monkeypatch
):
    """A migration that dies before its manifest rename leaves the legacy
    payload in place: the directory still loads as the legacy index."""
    index, _ = saved_index
    path = _legacy_copy(tmp_path)
    loaded = load_index(path)
    real_replace = os.replace

    def crash_on_manifest(src, dst):
        if Path(dst).name == "manifest.json":
            raise OSError("simulated crash before the manifest rename")
        real_replace(src, dst)

    monkeypatch.setattr(serialization.os, "replace", crash_on_manifest)
    with pytest.raises(OSError, match="simulated crash"):
        save_index(loaded, path)
    monkeypatch.undo()

    assert load_manifest(path)["format_version"] == 3
    assert not list(path.glob("*.tmp"))  # the failed save cleaned up its staging
    recovered = load_index(path)
    assert len(recovered.coverage_cache.describe_parts()) == len(WARM_QUERIES)
    _assert_same_answers(index, recovered, WARM_QUERIES + MIXED_QUERIES)


def test_concurrent_saves_into_one_directory_never_collide(saved_index, tmp_path):
    """Two threads saving one index into one directory: every save stages
    under its own names, so none renames another's staging file away, and
    the directory ends loadable with no staging file left behind."""
    index, _ = saved_index
    target = tmp_path / "city.ncx"
    start = threading.Barrier(2)
    errors: list[BaseException] = []

    def saver() -> None:
        try:
            start.wait()
            for _ in range(30):
                save_index(index, target)
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
    assert sorted(entry.name for entry in target.iterdir()) == ["manifest.json", "payload.bin"]
    manifest = load_manifest(target)
    payload = (target / "payload.bin").read_bytes()
    assert manifest["fingerprints"]["payload_sha256"] == hashlib.sha256(payload).hexdigest()
    assert payload_digest(load_index(target)) == payload_digest(index)


def _roll_n2c_clusters(arrays, pick):
    for key in [key for key in arrays if key.endswith("_n2c_clusters")]:
        arrays[key] = np.roll(arrays[key], 1)


def _flip_selected_label(arrays, pick):
    """Relabel the column of site *pick* in part slot 0 (``WARM_QUERIES[0]``)."""
    labels = arrays["cov0_rep_sites"].copy()
    at = int(np.flatnonzero(labels == pick)[0])
    labels[at] = labels[at - 1]
    arrays["cov0_rep_sites"] = labels


#: damage to the derived copies a legacy payload carries, which loads
#: must not read (v4 directories carry the same copies)
DERIVED_TAMPERING = {
    "n2c_clusters_rolled": _roll_n2c_clusters,
    "rep_site_label_flipped": _flip_selected_label,
}


@pytest.mark.parametrize("tampering", sorted(DERIVED_TAMPERING))
def test_tampered_derived_copies_change_no_answer(tiny_problem, tmp_path, tampering):
    """Damaging the node → cluster copy or a part's representative labels
    inside a legacy payload (its hash updated to match) changes no answer:
    cold, warm, with existing sites, and after one update batch."""
    intact_path = _legacy_copy(tmp_path, "intact.ncx")
    intact = load_index(intact_path)
    pick = intact.query(WARM_QUERIES[0]).sites[0]
    path = _legacy_copy(tmp_path, "tampered.ncx")
    payload = path / "payload.npz"
    with np.load(payload) as stored:
        arrays = {key: stored[key] for key in stored.files}
    DERIVED_TAMPERING[tampering](arrays, pick)
    np.savez_compressed(payload, **arrays)
    digest = hashlib.sha256(payload.read_bytes()).hexdigest()
    _set_manifest(path, lambda m: m["fingerprints"].update(payload_sha256=digest))

    queries = WARM_QUERIES + MIXED_QUERIES
    intact, tampered = load_index(intact_path), load_index(path)
    cold_intact = load_index(intact_path, with_coverage=False)
    cold_tampered = load_index(path, with_coverage=False)
    _assert_same_answers(cold_intact, cold_tampered, queries)
    _assert_same_answers(intact, tampered, queries)
    existing = sorted(intact.sites)[::9][:4]
    for query in queries:
        a = intact.query(query, existing_sites=existing)
        b = tampered.query(query, existing_sites=existing)
        assert a.sites == b.sites
        assert (
            np.asarray(a.per_trajectory_utility).tobytes()
            == np.asarray(b.per_trajectory_utility).tobytes()
        )

    trajectories = list(tiny_problem.trajectories)[:6]
    next_id = max(intact.trajectory_ids) + 1
    batch = UpdateBatch(
        remove_trajectories=intact.trajectory_ids[:6],
        add_trajectories=[
            Trajectory(next_id + i, t.nodes, t.cumulative_km, t.timestamps)
            for i, t in enumerate(trajectories)
        ],
        remove_sites=sorted(intact.sites)[:2],
    )
    for loaded in (intact, tampered):
        loaded.apply_updates(batch)
    _assert_same_answers(intact, tampered, queries)


@pytest.mark.parametrize("warm_saved_index", ["v5"], indirect=True)
def test_v4_directory_loads_without_reading_its_derived_copies(warm_saved_index, tmp_path):
    """A v4 directory (the v5 blob plus a node → cluster copy per instance
    and a representative layout per part) loads through the same path and
    answers like the index it was saved from, even with every copy wrong."""
    index, path = warm_saved_index
    manifest = load_manifest(path)
    views = serialization._blob_views(*serialization._open_blob(path, manifest))
    arrays = {key: np.array(view) for key, view in views.items()}
    del views
    for instance in index.instances:
        prefix = f"i{instance.instance_id}_"
        arrays[prefix + "n2c_nodes"] = instance.nodes.ids[::-1].copy()
        arrays[prefix + "n2c_clusters"] = np.roll(instance.nodes.owners(), 1)
    for entry in manifest["coverage_parts"]:
        instance = index.instances[entry["instance_id"]]
        reps = instance.reps[instance.representative_clusters()]
        arrays[f"cov{entry['slot']}_rep_sites"] = reps[::-1].copy()
        arrays[f"cov{entry['slot']}_rep_clusters"] = np.zeros(len(reps), dtype=np.int64)
        entry["num_representatives"] = len(reps)
    v4 = tmp_path / "v4.ncx"
    v4.mkdir()
    table, total, digest = serialization._commit_file(
        v4, "payload.bin", lambda handle: serialization._write_blob(handle, arrays)
    )
    manifest.update(format_version=4, payload_arrays=table, payload_total_bytes=total)
    manifest["fingerprints"]["payload_sha256"] = digest
    (v4 / "manifest.json").write_text(json.dumps(manifest))

    loaded = load_index(v4)
    _assert_same_answers(index, loaded, WARM_QUERIES + MIXED_QUERIES)
    batch = UpdateBatch(
        remove_sites=sorted(index.sites)[:2],
        remove_trajectories=list(index.trajectory_ids)[:5],
    )
    index.apply_updates(batch)
    loaded.apply_updates(batch)
    _assert_same_answers(index, loaded, WARM_QUERIES + MIXED_QUERIES)
    resaved = load_manifest(save_index(loaded, v4))
    assert resaved["format_version"] == 5
    assert not [
        key
        for key in resaved["payload_arrays"]
        if "_n2c_" in key or key.endswith(("_rep_sites", "_rep_clusters"))
    ]
