"""Save/load round-trip: a loaded index is indistinguishable from a fresh one."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from coverage_reference import answer_on, views_for

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


def _blob(path):
    """The payload blob the directory's manifest names."""
    return path / load_manifest(path)["payload_file"]


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
    assert manifest["format_version"] == 6
    assert manifest["payload_file"].startswith(f"payload.{index.version}.")
    assert manifest["payload_arrays"]  # the blob's offset table
    assert manifest["payload_total_bytes"] == _blob(path).stat().st_size
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
    """The blob size check catches an appended byte."""
    index, _ = saved_index
    path = save_index(index, tmp_path / "corrupt.ncx")
    blob = _blob(path)
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


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_load_refuses_older_format_versions(saved_index, tmp_path, version):
    """v6 is the only format read: a v6 directory relabelled as any older
    version is refused, naming the version."""
    _, path = saved_index
    relabelled = shutil.copytree(path, tmp_path / "old.ncx")
    _set_manifest(relabelled, lambda m: m.update(format_version=version))
    with pytest.raises(IndexFormatError, match=f"format version {version} "):
        load_index(relabelled)


#: every manifest key save_index writes (key paths; ints index lists)
MANIFEST_KEYS = [
    ("format",),
    ("format_version",),
    ("payload_file",),
    ("payload_arrays",),
    *(
        ("payload_arrays", key)
        for key in (*serialization._NETWORK_KEYS, "sites", "trajectory_ids")
    ),
    ("payload_total_bytes",),
    ("index_version",),
    ("build_params",),
    *(
        ("build_params", key)
        for key in (
            "gamma",
            "tau_min_km",
            "tau_max_km",
            "representative_strategy",
            "max_instances",
        )
    ),
    ("build_stats",),
    *(("build_stats", 0, key) for key in ("stage", "seconds", "per_instance_seconds")),
    *(
        ("coverage_parts", 0, key)
        for key in (
            "slot",
            "tau_km",
            "preference",
            "preference_params",
            "instance_id",
            "index_version",
            "num_trajectories",
            "num_entries",
        )
    ),
    *(
        (key,)
        for key in (
            "num_instances",
            "num_trajectories",
            "num_sites",
            "num_nodes",
            "num_edges",
            "storage_bytes",
            "build_seconds",
            "fingerprints",
            "instances",
        )
    ),
    *(("fingerprints", key) for key in ("payload_sha256", "graph", "trajectories")),
    *(
        ("instances", 0, key)
        for key in (
            "instance_id",
            "radius_km",
            "tau_range_km",
            "num_clusters",
            "num_representatives",
            "build_seconds",
            "mean_dominating_set_size",
        )
    ),
]


def _edit_key(key_path, edit):
    def mutate(manifest):
        *parents, last = key_path
        for key in parents:
            manifest = manifest[key]
        edit(manifest, last)

    return mutate


def _drop(container, key):
    del container[key]


def _mangle(container, key):
    container[key] = 7 if isinstance(container[key], str) else "x"


def _lengthen(container, key):
    container[key] = [*container[key], 9.0]


def _cut_to_one(container, key):
    container[key] = container[key][:1]


#: (key path, edit): every key dropped and mangled, plus list-length cases
MANIFEST_EDITS = [
    *((key_path, edit) for key_path in MANIFEST_KEYS for edit in (_drop, _mangle)),
    (("instances", 0, "tau_range_km"), _lengthen),
    (("instances", 0, "tau_range_km"), _cut_to_one),
]
EDIT_NAMES = {_drop: "missing", _mangle: "malformed", _lengthen: "three", _cut_to_one: "one"}


@pytest.mark.parametrize(
    ("key_path", "edit"),
    MANIFEST_EDITS,
    ids=[f"{'.'.join(map(str, path))}-{EDIT_NAMES[edit]}" for path, edit in MANIFEST_EDITS],
)
def test_load_refuses_incomplete_manifest(warm_saved_index, key_path, edit):
    """Every key a v6 manifest holds is required and typed: a missing or
    malformed one (a ``tau_range_km`` that is not a pair included) raises
    IndexFormatError, never a KeyError or a silent default, and so does
    ``inspect``."""
    from repro.service.cli import main

    _, path = warm_saved_index
    _set_manifest(path, _edit_key(key_path, edit))
    with pytest.raises(IndexFormatError):
        load_index(path)
    with pytest.raises(IndexFormatError):
        main(["inspect", "--index", str(path)])


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
# the index version counter
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
# persisted coverage parts
# ---------------------------------------------------------------------- #
WARM_QUERIES = [
    TOPSQuery(k=4, tau_km=1.0),
    TOPSQuery(k=3, tau_km=2.0, preference=LinearPreference()),
]


@pytest.fixture()
def warm_saved_index(tiny_problem, tmp_path):
    """An index with a warm coverage cache, persisted with its parts."""
    index = tiny_problem.build_netclus_index(
        gamma=0.75, tau_min_km=0.4, tau_max_km=4.0
    )
    index.enable_coverage_cache()
    for query in WARM_QUERIES:
        index.query(query)
    return index, save_index(index, tmp_path / "warm.ncx")


def _set_manifest(path, mutate):
    manifest_path = path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    mutate(manifest)
    manifest_path.write_text(json.dumps(manifest))


def test_without_parts_loads_cold(saved_index, tmp_path):
    """An index saved without a cache lists no parts and loads cold; a
    manifest without the key is refused like any other incomplete one."""
    _, path = saved_index
    assert json.loads((path / "manifest.json").read_text())["coverage_parts"] == []
    assert load_index(path).coverage_cache is None
    bare = shutil.copytree(path, tmp_path / "bare.ncx")
    _set_manifest(bare, lambda m: m.pop("coverage_parts"))
    with pytest.raises(IndexFormatError, match="coverage_parts is missing"):
        load_manifest(bare)


def test_parts_round_trip(warm_saved_index):
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


def test_part_with_coverage_false_skips_parts(warm_saved_index):
    _, path = warm_saved_index
    loaded = load_index(path, with_coverage=False)
    assert loaded.coverage_cache is None


def test_part_stale_part_refused_not_crash(warm_saved_index):
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


def test_part_all_parts_stale_loads_without_cacheless_crash(warm_saved_index):
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


def test_part_truncated_part_raises(warm_saved_index):
    """A manifest declaring more entries than the payload holds is corrupt."""
    _, path = warm_saved_index

    def truncate(manifest):
        entry = manifest["coverage_parts"][0]
        entry["num_entries"] = int(entry["num_entries"]) + 5

    _set_manifest(path, truncate)
    with pytest.raises(IndexFormatError, match="entry arrays are inconsistent"):
        load_index(path)


def test_part_missing_part_arrays_raise(warm_saved_index):
    """A part slot with no payload arrays behind it is corrupt."""
    _, path = warm_saved_index

    def reslot(manifest):
        manifest["coverage_parts"][0]["slot"] = 7

    _set_manifest(path, reslot)
    with pytest.raises(IndexFormatError, match="payload arrays missing"):
        load_index(path)


def test_part_unknown_preference_part_raises(warm_saved_index):
    _, path = warm_saved_index

    def rename(manifest):
        manifest["coverage_parts"][0]["preference"] = "no-such-psi"

    _set_manifest(path, rename)
    with pytest.raises(IndexFormatError, match="unknown preference"):
        load_index(path)


def test_part_registry_size_mismatch_raises(warm_saved_index):
    _, path = warm_saved_index

    def shrink(manifest):
        entry = manifest["coverage_parts"][0]
        entry["num_trajectories"] = int(entry["num_trajectories"]) - 1

    _set_manifest(path, shrink)
    with pytest.raises(IndexFormatError, match="registry size mismatch"):
        load_index(path)


def test_tampered_payload_still_refused(warm_saved_index):
    """Appending bytes to a warm index's payload is refused."""
    _, path = warm_saved_index
    payload = _blob(path)
    payload.write_bytes(payload.read_bytes() + b"x")
    with pytest.raises(IndexFormatError, match="size mismatch"):
        load_index(path)


# ---------------------------------------------------------------------- #
# the packed mmap blob + offset table + copy-on-write
# ---------------------------------------------------------------------- #
def _tamper_offset_table(path, mutate):
    def inner(manifest):
        mutate(manifest["payload_arrays"])

    _set_manifest(path, inner)


def test_v4_truncated_blob_raises(saved_index, tmp_path):
    index, _ = saved_index
    path = save_index(index, tmp_path / "trunc.ncx")
    blob = _blob(path)
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
    _set_manifest(path, lambda m: m.update(payload_arrays={}))
    with pytest.raises(IndexFormatError, match="payload_arrays.net_node_ids is missing"):
        load_index(path)
    _set_manifest(path, lambda m: m.pop("payload_arrays"))
    with pytest.raises(IndexFormatError, match="payload_arrays is missing"):
        load_index(path)


def test_v4_missing_blob_raises(saved_index, tmp_path):
    index, _ = saved_index
    path = save_index(index, tmp_path / "noblob.ncx")
    blob = _blob(path)
    blob.unlink()
    with pytest.raises(IndexFormatError, match=f"no {blob.name}"):
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
    blob = _blob(path).resolve()
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
            _blob(path),
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
    "rep_rt_negative": _poke(
        "i1_rep_rt", slice(None), lambda a: np.where(a["i1_reps"] >= 0, -0.5, np.inf)
    ),
    "tl_vals_negative": _poke("i1_tl_vals", 0, -0.25),
    "tl_vals_nan": _poke("i1_tl_vals", -1, np.nan),
    "nb_vals_negative": _poke("i1_nb_vals", 0, -0.25),
    "nb_vals_nan": _poke("i1_nb_vals", -1, np.nan),
    "nodes_vals_negative": _poke("i1_nodes_vals", 0, -0.25),
    "nodes_vals_nan": _poke("i1_nodes_vals", -1, np.nan),
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
    views = serialization._map_blob(path, manifest)
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
    views = serialization._map_blob(path, manifest)
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
    )
    index.enable_coverage_cache()
    query = TOPSQuery(k=4, tau_km=1.0)
    index.query(query)
    path = save_index(index, tmp_path / "cow.ncx")
    blob_before = _blob(path).read_bytes()
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
    assert _blob(path).read_bytes() == blob_before
    assert (path / "manifest.json").read_bytes() == manifest_before


def test_v4_loaded_index_resaves_identically(warm_saved_index, tmp_path):
    """save(load(dir)) reproduces the payload — the farm's write-through
    eviction path depends on a loaded index serialising like the original."""
    index, path = warm_saved_index
    loaded = load_index(path)
    resaved = save_index(loaded, tmp_path / "resave.ncx")
    assert load_manifest(resaved)["format_version"] == 6
    assert payload_digest(loaded) == payload_digest(index)
    reloaded = load_index(resaved)
    for query in WARM_QUERIES:
        assert reloaded.query(query).sites == index.query(
            query
        ).sites


def test_crash_before_manifest_commit_keeps_previous_directory(
    warm_saved_index, monkeypatch
):
    """A re-save that dies at the manifest rename unlinks its staging file
    and its blob and leaves the directory as it was: it still loads and
    answers like the index it holds."""
    index, path = warm_saved_index
    manifest_before = (path / "manifest.json").read_bytes()
    files_before = sorted(entry.name for entry in path.iterdir())
    real_replace = serialization.os.replace

    def crash_on_manifest(src, dst):
        if Path(dst).name == "manifest.json":
            raise OSError("simulated crash before the manifest rename")
        real_replace(src, dst)

    monkeypatch.setattr(serialization.os, "replace", crash_on_manifest)
    with pytest.raises(OSError, match="simulated crash"):
        save_index(load_index(path), path)
    monkeypatch.undo()

    # the failed save cleaned up its staging file and its blob
    assert sorted(entry.name for entry in path.iterdir()) == files_before
    assert (path / "manifest.json").read_bytes() == manifest_before
    recovered = load_index(path)
    assert len(recovered.coverage_cache.describe_parts()) == len(WARM_QUERIES)
    _assert_same_answers(index, recovered, WARM_QUERIES + MIXED_QUERIES)
