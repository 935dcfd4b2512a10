"""Versioned on-disk persistence for :class:`~repro.core.netclus.NetClusIndex`.

An index directory (format v6) holds exactly two files:

* ``payload.<index_version>.<hex>.bin`` — one *aligned packed blob*: every
  payload array's raw little-endian bytes at a 64-byte-aligned offset, in
  sorted key order.  The arrays are the road network (nodes, coordinates,
  edges), the candidate-site set, the trajectory registry, per instance
  the cluster arrays in flattened CSR-style form, and the optional
  coverage parts (see ``docs/index-format.md`` for the full key listing).
  Each fact is stored once: the node → cluster assignment is read off the
  member lists, and a part's representative columns off its instance's
  ``reps``.
* ``manifest.json`` — human-readable metadata: format version, the name of
  the blob (``payload_file``), its ``payload_arrays`` offset table (offset,
  nbytes, dtype, shape per key), build parameters (γ, τ_min, τ_max, the
  representative rule — always ``"closest"`` — and the instance cap), the
  index's dynamic-update ``version`` counter, the staged build pipeline's
  per-stage :class:`~repro.core.build.BuildStats` records, per-instance
  statistics, the coverage-part listing, and the fingerprints — the
  SHA-256 of the blob, of the road network, of the trajectory registry
  and, when known, of the trajectory content.

The manifest rename is a save's one commit (:func:`save_index`): a reader
sees the old manifest and its blob or the new ones, never a mix.  A load
whose blob was unlinked by a save committing after its manifest read
reads the manifest once more and maps the blob it names now.

Loading refuses to proceed on any fingerprint or version mismatch
(:class:`IndexFormatError`), so a stale or corrupted index can never silently
answer queries for the wrong city.  A loaded index is behaviourally identical
to a freshly built one: queries, dynamic updates (``add_site``,
``add_trajectory``, :meth:`~repro.core.netclus.NetClusIndex.apply_updates`,
...) and storage statistics all agree, because the payload holds every
instance's state arrays as they are, per-cluster orders included (they
decide tie-breaks in representative re-election).

:func:`load_index` maps the blob once (``np.memmap`` read-only) and hands
out zero-copy array views, so a cold load does no per-cluster work:

* every :class:`~repro.core.netclus.NetClusInstance` wraps its arrays'
  views directly, after O(length) structural checks (offsets, id ranges,
  dtypes, lengths, no node in two clusters) that turn a damaged blob into
  :class:`IndexFormatError` instead of a wrong answer;
* coverage parts (the canonical per-(τ, ψ) entries of the index's
  :class:`~repro.core.covcache.CoverageCache`) attach as zero-copy views
  after one vectorised pass proves them canonical: rows in range, columns
  below the representative count of the part's instance, finite
  estimates within τ, cells in strictly increasing
  ``(column, row)`` order.  Materialisation and patching trust that order,
  so a part failing the pass raises :class:`IndexFormatError` rather than
  answering wrongly.  A part recorded at a different ``index_version``
  than the manifest's is *refused* (skipped with a clean fallback to a
  cold rebuild);
* every view is read-only (``writeable=False``); the index's mutation
  paths copy-on-write, so ``apply_updates`` on a loaded index never
  writes through to the mapped file.

Integrity rests on the offset table: the blob's size must equal the
manifest's ``payload_total_bytes`` (truncation check) and every entry must
lie in bounds with ``nbytes`` matching its dtype/shape product — any
mismatch raises :class:`IndexFormatError` before a single page is touched.
The whole-file ``payload_sha256`` fingerprint is written (offline
verification; :func:`save_index` hashes the bytes as it writes them) but
not hashed on load.  A loaded index keeps the network's views and verified
fingerprint, so re-saving it never re-flattens the network.

v6 is the only format :func:`save_index` writes and :func:`load_index`
reads: another version, or a manifest missing or mangling any key v6
writes (:data:`_MANIFEST_SCHEMA`), raises :class:`IndexFormatError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import uuid
from pathlib import Path
from typing import IO, Any

import numpy as np

from repro.core.build import BuildStats
from repro.core.netclus import NetClusIndex, NetClusInstance, Ragged
from repro.network.graph import RoadNetwork
from repro.trajectory.model import TrajectoryDataset

__all__ = [
    "FORMAT_VERSION",
    "FORMAT_NAME",
    "IndexFormatError",
    "save_index",
    "load_index",
    "load_manifest",
    "graph_fingerprint",
    "trajectory_fingerprint",
    "dataset_fingerprint",
    "payload_digest",
]

#: the only version :func:`save_index` writes and :func:`load_index` reads;
#: bump on any layout change
FORMAT_VERSION = 6
FORMAT_NAME = "netclus-index"
MANIFEST_FILE = "manifest.json"
#: the names a payload blob may have, ``payload.<index_version>.<hex>.bin``:
#: the manifest's ``payload_file`` must match, so it never names a path
_BLOB_NAME = re.compile(r"payload\.[0-9]+\.[0-9a-f]+\.bin")
#: every array in the blob starts at a multiple of this (cache-line
#: alignment; comfortably covers any numpy itemsize)
BLOB_ALIGN = 64
#: index of the ``build_seconds`` entry inside each ``i<id>_meta`` payload
#: array — the one slot timing-insensitive comparisons zero out (see
#: :func:`payload_digest` and the build section of ``tools/check_parity.py``)
META_BUILD_SECONDS_SLOT = 2


class IndexFormatError(RuntimeError):
    """Raised when an on-disk index cannot be loaded safely.

    Covers unknown format names/versions, missing files, a missing or
    malformed manifest key, payload corruption (blob size, offset table,
    array structure), and graph/trajectory fingerprint mismatches against
    what the caller supplied.
    """


class _MissingBlob(IndexFormatError):
    """The blob a manifest names is not in the directory (see :func:`load_index`)."""


# ---------------------------------------------------------------------- #
# fingerprints
# ---------------------------------------------------------------------- #
_NETWORK_KEYS = (
    "net_node_ids",
    "net_node_xy",
    "net_edge_src",
    "net_edge_dst",
    "net_edge_len",
)


def graph_fingerprint(network: RoadNetwork) -> str:
    """SHA-256 fingerprint of a road network's structure.

    Hashes exactly the canonical flattening persisted in the payload
    (node ids, node coordinates, edge list sorted by ``(source, target)``)
    — deterministic regardless of insertion order, sensitive to any
    topology, coordinate or edge-length change, and guaranteed to agree
    with what :func:`save_index` writes because both share
    ``_network_arrays``.
    """
    return _graph_fingerprint_from_arrays(_network_arrays(network))


def _graph_fingerprint_from_arrays(arrays: dict[str, np.ndarray]) -> str:
    """:func:`graph_fingerprint` over an already-canonical flattening.

    ``load_index`` verifies the payload's stored ``net_*`` arrays with
    this directly — they *are* the canonical flattening, so re-deriving
    (and re-sorting) them from the just-rebuilt graph would only repeat
    work without strengthening the check.
    """
    digest = hashlib.sha256()
    for key in _NETWORK_KEYS:
        digest.update(np.ascontiguousarray(arrays[key]).tobytes())
    return digest.hexdigest()


def trajectory_fingerprint(trajectory_ids: list[int] | np.ndarray) -> str:
    """SHA-256 fingerprint of the trajectory registry (ordered id list).

    The index stores trajectories in compressed per-cluster form, so this
    fingerprint covers the registry — the ordered id list that fixes the
    coverage-matrix row order — rather than raw GPS points.  Ids alone
    cannot distinguish two datasets that both number their trajectories
    ``0..m-1``; pass the dataset to :func:`save_index` to additionally
    record a content fingerprint (:func:`dataset_fingerprint`).
    """
    ids = np.asarray(trajectory_ids, dtype=np.int64)
    return hashlib.sha256(ids.tobytes()).hexdigest()


def dataset_fingerprint(dataset: TrajectoryDataset) -> str:
    """SHA-256 fingerprint of full trajectory *content* (ids, nodes, distances).

    Unlike :func:`trajectory_fingerprint`, this distinguishes datasets that
    share an id numbering (e.g. the same city generated with two seeds).
    Recorded in the manifest when :func:`save_index` is given the dataset,
    and verified by :func:`load_index` when the caller supplies one.
    """
    digest = hashlib.sha256()
    for trajectory in dataset:
        digest.update(np.int64(trajectory.traj_id).tobytes())
        digest.update(trajectory.nodes_array().tobytes())
        digest.update(trajectory.cumulative_array().tobytes())
    return digest.hexdigest()


def dataset_matches(index: NetClusIndex, dataset: TrajectoryDataset) -> bool:
    """Whether *dataset*'s id registry matches the index's (order included)."""
    return trajectory_fingerprint(dataset.ids()) == trajectory_fingerprint(
        index.trajectory_ids
    )


# ---------------------------------------------------------------------- #
# the packed blob + offset table
# ---------------------------------------------------------------------- #
def _commit_file(directory: Path, name: str, data: bytes) -> None:
    """Write *data* to *directory*/*name* through a staging file of its own.

    The staging file (a random suffix, created exclusively) is atomically
    renamed over *name*, so concurrent saves never write or rename away
    each other's staging file; a write or rename that fails unlinks it.
    """
    staging = directory / f"{name}.{uuid.uuid4().hex}.tmp"
    try:
        with open(staging, "xb") as handle:
            handle.write(data)
        os.replace(staging, directory / name)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise


def _write_blob(
    handle: IO[bytes], payload: dict[str, np.ndarray]
) -> tuple[dict[str, dict[str, Any]], int, str]:
    """Write the packed blob; return (offset table, total bytes, SHA-256).

    Arrays are laid out in sorted key order, each at a 64-byte-aligned
    offset, as raw contiguous little-endian bytes.  The layout is fully
    deterministic, so two indexes with equal payload arrays produce
    byte-identical blobs (the same property ``payload_digest`` relies on).
    The SHA-256 covers exactly the bytes written, padding included, so it
    is the file's hash without reading the file back.
    """
    table: dict[str, dict[str, Any]] = {}
    cursor = 0
    digest = hashlib.sha256()
    for key in sorted(payload):
        array = np.ascontiguousarray(payload[key])
        if array.dtype.byteorder == ">":  # pragma: no cover - LE platforms
            array = array.astype(array.dtype.newbyteorder("<"))
        pad = (-cursor) % BLOB_ALIGN
        if pad:
            handle.write(b"\x00" * pad)
            digest.update(b"\x00" * pad)
            cursor += pad
        table[key] = {
            "offset": cursor,
            "nbytes": int(array.nbytes),
            "dtype": array.dtype.str,
            "shape": list(array.shape),
        }
        raw = array.reshape(-1).view(np.uint8).data
        handle.write(raw)
        digest.update(raw)
        cursor += int(array.nbytes)
    return table, cursor, digest.hexdigest()


def _map_blob(directory: Path, manifest: dict[str, Any]) -> dict[str, np.ndarray]:
    """Map the blob the manifest names read-only; return a zero-copy view
    per offset-table entry.

    Raises :class:`IndexFormatError` on a ``payload_file`` that is not a
    blob name (a path, ``..``), a missing blob, a size/truncation mismatch
    against the manifest's ``payload_total_bytes``, or any offset-table
    entry that is out of bounds or inconsistent with its declared
    dtype/shape — all without touching a single payload page.
    """
    name = manifest["payload_file"]
    if not _BLOB_NAME.fullmatch(name):
        raise IndexFormatError(f"payload_file {name!r} is not a payload blob name")
    blob_path = directory / name
    total = manifest["payload_total_bytes"]
    try:
        actual = blob_path.stat().st_size
        if actual != total:
            raise IndexFormatError(
                f"payload blob size mismatch: {name} holds {actual} "
                f"bytes, manifest declares {total} (truncated or corrupted index)"
            )
        # one .view(np.ndarray) drops the memmap wrapper, whose per-slice and
        # per-element bookkeeping costs microseconds a call; the plain ndarray
        # keeps the mapping alive through .base and stays zero-copy + read-only
        raw = np.memmap(blob_path, dtype=np.uint8, mode="r").view(np.ndarray)
    except FileNotFoundError:
        raise _MissingBlob(f"no {name} in {directory}") from None
    views: dict[str, np.ndarray] = {}
    for key, entry in manifest["payload_arrays"].items():
        try:
            offset = int(entry["offset"])
            nbytes = int(entry["nbytes"])
            dtype = np.dtype(str(entry["dtype"]))
            shape = tuple(int(dim) for dim in entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexFormatError(f"payload array {key!r}: malformed offset-table entry") from exc
        expected = dtype.itemsize
        for dim in shape:
            if dim < 0:
                raise IndexFormatError(f"payload array {key!r}: negative dimension")
            expected *= dim
        if nbytes != expected:
            raise IndexFormatError(
                f"payload array {key!r}: offset-table mismatch "
                f"(nbytes={nbytes}, dtype/shape require {expected})"
            )
        if offset < 0 or offset % dtype.itemsize or offset + nbytes > total:
            raise IndexFormatError(
                f"payload array {key!r}: offset-table entry out of bounds "
                f"(offset={offset}, nbytes={nbytes}, blob={total})"
            )
        view = raw[offset : offset + nbytes].view(dtype).reshape(shape)
        view.flags.writeable = False  # inherited from mode="r"; made explicit
        views[key] = view
    return views


# ---------------------------------------------------------------------- #
# save
# ---------------------------------------------------------------------- #
def save_index(
    index: NetClusIndex,
    path: str | Path,
    dataset: TrajectoryDataset | None = None,
) -> Path:
    """Persist *index* to directory *path* (created if missing) in format v6.

    Writes a fresh ``payload.<version>.<hex>.bin`` packed blob, commits it
    by renaming ``manifest.json`` (which names it) into place, then unlinks
    the blob the replaced manifest named; returns the directory path.
    Every save writes under names of its own and unlinks only what it
    replaced, so concurrent saves into one directory need no lock.  The
    format, and what a kill at each step leaves, is documented in
    ``docs/index-format.md``; load with :func:`load_index`.

    The manifest records the index's content fingerprint
    (:attr:`~repro.core.netclus.NetClusIndex.trajectory_content`), or the
    fingerprint of *dataset* (the trajectories the index was built on)
    when one is supplied — letting :func:`load_index` distinguish datasets
    that merely share an id numbering, e.g. one city generated with two
    seeds.  The dataset's id registry must match the index's.
    """
    directory = Path(path)
    if dataset is not None and not dataset_matches(index, dataset):
        raise IndexFormatError(
            "dataset/index mismatch: the supplied dataset's trajectory ids "
            "do not match the index registry"
        )
    trajectory_content = (
        index.trajectory_content if dataset is None else dataset_fingerprint(dataset)
    )
    directory.mkdir(parents=True, exist_ok=True)
    payload = _payload_arrays(index)
    coverage_arrays, coverage_parts = _coverage_part_arrays(index)
    payload.update(coverage_arrays)
    previous = _named_blob(directory)
    blob_name = f"payload.{index.version}.{uuid.uuid4().hex}.bin"
    manifest: dict[str, Any] = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "payload_file": blob_name,
        "build_params": {
            "gamma": index.gamma,
            "tau_min_km": index.tau_min_km,
            "tau_max_km": index.tau_max_km,
            "representative_strategy": "closest",
            "max_instances": index.max_instances,
        },
        "index_version": index.version,
        "build_stats": [stat.as_dict() for stat in index.build_stats],
        "coverage_parts": coverage_parts,
        "num_instances": index.num_instances,
        "num_trajectories": index.num_trajectories,
        "num_sites": len(index.sites),
        "num_nodes": index.network.num_nodes,
        "num_edges": index.network.num_edges,
        "storage_bytes": index.storage_bytes(),
        "build_seconds": index.build_seconds(),
        "fingerprints": {
            "graph": _network_payload(index)[1],
            "trajectories": trajectory_fingerprint(index.trajectory_ids),
            **(
                {"trajectory_content": trajectory_content}
                if trajectory_content is not None
                else {}
            ),
        },
        "instances": [
            {
                "instance_id": instance.instance_id,
                "radius_km": instance.radius_km,
                "tau_range_km": list(instance.tau_range),
                "num_clusters": instance.num_clusters,
                "num_representatives": instance.num_representatives,
                "build_seconds": instance.build_seconds,
                "mean_dominating_set_size": instance.mean_dominating_set_size,
            }
            for instance in index.instances
        ],
    }
    blob_path = directory / blob_name
    try:
        with open(blob_path, "xb") as handle:
            table, total_bytes, payload_sha256 = _write_blob(handle, payload)
        manifest.update(payload_arrays=table, payload_total_bytes=total_bytes)
        manifest["fingerprints"]["payload_sha256"] = payload_sha256
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        # the one commit: readers see the old manifest and its blob or this one
        _commit_file(directory, MANIFEST_FILE, text.encode())
    except BaseException:
        blob_path.unlink(missing_ok=True)
        raise
    if previous is not None:
        (directory / previous).unlink(missing_ok=True)
    return directory


def _named_blob(directory: Path) -> str | None:
    """The blob name the directory's manifest holds; ``None`` when there is
    no manifest, it is unreadable or the name is not a blob name."""
    try:
        name = json.loads((directory / MANIFEST_FILE).read_bytes())["payload_file"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return name if isinstance(name, str) and _BLOB_NAME.fullmatch(name) else None


#: payload arrays making up one persisted coverage part, in slot order
_COVERAGE_PART_KEYS = ("rows", "cols", "est")


def _coverage_part_arrays(
    index: NetClusIndex,
) -> tuple[dict[str, np.ndarray], list[dict[str, Any]]]:
    """Payload arrays + manifest entries of the index's coverage parts.

    Parts bound to a stale ``index_version`` are skipped — a loader would
    refuse them anyway, so persisting them only wastes payload bytes.
    """
    cache = getattr(index, "coverage_cache", None)
    if cache is None:
        return {}, []
    arrays: dict[str, np.ndarray] = {}
    entries: list[dict[str, Any]] = []
    for part in cache.parts.values():
        if part.index_version != index.version:
            continue
        slot = len(entries)
        prefix = f"cov{slot}_"
        arrays[prefix + "rows"] = np.asarray(part.rows, dtype=np.int64)
        arrays[prefix + "cols"] = np.asarray(part.cols, dtype=np.int64)
        arrays[prefix + "est"] = np.asarray(part.estimates, dtype=np.float64)
        entries.append({"slot": slot, **part.describe()})
    return arrays, entries


def _attach_coverage_parts(
    index: NetClusIndex, manifest: dict[str, Any], arrays: dict[str, np.ndarray]
) -> None:
    """Attach the manifest's coverage parts to *index*.

    A part recorded at a different ``index_version`` than the manifest's
    is refused (skipped); structural corruption raises
    :class:`IndexFormatError`.  The entry arrays stay read-only views, but
    each is read once here: materialisation (``canonical=True``) and
    :func:`~repro.core.covcache.splice_entries` trust a part to be
    canonical, so rows, columns, estimates and the cell order are checked
    before the part is attached.  A part's columns are its instance's
    representatives, so every column must lie below that instance's
    representative count; the instance id must be one of the index's.
    """
    from repro.core.covcache import CoveragePart, coverage_cache_key
    from repro.core.coverage import cell_keys
    from repro.core.preference import is_registered, make_preference

    part_entries = manifest["coverage_parts"]
    if not part_entries:
        return
    cache = index.enable_coverage_cache(limit=len(part_entries))
    instances = {instance.instance_id: instance for instance in index.instances}
    for entry in part_entries:
        if entry["index_version"] != index.version:
            continue  # stale part: refuse, fall back to a cold rebuild
        slot = entry["slot"]
        prefix = f"cov{slot}_"
        label = f"coverage part {slot}"
        missing = [key for key in _COVERAGE_PART_KEYS if prefix + key not in arrays]
        if missing:
            raise IndexFormatError(f"{label}: payload arrays missing ({', '.join(missing)})")
        name, params = entry["preference"], entry["preference_params"]
        try:
            preference = make_preference(name, **{k: float(v) for k, v in params.items()})
        except Exception as exc:
            raise IndexFormatError(f"{label}: unknown preference {name!r} {params}") from exc
        if not is_registered(preference):
            raise IndexFormatError(f"{label}: unregistered preference {name!r}")
        tau_km = float(entry["tau_km"])
        instance_id = entry["instance_id"]
        if instance_id not in instances:
            raise IndexFormatError(f"{label}: index has no instance {instance_id}")
        num_columns = instances[instance_id].num_representatives
        rows, cols, estimates = (arrays[prefix + key] for key in _COVERAGE_PART_KEYS)
        if rows.dtype != np.int64 or cols.dtype != np.int64 or estimates.dtype != np.float64:
            raise IndexFormatError(f"{label}: entry arrays have wrong dtypes")
        declared = entry["num_entries"]
        if not (len(rows) == len(cols) == len(estimates) == declared):
            raise IndexFormatError(
                f"{label}: entry arrays are inconsistent "
                f"(rows={len(rows)}, cols={len(cols)}, est={len(estimates)}, "
                f"declared={declared})"
            )
        num_trajectories = entry["num_trajectories"]
        if num_trajectories != index.num_trajectories:
            raise IndexFormatError(
                f"{label}: registry size mismatch "
                f"({num_trajectories} != {index.num_trajectories})"
            )
        _require_range(rows, num_trajectories, f"{label}: rows")
        _require_range(cols, num_columns, f"{label}: cols")
        if not (np.isfinite(estimates) & (estimates <= tau_km)).all():
            raise IndexFormatError(f"{label}: an estimate is not finite or exceeds τ")
        keys = cell_keys(rows, cols, num_trajectories + 1)
        if (keys[1:] <= keys[:-1]).any():
            raise IndexFormatError(f"{label}: entries are not in canonical order")
        key = coverage_cache_key(tau_km, preference)
        cache.attach_part(
            key,
            CoveragePart(
                tau_km=tau_km,
                preference_name=key[1],
                preference_params=key[2],
                instance_id=instance_id,
                index_version=index.version,
                num_trajectories=num_trajectories,
                rows=rows,
                cols=cols,
                estimates=estimates,
            ),
        )


def _payload_arrays(index: NetClusIndex) -> dict[str, np.ndarray]:
    """Every payload array of *index*, exactly as ``save_index`` writes them."""
    payload = dict(_network_payload(index)[0])
    payload["sites"] = np.asarray(sorted(index.sites), dtype=np.int64)
    payload["trajectory_ids"] = np.asarray(index.trajectory_ids, dtype=np.int64)
    for instance in index.instances:
        payload.update(_instance_arrays(instance))
    return payload


def payload_digest(index: NetClusIndex, include_timings: bool = True) -> str:
    """Canonical SHA-256 over the serialized payload arrays of *index*.

    Hashes every array ``save_index`` would write (key + raw bytes, in key
    order) without touching the filesystem, so two indexes digest equally
    iff their serialized payloads are byte-identical.  With
    ``include_timings=False`` the per-instance ``build_seconds`` slot of
    each ``i<id>_meta`` array is zeroed first — the one payload entry that
    legitimately differs between two builds of the same data.
    """
    arrays = _payload_arrays(index)
    if not include_timings:
        for key, value in arrays.items():
            if key.endswith("_meta"):
                value = value.copy()
                value[META_BUILD_SECONDS_SLOT] = 0.0
                arrays[key] = value
    digest = hashlib.sha256()
    for key in sorted(arrays):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(arrays[key]).tobytes())
    return digest.hexdigest()


def _network_payload(index: NetClusIndex) -> tuple[dict[str, np.ndarray], str]:
    """The network's payload arrays and graph fingerprint, computed once.

    No update changes an index's network, so the first call caches both on
    the index; a load seeds the cache with what it verified.
    """
    if index._network_payload is None:
        arrays = _network_arrays(index.network)
        index._network_payload = (arrays, _graph_fingerprint_from_arrays(arrays))
    return index._network_payload


def _network_arrays(network: RoadNetwork) -> dict[str, np.ndarray]:
    """Flatten a road network into payload arrays."""
    node_ids = np.asarray(network.node_ids(), dtype=np.int64)
    coords = np.asarray(
        [[network.node(i).x, network.node(i).y] for i in node_ids], dtype=np.float64
    )
    edges = sorted((e.source, e.target, e.length) for e in network.edges())
    edge_src = np.asarray([e[0] for e in edges], dtype=np.int64)
    edge_dst = np.asarray([e[1] for e in edges], dtype=np.int64)
    edge_len = np.asarray([e[2] for e in edges], dtype=np.float64)
    return {
        "net_node_ids": node_ids,
        "net_node_xy": coords,
        "net_edge_src": edge_src,
        "net_edge_dst": edge_dst,
        "net_edge_len": edge_len,
    }


#: the per-cluster ragged lists of an instance, stored as
#: ``<key>_indptr`` / ``<key>_ids`` / ``<key>_vals``
_RAGGED_KEYS = ("nodes", "tl", "nb")


def _instance_arrays(instance: NetClusInstance) -> dict[str, np.ndarray]:
    """One index instance's payload arrays: its own state arrays, as they are."""
    prefix = f"i{instance.instance_id}_"
    arrays: dict[str, np.ndarray] = {
        prefix + "meta": np.asarray(
            [
                instance.radius_km,
                instance.gamma,
                instance.build_seconds,
                instance.mean_dominating_set_size,
            ],
            dtype=np.float64,
        ),
        prefix + "centers": instance.centers,
        prefix + "reps": instance.reps,
        prefix + "rep_rt": instance.rep_rt,
    }
    for key in _RAGGED_KEYS:
        ragged: Ragged = getattr(instance, key)
        arrays[prefix + key + "_indptr"] = ragged.indptr
        arrays[prefix + key + "_ids"] = ragged.ids
        arrays[prefix + key + "_vals"] = ragged.vals
    return arrays


# ---------------------------------------------------------------------- #
# load
# ---------------------------------------------------------------------- #
#: every key a v6 manifest holds and what its value must be: ``int``,
#: ``float`` (any JSON number) or ``str``; a string value is that exact
#: string, a dict an object with those keys, a one-element list a list of
#: such values, a longer list exactly that many values, a tuple one of its
#: members.  Only ``fingerprints.trajectory_content`` is optional.
_MANIFEST_SCHEMA: dict[str, Any] = {
    # _map_blob checks the name and each offset-table entry
    "payload_file": str,
    # the arrays every index holds
    "payload_arrays": {key: dict for key in (*_NETWORK_KEYS, "sites", "trajectory_ids")},
    "payload_total_bytes": int,
    "build_params": {
        "gamma": float,
        "tau_min_km": float,
        "tau_max_km": float,
        # the only rule an index elects by (Section 4.2)
        "representative_strategy": "closest",
        "max_instances": (int, None),
    },
    "index_version": int,
    "build_stats": [{"stage": str, "seconds": float, "per_instance_seconds": [float]}],
    "coverage_parts": [
        {
            "slot": int,
            "tau_km": float,
            "preference": str,
            "preference_params": dict,
            "instance_id": int,
            "index_version": int,
            "num_trajectories": int,
            "num_entries": int,
        }
    ],
    "num_instances": int,
    "num_trajectories": int,
    "num_sites": int,
    "num_nodes": int,
    "num_edges": int,
    "storage_bytes": int,
    "build_seconds": float,
    "fingerprints": {"payload_sha256": str, "graph": str, "trajectories": str},
    "instances": [
        {
            "instance_id": int,
            "radius_km": float,
            "tau_range_km": [float, float],
            "num_clusters": int,
            "num_representatives": int,
            "build_seconds": float,
            "mean_dominating_set_size": float,
        }
    ],
}


def _check_schema(value: Any, kind: Any, where: str) -> None:
    """Raise :class:`IndexFormatError` unless *value* is of *kind*."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise IndexFormatError(f"{where} is not a JSON object")
        for key, item_kind in kind.items():
            if key not in value:
                raise IndexFormatError(f"{where}.{key} is missing")
            _check_schema(value[key], item_kind, f"{where}.{key}")
    elif isinstance(kind, list):
        if not isinstance(value, list):
            raise IndexFormatError(f"{where} is not a JSON array")
        kinds = kind * len(value) if len(kind) == 1 else kind
        if len(value) != len(kinds):
            raise IndexFormatError(f"{where} holds {len(value)} values, not {len(kinds)}")
        for position, (item, item_kind) in enumerate(zip(value, kinds)):
            _check_schema(item, item_kind, f"{where}[{position}]")
    elif isinstance(kind, str) and value != kind:
        raise IndexFormatError(
            f"{where} is {value!r}: this build reads only {kind!r} indexes "
            f"(rebuild the index)"
        )
    elif not _is_kind(value, kind):
        raise IndexFormatError(f"{where} is malformed ({value!r})")


def _is_kind(value: Any, kind: Any) -> bool:
    if isinstance(kind, tuple):
        return any(_is_kind(value, option) for option in kind)
    if kind is float:
        kind = (int, float)
    elif not isinstance(kind, type):
        return bool(value == kind)
    return isinstance(value, kind) and not isinstance(value, bool)


def load_manifest(path: str | Path) -> dict[str, Any]:
    """Read and validate the manifest of an index directory.

    Checks the format name and version and that every key v6 writes is
    present and well-typed (:data:`_MANIFEST_SCHEMA`); :func:`load_index`
    additionally verifies the payload and fingerprints.
    """
    directory = Path(path)
    manifest_path = directory / MANIFEST_FILE
    if not manifest_path.is_file():
        raise IndexFormatError(f"no {MANIFEST_FILE} in {directory}")
    with open(manifest_path) as handle:
        try:
            manifest = json.load(handle)
        except ValueError as exc:
            raise IndexFormatError(f"{MANIFEST_FILE} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        found = manifest.get("format") if isinstance(manifest, dict) else None
        raise IndexFormatError(f"not a {FORMAT_NAME} directory (format={found!r})")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise IndexFormatError(
            f"unsupported format version {version!r} (this build reads only "
            f"version {FORMAT_VERSION}; rebuild the index)"
        )
    _check_schema(manifest, _MANIFEST_SCHEMA, "manifest")
    return manifest


def load_index(
    path: str | Path,
    network: RoadNetwork | None = None,
    dataset: TrajectoryDataset | None = None,
    *,
    with_coverage: bool = True,
) -> NetClusIndex:
    """Load a persisted index from directory *path*.

    A save into *path* that commits between this load's manifest read and
    its mapping of the blob unlinks the blob that manifest named; the load
    then reads the manifest once more and maps the blob it names now, so
    it returns the newer state rather than an error.

    Parameters
    ----------
    path:
        Directory written by :func:`save_index`.
    network:
        Optional road network to attach instead of reconstructing one from
        the payload.  Its :func:`graph_fingerprint` must match the manifest —
        loading an index against a different city is refused.
    dataset:
        Optional trajectory dataset to validate against the index's
        trajectory registry (:func:`trajectory_fingerprint` must match —
        and, when the manifest carries a ``trajectory_content``
        fingerprint, :func:`dataset_fingerprint` as well).  The dataset is
        not stored in the index; this is purely a guard for callers that
        will score results exactly against it.
    with_coverage:
        Whether to attach the manifest's coverage parts to the loaded
        index's :class:`~repro.core.covcache.CoverageCache`, so a
        placement service cold-starts warm.  ``False`` leaves the part
        arrays unattached (their blob pages are then never touched).
        Parts recorded at a stale ``index_version`` are refused — skipped
        with a clean fallback to cold rebuilds — while structurally
        corrupted parts raise.

    Raises
    ------
    IndexFormatError
        On missing files, format/version mismatch, payload corruption, or a
        graph/trajectory fingerprint mismatch.
    """
    directory = Path(path)
    manifest = load_manifest(directory)
    # map the packed blob once; views are zero-copy and read-only, and
    # nothing below this line hashes the payload — integrity rests on the
    # offset-table validation in _map_blob plus the structural and
    # fingerprint checks over the arrays actually read
    try:
        arrays = _map_blob(directory, manifest)
    except _MissingBlob:
        # a save that committed after the manifest read unlinks the blob
        # that manifest named: map the one the new manifest names, once
        fresh = load_manifest(directory)
        if fresh["payload_file"] == manifest["payload_file"]:
            raise
        manifest, arrays = fresh, _map_blob(directory, fresh)
    fingerprints = manifest["fingerprints"]

    if network is None:
        network = _rebuild_network(arrays)
        # the graph was just rebuilt from the payload's canonical
        # flattening — hash those arrays directly
        network_arrays = {key: arrays[key] for key in _NETWORK_KEYS}
    else:
        network_arrays = _network_arrays(network)
    actual_graph = _graph_fingerprint_from_arrays(network_arrays)
    if actual_graph != fingerprints["graph"]:
        raise IndexFormatError(
            "graph fingerprint mismatch: the supplied road network is not "
            "the one this index was built on"
        )
    trajectory_ids = arrays["trajectory_ids"].tolist()
    if trajectory_fingerprint(trajectory_ids) != fingerprints["trajectories"]:
        raise IndexFormatError(
            "trajectory fingerprint mismatch: payload registry does not "
            "match the manifest"
        )
    if dataset is not None:
        if trajectory_fingerprint(dataset.ids()) != fingerprints["trajectories"]:
            raise IndexFormatError(
                "trajectory fingerprint mismatch: the supplied dataset is not "
                "the one this index was built on"
            )
        expected_content = fingerprints.get("trajectory_content")
        if (
            expected_content is not None
            and dataset_fingerprint(dataset) != expected_content
        ):
            raise IndexFormatError(
                "trajectory content mismatch: the supplied dataset shares the "
                "index's id numbering but holds different trajectories"
            )

    params = manifest["build_params"]
    index = NetClusIndex(
        network=network,
        sites=arrays["sites"].tolist(),
        instances=[
            _load_instance(arrays, entry["instance_id"], network.num_nodes)
            for entry in manifest["instances"]
        ],
        tau_min_km=float(params["tau_min_km"]),
        tau_max_km=float(params["tau_max_km"]),
        gamma=float(params["gamma"]),
        trajectory_ids=trajectory_ids,
        version=manifest["index_version"],
        build_stats=[BuildStats.from_dict(entry) for entry in manifest["build_stats"]],
        max_instances=params["max_instances"],
    )
    index.trajectory_content = fingerprints.get("trajectory_content")
    index._network_payload = (network_arrays, actual_graph)
    if with_coverage:
        _attach_coverage_parts(index, manifest, arrays)
    return index


def _rebuild_network(arrays: dict[str, np.ndarray]) -> RoadNetwork:
    """Reconstruct the road network from payload arrays (bulk fast path)."""
    return RoadNetwork.from_arrays(
        arrays["net_node_ids"],
        arrays["net_node_xy"],
        arrays["net_edge_src"],
        arrays["net_edge_dst"],
        arrays["net_edge_len"],
    )


#: the int64 and float64 arrays of one instance, by key suffix
_INSTANCE_INT_KEYS = (
    "centers",
    "reps",
    *(key + part for key in _RAGGED_KEYS for part in ("_indptr", "_ids")),
)
_INSTANCE_FLOAT_KEYS = ("meta", "rep_rt", *(key + "_vals" for key in _RAGGED_KEYS))


def _load_instance(
    arrays: dict[str, np.ndarray], instance_id: int, num_nodes: int
) -> NetClusInstance:
    """Wrap one instance's payload arrays after checking their structure.

    A blob load hashes nothing, so these O(length) checks are what stands
    between a damaged blob and a query: every ``indptr`` runs from 0 up to
    its list's length without decreasing, cluster ids lie in ``[0, η)``,
    node ids in ``[0, num_nodes)``, no node is a member of two clusters
    (the node → cluster assignment is read off the member lists), every
    representative is ``-1`` or such a node with a finite round-trip, no
    distance (legs, neighbour and member round trips, representative round
    trips) is negative or NaN, and dtypes and lengths agree.  Any failure
    raises :class:`IndexFormatError`.
    """
    prefix = f"i{instance_id}_"
    label = f"instance {instance_id}"
    found: dict[str, np.ndarray] = {}
    for suffix, dtype in (
        *((key, np.int64) for key in _INSTANCE_INT_KEYS),
        *((key, np.float64) for key in _INSTANCE_FLOAT_KEYS),
    ):
        array = arrays.get(prefix + suffix)
        if array is None:
            raise IndexFormatError(f"{label}: payload array {prefix + suffix} missing")
        if array.dtype != dtype or array.ndim != 1:
            raise IndexFormatError(f"{label}: {suffix} is not a 1-d {np.dtype(dtype)} array")
        found[suffix] = array
    num_clusters = len(found["centers"])
    if len(found["meta"]) != 4:
        raise IndexFormatError(f"{label}: meta holds {len(found['meta'])} values, not 4")
    if not len(found["reps"]) == len(found["rep_rt"]) == num_clusters:
        raise IndexFormatError(f"{label}: reps/rep_rt lengths differ from the cluster count")
    ragged: dict[str, Ragged] = {}
    for key in _RAGGED_KEYS:
        indptr, ids, vals = (found[key + part] for part in ("_indptr", "_ids", "_vals"))
        if len(indptr) != num_clusters + 1 or len(ids) != len(vals):
            raise IndexFormatError(f"{label}: {key} arrays have inconsistent lengths")
        _require_offsets(indptr, len(ids), f"{label}: {key}_indptr")
        ragged[key] = Ragged(indptr, ids, vals)
    for suffix, bound in (
        ("nb_ids", num_clusters),
        ("nodes_ids", num_nodes),
        ("centers", num_nodes),
    ):
        _require_range(found[suffix], bound, f"{label}: {suffix}")
    if np.any(np.bincount(found["nodes_ids"], minlength=num_nodes) > 1):
        raise IndexFormatError(f"{label}: a node is a member of two clusters")
    reps, rep_rt = found["reps"], found["rep_rt"]
    has_rep = reps >= 0
    _require_range(reps[has_rep], num_nodes, f"{label}: reps")
    if np.any(reps < -1) or not np.all(np.isfinite(rep_rt[has_rep])):
        raise IndexFormatError(f"{label}: reps/rep_rt hold an invalid representative")
    # the coverage cache's shared per-instance delta needs legs >= 0
    # (fact 4 of repro.core.covcache); `x >= 0` is False for NaN
    for suffix, values in (
        ("tl_vals", found["tl_vals"]),
        ("nb_vals", found["nb_vals"]),
        ("nodes_vals", found["nodes_vals"]),
        ("rep_rt", rep_rt[has_rep]),
    ):
        if not np.all(values >= 0):
            raise IndexFormatError(f"{label}: {suffix} holds a negative or NaN distance")
    meta = found["meta"]
    return NetClusInstance(
        instance_id=int(instance_id),
        radius_km=float(meta[0]),
        gamma=float(meta[1]),
        centers=found["centers"],
        nodes=ragged["nodes"],
        reps=reps,
        rep_rt=rep_rt,
        tl=ragged["tl"],
        nb=ragged["nb"],
        build_seconds=float(meta[2]),
        mean_dominating_set_size=float(meta[3]),
    )


def _require_offsets(indptr: np.ndarray, length: int, label: str) -> None:
    """Raise :class:`IndexFormatError` unless *indptr* runs from 0 up to
    *length* without decreasing."""
    if indptr[0] != 0 or indptr[-1] != length or np.any(indptr[1:] < indptr[:-1]):
        raise IndexFormatError(f"{label} is not a valid offset array")


def _require_range(values: np.ndarray, bound: int, label: str) -> None:
    """Raise :class:`IndexFormatError` unless every value lies in ``[0, bound)``."""
    if len(values) and (values.min() < 0 or values.max() >= bound):
        raise IndexFormatError(f"{label} holds a value outside [0, {bound})")
