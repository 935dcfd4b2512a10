"""Randomized state-machine parity suite for the incremental coverage cache.

The coverage cache (:mod:`repro.core.covcache`) claims that a cached part
patched through an arbitrary sequence of :meth:`NetClusIndex.apply_updates`
batches answers queries **byte-identically** to a coverage structure built
from scratch on the same index state.  This suite drives that claim with a
seeded generator of arbitrary interleavings of

* add-trajectory batches (from a held-out pool),
* remove-trajectory batches,
* add-site / remove-site batches,
* mixed batches, and
* query probes on multiple ``(τ, ψ)`` keys,

and after **every** step byte-compares each warm part's canonical entries
with a cold ``coverage_entries`` + ``canonical_entries`` of its key, and
the warm index's answers with a cache-free twin's, on the ψ-chosen views
and on dense (and, for binary ψ, sparse) references built from the warm
part's and the twin's entries.  A failure prints the reproducing seed
and the full op script.

Also covers the cache's unit-level contracts: LRU bounds, the unregistered-ψ
bypass, staleness fallback on single-item mutators, and deepcopy hygiene.
"""

from __future__ import annotations

import copy
import time

import numpy as np
import pytest
from coverage_reference import answer_on, cold_entries, views_for

from repro.core.covcache import CoverageCache, coverage_cache_key
from repro.core.netclus import NetClusIndex, UpdateBatch
from repro.core.preference import (
    BinaryPreference,
    LinearPreference,
    PreferenceFunction,
)
from repro.core.query import TOPSQuery
from repro.network.generators import grid_network
from repro.service.serialization import load_index, payload_digest, save_index
from repro.trajectory.generators import commuter_trajectories

#: the (τ, ψ) keys every parity sweep probes; pairs of them at different
#: τ and ψ share an instance, so one instance delta backs several parts
KEYS: tuple[tuple[float, PreferenceFunction], ...] = (
    (1.2, BinaryPreference()),
    (2.0, LinearPreference()),
    (0.9, LinearPreference()),
    (1.5, BinaryPreference()),
)
NUM_OPS = 12


@pytest.fixture(scope="module")
def world():
    network = grid_network(8, 8, spacing_km=0.5)
    everything = commuter_trajectories(network, 80, seed=17)
    base = everything.sample(50, seed=1)
    held_out = [t for t in everything if t.traj_id not in set(base.ids())]
    sites = network.node_ids()[::2]
    return network, base, held_out, sites


def build(world):
    network, base, _, sites = world
    return NetClusIndex.build(
        network,
        base,
        sites,
        gamma=0.75,
        tau_min_km=0.4,
        tau_max_km=3.0,
    )


# ---------------------------------------------------------------------- #
# op generator
# ---------------------------------------------------------------------- #
def generate_ops(rng, network, index, pool):
    """Yield ``(label, UpdateBatch | None)`` steps; ``None`` marks a query probe.

    Mutates nothing — sizes are drawn against a *simulated* live/site count
    so the generated script is a pure function of the seed.
    """
    live = index.num_trajectories
    num_sites = len(index.sites)
    pool_left = len(pool)
    pool_used = 0
    removed_site_pool = 0
    ops = []
    for _ in range(NUM_OPS):
        kind = int(rng.integers(0, 6))
        if kind == 0 and pool_left >= 3:
            take = int(rng.integers(1, min(6, pool_left + 1)))
            ops.append(("add_trajectories", {"count": take, "offset": pool_used}))
            pool_used += take
            pool_left -= take
            live += take
        elif kind == 1 and live > 20:
            count = int(rng.integers(1, 6))
            ops.append(("remove_trajectories", {"count": count, "seed": int(rng.integers(1 << 30))}))
            live -= count
        elif kind == 2 and removed_site_pool > 0:
            ops.append(("add_sites", {"count": removed_site_pool}))
            num_sites += removed_site_pool
            removed_site_pool = 0
        elif kind == 3 and num_sites > 12:
            count = int(rng.integers(1, 5))
            ops.append(("remove_sites", {"count": count, "seed": int(rng.integers(1 << 30))}))
            num_sites -= count
            removed_site_pool += count
        elif kind == 4 and live > 25 and pool_left >= 2 and num_sites > 12:
            ops.append(
                (
                    "mixed",
                    {
                        "add": 2,
                        "offset": pool_used,
                        "remove": 2,
                        "remove_sites": 1,
                        "seed": int(rng.integers(1 << 30)),
                    },
                )
            )
            pool_used += 2
            pool_left -= 2
            live += 2 - 2
            num_sites -= 1
            removed_site_pool += 1
        else:
            ops.append(("query", {"key": int(rng.integers(0, len(KEYS)))}))
    return ops


def op_to_batch(op, index, pool, removed_sites):
    """Materialise one generated op against the *current* index state."""
    label, params = op
    if label == "query":
        return None
    if label == "add_trajectories":
        return UpdateBatch(
            add_trajectories=pool[params["offset"] : params["offset"] + params["count"]]
        )
    if label == "remove_trajectories":
        rng = np.random.default_rng(params["seed"])
        ids = list(index.trajectory_ids)
        picks = rng.choice(len(ids), size=min(params["count"], len(ids)), replace=False)
        return UpdateBatch(remove_trajectories=[ids[int(p)] for p in sorted(picks)])
    if label == "add_sites":
        back = removed_sites[: params["count"]]
        del removed_sites[: params["count"]]
        return UpdateBatch(add_sites=back)
    if label == "remove_sites":
        rng = np.random.default_rng(params["seed"])
        sites = sorted(index.sites)
        picks = rng.choice(len(sites), size=min(params["count"], len(sites)), replace=False)
        victims = [sites[int(p)] for p in sorted(picks)]
        removed_sites.extend(victims)
        return UpdateBatch(remove_sites=victims)
    if label == "mixed":
        rng = np.random.default_rng(params["seed"])
        ids = list(index.trajectory_ids)
        picks = rng.choice(len(ids), size=params["remove"], replace=False)
        sites = sorted(index.sites)
        site_picks = rng.choice(len(sites), size=params["remove_sites"], replace=False)
        victims = [sites[int(p)] for p in sorted(site_picks)]
        removed_sites.extend(victims)
        return UpdateBatch(
            add_trajectories=pool[params["offset"] : params["offset"] + params["add"]],
            remove_trajectories=[ids[int(p)] for p in sorted(picks)],
            remove_sites=victims,
        )
    raise AssertionError(f"unknown op {label}")


def format_script(seed, ops, upto):
    lines = [f"seed = {seed}"]
    for i, (label, params) in enumerate(ops[: upto + 1]):
        lines.append(f"  step {i:2d}: {label}({params})")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# the state machine
# ---------------------------------------------------------------------- #
def assert_parity(warm, seed, ops, step):
    """Byte-compare warm-cache parts and answers vs a cache-free twin.

    Every live part's canonical entries must equal a cold canonicalised
    ``coverage_entries`` of its key byte for byte, and the answers must
    match across the full view matrix.
    """
    cold = copy.deepcopy(warm)
    cold.coverage_cache = None
    for tau, preference in KEYS:
        part = warm.coverage_cache.parts[coverage_cache_key(tau, preference)]
        rows, cols, estimates = cold_entries(warm, tau)
        for name, got, want in (
            ("rows", part.rows, rows),
            ("cols", part.cols, cols),
            ("estimates", part.estimates, estimates),
        ):
            if got.dtype != want.dtype or got.tobytes() != want.tobytes():
                pytest.fail(
                    f"part {name} (tau={tau}, psi={preference.spec()[0]}) differ "
                    f"from a cold build after step {step}.\n"
                    f"Reproduce with:\n{format_script(seed, ops, step)}"
                )
        assert part.instance_id == warm.instance_for(tau).instance_id
        for view in views_for(preference):
            query = TOPSQuery(k=5, tau_km=tau, preference=preference)
            a = answer_on(warm, query, view, part=part)
            b = answer_on(cold, query, view)
            context = (
                f"(tau={tau}, psi={preference.spec()[0]}, view={view}) "
                f"diverged after step {step}.\n"
                f"Reproduce with:\n{format_script(seed, ops, step)}"
            )
            if list(a.sites) != list(b.sites):
                pytest.fail(
                    f"warm selection {list(a.sites)} != cold {list(b.sites)} {context}"
                )
            if (
                np.asarray(a.per_trajectory_utility).tobytes()
                != np.asarray(b.per_trajectory_utility).tobytes()
            ):
                pytest.fail(f"per-trajectory utilities diverged {context}")


def assert_shared_instance(index):
    """Some instance backs parts at different τ *and* different ψ, so each
    batch cuts one shared delta to several thresholds."""
    by_instance: dict[int, list] = {}
    for part in index.coverage_cache.parts.values():
        by_instance.setdefault(part.instance_id, []).append(part)
    assert any(
        len({part.tau_km for part in parts}) >= 2
        and len({part.preference_name for part in parts}) >= 2
        for parts in by_instance.values()
    ), {i: [(p.tau_km, p.preference_name) for p in parts] for i, parts in by_instance.items()}


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_statemachine_parity(world, seed):
    network, base, held_out, sites = world
    warm = build(world)
    warm.enable_coverage_cache()
    rng = np.random.default_rng(seed)
    ops = generate_ops(rng, network, warm, held_out)
    removed_sites: list[int] = []

    # warm every (τ, ψ) key up front so each later batch exercises a patch
    for tau, preference in KEYS:
        warm.query(TOPSQuery(k=5, tau_km=tau, preference=preference))
    assert_shared_instance(warm)

    batches_applied = 0
    for step, op in enumerate(ops):
        batch = op_to_batch(op, warm, held_out, removed_sites)
        if batch is not None:
            warm.apply_updates(batch)
            batches_applied += 1
        else:
            tau, preference = KEYS[op[1]["key"]]
            warm.query(TOPSQuery(k=4, tau_km=tau, preference=preference))
        assert_parity(warm, seed, ops, step)

    stats = warm.coverage_cache.stats()
    # every batch patched every cached part in place — no invalidation, and
    # no part was ever rebuilt from scratch after the initial warm-up
    assert stats["parts"] == len(KEYS)
    assert stats["stores"] == len(KEYS)
    assert stats["invalidations"] == 0
    assert stats["patches"] == batches_applied * len(KEYS)


@pytest.mark.parametrize("seed", [11, 23])
def test_v4_loaded_twin_tracks_every_batch(world, tmp_path, seed):
    """An index loaded from a v4 save (read-only views over the mapped
    blob) and the in-memory index it was saved from take the same batches;
    after every batch both serialise identically and answer alike."""
    network, base, held_out, sites = world
    memory = build(world)
    memory.enable_coverage_cache()
    for tau, preference in KEYS:
        memory.query(TOPSQuery(k=5, tau_km=tau, preference=preference))
    loaded = load_index(save_index(memory, tmp_path / "twin.ncx"))
    rng = np.random.default_rng(seed)
    ops = generate_ops(rng, network, memory, held_out)
    labels = {label for label, _ in ops}
    assert "add_sites" in labels and labels & {"remove_sites", "mixed"}
    removed_sites: list[int] = []
    for step, op in enumerate(ops):
        batch = op_to_batch(op, memory, held_out, removed_sites)
        if batch is None:
            continue
        memory.apply_updates(batch)
        loaded.apply_updates(batch)
        context = f"after step {step}:\n{format_script(seed, ops, step)}"
        expected = payload_digest(memory, include_timings=False)
        assert payload_digest(loaded, include_timings=False) == expected, context
        for tau, preference in KEYS:
            query = TOPSQuery(k=5, tau_km=tau, preference=preference)
            a = memory.query(query)
            b = loaded.query(query)
            assert list(a.sites) == list(b.sites), context
            utilities = [np.asarray(r.per_trajectory_utility).tobytes() for r in (a, b)]
            assert utilities[0] == utilities[1], context


# ---------------------------------------------------------------------- #
# unit-level contracts
# ---------------------------------------------------------------------- #
def test_lru_bound(world):
    index = build(world)
    index.enable_coverage_cache(limit=2)
    for tau in (0.8, 1.2, 1.6, 2.0):
        index.query(TOPSQuery(k=3, tau_km=tau))
    stats = index.coverage_cache.stats()
    assert stats["parts"] == 2
    described = index.coverage_cache.describe_parts()
    assert [p["tau_km"] for p in described] == [1.6, 2.0]


def test_unregistered_preference_bypasses_cache(world):
    class CustomPreference(PreferenceFunction):
        def raw_score(self, detour_km, tau_km):
            return np.full_like(np.asarray(detour_km, dtype=float), 0.5)

    assert coverage_cache_key(1.0, CustomPreference()) is None
    index = build(world)
    index.enable_coverage_cache()
    index.prepare_coverage(1.2, CustomPreference())
    assert index.coverage_cache.stats()["parts"] == 0


def test_single_item_mutator_falls_back_to_rebuild(world):
    """Singular mutators bypass the delta hooks — the stale part must be
    refused and transparently rebuilt, never served."""
    network, base, held_out, sites = world
    index = build(world)
    index.enable_coverage_cache()
    query = TOPSQuery(k=5, tau_km=1.2)
    index.query(query)
    assert index.coverage_cache.stats()["parts"] == 1

    index.remove_trajectory(list(base.ids())[3])  # bumps version, no patch
    warm_answer = index.query(query)
    stats = index.coverage_cache.stats()
    assert stats["invalidations"] == 1  # the stale part was dropped...
    assert stats["stores"] == 2  # ...and a fresh one stored

    cold = copy.deepcopy(index)
    cold.coverage_cache = None
    cold_answer = cold.query(query)
    assert list(warm_answer.sites) == list(cold_answer.sites)
    assert (
        np.asarray(warm_answer.per_trajectory_utility).tobytes()
        == np.asarray(cold_answer.per_trajectory_utility).tobytes()
    )


def test_foreign_instance_is_refused_and_never_cached(world):
    """``prepare_coverage(instance=...)`` with a rung that does not serve τ
    must raise, not store that rung's coverage under τ's cache key."""
    index = build(world)
    index.enable_coverage_cache()
    query = TOPSQuery(k=5, tau_km=1.2)
    rung = index.instance_for(query.tau_km)
    foreign = next(i for i in index.instances if i.instance_id != rung.instance_id)
    with pytest.raises(ValueError, match="does not serve"):
        index.prepare_coverage(query.tau_km, query.preference, instance=foreign)
    assert index.coverage_cache.stats()["parts"] == 0

    prepared = index.prepare_coverage(
        query.tau_km, query.preference, instance=rung
    )
    assert prepared.instance is rung
    warm_answer = index.query(query)
    cold_answer = build(world).query(query)
    assert warm_answer.metadata["instance_id"] == rung.instance_id
    assert list(warm_answer.sites) == list(cold_answer.sites)
    assert (
        np.asarray(warm_answer.per_trajectory_utility).tobytes()
        == np.asarray(cold_answer.per_trajectory_utility).tobytes()
    )


def test_deepcopy_drops_views_but_keeps_parts(world):
    index = build(world)
    index.enable_coverage_cache()
    index.query(TOPSQuery(k=5, tau_km=1.2))
    clone = copy.deepcopy(index)
    assert clone.coverage_cache is not index.coverage_cache
    assert clone.coverage_cache.stats()["parts"] == 1
    for part in clone.coverage_cache.parts.values():
        assert part.view is None
    # the cloned cache still answers warm (re-materialises from its arrays)
    before = clone.coverage_cache.stats()["hits"]
    clone.query(TOPSQuery(k=5, tau_km=1.2))
    assert clone.coverage_cache.stats()["hits"] == before + 1


def test_cache_key_is_param_sensitive():
    assert coverage_cache_key(1.0, LinearPreference()) == coverage_cache_key(
        1.0, LinearPreference()
    )
    assert coverage_cache_key(1.0, BinaryPreference()) != coverage_cache_key(
        1.5, BinaryPreference()
    )


def test_limit_resize(world):
    index = build(world)
    index.enable_coverage_cache(limit=4)
    assert isinstance(index.coverage_cache, CoverageCache)
    for tau in (0.8, 1.2, 1.6, 2.0):
        index.query(TOPSQuery(k=3, tau_km=tau))
    assert index.coverage_cache.stats()["parts"] == 4
    index.enable_coverage_cache(limit=1)  # idempotent enable + shrink
    assert index.coverage_cache.stats()["parts"] == 1


def test_patch_seconds_exclude_rematerialisation(world, monkeypatch):
    """``finish_delta`` counts the patch in ``patch_seconds`` and the view
    rebuild in ``materialise_seconds`` — each once, never both."""
    import repro.core.covcache as covcache

    index = build(world)
    index.enable_coverage_cache()
    index.query(TOPSQuery(k=5, tau_km=1.2))
    real = covcache.materialise_coverage

    def slow_materialise(*args, **kwargs):
        time.sleep(0.2)
        return real(*args, **kwargs)

    monkeypatch.setattr(covcache, "materialise_coverage", slow_materialise)
    before = index.coverage_cache.stats()
    index.apply_updates(UpdateBatch(remove_trajectories=[index.trajectory_ids[0]]))
    after = index.coverage_cache.stats()
    assert after["patches"] == before["patches"] + 1
    assert after["materialisations"] == before["materialisations"] + 1
    assert after["materialise_seconds"] - before["materialise_seconds"] >= 0.2
    assert after["patch_seconds"] - before["patch_seconds"] < 0.2


def test_failed_instance_delta_drops_only_the_parts_it_backs(world, monkeypatch):
    """An instance delta that raises drops every part of that instance and
    no other; the survivors are patched and the dropped keys rebuild cold."""
    from repro.core.netclus import NetClusInstance

    network, base, held_out, sites = world
    index = build(world)
    index.enable_coverage_cache()
    for tau, preference in KEYS:
        index.query(TOPSQuery(k=5, tau_km=tau, preference=preference))
    failing = index.instance_for(1.2).instance_id
    doomed = {
        key for key, part in index.coverage_cache.parts.items() if part.instance_id == failing
    }
    assert 2 <= len(doomed) < len(KEYS)
    real = NetClusInstance.coverage_entries

    def coverage_entries(self, *args, **kwargs):
        if self.instance_id == failing:
            raise RuntimeError("injected")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(NetClusInstance, "coverage_entries", coverage_entries)
    before = index.coverage_cache.stats()
    index.apply_updates(UpdateBatch(add_trajectories=held_out[:2]))
    after = index.coverage_cache.stats()
    assert after["patches"] - before["patches"] == len(KEYS) - len(doomed)
    assert after["invalidations"] - before["invalidations"] == len(doomed)
    assert set(index.coverage_cache.parts).isdisjoint(doomed)

    monkeypatch.undo()
    cold = copy.deepcopy(index)
    cold.coverage_cache = None
    for tau, preference in KEYS:
        query = TOPSQuery(k=5, tau_km=tau, preference=preference)
        a, b = index.query(query), cold.query(query)
        assert list(a.sites) == list(b.sites)
        utilities = [np.asarray(r.per_trajectory_utility).tobytes() for r in (a, b)]
        assert utilities[0] == utilities[1]
