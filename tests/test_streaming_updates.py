"""The streaming update engine: batches == sequential == rebuilt from scratch.

Covers the PR-3 update subsystem:

* :meth:`NetClusIndex.apply_updates` / the plural update APIs leave the index
  in exactly the state the one-at-a-time calls produce (selection-identical,
  per-trajectory-utility-identical, cluster-state-identical);
* randomized update sequences match an index rebuilt from scratch on the
  final data, on the ψ-chosen clustered coverage and on a dense reference
  of the same entries;
* site updates re-elect the closest site as a rebuild would, and
  trajectory updates never re-elect;
* the monotonic :attr:`NetClusIndex.version` counter;
* the τ-boundary snap in :meth:`NetClusIndex.instance_for`.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from coverage_reference import answer_on, reference_view

from repro.core.netclus import NetClusIndex, UpdateBatch
from repro.core.query import TOPSQuery
from repro.network.generators import grid_network
from repro.trajectory.generators import commuter_trajectories
from repro.trajectory.model import TrajectoryDataset


@pytest.fixture(scope="module")
def world():
    """Network, base/held-out trajectories and candidate sites."""
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


def assert_same_state(left: NetClusIndex, right: NetClusIndex) -> None:
    """Full structural equality of two indexes (incl. insertion orders)."""
    assert left.sites == right.sites
    assert left.trajectory_ids == right.trajectory_ids
    for instance_l, instance_r in zip(left.instances, right.instances):
        for cluster_l, cluster_r in zip(instance_l.clusters, instance_r.clusters):
            assert cluster_l.representative == cluster_r.representative
            assert (
                cluster_l.representative_round_trip_km
                == cluster_r.representative_round_trip_km
            )
            assert cluster_l.trajectory_list == cluster_r.trajectory_list
            assert list(cluster_l.trajectory_list) == list(cluster_r.trajectory_list)


def assert_same_answers(left: NetClusIndex, right: NetClusIndex, taus=(0.4, 0.8, 1.6)):
    """Byte-identical query answers across τ, chosen and dense views."""
    for tau in taus:
        for view in ("chosen", "dense"):
            query = TOPSQuery(k=5, tau_km=tau)
            a = answer_on(left, query, view)
            b = answer_on(right, query, view)
            assert a.sites == b.sites
            assert (
                np.asarray(a.per_trajectory_utility).tobytes()
                == np.asarray(b.per_trajectory_utility).tobytes()
            )


# ---------------------------------------------------------------------- #
# batched == sequential
# ---------------------------------------------------------------------- #
def test_apply_updates_matches_sequential_calls(world):
    network, base, held_out, sites = world
    index = build(world)
    sequential = copy.deepcopy(index)
    batched = copy.deepcopy(index)
    remove_traj = list(base.ids())[:10]
    remove_sites = sorted(index.sites)[:8]
    add_sites = [n for n in network.node_ids() if n not in index.sites][:12]
    batch = UpdateBatch(
        add_trajectories=held_out,
        remove_trajectories=remove_traj,
        add_sites=add_sites,
        remove_sites=remove_sites,
    )

    # the documented application order: removals first, then additions
    for traj_id in remove_traj:
        sequential.remove_trajectory(traj_id)
    for site in remove_sites:
        sequential.remove_site(site)
    for trajectory in held_out:
        sequential.add_trajectory(trajectory)
    for site in add_sites:
        sequential.add_site(site)

    assert batched.apply_updates(batch) == len(batch)
    assert_same_state(sequential, batched)
    assert_same_answers(sequential, batched)


def test_plural_apis_match_singular(world):
    index = build(world)
    singular = copy.deepcopy(index)
    plural = copy.deepcopy(index)
    victims = list(index.trajectory_ids)[:5]
    for traj_id in victims:
        singular.remove_trajectory(traj_id)
    plural.remove_trajectories(victims)
    assert_same_state(singular, plural)


def test_empty_batch_is_noop(world):
    index = build(world)
    version = index.version
    assert index.apply_updates(UpdateBatch()) == 0
    assert index.version == version


def test_update_batch_len():
    batch = UpdateBatch(remove_trajectories=[1, 2], add_sites=[3])
    assert len(batch) == 3


# ---------------------------------------------------------------------- #
# randomized update sequences == rebuild from scratch
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("view", ["chosen", "dense"])
def test_randomized_updates_match_rebuild(world, view):
    network, base, held_out, sites = world
    index = build(world)
    rng = np.random.default_rng(5)
    pool = list(held_out)
    live = list(base)

    for _ in range(30):
        op = rng.integers(0, 4)
        if op == 0 and pool:
            trajectory = pool.pop()
            index.add_trajectory(trajectory)
            live.append(trajectory)
        elif op == 1 and len(live) > 10:
            position = int(rng.integers(0, len(live)))
            index.remove_trajectory(live.pop(position).traj_id)
        elif op == 2:
            candidates = [n for n in network.node_ids() if n not in index.sites]
            if candidates:
                index.add_site(int(rng.choice(candidates)))
        elif op == 3 and len(index.sites) > 5:
            index.remove_site(int(rng.choice(sorted(index.sites))))

    rebuilt = NetClusIndex.build(
        network,
        TrajectoryDataset(live),
        sorted(index.sites),
        gamma=0.75,
        tau_min_km=0.4,
        tau_max_km=3.0,
    )
    for tau in (0.4, 0.8, 1.6, 3.0):
        query = TOPSQuery(k=5, tau_km=tau)
        updated = answer_on(index, query, view)
        fresh = answer_on(rebuilt, query, view)
        assert updated.sites == fresh.sites
        assert np.allclose(
            updated.per_trajectory_utility, fresh.per_trajectory_utility
        )


# ---------------------------------------------------------------------- #
# dynamic re-election keeps the closest-site rule
# ---------------------------------------------------------------------- #
def assert_same_elections(left: NetClusIndex, right: NetClusIndex) -> None:
    for instance_l, instance_r in zip(left.instances, right.instances, strict=True):
        assert instance_l.reps.tobytes() == instance_r.reps.tobytes()
        assert instance_l.rep_rt.tobytes() == instance_r.rep_rt.tobytes()


def test_add_site_elects_the_closest_site_like_a_rebuild(world):
    """Adding every node as a site elects what a build over all nodes does."""
    network, base, _, _ = world
    index = build(world)
    for node in network.node_ids():
        index.add_site(node)
    rebuilt = NetClusIndex.build(
        network,
        base,
        network.node_ids(),
        gamma=0.75,
        tau_min_km=0.4,
        tau_max_km=3.0,
    )
    assert_same_elections(index, rebuilt)


def test_remove_site_reelects_the_closest_site_like_a_rebuild(world):
    network, base, _, _ = world
    index = build(world)
    # remove every current representative of the coarsest instance so the
    # re-elections have to pick a *different* site
    victims = sorted(
        {
            c.representative
            for c in index.instances[-1].clusters
            if c.has_representative
        }
    )
    keep = [s for s in sorted(index.sites) if s not in set(victims)]
    index.remove_sites(victims)
    rebuilt = NetClusIndex.build(
        network,
        base,
        keep,
        gamma=0.75,
        tau_min_km=0.4,
        tau_max_km=3.0,
    )
    assert_same_elections(index, rebuilt)


def test_trajectory_updates_leave_elections_alone(world):
    """The closest site does not depend on who visits it, so trajectory
    removals and additions never re-elect a representative."""
    network, base, held_out, _ = world
    index = build(world)
    before = copy.deepcopy(index)
    removed = list(base.ids())[: len(base.ids()) // 2]
    index.remove_trajectories(removed)
    index.add_trajectories(held_out)
    assert index.version == 2
    assert_same_elections(index, before)
    live = [t for t in base if t.traj_id not in set(removed)] + list(held_out)
    rebuilt = NetClusIndex.build(
        network,
        TrajectoryDataset(live),
        sorted(index.sites),
        gamma=0.75,
        tau_min_km=0.4,
        tau_max_km=3.0,
    )
    assert_same_elections(index, rebuilt)


# ---------------------------------------------------------------------- #
# version counter
# ---------------------------------------------------------------------- #
def test_version_bumps_on_every_mutation(world):
    network, _, held_out, _ = world
    index = build(world)
    assert index.version == 0
    index.add_trajectory(held_out[0])
    assert index.version == 1
    index.remove_trajectory(held_out[0].traj_id)
    assert index.version == 2
    new_site = next(n for n in network.node_ids() if n not in index.sites)
    index.add_site(new_site)
    assert index.version == 3
    index.remove_site(new_site)
    assert index.version == 4


def test_version_unchanged_by_noops_and_queries(world):
    index = build(world)
    index.add_site(sorted(index.sites)[0])  # already registered -> no-op
    index.query(TOPSQuery(k=3, tau_km=0.8))
    assert index.version == 0
    with pytest.raises(KeyError):
        index.remove_site(10_001)
    assert index.version == 0


def test_failed_batch_leaves_state_untouched(world):
    """A batch with an invalid member must not partially apply."""
    index = build(world)
    before = copy.deepcopy(index)
    good = sorted(index.sites)[:3]
    with pytest.raises(KeyError):
        index.remove_sites(good + [10_001])
    assert index.version == 0
    assert_same_state(before, index)
    with pytest.raises(KeyError):
        index.remove_trajectories([index.trajectory_ids[0], 99_999])
    assert_same_state(before, index)


def test_duplicate_ids_in_batch_rejected(world):
    _, _, held_out, _ = world
    index = build(world)
    with pytest.raises(ValueError):
        index.add_trajectories([held_out[0], held_out[0]])
    with pytest.raises(KeyError):
        index.remove_sites([sorted(index.sites)[0]] * 2)


# ---------------------------------------------------------------------- #
# instance_for boundary snap (satellite fix)
# ---------------------------------------------------------------------- #
def test_instance_for_exact_boundaries(world):
    """τ == τ_min·(1+γ)^p must select instance p across the whole ladder."""
    index = build(world)
    for p in range(index.num_instances):
        tau = index.tau_min_km * (1.0 + index.gamma) ** p
        assert index.instance_for(tau).instance_id == p, f"boundary p={p}"


def test_instance_for_interior_and_clamps(world):
    index = build(world)
    gamma = index.gamma
    # strictly inside each band the instance is unchanged by the snap
    for p in range(index.num_instances):
        tau = index.tau_min_km * (1.0 + gamma) ** (p + 0.5)
        assert index.instance_for(tau).instance_id == p
    # just below a boundary (beyond the tolerance) stays on the lower band
    tau = index.tau_min_km * (1.0 + gamma) ** 2 * (1.0 - 1e-6)
    assert index.instance_for(tau).instance_id == 1
    assert index.instance_for(1e-6).instance_id == 0
    assert index.instance_for(1e9).instance_id == index.num_instances - 1


# ---------------------------------------------------------------------- #
# review hardening: foreign node ids, cross-sub-batch atomicity
# ---------------------------------------------------------------------- #
def test_batched_add_handles_foreign_node_ids_like_sequential(world):
    """Node ids unknown to the network are skipped, never wrapped/overflowed."""
    from repro.trajectory.model import Trajectory

    index = build(world)
    base_id = max(index.trajectory_ids) + 1
    weird = [
        Trajectory(traj_id=base_id, nodes=(-1, 0, 1), cumulative_km=(0.0, 0.5, 1.0)),
        Trajectory(
            traj_id=base_id + 1, nodes=(500, 2, 3), cumulative_km=(0.0, 0.5, 1.0)
        ),
        Trajectory(traj_id=base_id + 2, nodes=(4, 5), cumulative_km=(0.0, 0.5)),
    ]
    sequential = copy.deepcopy(index)
    for trajectory in weird:
        sequential.add_trajectory(trajectory)
    index.add_trajectories(weird)
    # full state equality guards against node -1 wrapping to the last node:
    # a wrapped registration would give the batched index an extra (or
    # different) trajectory-list entry somewhere
    assert_same_state(sequential, index)


def test_foreign_node_ids_survive_add_and_remove(world):
    from repro.trajectory.model import Trajectory

    index = build(world)
    traj = Trajectory(
        traj_id=max(index.trajectory_ids) + 1,
        nodes=(-1, 500, 7),
        cumulative_km=(0.0, 0.5, 1.0),
    )
    index.add_trajectories([traj, traj_copy(traj, 1)])
    index.remove_trajectories([traj.traj_id])
    assert index.num_trajectories == 51


def traj_copy(trajectory, offset):
    from repro.trajectory.model import Trajectory

    return Trajectory(
        traj_id=trajectory.traj_id + offset,
        nodes=trajectory.nodes,
        cumulative_km=trajectory.cumulative_km,
    )


def test_apply_updates_is_atomic_across_sub_batches(world):
    """A bad member in a *later* sub-batch must not apply earlier ones."""
    index = build(world)
    before = copy.deepcopy(index)
    victim = index.trajectory_ids[0]
    with pytest.raises(KeyError):
        index.apply_updates(
            UpdateBatch(remove_trajectories=[victim], remove_sites=[10_001])
        )
    assert index.version == 0
    assert_same_state(before, index)
    already_indexed = world[1][0]  # id collides with an indexed trajectory
    with pytest.raises(ValueError):
        index.apply_updates(
            UpdateBatch(
                remove_sites=[sorted(index.sites)[0]],
                add_trajectories=[already_indexed],
            )
        )
    assert_same_state(before, index)


def test_remove_then_readd_same_trajectory_in_one_batch(world):
    """apply_updates allows remove+re-add of one id, like the sequential order."""
    index = build(world)
    sequential = copy.deepcopy(index)
    victim_traj = next(
        t for t in world[1] if t.traj_id == index.trajectory_ids[0]
    )
    sequential.remove_trajectory(victim_traj.traj_id)
    sequential.add_trajectory(victim_traj)
    index.apply_updates(
        UpdateBatch(
            remove_trajectories=[victim_traj.traj_id],
            add_trajectories=[victim_traj],
        )
    )
    assert_same_state(sequential, index)


def test_stale_prepared_coverage_refused(world):
    """A ClusteredCoverage prepared before a mutation must not answer queries."""
    from repro.core.preference import BinaryPreference

    index = build(world)
    prepared = index.prepare_coverage(0.8, BinaryPreference())
    reference = reference_view(index, 0.8, BinaryPreference(), "dense")
    query = TOPSQuery(k=3, tau_km=0.8)
    for coverage in (prepared, reference):
        index.query(query, prepared=coverage)  # fresh: fine
    index.remove_site(sorted(index.sites)[0])
    for coverage in (prepared, reference):
        with pytest.raises(ValueError, match="stale"):
            index.query(query, prepared=coverage)
    # a re-prepared coverage works again
    fresh = index.prepare_coverage(0.8, BinaryPreference())
    index.query(query, prepared=fresh)
