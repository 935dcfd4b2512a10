"""Tests for the staged build pipeline (`repro.core.build`).

Covers the pipeline's stage records, build determinism (state,
selections, serialized payload), parameter validation, fault propagation
out of every stage, manifest round-tripping of the per-stage stats, and
the shared trajectory-registration kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
from coverage_reference import answer_on, views_for

import repro.core.build as build_module
from repro.core.build import STAGES, BuildStats, build_index
from repro.core.gdsp import GreedyGDSP
from repro.core.netclus import NetClusIndex, register_trajectory_batch
from repro.core.query import TOPSQuery
from repro.datasets import beijing_like
from repro.service.serialization import load_index, payload_digest, save_index


@pytest.fixture(scope="module")
def bundle():
    return beijing_like(scale="tiny", seed=42)


@pytest.fixture(scope="module")
def sequential_index(bundle):
    return NetClusIndex.build(
        bundle.network, bundle.trajectories, bundle.sites, tau_max_km=4.0
    )


@pytest.fixture(scope="module")
def rebuilt_index(bundle):
    return NetClusIndex.build(
        bundle.network, bundle.trajectories, bundle.sites, tau_max_km=4.0
    )


def _assert_state_identical(left: NetClusIndex, right: NetClusIndex) -> None:
    """Full structural equality, including dict insertion orders."""
    assert left.num_instances == right.num_instances
    assert left.trajectory_ids == right.trajectory_ids
    assert left.sites == right.sites
    for a, b in zip(left.instances, right.instances):
        assert a.radius_km == b.radius_km
        assert a.node_to_cluster == b.node_to_cluster
        assert a.mean_dominating_set_size == b.mean_dominating_set_size
        assert len(a.clusters) == len(b.clusters)
        for ca, cb in zip(a.clusters, b.clusters):
            assert ca.center == cb.center
            assert ca.representative == cb.representative
            assert ca.representative_round_trip_km == cb.representative_round_trip_km
            assert list(ca.nodes.items()) == list(cb.nodes.items())
            assert list(ca.trajectory_list.items()) == list(cb.trajectory_list.items())
            assert ca.neighbors == cb.neighbors


class TestStagedPipeline:
    def test_stage_records(self, sequential_index):
        stages = [stat.stage for stat in sequential_index.build_stats]
        assert stages == list(STAGES)
        for stat in sequential_index.build_stats:
            assert stat.seconds >= 0.0
            assert len(stat.per_instance_seconds) == sequential_index.num_instances

    def test_instance_build_seconds_sum_to_stage_totals(self, sequential_index):
        stage_total = sum(stat.seconds for stat in sequential_index.build_stats)
        instance_total = sequential_index.build_seconds()
        assert instance_total == pytest.approx(stage_total, rel=1e-9)

    def test_build_stats_dict_round_trip(self, sequential_index):
        for stat in sequential_index.build_stats:
            assert BuildStats.from_dict(stat.as_dict()) == stat

    def test_rebuild_serializes_identically(self, bundle, sequential_index):
        """Every stage is deterministic: only the timings differ."""
        rebuilt = build_index(
            bundle.network, bundle.trajectories, bundle.sites, tau_max_km=4.0
        )
        assert payload_digest(rebuilt, include_timings=False) == payload_digest(
            sequential_index, include_timings=False
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"gamma": 0.0},
            {"tau_min_km": 0.0},
            {"tau_min_km": 2.0, "tau_max_km": 2.0},
            {"sites": [10**9]},
        ],
        ids=["gamma-zero", "tau-min-zero", "tau-max-not-above-min",
             "site-off-network"],
    )
    def test_invalid_parameters_rejected(self, bundle, overrides):
        kwargs = {"sites": bundle.sites, "tau_max_km": 4.0, **overrides}
        sites = kwargs.pop("sites")
        with pytest.raises(ValueError):
            build_index(bundle.network, bundle.trajectories, sites, **kwargs)


class TestBuildDeterminism:
    """Two builds of the same data agree in everything but their timings."""

    def test_state_identical(self, sequential_index, rebuilt_index):
        _assert_state_identical(sequential_index, rebuilt_index)

    def test_selections_identical(self, sequential_index, rebuilt_index):
        for tau in (0.6, 1.2, 2.4):
            query = TOPSQuery(k=4, tau_km=tau)
            for view in views_for(query.preference):
                a = answer_on(sequential_index, query, view)
                b = answer_on(rebuilt_index, query, view)
                assert a.sites == b.sites
                assert (
                    np.asarray(a.per_trajectory_utility).tobytes()
                    == np.asarray(b.per_trajectory_utility).tobytes()
                )


def _injected_fault(*args, **kwargs):
    raise RuntimeError("injected build fault")


#: per stage, the (owner, attribute) the stage calls into
STAGE_ENTRY_POINTS = {
    "clustering": (GreedyGDSP, "cluster"),
    "representatives": (NetClusIndex, "_elect_representative"),
    "registration": (build_module, "register_trajectory_batch"),
    "neighbors": (build_module, "compute_neighbor_lists"),
}


@pytest.mark.parametrize("stage", STAGES)
def test_stage_fault_propagates(bundle, monkeypatch, stage):
    """A fault in any stage surfaces as-is; no half-built index escapes."""
    owner, attribute = STAGE_ENTRY_POINTS[stage]
    monkeypatch.setattr(owner, attribute, _injected_fault)
    with pytest.raises(RuntimeError, match="injected build fault"):
        build_index(
            bundle.network, bundle.trajectories, bundle.sites, tau_max_km=4.0
        )


def test_closest_build_never_counts_node_visits(bundle, monkeypatch):
    """The closest-site election never reads node visit counts."""
    monkeypatch.setattr(
        type(bundle.trajectories), "node_visit_counts", _injected_fault
    )
    index = build_index(
        bundle.network, bundle.trajectories, bundle.sites, tau_max_km=2.0
    )
    assert index.num_instances > 0


class TestManifestStats:
    def test_build_stats_round_trip_through_manifest(
        self, tmp_path, bundle, sequential_index
    ):
        directory = save_index(sequential_index, tmp_path / "idx")
        loaded = load_index(directory)
        assert loaded.build_stats == sequential_index.build_stats
        assert loaded.max_instances == sequential_index.max_instances

    def test_max_instances_round_trips(self, tmp_path, bundle):
        index = NetClusIndex.build(
            bundle.network,
            bundle.trajectories,
            bundle.sites,
            tau_max_km=4.0,
            max_instances=2,
        )
        loaded = load_index(save_index(index, tmp_path / "capped"))
        assert loaded.max_instances == 2
        assert loaded.num_instances == 2


class TestRegistrationKernel:
    """The shared kernel is the only trajectory-registration implementation."""

    def test_build_and_update_registration_agree(self, bundle):
        """Indexing trajectories at build time == streaming them in later."""
        full = NetClusIndex.build(
            bundle.network, bundle.trajectories, bundle.sites, tau_max_km=4.0
        )
        half = bundle.trajectories.sample(
            bundle.num_trajectories // 2, seed=7
        )
        incremental = NetClusIndex.build(
            bundle.network, half, bundle.sites, tau_max_km=4.0
        )
        held_out = [
            t for t in bundle.trajectories if t.traj_id not in set(half.ids())
        ]
        incremental.add_trajectories(held_out)
        for a, b in zip(full.instances, incremental.instances):
            for ca, cb in zip(a.clusters, b.clusters):
                # same (trajectory, leg) content; insertion order differs
                # because the incremental index saw the held-out half later
                assert dict(ca.trajectory_list) == dict(cb.trajectory_list)

    def test_single_trajectory_addition_uses_kernel(self, bundle):
        index = NetClusIndex.build(
            bundle.network, bundle.trajectories, bundle.sites, tau_max_km=4.0
        )
        trajectory = bundle.trajectories[0]
        from repro.trajectory.model import Trajectory

        clone = Trajectory(
            traj_id=max(index.trajectory_ids) + 1,
            nodes=trajectory.nodes,
            cumulative_km=trajectory.cumulative_km,
        )
        index.add_trajectory(clone)
        for instance in index.instances:
            for cluster in instance.clusters:
                original = cluster.trajectory_list.get(trajectory.traj_id)
                added = cluster.trajectory_list.get(clone.traj_id)
                assert original == added  # same nodes -> same legs everywhere

    def test_kernel_ignores_out_of_range_nodes(self, bundle):
        index = NetClusIndex.build(
            bundle.network, bundle.trajectories, bundle.sites, tau_max_km=4.0
        )
        instance = index.instances[0]
        before = [dict(c.trajectory_list) for c in instance.clusters]
        register_trajectory_batch(
            instance,
            [10_000],
            [np.asarray([-5, bundle.network.num_nodes + 3], dtype=np.int64)],
        )
        after = [dict(c.trajectory_list) for c in instance.clusters]
        assert before == after

    def test_kernel_empty_batch_is_noop(self, bundle):
        index = NetClusIndex.build(
            bundle.network, bundle.trajectories, bundle.sites, tau_max_km=4.0
        )
        instance = index.instances[0]
        before = [dict(c.trajectory_list) for c in instance.clusters]
        register_trajectory_batch(instance, [], [])
        assert [dict(c.trajectory_list) for c in instance.clusters] == before
