"""Tests for the staged build pipeline (`repro.core.build`).

Covers the pipeline's stage records, `workers` resolution, the workers=1 vs workers=N parity
guarantee (state, selections, serialized payload), manifest round-tripping
of the per-stage stats, worker-failure propagation, and the shared
trajectory-registration kernel.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core.build import STAGES, BuildStats, build_index
from repro.core.netclus import NetClusIndex, register_trajectory_batch
from repro.core.query import TOPSQuery
from repro.datasets import beijing_like
from repro.network.shortest_path import ShortestPathEngine
from repro.service.serialization import load_index, payload_digest, save_index
from repro.utils.parallel import resolve_workers, usable_cpu_count


@pytest.fixture(scope="module")
def bundle():
    return beijing_like(scale="tiny", seed=42)


@pytest.fixture(scope="module")
def sequential_index(bundle):
    return NetClusIndex.build(
        bundle.network, bundle.trajectories, bundle.sites, tau_max_km=4.0
    )


@pytest.fixture(scope="module")
def parallel_index(bundle):
    return NetClusIndex.build(
        bundle.network, bundle.trajectories, bundle.sites, tau_max_km=4.0, workers=2
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
            assert stat.workers == 1
            assert len(stat.per_instance_seconds) == sequential_index.num_instances

    def test_parallel_stage_records(self, parallel_index):
        by_stage = {stat.stage: stat for stat in parallel_index.build_stats}
        assert by_stage["clustering"].workers == 2
        assert by_stage["representatives"].workers == 1
        assert by_stage["registration"].workers == 1

    def test_instance_build_seconds_sum_to_stage_totals(self, sequential_index):
        stage_total = sum(stat.seconds for stat in sequential_index.build_stats)
        instance_total = sequential_index.build_seconds()
        assert instance_total == pytest.approx(stage_total, rel=1e-9)

    def test_build_stats_dict_round_trip(self, sequential_index):
        for stat in sequential_index.build_stats:
            assert BuildStats.from_dict(stat.as_dict()) == stat

    def test_workers_one_is_default(self, bundle):
        index = build_index(
            bundle.network, bundle.trajectories, bundle.sites, tau_max_km=4.0
        )
        assert all(stat.workers == 1 for stat in index.build_stats)

    def test_invalid_workers_rejected(self, bundle):
        with pytest.raises(ValueError):
            NetClusIndex.build(
                bundle.network, bundle.trajectories, bundle.sites, workers=0
            )


class TestResolveWorkers:
    def test_auto_resolves_to_usable_cpus(self):
        assert resolve_workers("auto") == usable_cpu_count()
        assert resolve_workers("AUTO") == usable_cpu_count()
        assert usable_cpu_count() >= 1

    def test_integers_pass_through(self):
        assert resolve_workers(3) == 3
        assert resolve_workers("2") == 2

    @pytest.mark.parametrize("workers", [0, "banana", 2.5, True, 0.9])
    def test_invalid_values_raise(self, workers):
        with pytest.raises(ValueError, match=repr(workers)):
            resolve_workers(workers)

    def test_auto_accepted_by_build(self, bundle):
        index = bundle.problem().build_netclus_index(
            tau_max_km=1.0, max_instances=1, workers="auto"
        )
        assert index.num_instances == 1


class TestParallelParity:
    def test_state_identical(self, sequential_index, parallel_index):
        _assert_state_identical(sequential_index, parallel_index)

    def test_serialization_identical(self, sequential_index, parallel_index):
        assert payload_digest(
            sequential_index, include_timings=False
        ) == payload_digest(parallel_index, include_timings=False)

    def test_selections_identical(self, sequential_index, parallel_index):
        for tau in (0.6, 1.2, 2.4):
            for engine in ("dense", "sparse"):
                query = TOPSQuery(k=4, tau_km=tau)
                a = sequential_index.query(query, engine=engine)
                b = parallel_index.query(query, engine=engine)
                assert a.sites == b.sites
                assert (
                    np.asarray(a.per_trajectory_utility).tobytes()
                    == np.asarray(b.per_trajectory_utility).tobytes()
                )

    def test_most_frequent_strategy_parity(self, bundle):
        kwargs = dict(
            tau_max_km=2.0, max_instances=3, representative_strategy="most_frequent"
        )
        sequential = NetClusIndex.build(
            bundle.network, bundle.trajectories, bundle.sites, **kwargs
        )
        parallel = NetClusIndex.build(
            bundle.network, bundle.trajectories, bundle.sites, workers=2, **kwargs
        )
        _assert_state_identical(sequential, parallel)
        assert payload_digest(sequential, include_timings=False) == payload_digest(
            parallel, include_timings=False
        )

    def test_fm_sketch_gdsp_parity(self, bundle):
        kwargs = dict(tau_max_km=2.0, max_instances=2, use_fm_sketches=True)
        sequential = NetClusIndex.build(
            bundle.network, bundle.trajectories, bundle.sites, **kwargs
        )
        parallel = NetClusIndex.build(
            bundle.network, bundle.trajectories, bundle.sites, workers=2, **kwargs
        )
        _assert_state_identical(sequential, parallel)

    def test_parallel_index_supports_dynamic_updates(self, bundle, parallel_index):
        import copy

        index = copy.deepcopy(parallel_index)
        site = sorted(index.sites)[0]
        index.remove_site(site)
        assert site not in index.sites
        index.add_site(site)
        assert site in index.sites


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

    def test_manifest_without_stats_loads_empty(self, tmp_path, sequential_index):
        import json

        directory = save_index(sequential_index, tmp_path / "idx")
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest.pop("build_stats")
        manifest["build_params"].pop("max_instances")
        manifest_path.write_text(json.dumps(manifest))
        loaded = load_index(directory)
        assert loaded.build_stats == []
        assert loaded.max_instances is None


def _exploding_task(task):
    """Module-level (hence picklable) stand-in for the worker task."""
    raise RuntimeError(f"injected worker fault on instance {task[0]}")


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker fault injection relies on the fork start method",
)
class TestWorkerFailure:
    def test_crashing_worker_propagates_cleanly(self, bundle, monkeypatch):
        """A worker exception surfaces as-is; no half-built index escapes."""
        import repro.core.build as build_module

        monkeypatch.setattr(build_module, "_instance_task", _exploding_task)
        with pytest.raises(RuntimeError, match="injected worker fault"):
            build_index(
                bundle.network,
                bundle.trajectories,
                bundle.sites,
                tau_max_km=4.0,
                workers=2,
                mp_start_method="fork",
            )

    def test_build_recovers_after_worker_failure(self, bundle, monkeypatch):
        """The failure leaves no global state behind: the next build works."""
        import repro.core.build as build_module

        original = build_module._instance_task
        monkeypatch.setattr(build_module, "_instance_task", _exploding_task)
        with pytest.raises(RuntimeError):
            build_index(
                bundle.network,
                bundle.trajectories,
                bundle.sites,
                tau_max_km=4.0,
                workers=2,
                mp_start_method="fork",
            )
        monkeypatch.setattr(build_module, "_instance_task", original)
        index = build_index(
            bundle.network,
            bundle.trajectories,
            bundle.sites,
            tau_max_km=4.0,
            workers=2,
            mp_start_method="fork",
        )
        assert index.num_instances > 0


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
            bundle.network.num_nodes,
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
        register_trajectory_batch(instance, bundle.network.num_nodes, [], [])
        assert [dict(c.trajectory_list) for c in instance.clusters] == before


class TestEnginePayload:
    def test_payload_round_trip_preserves_distances(self, bundle):
        engine = ShortestPathEngine(bundle.network)
        restored = ShortestPathEngine.from_payload(engine.to_payload())
        assert restored.network is None
        assert restored.num_nodes == bundle.network.num_nodes
        sources = [0, 3, 7]
        np.testing.assert_array_equal(
            engine.distances_from(sources), restored.distances_from(sources)
        )
        np.testing.assert_array_equal(
            engine.distances_to(sources), restored.distances_to(sources)
        )
        left = engine.bounded_round_trip_neighbors(0.5)
        right = restored.bounded_round_trip_neighbors(0.5)
        assert left.keys() == right.keys()
        for node in left:
            np.testing.assert_array_equal(left[node], right[node])

    def test_module_wrapper_reuses_engine(self, bundle):
        from repro.network.shortest_path import bounded_round_trip_neighbors

        engine = ShortestPathEngine(bundle.network)
        via_engine = bounded_round_trip_neighbors(
            bundle.network, radius=0.4, engine=engine
        )
        fresh = bounded_round_trip_neighbors(bundle.network, radius=0.4)
        assert via_engine.keys() == fresh.keys()
        for node in fresh:
            np.testing.assert_array_equal(via_engine[node], fresh[node])
