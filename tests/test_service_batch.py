"""PlacementService: batch == sequential, shared-work counters, order cache."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from coverage_reference import reference_view, seed_reference_views

from repro.core.query import TOPSQuery
from repro.core.variants import solve_tops_capacity, solve_tops_cost
from repro.service import PlacementService, QuerySpec, save_index


@pytest.fixture()
def service(tiny_netclus):
    return PlacementService(tiny_netclus)


MIXED_SPECS = [
    QuerySpec(k=3, tau_km=0.8),
    QuerySpec(k=6, tau_km=0.8),
    QuerySpec(k=9, tau_km=0.8),
    QuerySpec(k=4, tau_km=1.6),
    QuerySpec(k=4, tau_km=1.6, capacity=25),
    QuerySpec(k=4, tau_km=0.8, budget=3.0),
    QuerySpec(k=5, tau_km=1.6, preference="linear"),
    QuerySpec(k=5, tau_km=0.8, preference="exponential",
              preference_params=(("decay", 3.0),)),
]


def _assert_same_result(a, b):
    assert a.sites == b.sites
    assert a.utility == pytest.approx(b.utility)
    assert a.per_trajectory_utility == pytest.approx(b.per_trajectory_utility)


# ---------------------------------------------------------------------- #
# batch == sequential == fresh index
# ---------------------------------------------------------------------- #
def test_batch_matches_sequential(tiny_netclus, service):
    batch = service.batch_query(MIXED_SPECS, use_cache=False)
    for spec, batched in zip(MIXED_SPECS, batch):
        alone = PlacementService(tiny_netclus).query(
            spec, use_cache=False
        )
        _assert_same_result(batched, alone)


def test_plain_specs_match_index_query(tiny_netclus, service):
    """Uncapacitated, unbudgeted specs reproduce NetClusIndex.query exactly."""
    for spec in MIXED_SPECS:
        if spec.capacity is not None or spec.budget is not None:
            continue
        direct = tiny_netclus.query(spec.to_query())
        served = service.query(spec, use_cache=False)
        _assert_same_result(served, direct)


def _chosen_and_dense(index, spec):
    """The ψ-chosen clustered coverage and a dense reference of it."""
    preference = spec.preference_fn()
    yield index.prepare_coverage(spec.tau_km, preference).coverage
    yield reference_view(index, spec.tau_km, preference, "dense").coverage


def test_capacity_spec_matches_variant_driver(tiny_netclus, service):
    spec = QuerySpec(k=4, tau_km=1.6, capacity=25)
    served = service.query(spec, use_cache=False)
    for coverage in _chosen_and_dense(tiny_netclus, spec):
        caps = np.full(coverage.num_sites, spec.capacity)
        direct = solve_tops_capacity(coverage, spec.to_query(), caps)
        _assert_same_result(served, direct)


def test_budget_spec_matches_variant_driver(tiny_netclus, service):
    spec = QuerySpec(k=4, tau_km=0.8, budget=3.0)
    served = service.query(spec, use_cache=False)
    for coverage in _chosen_and_dense(tiny_netclus, spec):
        costs = np.full(coverage.num_sites, 1.0)
        direct = solve_tops_cost(coverage, spec.budget, costs)
        _assert_same_result(served, direct)
    assert served.algorithm == "tops-cost"


def test_tops_query_input_accepted(tiny_netclus, service):
    query = TOPSQuery(k=5, tau_km=0.8)
    direct = tiny_netclus.query(query)
    served = service.query(query, use_cache=False)
    _assert_same_result(served, direct)


def test_dense_reference_parity(tiny_netclus):
    """Answers equal those served from dense views of the same parts."""
    index = copy.deepcopy(tiny_netclus)
    index.coverage_cache = None
    chosen = PlacementService(index, coverage_cache=True)
    specs = [s for s in MIXED_SPECS if s.budget is None]
    expected = chosen.batch_query(specs, use_cache=False)
    dense_index = copy.deepcopy(index)
    seed_reference_views(dense_index, "dense")
    dense = PlacementService(dense_index)
    for a, b in zip(expected, dense.batch_query(specs, use_cache=False)):
        _assert_same_result(a, b)
    assert dense.stats.coverage_builds == 0


# ---------------------------------------------------------------------- #
# shared-work amortisation (the acceptance-criterion counters)
# ---------------------------------------------------------------------- #
def test_same_tau_batch_resolves_and_builds_once(service):
    specs = [QuerySpec(k=k, tau_km=0.8) for k in (2, 5, 8)]
    results = service.batch_query(specs, use_cache=False)
    assert service.stats.instance_resolutions == 1
    assert service.stats.coverage_builds == 1
    assert service.stats.greedy_runs == 1
    # prefix property: smaller-k selections are prefixes of the largest
    assert results[0].sites == results[2].sites[:2]
    assert results[1].sites == results[2].sites[:5]


def test_mixed_tau_batch_counts_groups(service):
    specs = [
        QuerySpec(k=3, tau_km=0.8),
        QuerySpec(k=5, tau_km=0.8),
        QuerySpec(k=3, tau_km=1.6),
        QuerySpec(k=3, tau_km=0.8, preference="linear"),
    ]
    service.batch_query(specs, use_cache=False)
    assert service.stats.instance_resolutions == 2  # τ ∈ {0.8, 1.6}
    assert service.stats.coverage_builds == 3  # (0.8, binary), (1.6, binary), (0.8, linear)
    assert service.stats.greedy_runs == 3


def test_same_tau_different_capacity_needs_two_runs(service):
    specs = [QuerySpec(k=3, tau_km=0.8), QuerySpec(k=3, tau_km=0.8, capacity=10)]
    service.batch_query(specs, use_cache=False)
    assert service.stats.coverage_builds == 1
    assert service.stats.greedy_runs == 2


def test_stage_timings_accumulate(service):
    service.batch_query([QuerySpec(k=3, tau_km=0.8)], use_cache=False)
    stats = service.stats
    assert stats.coverage_build_seconds > 0.0
    assert stats.greedy_seconds > 0.0
    stages = stats.stage_seconds()
    # fixed stages plus one kernel_<name>_seconds entry per kernel hit
    assert {
        name for name in stages if not name.startswith("kernel_")
    } == {
        "coverage_build_seconds",
        "coverage_materialise_seconds",
        "greedy_seconds",
        "replay_seconds",
    }
    assert any(name.startswith("kernel_") for name in stages)
    result = service.query(QuerySpec(k=2, tau_km=0.8), use_cache=False)
    assert "coverage_build_seconds" in result.stage_seconds()
    assert "greedy_run_seconds" in result.stage_seconds()
    stats.reset()
    assert stats.coverage_build_seconds == 0


def test_roundtrip_batch_acceptance_property(tiny_problem, tiny_netclus, tmp_path):
    """save → load → batch_query equals a freshly built index on a mixed batch."""
    path = save_index(tiny_netclus, tmp_path / "city.ncx")
    loaded_service = PlacementService.from_path(path)
    fresh_service = PlacementService(
        tiny_problem.build_netclus_index(gamma=0.75, tau_min_km=0.4, tau_max_km=4.0)
    )
    for loaded, fresh in zip(
        loaded_service.batch_query(MIXED_SPECS),
        fresh_service.batch_query(MIXED_SPECS),
    ):
        _assert_same_result(loaded, fresh)
    same_tau = [QuerySpec(k=k, tau_km=1.2) for k in (2, 4, 6)]
    loaded_service.stats.reset()
    loaded_service.batch_query(same_tau)
    assert loaded_service.stats.instance_resolutions == 1
    assert loaded_service.stats.coverage_builds == 1


# ---------------------------------------------------------------------- #
# order cache behaviour
# ---------------------------------------------------------------------- #
def _same_bytes(a, b):
    return a.sites == b.sites and (
        np.asarray(a.per_trajectory_utility).tobytes()
        == np.asarray(b.per_trajectory_utility).tobytes()
    )


def test_cache_hits_skip_all_work(service):
    """A repeated spec, and any smaller k at its key, is answered from the
    stored order: no greedy step and no coverage work."""
    spec = QuerySpec(k=4, tau_km=0.8)
    first = service.query(spec)
    runs = service.stats.greedy_runs
    builds = service.stats.coverage_builds
    second = service.query(spec)
    smaller = service.query(QuerySpec(k=2, tau_km=0.8))
    assert service.stats.cache_hits == 2
    assert service.stats.greedy_runs == runs
    assert service.stats.coverage_builds == builds
    assert _same_bytes(second, first)
    assert _same_bytes(smaller, service.query(QuerySpec(k=2, tau_km=0.8), use_cache=False))


def test_larger_k_resumes_the_stored_order(service):
    """A larger k at a cached key is one (resumed) greedy step and a miss."""
    service.query(QuerySpec(k=3, tau_km=0.8))
    runs = service.stats.greedy_runs
    grown = service.query(QuerySpec(k=9, tau_km=0.8))
    assert service.stats.greedy_runs == runs + 1
    assert service.stats.cache_hits == 0
    assert _same_bytes(grown, service.query(QuerySpec(k=9, tau_km=0.8), use_cache=False))
    assert service.cache_len == 1


def test_cache_respects_spec_identity(service):
    a = service.query(QuerySpec(k=4, tau_km=0.8))
    b = service.query(QuerySpec(k=4, tau_km=0.8, capacity=10))
    assert service.stats.cache_hits == 0
    assert a.sites is not None and b.sites is not None


def test_cache_bypass_does_not_populate(service):
    spec = QuerySpec(k=4, tau_km=0.8)
    service.query(spec, use_cache=False)
    assert service.cache_len == 0
    service.query(spec)
    assert service.stats.cache_hits == 0
    assert service.cache_len == 1


#: k per round, rising and falling, so rounds replay, resume and restart
K_SEQUENCE = (3, 9, 5, 14, 2, 20, 7, 20, 1)
SELECTION_RULES = (
    {},
    {"capacity": 12},
    {"existing_sites": "two"},
    {"preference": "linear"},
    {"preference": "exponential", "tau_km": 1.6},
    {"budget": 3.0},
)


def _rule_spec(rule, k, existing):
    fields = {"tau_km": 0.8, **rule}
    if fields.get("existing_sites") == "two":
        fields["existing_sites"] = existing
    return QuerySpec(k=k, **fields)


@pytest.mark.parametrize("coverage_cache", [False, True])
def test_cached_orders_match_a_cache_free_service_across_updates(tiny_netclus, coverage_cache):
    """Rounds of k rising and falling, with updates in between, answer
    like a cache-free service byte for byte, and every spec the stored
    order covers is a hit that runs no greedy step."""
    from repro.core.netclus import UpdateBatch

    cached = PlacementService(copy.deepcopy(tiny_netclus), coverage_cache=coverage_cache)
    reference = PlacementService(copy.deepcopy(tiny_netclus), cache_size=0)
    sites = sorted(tiny_netclus.sites)
    existing = tuple(sites[1:3])
    ids = list(tiny_netclus.trajectory_ids)
    updates = {
        2: UpdateBatch(remove_sites=sites[3:5]),
        4: UpdateBatch(),
        5: UpdateBatch(add_sites=sites[3:5], remove_trajectories=ids[:4]),
        7: UpdateBatch(remove_sites=[sites[0]]),
    }
    longest: dict[tuple, int] = {}
    for round_, k in enumerate(K_SEQUENCE):
        if round_ in updates:
            before = cached.index.version
            cached.apply_updates(updates[round_])
            reference.apply_updates(updates[round_])
            if cached.index.version != before:
                longest.clear()
        specs = [_rule_spec(rule, k, existing) for rule in SELECTION_RULES]
        # the stored order answers k when it is at least as long, or when it
        # is a budgeted answer (k-free); runs shorter than k are
        # recomputed, so the hit count is a lower bound
        expected_hits = sum(
            spec.selection_key in longest
            and (spec.budget is not None or k <= longest[spec.selection_key])
            for spec in specs
        )
        hits, runs = cached.stats.cache_hits, cached.stats.greedy_runs
        got = cached.batch_query(specs)
        assert cached.stats.cache_hits - hits >= expected_hits
        assert cached.stats.greedy_runs - runs == len(specs) - (cached.stats.cache_hits - hits)
        for spec in specs:
            longest[spec.selection_key] = max(longest.get(spec.selection_key, 0), k)
        for spec, a, b in zip(specs, got, reference.batch_query(specs)):
            assert _same_bytes(a, b), (round_, spec)
            assert a.utility == b.utility
            assert a.metadata.get("marginal_gains") == b.metadata.get("marginal_gains")


def test_cache_eviction_is_lru(tiny_netclus):
    """The cache holds one order per selection key, least recently used
    evicted first; k does not make a new entry."""
    service = PlacementService(tiny_netclus, cache_size=2)
    s1, s2, s3 = (
        QuerySpec(k=4, tau_km=0.8),
        QuerySpec(k=4, tau_km=1.6),
        QuerySpec(k=4, tau_km=0.8, capacity=10),
    )
    service.query(s1)
    service.query(s2)
    service.query(QuerySpec(k=2, tau_km=0.8))  # refresh s1's key → s2's is LRU
    assert service.cache_len == 2
    service.query(s3)  # evicts s2's order
    assert service.cache_len == 2
    hits = service.stats.cache_hits
    service.query(s1)
    assert service.stats.cache_hits == hits + 1
    service.query(s2)  # evicted → recomputed
    assert service.stats.cache_hits == hits + 1


# ---------------------------------------------------------------------- #
# construction paths / spec validation
# ---------------------------------------------------------------------- #
def test_lazy_builder_runs_once(tiny_problem):
    service = tiny_problem.placement_service(tau_min_km=0.4, tau_max_km=2.0,
                                             max_instances=2)
    assert service.stats.index_builds == 0
    service.query(QuerySpec(k=3, tau_km=0.8), use_cache=False)
    service.query(QuerySpec(k=3, tau_km=1.2), use_cache=False)
    assert service.stats.index_builds == 1


def test_spec_validation():
    with pytest.raises(ValueError):
        QuerySpec(k=0, tau_km=1.0)
    with pytest.raises(ValueError):
        QuerySpec(k=3, tau_km=1.0, preference="no-such-preference")
    with pytest.raises(ValueError):
        QuerySpec(k=3, tau_km=1.0, budget=2.0, capacity=5)
    with pytest.raises(ValueError):
        QuerySpec(k=3, tau_km=1.0, budget=2.0, existing_sites=(1,))


def test_spec_dict_roundtrip():
    spec = QuerySpec(k=5, tau_km=1.5, preference="exponential",
                     preference_params=(("decay", 3.0),), capacity=12,
                     existing_sites=(4, 9))
    assert QuerySpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValueError, match="unknown QuerySpec fields"):
        QuerySpec.from_dict({"k": 3, "tau_km": 1.0, "typo_field": 1})


def test_spec_from_query_roundtrip():
    query = TOPSQuery(k=4, tau_km=2.0)
    spec = QuerySpec.from_query(query)
    rebuilt = spec.to_query()
    assert rebuilt.k == query.k
    assert rebuilt.tau_km == query.tau_km
    assert type(rebuilt.preference) is type(query.preference)


def test_custom_preference_query_falls_back_to_index(tiny_netclus, service):
    """A TOPSQuery with an unregistered ψ subclass still gets answered."""
    from repro.core.preference import PreferenceFunction

    class StepPreference(PreferenceFunction):
        def raw_score(self, detour_km, tau_km):
            return np.where(detour_km <= tau_km / 2.0, 1.0, 0.5)

    query = TOPSQuery(k=4, tau_km=1.2, preference=StepPreference())
    direct = tiny_netclus.query(query)
    served = service.query(query, use_cache=False)
    _assert_same_result(served, direct)
    assert service.cache_len == 0  # unserialisable specs stay uncached


def test_subclass_of_registered_preference_not_coerced(tiny_netclus, service):
    """A subclass of a registered ψ must not be replaced by its base class."""
    from repro.core.preference import LinearPreference

    class SteeperLinear(LinearPreference):
        def raw_score(self, detour_km, tau_km):
            return super().raw_score(detour_km, tau_km) ** 3

    query = TOPSQuery(k=4, tau_km=1.6, preference=SteeperLinear())
    direct = tiny_netclus.query(query)
    served = service.query(query)
    _assert_same_result(served, direct)
    plain = tiny_netclus.query(
        TOPSQuery(k=4, tau_km=1.6, preference=LinearPreference())
    )
    assert served.utility != pytest.approx(plain.utility)  # really used the subclass
    with pytest.raises(ValueError, match="not a registered preference"):
        QuerySpec.from_query(query)


def test_identical_budget_specs_share_one_run(service):
    specs = [QuerySpec(k=1, tau_km=0.8, budget=3.0),
             QuerySpec(k=9, tau_km=0.8, budget=3.0)]
    a, b = service.batch_query(specs, use_cache=False)
    assert service.stats.greedy_runs == 1  # k is ignored for budgeted specs
    _assert_same_result(a, b)


def test_existing_sites_spec(tiny_netclus, service):
    existing = (min(tiny_netclus.sites),)
    spec = QuerySpec(k=3, tau_km=0.8, existing_sites=existing)
    direct = tiny_netclus.query(
        spec.to_query(), existing_sites=existing
    )
    served = service.query(spec, use_cache=False)
    _assert_same_result(served, direct)


def test_cache_auto_invalidates_on_index_mutation(tiny_netclus):
    """Mutating the index through its own API must drop stale cached
    selections before the next query is served."""
    index = copy.deepcopy(tiny_netclus)
    service = PlacementService(index)
    spec = QuerySpec(k=4, tau_km=0.8)
    before = service.query(spec)
    assert service.cache_len == 1

    victim = before.sites[0]
    service.index.remove_site(victim)  # the cache is version-stamped
    after = service.query(spec)
    assert service.stats.cache_hits == 0  # the stale entry was not served
    assert victim not in after.sites
    assert after.sites == index.query(TOPSQuery(k=4, tau_km=0.8)).sites

    # the repopulated cache serves hits again until the next mutation
    assert _same_bytes(service.query(spec), after)
    assert service.stats.cache_hits == 1
    service.index.add_site(victim)
    refreshed = service.query(spec)
    assert service.stats.cache_hits == 1
    assert refreshed.sites == before.sites


def test_batch_update_invalidates_cache_once(tiny_netclus):
    """apply_updates between queries drops the cache exactly like singular
    updates do (the version counter moves once per non-empty sub-batch)."""
    from repro.core.netclus import UpdateBatch

    index = copy.deepcopy(tiny_netclus)
    service = PlacementService(index)
    spec = QuerySpec(k=3, tau_km=1.0)
    first = service.query(spec)
    sites = sorted(index.sites)[:2]
    version = index.version
    service.index.apply_updates(
        UpdateBatch(remove_sites=sites)
    )
    assert index.version == version + 1
    second = service.query(spec)
    assert service.stats.cache_hits == 0
    assert all(site not in second.sites for site in sites)
    assert first.sites != second.sites or first is not second


# ---------------------------------------------------------------------- #
# constructor options
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("engine", ["dense", "sparse", "bitset", "bogus"])
def test_engine_other_than_auto_is_refused(tiny_netclus, tmp_path, engine):
    """ψ picks the coverage structure; only ``engine="auto"`` is accepted."""
    with pytest.raises(ValueError, match="auto"):
        PlacementService(tiny_netclus, engine=engine)
    with pytest.raises(ValueError, match="auto"):
        PlacementService.from_path(tmp_path / "never-read.ncx", engine=engine)
    directory = save_index(tiny_netclus, tmp_path / "city.ncx")
    spec = QuerySpec(k=4, tau_km=0.8)
    expected = PlacementService(tiny_netclus).query(spec)
    for service in (
        PlacementService(tiny_netclus, engine="auto"),
        PlacementService.from_path(directory, engine="auto"),
    ):
        _assert_same_result(service.query(spec), expected)


@pytest.fixture(scope="module")
def four_part_directory(tiny_netclus, tmp_path_factory):
    """A saved index carrying four warm coverage parts."""
    index = copy.deepcopy(tiny_netclus)
    index.coverage_cache = None
    index.enable_coverage_cache()
    for tau in (0.6, 0.8, 1.2, 1.6):
        index.query(TOPSQuery(k=3, tau_km=tau))
    assert len(index.coverage_cache) == 4
    return save_index(index, tmp_path_factory.mktemp("parts") / "city.ncx")


@pytest.mark.parametrize("limit", [2, 0, -3])
def test_coverage_cache_limit_resizes_loaded_parts(four_part_directory, limit):
    """``coverage_cache_limit`` with the default policy goes through
    ``CoverageCache.resize``: it evicts down to the limit at once and
    refuses a limit below 1, like ``coverage_cache=True`` does."""
    if limit < 1:
        with pytest.raises(ValueError, match="limit"):
            PlacementService.from_path(four_part_directory, coverage_cache_limit=limit)
        return
    service = PlacementService.from_path(four_part_directory, coverage_cache_limit=limit)
    assert service.coverage_cache.limit == limit
    assert len(service.coverage_cache) == limit
    service.query(QuerySpec(k=3, tau_km=2.4))  # a cold build stores one more part
    assert len(service.coverage_cache) == limit
