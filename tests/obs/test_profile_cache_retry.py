"""Profile archive round-trips with cache annotations and retry info.

``annotate_profile_with_cache`` grafts reuse bookkeeping onto a profile
*after* the engine built it (the byte-identity invariant forbids the
engine doing it); archived profiles (``--profile-out``) must round-trip
through ``to_dict``/``from_dict`` with that annotation — and with the
retry/fault info a recovered run records — fully intact.
"""

from repro.bench.workloads import materialize
from repro.cache import cache_for
from repro.core import JoinConfig, spatial_join
from repro.obs.profile import (
    ProfileNode,
    QueryProfile,
    annotate_profile_with_cache,
)
from repro.runtime import FaultPlan, RuntimeConfig


def _retrying_profile() -> QueryProfile:
    """A hand-built tree shaped like a recovered run's profile: stages
    carrying attempt/failure info interleaved with ordinary phases."""
    root = ProfileNode(name="spatial-join", sim_seconds=10.0,
                       info={"engine": "core", "nodes": 1})
    root.add_child(ProfileNode(name="parse", sim_seconds=2.0,
                               counters={"wkt_bytes": 4096.0}))
    build = root.add_child(
        ProfileNode(name="build", sim_seconds=3.0,
                    info={"attempts": 3, "failures": 2},
                    counters={"index_build": 9.0})
    )
    build.add_child(ProfileNode(name="retry-backoff", sim_seconds=0.5,
                                info={"round": 2}))
    root.add_child(
        ProfileNode(name="probe", sim_seconds=5.0, concurrent=True,
                    info={"tasks": 4, "skew": 1.5, "failures": 1},
                    counters={"rows_out": 100.0})
    )
    return QueryProfile(root)


class TestSyntheticRoundTrip:
    def test_cache_annotation_survives_round_trip(self):
        profile = _retrying_profile()
        stats = {
            "hits": 3, "misses": 1, "evictions": 0, "puts": 2, "rejected": 0,
            "hits_by_kind": {"broadcast-index": 2, "parsed-geometries": 1},
        }
        annotate_profile_with_cache(profile, stats)
        rebuilt = QueryProfile.from_dict(profile.to_dict())
        assert rebuilt.render() == profile.render()
        assert rebuilt.to_dict() == profile.to_dict()
        cache_node = rebuilt.find("cache")
        assert cache_node.info["hits"] == 3
        assert cache_node.info["hits[broadcast-index]"] == 2
        assert cache_node.sim_seconds == 0.0

    def test_retry_info_survives_round_trip(self):
        profile = _retrying_profile()
        rebuilt = QueryProfile.from_dict(profile.to_dict())
        build = rebuilt.find("build")
        assert build.info == {"attempts": 3, "failures": 2}
        assert build.children[0].name == "retry-backoff"
        assert rebuilt.find("probe").concurrent is True
        assert rebuilt.phase_seconds() == profile.phase_seconds()

    def test_annotation_does_not_change_totals(self):
        profile = _retrying_profile()
        before = (profile.total_simulated_seconds, profile.phase_seconds())
        annotate_profile_with_cache(
            profile, {"hits": 1, "misses": 0, "hits_by_kind": {}}
        )
        assert profile.total_simulated_seconds == before[0]
        # The cache node bills zero simulated seconds.
        phases = profile.phase_seconds()
        assert phases.pop("cache") == 0.0
        assert phases == before[1]


class TestRecoveredCachedRun:
    def test_faulted_warm_run_profile_round_trips(self):
        wl = materialize("hotspot-nycb", scale=0.02)
        runtime = RuntimeConfig(
            fault_plan=FaultPlan(seed=7, fault_rate=0.2),
            cache_budget_bytes=64 << 20,
        )
        cfg = JoinConfig(
            operator=wl.workload.operator, profile=True, runtime=runtime
        )
        cold = spatial_join(wl.left.records, wl.right.records, config=cfg)
        warm = spatial_join(wl.left.records, wl.right.records, config=cfg)
        # Execution stays identical cold vs warm (byte identity) — only
        # the root's plan-estimate info may differ, because the planner
        # legitimately discounts a build it sees resident in the cache.
        assert list(warm) == list(cold)
        assert (
            warm.profile.total_simulated_seconds
            == cold.profile.total_simulated_seconds
        )
        assert warm.profile.phase_seconds() == cold.profile.phase_seconds()
        # ...and the reuse shows up only via the out-of-band annotation.
        cache = cache_for(cfg.runtime)
        annotate_profile_with_cache(warm.profile, cache.stats)
        assert warm.profile.find("cache").info["hits"] >= 1
        rebuilt = QueryProfile.from_dict(warm.profile.to_dict())
        assert rebuilt.render() == warm.profile.render()
