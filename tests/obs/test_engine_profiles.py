"""Acceptance tests: profiles built by the engines are exact and render.

The core guarantee of the observability layer is that profiles are
derived from the same metrics the simulated runtimes are computed from,
so the per-phase simulated seconds *sum* to the reported total — for
every workload, on every engine.
"""

import json

import pytest

from repro import spatial_join
from repro.bench.report import WORKLOAD_ORDER
from repro.bench.runner import run_engine
from repro.cluster.model import CostModel
from repro.obs import QueryProfile, tracing

SCALE = 0.02
ENGINES = ("spatialspark", "isp-mc", "isp-standalone")


@pytest.fixture(scope="module")
def runs():
    """One profiled run per (workload, engine) at tiny scale, memoised."""
    out = {}
    for workload in WORKLOAD_ORDER:
        for engine in ENGINES:
            out[workload, engine] = run_engine(
                workload, engine, 1, scale=SCALE, profile=True
            )
    return out


class TestEngineProfiles:
    @pytest.mark.parametrize("workload", WORKLOAD_ORDER)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_profile_present_and_renders(self, runs, workload, engine):
        result = runs[workload, engine]
        profile = result.profile
        assert isinstance(profile, QueryProfile)
        text = profile.render()
        assert workload in text
        assert "simulated total" in text

    @pytest.mark.parametrize("workload", WORKLOAD_ORDER)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_phases_sum_to_simulated_seconds(self, runs, workload, engine):
        result = runs[workload, engine]
        profile = result.profile
        assert profile.total_simulated_seconds == pytest.approx(
            result.simulated_seconds, rel=1e-9
        )
        assert sum(profile.phase_seconds().values()) == pytest.approx(
            result.simulated_seconds, rel=1e-9
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_profile_exports_json_and_chrome_trace(self, runs, engine):
        profile = runs["taxi-nycb", engine].profile
        json.dumps(profile.to_json())
        trace = profile.to_chrome_trace()
        assert trace["traceEvents"], "chrome trace should carry events"
        json.dumps(trace)

    def test_unprofiled_run_has_no_profile(self):
        result = run_engine("taxi-nycb", "spatialspark", 1, scale=SCALE)
        assert result.profile is None

    def test_spark_profile_has_stage_skew_stats(self, runs):
        profile = runs["taxi-nycb", "spatialspark"].profile
        node = profile.find("result")
        assert node is not None
        assert {"tasks", "makespan_seconds", "max_task_seconds", "skew"} <= set(
            node.info
        )

    def test_impala_profile_has_fragment_instances(self, runs):
        profile = runs["taxi-nycb", "isp-mc"].profile
        execution = profile.find("execution")
        assert execution is not None and execution.concurrent
        assert execution.children, "expected per-instance children"
        assert profile.find("instance-0").counters


class TestBatchInvariance:
    """Batch execution bills exactly what row-at-a-time execution billed.

    Table 1/2 runtimes come from the engine counters; a batch call over N
    rows accrues exactly what N scalar calls accrue.  The engines' totals
    are pinned to the last commit that still ran the scalar path.
    """

    PHASES = {
        "spatialspark": ("broadcast", "job-1", "job-2", "job-3", "job-4"),
        "isp-mc": ("planning", "fragment-startup", "execution", "coordinator"),
    }
    # (result rows, simulated seconds, seconds of each of the engine's PHASES)
    PINNED = {
        ("taxi-nycb", "spatialspark"): (3400, 41.2232552512, [0.0524880512,
            12.108724800000001, 0.1634104, 0.23953280000000002, 28.659099200000004]),
        ("taxi-nycb", "isp-mc"): (3400, 33.74871941499998, [
            0.4, 1.1, 32.003919414999984, 0.24480000000000002]),
        ("taxi-lion-100", "spatialspark"): (14282, 49.1222956512, [0.23328005119999998,
            12.108724800000001, 0.20481760000000002, 0.37919440000000004, 36.1962788]),
        ("taxi-lion-100", "isp-mc"): (14282, 63.451776220000006, [
            0.4, 1.1, 60.92347222000001, 1.028304]),
    }

    @pytest.mark.parametrize("workload", ("taxi-nycb", "taxi-lion-100"))
    @pytest.mark.parametrize("engine", ENGINES[:2])
    def test_simulated_runtime_pinned(self, runs, workload, engine):
        result = runs[workload, engine]
        rows, seconds, phases = self.PINNED[workload, engine]
        assert (result.result_rows, result.simulated_seconds) == (rows, seconds)
        assert list(result.profile.phase_seconds().items()) == list(
            zip(self.PHASES[engine], phases)
        )

    @pytest.mark.parametrize("name", ("fast", "slow"))
    def test_batch_counters_equal_n_scalar_calls(self, name):
        import numpy as np

        from repro.geometry import Point, Polygon
        from repro.geometry.engine import create_engine

        polygon = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        points = [Point(0.07 * i, 0.11 * i) for i in range(150)]

        scalar_engine = create_engine(name)
        handle = scalar_engine.prepare(polygon)
        for p in points:
            scalar_engine.point_within(p, handle)

        batch_engine = create_engine(name)
        handle = batch_engine.prepare(polygon)
        batch_engine.contains_batch(
            handle,
            np.array([p.x for p in points]),
            np.array([p.y for p in points]),
        )

        assert (
            batch_engine.counters.predicate_calls
            == scalar_engine.counters.predicate_calls
        )
        assert batch_engine.counters.vertex_ops == scalar_engine.counters.vertex_ops
        assert (
            batch_engine.counters.allocations == scalar_engine.counters.allocations
        )


class TestSpatialJoinProfile:
    LEFT = [(0, "POINT (1 1)"), (1, "POINT (9 9)"), (2, "POINT (3 2)")]
    RIGHT = [("cell", "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")]

    def test_legacy_profile_keyword_raises(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match=r"JoinConfig\(profile=True\)"):
            spatial_join(self.LEFT, self.RIGHT, profile=True)

    def test_config_profile_returns_join_result(self):
        from repro import JoinConfig

        result = spatial_join(
            self.LEFT, self.RIGHT, config=JoinConfig(profile=True)
        )
        assert sorted(result) == [(0, "cell"), (2, "cell")]
        assert isinstance(result.profile, QueryProfile)

    def test_profile_matches_unprofiled_result(self):
        from repro import JoinConfig

        plain = spatial_join(self.LEFT, self.RIGHT)
        result = spatial_join(
            self.LEFT, self.RIGHT, config=JoinConfig(profile=True)
        )
        assert sorted(result) == sorted(plain)

    def test_phase_seconds_sum_to_query_metrics(self):
        from repro import JoinConfig

        model = CostModel()
        result = spatial_join(
            self.LEFT,
            self.RIGHT,
            config=JoinConfig(method="broadcast", profile=True, cost_model=model),
        )
        profile = result.profile
        assert profile.metrics is not None
        assert sum(profile.phase_seconds().values()) == pytest.approx(
            profile.metrics.simulated_seconds, rel=1e-9
        )
        assert set(profile.phase_seconds()) == {"parse", "build", "probe"}

    def test_naive_profile_has_join_phase(self):
        from repro import JoinConfig

        result = spatial_join(
            self.LEFT, self.RIGHT, config=JoinConfig(method="naive", profile=True)
        )
        assert set(result.profile.phase_seconds()) == {"parse", "join"}

    def test_profiled_run_emits_spans_when_tracing(self):
        from repro import JoinConfig

        with tracing() as tracer:
            spatial_join(
                self.LEFT,
                self.RIGHT,
                config=JoinConfig(method="broadcast", profile=True),
            )
        names = [root.name for root in tracer.roots]
        assert names == ["parse", "build", "probe"]
