"""RuntimeConfig: validation, plumbing, and its being the only home of
``executors`` / ``events_out`` (``spatial_join(..., runtime=)`` replaces
``config.runtime``; a loose keyword anywhere is a ``TypeError``)."""

import os
from functools import partial

import pytest

from repro.cluster import ClusterSpec
from repro.bench import run_engine, run_ispmc, run_spatialspark
from repro.core import JoinConfig, spatial_join, spatial_join_pairs
from repro.errors import ReproError
from repro.impala import ImpalaBackend
from repro.runtime import FaultPlan, RuntimeConfig, SerialBackend
from repro.spark import SparkContext

SPEC = ClusterSpec(num_nodes=2, cores_per_node=2, mem_per_node_gb=4.0)

LEFT = [(0, "POINT (1 1)"), (1, "POINT (9 9)"), (2, "POINT (3 2)")]
RIGHT = [("cell", "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")]


class TestValidation:
    def test_defaults_are_valid_and_frozen(self):
        runtime = RuntimeConfig()
        assert runtime.executors is None
        assert runtime.max_task_attempts == 4
        assert runtime.speculation is True
        assert runtime.fault_plan is None
        with pytest.raises(Exception):
            runtime.executors = 2

    def test_with_returns_modified_copy(self):
        base = RuntimeConfig()
        changed = base.with_(executors=2, restart_budget=5)
        assert changed.executors == 2 and changed.restart_budget == 5
        assert base.executors is None  # original untouched

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"executors": "parallel-ish"},
            {"executors": 0},
            {"max_task_attempts": 0},
            {"max_task_attempts": True},
            {"backoff_base": -1.0},
            {"backoff_factor": 0.5},
            {"backoff_jitter": 1.5},
            {"speculation_k": 0},
            {"speculation_min_tasks": 0},
            {"blacklist_after": 0},
            {"restart_budget": -1},
            {"fault_plan": "chaos"},
        ],
    )
    def test_bad_fields_raise(self, kwargs):
        with pytest.raises(ReproError):
            RuntimeConfig(**kwargs)

    def test_accepts_task_pool_instance_and_fault_plan(self):
        runtime = RuntimeConfig(
            executors=SerialBackend(), fault_plan=FaultPlan(seed=1)
        )
        assert runtime.fault_plan.seed == 1


class TestPrecedence:
    def test_spark_context_explicit_runtime_wins(self):
        sc = SparkContext(SPEC, runtime=RuntimeConfig(executors="serial"))
        assert sc.runtime.executors == "serial"
        assert sc.task_pool.is_serial

    def test_impala_backend_explicit_runtime_wins(self):
        backend = ImpalaBackend(SPEC, runtime=RuntimeConfig(executors="serial"))
        assert backend.runtime.executors == "serial"
        assert backend.task_pool.is_serial

    def test_join_config_rejects_non_runtime(self):
        with pytest.raises(ReproError, match="runtime"):
            JoinConfig(runtime="serial")

    def test_spatial_join_runtime_keyword_beats_config_runtime(self, tmp_path):
        config_path = str(tmp_path / "from-config.jsonl")
        keyword_path = str(tmp_path / "from-keyword.jsonl")
        pairs = spatial_join(
            LEFT,
            RIGHT,
            config=JoinConfig(runtime=RuntimeConfig(events_out=config_path)),
            runtime=RuntimeConfig(events_out=keyword_path),
        )
        assert sorted(pairs) == [(0, "cell"), (2, "cell")]
        assert os.path.exists(keyword_path)
        assert not os.path.exists(config_path)


class TestLooseKnobsGone:
    """``executors`` / ``events_out`` live on ``RuntimeConfig`` only."""

    @pytest.mark.parametrize("knob", [{"executors": 2}, {"events_out": "e.jsonl"}])
    @pytest.mark.parametrize(
        "call",
        [
            JoinConfig,
            partial(spatial_join, LEFT, RIGHT),
            partial(spatial_join_pairs, ["POINT (1 1)"], [RIGHT[0][1]]),
            partial(SparkContext, SPEC),
            partial(ImpalaBackend, SPEC),
            partial(run_spatialspark, None, 1),
            partial(run_ispmc, None, 1),
            partial(run_engine, "taxi-nycb", "spatialspark", 1),
        ],
        ids=[
            "JoinConfig", "spatial_join", "spatial_join_pairs", "SparkContext",
            "ImpalaBackend", "run_spatialspark", "run_ispmc", "run_engine",
        ],
    )
    def test_loose_keyword_is_a_type_error(self, call, knob):
        with pytest.raises(TypeError):
            call(**knob)


class TestPlumbing:
    def test_max_task_attempts_reaches_the_scheduler(self):
        sc = SparkContext(SPEC, runtime=RuntimeConfig(max_task_attempts=7))
        assert sc._scheduler.max_task_attempts == 7

    def test_default_scheduler_attempts_match_runtime_default(self):
        sc = SparkContext(SPEC)
        assert sc._scheduler.max_task_attempts == RuntimeConfig().max_task_attempts

    def test_recovery_context_installed_on_both_substrates(self):
        plan = FaultPlan(seed=5, fault_rate=0.1)
        sc = SparkContext(SPEC, runtime=RuntimeConfig(fault_plan=plan))
        backend = ImpalaBackend(SPEC, runtime=RuntimeConfig(fault_plan=plan))
        assert sc.recovery.active and backend.recovery.active
        assert SparkContext(SPEC).recovery.active is False

    def test_runtime_exported_at_package_root(self):
        import repro

        assert repro.RuntimeConfig is RuntimeConfig
        assert repro.FaultPlan is FaultPlan
