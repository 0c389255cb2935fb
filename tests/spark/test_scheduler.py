"""DAG scheduler: stages, metrics, overheads, shuffle reuse."""

import multiprocessing

import pytest

from repro.cluster import ClusterSpec, CostModel, Resource
from repro.runtime import RuntimeConfig
from repro.spark import SparkContext, current_task, task_scope
from repro.cluster.metrics import TaskMetrics

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="fork start method unavailable"
)


@pytest.fixture
def sc():
    return SparkContext(ClusterSpec(num_nodes=2, cores_per_node=4))


class TestStageSplitting:
    def test_narrow_job_has_one_stage(self, sc):
        sc.parallelize([1, 2, 3], 2).map(lambda x: x).collect()
        assert len(sc.job_log) == 1
        assert len(sc.job_log[-1].stages) == 1

    def test_shuffle_job_has_two_stages(self, sc):
        sc.parallelize([(1, 1)], 2).reduce_by_key(lambda a, b: a).collect()
        assert len(sc.job_log[-1].stages) == 2

    def test_cogroup_has_three_stages(self, sc):
        left = sc.parallelize([("k", 1)], 2)
        right = sc.parallelize([("k", 2)], 2)
        left.cogroup(right).collect()
        # two shuffle-map stages (one per side) + result stage
        assert len(sc.job_log[-1].stages) == 3

    def test_shuffle_output_reused_across_jobs(self, sc):
        reduced = sc.parallelize([(i % 2, i) for i in range(10)], 3).reduce_by_key(
            lambda a, b: a + b
        )
        reduced.collect()
        first_stages = len(sc.job_log[-1].stages)
        reduced.count()  # second job over the same shuffled RDD
        second_stages = len(sc.job_log[-1].stages)
        assert first_stages == 2
        assert second_stages == 1  # map stage skipped, like Spark

    def test_task_count_matches_partitions(self, sc):
        sc.parallelize(list(range(10)), 5).collect()
        result_stage = sc.job_log[-1].stages[-1]
        assert result_stage.num_tasks == 5


class TestOverheadAccounting:
    def test_jar_ship_charged_once(self, sc):
        rdd = sc.parallelize([1], 1)
        rdd.collect()
        rdd.collect()
        jar = sc.cost_model.spark_jar_ship
        overheads = [job.overhead_seconds for job in sc.job_log]
        assert overheads[0] == pytest.approx(jar)
        assert overheads[1] == 0.0

    def test_reset_metrics_rearms_jar(self, sc):
        sc.parallelize([1], 1).collect()
        sc.reset_metrics()
        assert sc.job_log == []
        sc.parallelize([1], 1).collect()
        assert sc.job_log[0].overhead_seconds == pytest.approx(
            sc.cost_model.spark_jar_ship
        )

    def test_shuffle_stage_pays_stage_overhead(self, sc):
        sc.parallelize([(1, 1)], 4).reduce_by_key(lambda a, b: a).collect()
        map_stage, result_stage = sc.job_log[-1].stages
        assert map_stage.overhead_seconds > 0
        assert result_stage.overhead_seconds > 0  # reads a shuffle

    def test_narrow_stage_pays_metadata_but_not_actor_overhead(self, sc):
        sc.parallelize([1], 4).map(lambda x: x).collect()
        narrow_overhead = sc.job_log[-1].stages[0].overhead_seconds
        assert narrow_overhead == pytest.approx(
            sc.cost_model.spark_stage_per_partition * 4
        )
        # A shuffling stage additionally pays the actor-system rebuild.
        sc.parallelize([(1, 1)], 4).reduce_by_key(lambda a, b: a).collect()
        shuffle_overhead = sc.job_log[-1].stages[0].overhead_seconds
        assert shuffle_overhead > narrow_overhead + sc.cost_model.spark_stage_base / 2

    def test_stage_overhead_grows_with_partitions(self):
        model = CostModel()
        few = SparkContext(ClusterSpec(2, 4), cost_model=model)
        many = SparkContext(ClusterSpec(2, 4), cost_model=model)
        few.parallelize([(1, 1)], 4).reduce_by_key(lambda a, b: a).collect()
        many.parallelize([(1, 1)], 64).reduce_by_key(lambda a, b: a).collect()
        few_overhead = sum(s.overhead_seconds for s in few.job_log[-1].stages)
        many_overhead = sum(s.overhead_seconds for s in many.job_log[-1].stages)
        assert many_overhead > few_overhead


class TestTaskMetricsFlow:
    def test_user_function_metrics_reach_stage(self, sc):
        def charge(x):
            current_task().add(Resource.WKT_BYTES, 100)
            return x

        sc.parallelize([1, 2, 3, 4], 2).map(charge).collect()
        totals = sc.job_log[-1].totals()
        assert totals[Resource.WKT_BYTES] == 400

    def test_shuffle_bytes_counted(self, sc):
        sc.parallelize([(i, "payload" * 10) for i in range(50)], 4).group_by_key().collect()
        totals = sc.totals()
        assert totals[Resource.SHUFFLE_BYTES] > 0

    def test_simulated_seconds_positive_and_deterministic(self):
        def run():
            sc = SparkContext(ClusterSpec(2, 4))
            sc.parallelize([(i % 5, i) for i in range(100)], 8).reduce_by_key(
                lambda a, b: a + b
            ).collect()
            return sc.simulated_seconds()

        first = run()
        second = run()
        assert first > 0
        assert first == second

    def test_each_task_priced_once(self, sc, monkeypatch):
        # A stage prices each task once — one row of a row_seconds table
        # inline, one task_seconds call per task otherwise; the stage's
        # straggler statistics are read from that price, not priced again.
        calls = []
        price, price_rows = CostModel.task_seconds, CostModel.row_seconds
        monkeypatch.setattr(
            CostModel, "task_seconds", lambda self, counts: calls.append(1) or price(self, counts)
        )
        monkeypatch.setattr(
            CostModel,
            "row_seconds",
            lambda self, units, rows: calls.append(rows) or price_rows(self, units, rows),
        )
        failed = []

        def flaky(x):
            if x == 3 and not failed:
                failed.append(x)
                raise RuntimeError("first attempt")
            current_task().add(Resource.WKT_BYTES, 10 * x + 0.1)
            return x % 3, x

        sc.parallelize(list(range(12)), 4).map(flaky).reduce_by_key(
            lambda a, b: a + b, 3
        ).collect()
        stages = sc.job_log[-1].stages
        assert failed and sc._scheduler.task_failures == 1
        assert sum(calls) == sum(stage.num_tasks for stage in stages) == 7
        monkeypatch.undo()
        summaries = sc._scheduler.stage_summaries[-len(stages):]
        for stage, summary in zip(stages, summaries):
            stats = stage.task_stats(sc.cost_model)
            assert {key: summary[key] for key in stats} == stats

    @needs_fork
    def test_a_pooled_stage_is_priced_once_in_the_driver(self, monkeypatch):
        # Tasks run in two workers, but the driver prices them: each
        # stage's tasks are rows of a row_seconds table, none priced on
        # its own.  No retry here — what a forked worker does to the spy
        # lists never reaches the driver.
        rows, alone = [], []
        price, price_rows = CostModel.task_seconds, CostModel.row_seconds
        monkeypatch.setattr(
            CostModel, "task_seconds", lambda self, counts: alone.append(1) or price(self, counts)
        )
        monkeypatch.setattr(
            CostModel,
            "row_seconds",
            lambda self, units, n: rows.append(n) or price_rows(self, units, n),
        )

        def charge(x):
            current_task().add(Resource.WKT_BYTES, 10 * x + 0.1)
            return x % 3, x

        sc = SparkContext(
            ClusterSpec(num_nodes=2, cores_per_node=4), runtime=RuntimeConfig(executors=2)
        )
        sc.parallelize(list(range(12)), 4).map(charge).reduce_by_key(
            lambda a, b: a + b, 3
        ).collect()
        stages = sc.job_log[-1].stages
        assert sum(rows) == sum(stage.num_tasks for stage in stages) == 7
        assert alone == []
        monkeypatch.undo()
        summaries = sc._scheduler.stage_summaries[-len(stages):]
        for stage, summary in zip(stages, summaries):
            stats = stage.task_stats(sc.cost_model)
            assert {key: summary[key] for key in stats} == stats

    def test_current_task_outside_scope_is_sink(self):
        task = current_task()
        task.add(Resource.WKT_BYTES, 1)  # must not raise

    def test_task_scope_nesting(self):
        outer = TaskMetrics()
        inner = TaskMetrics()
        with task_scope(outer):
            current_task().add(Resource.ROWS_OUT, 1)
            with task_scope(inner):
                current_task().add(Resource.ROWS_OUT, 5)
            current_task().add(Resource.ROWS_OUT, 1)
        assert outer.get(Resource.ROWS_OUT) == 2
        assert inner.get(Resource.ROWS_OUT) == 5


class TestBroadcast:
    def test_value_accessible(self, sc):
        b = sc.broadcast([1, 2, 3])
        assert b.value == [1, 2, 3]

    def test_destroy(self, sc):
        b = sc.broadcast("x")
        b.destroy()
        with pytest.raises(RuntimeError):
            _ = b.value

    def test_broadcast_charges_overhead(self, sc):
        before = sc.broadcast_overhead_seconds
        sc.broadcast("payload" * 1000)
        assert sc.broadcast_overhead_seconds > before

    def test_broadcast_cost_grows_with_cluster(self):
        small = SparkContext(ClusterSpec(2, 4))
        large = SparkContext(ClusterSpec(10, 4))
        payload = "x" * 100000
        small.broadcast(payload)
        large.broadcast(payload)
        assert large.broadcast_overhead_seconds > small.broadcast_overhead_seconds


class TestDynamicPlacement:
    def test_more_cores_faster(self):
        def simulated(nodes):
            sc = SparkContext(ClusterSpec(nodes, 8))
            data = [(i % 7, "v" * 50) for i in range(2000)]
            sc.parallelize(data, 64).group_by_key().collect()
            return sc.simulated_seconds()

        assert simulated(8) < simulated(1)
