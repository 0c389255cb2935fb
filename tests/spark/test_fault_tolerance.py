"""Fault tolerance: task retry via lineage recomputation (Section III).

Spark's answer to failures is recomputation from lineage; the mini-Spark
scheduler retries a crashing task up to 4 times (Spark's
``spark.task.maxFailures``) before failing the job, and failed attempts
still cost simulated time.
"""

import multiprocessing

import pytest

from repro.cluster import ClusterSpec, Resource
from repro.errors import SparkError
from repro.runtime import FaultPlan, RuntimeConfig
from repro.spark import SparkContext, current_task


@pytest.fixture
def sc():
    return SparkContext(ClusterSpec(num_nodes=2, cores_per_node=2))


class FlakyOnce:
    """Raises on the first ``failures`` calls for a given record."""

    def __init__(self, failures: int = 1, victim=0):
        self.failures = failures
        self.victim = victim
        self.crashes = 0

    def __call__(self, record):
        if record == self.victim and self.crashes < self.failures:
            self.crashes += 1
            raise OSError("simulated executor loss")
        return record


class TestTaskRetry:
    def test_transient_failure_recovers(self, sc):
        flaky = FlakyOnce(failures=2)
        result = sc.parallelize([0, 1, 2, 3], 2).map(flaky).collect()
        assert sorted(result) == [0, 1, 2, 3]
        assert flaky.crashes == 2
        assert sc._scheduler.task_failures == 2

    def test_persistent_failure_fails_job(self, sc):
        flaky = FlakyOnce(failures=99)
        with pytest.raises(SparkError, match="failed 4 times"):
            sc.parallelize([0, 1], 1).map(flaky).collect()
        assert flaky.crashes == 4  # max_task_attempts

    def test_original_error_chained(self, sc):
        flaky = FlakyOnce(failures=99)
        with pytest.raises(SparkError) as info:
            sc.parallelize([0], 1).map(flaky).collect()
        assert isinstance(info.value.__cause__, OSError)

    @pytest.mark.parametrize(
        "runtime",
        [
            pytest.param(RuntimeConfig(fault_plan=FaultPlan()), id="empty-plan"),
            pytest.param(
                RuntimeConfig(executors=2),
                id="pool",
                marks=pytest.mark.skipif(
                    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
                ),
            ),
        ],
    )
    def test_original_error_chained_when_shipped(self, sc, runtime):
        """The error of a task that ran under a capture — even in a worker
        process — is the inline run's: message, cause, failure count."""

        def fail(sc):
            with pytest.raises(SparkError) as info:
                sc.parallelize([0, 1, 2, 3], 4).map(FlakyOnce(failures=99)).collect()
            return (
                str(info.value),
                repr(info.value.__cause__),
                sc._scheduler.task_failures,
            )

        shipped = fail(SparkContext(sc.cluster, runtime=runtime))
        assert shipped == fail(sc)
        assert shipped[1:] == ("OSError('simulated executor loss')", 4)

    def test_retry_in_shuffle_map_stage(self, sc):
        flaky = FlakyOnce(failures=1, victim=("k", 0))
        pairs = sc.parallelize([("k", 0), ("k", 1)], 1).map(flaky)
        result = dict(pairs.reduce_by_key(lambda a, b: a + b).collect())
        assert result == {"k": 1}
        assert flaky.crashes == 1

    def test_failed_attempts_still_cost_time(self, sc):
        def charge_then_crash(record, state={"crashed": False}):
            current_task().add(Resource.WKT_BYTES, 1000)
            if not state["crashed"]:
                state["crashed"] = True
                raise OSError("boom")
            return record

        sc.parallelize([1], 1).map(charge_then_crash).collect()
        # Two attempts, each charging 1000 bytes: lineage recompute paid for.
        assert sc.totals()[Resource.WKT_BYTES] == 2000

    def test_failure_isolated_to_one_task(self, sc):
        flaky = FlakyOnce(failures=1, victim=5)
        result = sc.parallelize(list(range(10)), 5).map(flaky).collect()
        assert sorted(result) == list(range(10))
        # Only the victim partition's task recorded a failure.
        assert sc._scheduler.task_failures == 1


class TestLineageRecompute:
    def test_cache_eviction_recomputes_from_lineage(self, sc):
        calls = []
        rdd = sc.parallelize([1, 2], 1).map(lambda x: (calls.append(x), x)[1]).cache()
        assert rdd.collect() == [1, 2]
        sc.clear_state()  # evict the cache (simulated memory pressure)
        assert rdd.collect() == [1, 2]  # recomputed from lineage
        assert calls == [1, 2, 1, 2]

    def test_shuffle_loss_requires_new_shuffle(self, sc):
        reduced = sc.parallelize([("k", 1), ("k", 2)], 2).reduce_by_key(
            lambda a, b: a + b
        )
        assert dict(reduced.collect()) == {"k": 3}
        # Losing the shuffle store invalidates materialised map output; a
        # fresh lineage (new RDD) recomputes cleanly.
        sc.clear_state()
        fresh = sc.parallelize([("k", 1), ("k", 2)], 2).reduce_by_key(
            lambda a, b: a + b
        )
        assert dict(fresh.collect()) == {"k": 3}
