"""``RDD.cache()`` must prevent recomputation across jobs.

Regression tests with a side-effect counter in the lineage: the first
job computes and populates the cache, every later job over the cached
RDD (or its descendants) must hit the cache instead of re-running the
lineage.  The pool variant checks that partitions computed inside pool
workers land in the driver cache all the same.
"""

import multiprocessing

import pytest

from repro.cluster import ClusterSpec
from repro.runtime import RuntimeConfig
from repro.spark import SparkContext


@pytest.fixture
def sc():
    return SparkContext(ClusterSpec(num_nodes=2, cores_per_node=2))


class Counting:
    """Identity map that counts how many times each record is computed."""

    def __init__(self):
        self.computed = []

    def __call__(self, record):
        self.computed.append(record)
        return record


class TestCacheAcrossJobs:
    def test_cached_rdd_not_recomputed_by_second_job(self, sc):
        counting = Counting()
        rdd = sc.parallelize([1, 2, 3, 4], 2).map(counting).cache()
        assert rdd.collect() == [1, 2, 3, 4]  # job 1: computes
        assert rdd.collect() == [1, 2, 3, 4]  # job 2: cache hit
        assert sorted(counting.computed) == [1, 2, 3, 4]

    def test_descendant_jobs_reuse_cached_parent(self, sc):
        counting = Counting()
        base = sc.parallelize([1, 2, 3], 1).map(counting).cache()
        assert base.map(lambda x: x * 10).collect() == [10, 20, 30]
        assert base.filter(lambda x: x > 1).count() == 2
        assert counting.computed == [1, 2, 3]

    def test_uncached_rdd_recomputes_every_job(self, sc):
        counting = Counting()
        rdd = sc.parallelize([1, 2], 1).map(counting)
        rdd.collect()
        rdd.collect()
        assert counting.computed == [1, 2, 1, 2]

    def test_cache_populated_per_partition(self, sc):
        rdd = sc.parallelize([1, 2, 3, 4], 2).map(lambda x: x).cache()
        rdd.collect()
        assert {(rdd.id, 0), (rdd.id, 1)} <= set(sc._cache)


class TestCacheUnderPool:
    def test_pool_job_populates_driver_cache(self):
        sc = SparkContext(
            ClusterSpec(num_nodes=2, cores_per_node=2),
            runtime=RuntimeConfig(executors=2),
        )
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        rdd = sc.parallelize([1, 2, 3, 4], 2).map(lambda x: x * 2).cache()
        assert rdd.collect() == [2, 4, 6, 8]
        # Partitions computed in workers shipped back into the driver cache.
        assert {(rdd.id, 0), (rdd.id, 1)} <= set(sc._cache)
        assert sorted(v for vs in sc._cache.values() for v in vs) == [
            2, 4, 6, 8,
        ]

    def test_pool_second_job_hits_cache(self):
        sc = SparkContext(
            ClusterSpec(num_nodes=2, cores_per_node=2),
            runtime=RuntimeConfig(executors=2),
        )
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        rdd = sc.parallelize([1, 2, 3, 4], 2).map(lambda x: x).cache()
        rdd.collect()
        # Poison the driver cache: if job 2 recomputed the lineage (in
        # workers or anywhere else) it would return 1..4; reading the
        # poisoned values proves the cache was used.
        for key in list(sc._cache):
            if key[0] == rdd.id:
                sc._cache[key] = [v * 100 for v in sc._cache[key]]
        assert sorted(rdd.collect()) == [100, 200, 300, 400]
