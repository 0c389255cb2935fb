"""Mini-Spark RDD API: transformations, actions, lineage."""

import pytest

from repro.cluster import ClusterSpec
from repro.errors import SparkError
from repro.hdfs import write_text
from repro.spark import SparkContext


@pytest.fixture
def sc():
    return SparkContext(ClusterSpec(num_nodes=2, cores_per_node=2))


class TestBasics:
    def test_parallelize_collect(self, sc):
        assert sc.parallelize([1, 2, 3], 2).collect() == [1, 2, 3]

    def test_count(self, sc):
        assert sc.parallelize(list(range(100)), 7).count() == 100

    def test_empty_rdd(self, sc):
        rdd = sc.parallelize([], 3)
        assert rdd.collect() == []
        assert rdd.count() == 0

    def test_more_partitions_than_records(self, sc):
        rdd = sc.parallelize([1, 2], 8)
        assert sorted(rdd.collect()) == [1, 2]

    def test_bad_partition_count(self, sc):
        with pytest.raises(SparkError):
            sc.parallelize([1], 0)


class TestTransformations:
    def test_map(self, sc):
        assert sc.parallelize([1, 2, 3], 2).map(lambda x: x * 10).collect() == [10, 20, 30]

    def test_filter(self, sc):
        result = sc.parallelize(range(10), 3).filter(lambda x: x % 2 == 0).collect()
        assert result == [0, 2, 4, 6, 8]

    def test_flat_map(self, sc):
        result = sc.parallelize([1, 2], 2).flat_map(lambda x: [x] * x).collect()
        assert result == [1, 2, 2]

    def test_map_partitions(self, sc):
        result = sc.parallelize(range(10), 2).map_partitions(lambda it: [sum(it)]).collect()
        assert sum(result) == 45
        assert len(result) == 2

    def test_map_partitions_with_index(self, sc):
        result = sc.parallelize(range(4), 2).map_partitions_with_index(
            lambda split, it: ((split, x) for x in it)
        ).collect()
        assert result == [(0, 0), (0, 1), (1, 2), (1, 3)]

    def test_zip_with_index(self, sc):
        result = sc.parallelize(["a", "b", "c", "d", "e"], 3).zip_with_index().collect()
        assert result == [("a", 0), ("b", 1), ("c", 2), ("d", 3), ("e", 4)]

    def test_key_by(self, sc):
        assert sc.parallelize([5, 6], 1).key_by(lambda x: x % 2).collect() == [
            (1, 5), (0, 6),
        ]

    def test_union(self, sc):
        a = sc.parallelize([1, 2], 2)
        b = sc.parallelize([3], 1)
        union = a.union(b)
        assert union.num_partitions == 3
        assert sorted(union.collect()) == [1, 2, 3]

    def test_distinct(self, sc):
        assert sorted(sc.parallelize([3, 1, 3, 2, 1], 3).distinct().collect()) == [1, 2, 3]

    def test_repartition(self, sc):
        rdd = sc.parallelize(list(range(20)), 2).repartition(5)
        assert rdd.num_partitions == 5
        assert sorted(rdd.collect()) == list(range(20))

    def test_sample_deterministic(self, sc):
        rdd = sc.parallelize(list(range(1000)), 4)
        a = rdd.sample(0.1, seed=7).collect()
        b = rdd.sample(0.1, seed=7).collect()
        assert a == b
        assert 40 < len(a) < 200

    def test_sample_fraction_validation(self, sc):
        with pytest.raises(SparkError):
            sc.parallelize([1], 1).sample(1.5)

    def test_sort_by(self, sc):
        data = [5, 3, 9, 1, 7, 2, 8]
        assert sc.parallelize(data, 3).sort_by(lambda x: x).collect() == sorted(data)

    def test_laziness(self, sc):
        calls = []

        def spy(x):
            calls.append(x)
            return x

        rdd = sc.parallelize([1, 2, 3], 1).map(spy)
        assert calls == []  # nothing computed yet
        rdd.collect()
        assert calls == [1, 2, 3]


class TestPairOperations:
    def test_reduce_by_key(self, sc):
        pairs = [("a", 1), ("b", 2), ("a", 3), ("b", 4)]
        result = dict(sc.parallelize(pairs, 3).reduce_by_key(lambda x, y: x + y).collect())
        assert result == {"a": 4, "b": 6}

    def test_group_by_key(self, sc):
        pairs = [("a", 1), ("b", 2), ("a", 3)]
        result = dict(sc.parallelize(pairs, 2).group_by_key().collect())
        assert sorted(result["a"]) == [1, 3]
        assert result["b"] == [2]

    def test_combine_by_key_avg(self, sc):
        pairs = [("x", 1.0), ("x", 3.0), ("y", 10.0)]
        states = sc.parallelize(pairs, 2).combine_by_key(
            lambda v: (v, 1),
            lambda acc, v: (acc[0] + v, acc[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        ).collect()
        averages = {k: s / n for k, (s, n) in states}
        assert averages == {"x": 2.0, "y": 10.0}

    def test_join(self, sc):
        left = sc.parallelize([("a", 1), ("b", 2), ("a", 3)], 2)
        right = sc.parallelize([("a", "x"), ("c", "y")], 2)
        assert sorted(left.join(right).collect()) == [("a", (1, "x")), ("a", (3, "x"))]

    def test_cogroup(self, sc):
        left = sc.parallelize([("k", 1)], 1)
        right = sc.parallelize([("k", 2), ("k", 3)], 1)
        result = dict(left.cogroup(right).collect())
        assert result["k"] == ([1], [2, 3])

    def test_map_values(self, sc):
        assert sc.parallelize([("a", 1)], 1).map_values(lambda v: v * 2).collect() == [
            ("a", 2)
        ]

    def test_count_by_key(self, sc):
        pairs = [("a", "x"), ("b", "y"), ("a", "z")]
        assert sc.parallelize(pairs, 2).count_by_key() == {"a": 2, "b": 1}


class TestActions:
    def test_take_partial(self, sc):
        assert sc.parallelize(list(range(100)), 10).take(5) == [0, 1, 2, 3, 4]

    def test_take_more_than_available(self, sc):
        assert sc.parallelize([1, 2], 2).take(10) == [1, 2]

    def test_first(self, sc):
        assert sc.parallelize([7, 8], 2).first() == 7

    def test_first_empty_raises(self, sc):
        with pytest.raises(SparkError):
            sc.parallelize([], 1).first()

    def test_reduce(self, sc):
        assert sc.parallelize(list(range(10)), 4).reduce(lambda a, b: a + b) == 45

    def test_reduce_with_empty_partitions(self, sc):
        assert sc.parallelize([5], 4).reduce(lambda a, b: a + b) == 5

    def test_reduce_empty_raises(self, sc):
        with pytest.raises(SparkError):
            sc.parallelize([], 2).reduce(lambda a, b: a + b)


class TestTextFile:
    def test_read_lines(self, sc):
        write_text(sc.hdfs, "/in.txt", ["one", "two", "three"])
        assert sc.text_file("/in.txt").collect() == ["one", "two", "three"]

    def test_min_partitions(self, sc):
        write_text(sc.hdfs, "/in.txt", [f"line-{i}" for i in range(100)])
        rdd = sc.text_file("/in.txt", min_partitions=8)
        assert rdd.num_partitions >= 8
        assert rdd.count() == 100

    def test_size_job_counts_without_decoding(self, sc, monkeypatch):
        # zipWithIndex's size job counts each split's newlines in place;
        # a cached text RDD (whose size job fills the cache) still decodes
        # its splits, and is charged and counted the same.
        from repro.obs.registry import collecting
        from repro.spark import rdd as rdd_module

        write_text(sc.hdfs, "/in.txt", [f"line-{i}" * (i % 7) for i in range(300)])
        outcomes = []
        for cached in (False, True):
            decoded = []
            read = rdd_module.read_split_lines
            monkeypatch.setattr(
                rdd_module, "read_split_lines", lambda *a: decoded.append(a) or read(*a)
            )
            text = sc.text_file("/in.txt", min_partitions=7)
            if cached:
                text.cache()
            with collecting() as registry:
                indexed = text.zip_with_index()
                counters = registry.snapshot()["counters"]
            size_job = sc.job_log[-1]
            assert len(decoded) == (text.num_partitions if cached else 0)
            seconds = [(s.makespan_seconds, s.overhead_seconds) for s in size_job.stages]
            outcomes.append((counters, size_job.totals(), seconds))
            monkeypatch.undo()
            assert [i for _, i in indexed.collect()] == list(range(300))
        assert outcomes[0] == outcomes[1]


class TestCaching:
    def test_cache_computes_once(self, sc):
        calls = []

        def spy(x):
            calls.append(x)
            return x

        rdd = sc.parallelize([1, 2, 3], 1).map(spy).cache()
        rdd.collect()
        rdd.collect()
        assert calls == [1, 2, 3]  # second collect served from cache

    def test_uncached_recomputes(self, sc):
        calls = []

        def spy(x):
            calls.append(x)
            return x

        rdd = sc.parallelize([1], 1).map(spy)
        rdd.collect()
        rdd.collect()
        assert calls == [1, 1]


class TestChaining:
    def test_wordcount(self, sc):
        write_text(sc.hdfs, "/words.txt", ["a b a", "b a"])
        counts = dict(
            sc.text_file("/words.txt")
            .flat_map(str.split)
            .map(lambda w: (w, 1))
            .reduce_by_key(lambda x, y: x + y)
            .collect()
        )
        assert counts == {"a": 3, "b": 2}

    def test_shuffle_then_narrow_then_shuffle(self, sc):
        result = dict(
            sc.parallelize([(i % 3, i) for i in range(30)], 4)
            .reduce_by_key(lambda a, b: a + b)
            .map(lambda kv: (kv[0] % 2, kv[1]))
            .reduce_by_key(lambda a, b: a + b)
            .collect()
        )
        total = sum(range(30))
        assert sum(result.values()) == total
