"""The pool's hard invariant: byte-identical results with executors on or off.

Every test runs the same work serially and on 2- and 4-worker process
pools and asserts equality of everything observable — result pairs and
their order, resource-counter totals, registry counters, rendered query
profiles and simulated seconds.  Covers both substrates (mini-Spark and
mini-Impala), both predicates (within, nearestd), the core join API, and
the crash-retry semantics under pool execution.
"""

import multiprocessing
import random

import pytest

from repro.cluster import ClusterSpec, Resource
from repro.core import JoinConfig, spatial_join
from repro.errors import SparkError
from repro.geometry import LineString, Point, Polygon
from repro.hdfs import SimulatedHDFS, write_text
from repro.impala import ColumnType, ImpalaBackend
from repro.obs.registry import collecting
from repro.spark import SparkContext

from repro.runtime import RuntimeConfig

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="fork start method unavailable"
)

EXECUTORS = ("serial", 2, 4)


def _box(x0, y0, size=25.0):
    return Polygon(
        [(x0, y0), (x0 + size, y0), (x0 + size, y0 + size), (x0, y0 + size)]
    )


def _points(n=400, seed=99):
    rng = random.Random(seed)
    return [
        (i, Point(rng.uniform(0, 100), rng.uniform(0, 100))) for i in range(n)
    ]


def _polygons():
    return [
        (row * 4 + col, _box(col * 25.0, row * 25.0))
        for row in range(4)
        for col in range(4)
    ]


def _lines():
    rng = random.Random(7)
    lines = []
    for i in range(60):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        lines.append((i, LineString([(x, y), (x + rng.uniform(1, 5), y + 2)])))
    return lines


@needs_fork
class TestCoreJoinEquivalence:
    """spatial_join with the executors knob: identical pairs and metrics."""

    @pytest.mark.parametrize("method", ["broadcast", "partitioned"])
    def test_within_identical_across_pools(self, method):
        left, right = _points(), _polygons()

        def run(executors):
            result = spatial_join(
                left,
                right,
                config=JoinConfig(
                    operator="within",
                    method=method,
                    runtime=RuntimeConfig(executors=executors),
                    profile=True,
                ),
            )
            return result.pairs, result.profile.render()

        base_pairs, base_totals = run("serial")
        assert base_pairs  # non-trivial workload
        for executors in (2, 4):
            pairs, totals = run(executors)
            assert pairs == base_pairs
            assert totals == base_totals

    @pytest.mark.parametrize("method", ["broadcast", "partitioned"])
    def test_nearestd_identical_across_pools(self, method):
        left, right = _points(200), _lines()

        def run(executors):
            result = spatial_join(
                left,
                right,
                config=JoinConfig(
                    operator="nearestd",
                    radius=5.0,
                    method=method,
                    runtime=RuntimeConfig(executors=executors),
                    profile=True,
                ),
            )
            return result.pairs, result.profile.render()

        base_pairs, base_totals = run("serial")
        assert base_pairs
        for executors in (2, 4):
            pairs, totals = run(executors)
            assert pairs == base_pairs
            assert totals == base_totals


def _context(executors):
    return SparkContext(ClusterSpec(2, 2), runtime=RuntimeConfig(executors=executors))


def _spark_job(executors):
    """A shuffle-bearing Spark job; returns every observable output."""
    sc = _context(executors)
    with collecting() as reg:
        pairs = (
            sc.parallelize(list(range(200)), 4)
            .map(lambda x: (x % 7, x))
            .reduce_by_key(lambda a, b: a + b)
        )
        rows = pairs.collect()
        counters = dict(reg.snapshot()["counters"])
    return (
        rows,
        sc.totals(),
        sc.simulated_seconds(),
        sc.to_profile("job").render(),
        counters,
    )


@needs_fork
class TestSparkEquivalence:
    def test_shuffle_job_identical_across_pools(self):
        base = _spark_job("serial")
        assert base[0]  # rows came back
        for executors in (2, 4):
            got = _spark_job(executors)
            assert got == base

    def test_result_order_preserved(self):
        serial = _context("serial")
        pooled = _context(2)
        data = list(range(50))
        expected = serial.parallelize(data, 5).map(lambda x: x * 3).collect()
        assert pooled.parallelize(data, 5).map(lambda x: x * 3).collect() == expected
        # Not just same elements: same order (partition order, then record).
        assert expected == [x * 3 for x in data]


def _impala_city():
    rng = random.Random(99)
    fs = SimulatedHDFS(block_size=2048)
    write_text(
        fs,
        "/pnt.txt",
        [
            f"{i}\tPOINT ({rng.uniform(0, 100)} {rng.uniform(0, 100)})"
            for i in range(400)
        ],
    )
    polys = []
    pid = 0
    for row in range(4):
        for col in range(4):
            x0, y0 = col * 25, row * 25
            polys.append(
                f"{pid}\tPOLYGON (({x0} {y0}, {x0+25} {y0}, {x0+25} {y0+25}, "
                f"{x0} {y0+25}, {x0} {y0}))\t{pid % 3}"
            )
            pid += 1
    write_text(fs, "/poly.txt", polys)
    return fs


def _impala_query(sql, executors, nodes=3):
    fs = _impala_city()
    backend = ImpalaBackend(
        ClusterSpec(nodes, 4), hdfs=fs, runtime=RuntimeConfig(executors=executors)
    )
    backend.metastore.create_table(
        "pnt", [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING)], "/pnt.txt"
    )
    backend.metastore.create_table(
        "poly",
        [
            ("id", ColumnType.BIGINT),
            ("geom", ColumnType.STRING),
            ("zone", ColumnType.BIGINT),
        ],
        "/poly.txt",
    )
    with collecting() as reg:
        result = backend.execute(sql)
        counters = dict(reg.snapshot()["counters"])
    return (
        result.rows,
        result.simulated_seconds,
        result.to_profile("q").render(),
        counters,
    )


@needs_fork
class TestImpalaEquivalence:
    def test_spatial_join_identical_across_pools(self):
        sql = (
            "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
            "WHERE ST_WITHIN(pnt.geom, poly.geom)"
        )
        base = _impala_query(sql, "serial")
        assert base[0]
        for executors in (2, 4):
            assert _impala_query(sql, executors) == base

    def test_aggregation_identical_across_pools(self):
        sql = (
            "SELECT poly.zone, COUNT(*) FROM pnt SPATIAL JOIN poly "
            "WHERE ST_WITHIN(pnt.geom, poly.geom) GROUP BY poly.zone"
        )
        base = _impala_query(sql, "serial")
        assert base[0]
        for executors in (2, 4):
            assert _impala_query(sql, executors) == base

    def test_nearestd_identical_across_pools(self):
        sql = (
            "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
            "WHERE ST_NEARESTD(pnt.geom, poly.geom, 3.0)"
        )
        base = _impala_query(sql, "serial")
        assert base[0]
        for executors in (2, 4):
            assert _impala_query(sql, executors) == base


class FlakyOnce:
    """Raises on the first ``failures`` calls for the victim record."""

    def __init__(self, failures=1, victim=0):
        self.failures = failures
        self.victim = victim
        self.crashes = 0

    def __call__(self, record):
        if record == self.victim and self.crashes < self.failures:
            self.crashes += 1
            raise OSError("simulated executor loss")
        return record


@needs_fork
class TestPoolRetrySemantics:
    """Worker-side task failure still honours ``max_task_attempts``."""

    def test_transient_failure_recovers_in_worker(self):
        sc = _context(2)
        flaky = FlakyOnce(failures=2)
        result = sc.parallelize([0, 1, 2, 3], 2).map(flaky).collect()
        assert sorted(result) == [0, 1, 2, 3]
        # Retries happened inside the worker; the failure count ships back.
        assert sc._scheduler.task_failures == 2

    def test_retry_cost_parity_with_serial(self):
        def job(executors):
            sc = _context(executors)
            flaky = FlakyOnce(failures=2)

            def charge(record):
                from repro.spark import current_task

                current_task().add(Resource.WKT_BYTES, 1000)
                return flaky(record)

            rows = sc.parallelize([0, 1], 1).map(charge).collect()
            return rows, sc.totals(), sc.simulated_seconds()

        assert job(2) == job("serial")

    def test_persistent_failure_fails_job_in_pool(self):
        sc = _context(2)
        flaky = FlakyOnce(failures=99)
        with pytest.raises(SparkError, match="failed 4 times"):
            sc.parallelize([0, 1], 1).map(flaky).collect()

    def test_persistent_failure_message_parity(self):
        def message(executors):
            sc = _context(executors)
            with pytest.raises(SparkError) as info:
                sc.parallelize([0], 1).map(FlakyOnce(failures=99)).collect()
            return str(info.value)

        assert message(2) == message("serial")

    def test_fatal_spark_error_not_retried(self):
        def attempts(executors):
            sc = _context(executors)
            counter = {"calls": 0}

            def fatal(record):
                counter["calls"] += 1
                raise SparkError("fatal driver condition")

            with pytest.raises(SparkError, match="fatal driver condition"):
                sc.parallelize([0], 1).map(fatal).collect()
            return counter["calls"]

        # SparkError aborts immediately in serial mode; the pool keeps the
        # same no-retry semantics (worker-side call count is invisible
        # here, so assert via the serial counter and the matching message).
        assert attempts("serial") == 1
        sc = _context(2)

        def fatal(record):
            raise SparkError("fatal driver condition")

        with pytest.raises(SparkError, match="fatal driver condition"):
            sc.parallelize([0], 1).map(fatal).collect()
