"""Backend execution: scans, aggregation, full queries, scheduling effects."""

import random

import pytest

from repro.cluster import ClusterSpec, CostModel, Resource
from repro.errors import ImpalaError
from repro.hdfs import SimulatedHDFS, write_text
from repro.impala import Aggregator, ColumnType, ImpalaBackend
from repro.impala.exec_nodes import InstanceContext, ScanNode
from repro.impala.catalog import Metastore
from repro.obs.registry import collecting


@pytest.fixture
def city():
    """A small HDFS with point and polygon tables."""
    rng = random.Random(99)
    fs = SimulatedHDFS(block_size=2048)
    points = [f"{i}\tPOINT ({rng.uniform(0, 100)} {rng.uniform(0, 100)})"
              for i in range(400)]
    write_text(fs, "/pnt.txt", points)
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


def make_backend(city, nodes=2, **kwargs) -> ImpalaBackend:
    backend = ImpalaBackend(ClusterSpec(nodes, 4), hdfs=city, **kwargs)
    backend.metastore.create_table(
        "pnt", [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING)], "/pnt.txt"
    )
    backend.metastore.create_table(
        "poly",
        [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING),
         ("zone", ColumnType.BIGINT)],
        "/poly.txt",
    )
    return backend


class TestScans:
    def test_select_all(self, city):
        result = make_backend(city).execute("SELECT id FROM pnt")
        assert len(result) == 400
        assert result.columns == ["id"]

    def test_filter_pushdown(self, city):
        result = make_backend(city).execute("SELECT id FROM pnt WHERE id < 10")
        assert sorted(r[0] for r in result.rows) == list(range(10))

    def test_projection_expressions(self, city):
        result = make_backend(city).execute(
            "SELECT id, id * 2 AS double FROM pnt WHERE id BETWEEN 1 AND 3 ORDER BY id"
        )
        assert result.rows == [(1, 2), (2, 4), (3, 6)]
        assert result.columns == ["id", "double"]

    def test_order_by_desc_and_limit(self, city):
        result = make_backend(city).execute(
            "SELECT id FROM pnt ORDER BY id DESC LIMIT 3"
        )
        assert [r[0] for r in result.rows] == [399, 398, 397]

    def test_dirty_rows_skipped(self, city):
        # The last three tokenize and then fail geometry construction with
        # a GeometryError, which used to escape the join's probe and build.
        bad = ["POINT (nan 2)", "POLYGON ((0 0, 1 1, 0 0))", "LINESTRING (0 0)"]
        write_text(city, "/dirty.txt",
                   ["1\tPOINT (0 0)", "oops", "2\tPOINT (1 1)", "x\tPOINT (2 2)"]
                   + [f"{3 + i}\t{text}" for i, text in enumerate(bad)])
        write_text(city, "/dirty_poly.txt",
                   ["0\tPOLYGON ((0 0, 50 0, 50 50, 0 50, 0 0))"]
                   + [f"{1 + i}\t{text}" for i, text in enumerate(bad)])
        backend = make_backend(city)
        schema = [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING)]
        backend.metastore.create_table("dirty", schema, "/dirty.txt")
        backend.metastore.create_table("dirty_poly", schema, "/dirty_poly.txt")
        with collecting() as registry:
            result = backend.execute("SELECT id FROM dirty")
            assert registry.counter("impala.rows_skipped") == 2.0  # "oops", "x"
        # The scan does not parse WKT: every well-formed line is a row.
        assert sorted(r[0] for r in result.rows) == [1, 2, 3, 4, 5]
        probe = backend.execute(
            "SELECT dirty.id, poly.id FROM dirty SPATIAL JOIN poly "
            "WHERE ST_WITHIN(dirty.geom, poly.geom)"
        )
        assert sorted(probe.rows) == [(1, 0), (2, 0)]
        build = backend.execute(
            "SELECT pnt.id, dirty_poly.id FROM pnt SPATIAL JOIN dirty_poly "
            "WHERE ST_WITHIN(pnt.geom, dirty_poly.geom)"
        )
        assert build.rows and {r[1] for r in build.rows} == {0}


class TestSpatialJoin:
    def test_within_join_counts(self, city):
        backend = make_backend(city)
        result = backend.execute(
            "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
            "WHERE ST_WITHIN(pnt.geom, poly.geom)"
        )
        # Grid covers the whole extent: every point lands in >= 1 cell.
        assert len(result) >= 400

    def test_join_with_build_filter(self, city):
        backend = make_backend(city)
        full = backend.execute(
            "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
            "WHERE ST_WITHIN(pnt.geom, poly.geom)"
        )
        filtered = backend.execute(
            "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
            "WHERE ST_WITHIN(pnt.geom, poly.geom) AND poly.zone = 0"
        )
        expected = [r for r in full.rows if r[1] % 3 == 0]
        assert sorted(filtered.rows) == sorted(expected)

    def test_join_with_probe_filter(self, city):
        backend = make_backend(city)
        result = backend.execute(
            "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
            "WHERE ST_WITHIN(pnt.geom, poly.geom) AND pnt.id < 50"
        )
        assert all(r[0] < 50 for r in result.rows)

    def test_join_with_residual(self, city):
        backend = make_backend(city)
        result = backend.execute(
            "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
            "WHERE ST_WITHIN(pnt.geom, poly.geom) AND pnt.id < poly.id"
        )
        assert all(r[0] < r[1] for r in result.rows)

    def test_aggregation_per_zone(self, city):
        backend = make_backend(city)
        result = backend.execute(
            "SELECT poly.zone, COUNT(*) AS hits FROM pnt SPATIAL JOIN poly "
            "WHERE ST_WITHIN(pnt.geom, poly.geom) GROUP BY poly.zone "
            "ORDER BY hits DESC"
        )
        assert len(result.rows) == 3
        hits = [r[1] for r in result.rows]
        assert hits == sorted(hits, reverse=True)
        assert sum(hits) >= 400

    def test_cross_join_fallback_agrees(self, city):
        backend = make_backend(city)
        indexed = backend.execute(
            "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
            "WHERE ST_WITHIN(pnt.geom, poly.geom) AND pnt.id < 40"
        )
        naive = backend.execute(
            "SELECT pnt.id, poly.id FROM pnt INNER JOIN poly "
            "ON ST_WITHIN(pnt.geom, poly.geom) WHERE pnt.id < 40"
        )
        assert sorted(indexed.rows) == sorted(naive.rows)

    def test_engines_agree(self, city):
        sql = ("SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
               "WHERE ST_WITHIN(pnt.geom, poly.geom)")
        slow = make_backend(city, engine="slow").execute(sql)
        fast = make_backend(city, engine="fast").execute(sql)
        assert sorted(slow.rows) == sorted(fast.rows)

    def test_results_invariant_across_cluster_sizes(self, city):
        sql = ("SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
               "WHERE ST_WITHIN(pnt.geom, poly.geom)")
        small = make_backend(city, nodes=1).execute(sql)
        large = make_backend(city, nodes=6).execute(sql)
        assert sorted(small.rows) == sorted(large.rows)

    def test_assignments_agree(self, city):
        sql = ("SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
               "WHERE ST_WITHIN(pnt.geom, poly.geom)")
        rr = make_backend(city, assignment="round_robin").execute(sql)
        contiguous = make_backend(city, assignment="contiguous").execute(sql)
        assert sorted(rr.rows) == sorted(contiguous.rows)

    def test_bad_assignment_rejected(self, city):
        with pytest.raises(ImpalaError):
            make_backend(city, assignment="psychic")


class TestSimulatedTime:
    def test_positive_and_deterministic(self, city):
        sql = ("SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
               "WHERE ST_WITHIN(pnt.geom, poly.geom)")
        a = make_backend(city).execute(sql)
        b = make_backend(city).execute(sql)
        assert a.simulated_seconds > 0
        assert a.simulated_seconds == pytest.approx(b.simulated_seconds)

    def test_instances_match_cluster_size(self, city):
        result = make_backend(city, nodes=3).execute("SELECT id FROM pnt")
        assert len(result.instances) == 3

    def test_slow_engine_costs_more(self, city):
        sql = ("SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
               "WHERE ST_WITHIN(pnt.geom, poly.geom)")
        slow = make_backend(city, engine="slow").execute(sql)
        fast = make_backend(city, engine="fast").execute(sql)
        assert slow.simulated_seconds > fast.simulated_seconds

    def test_straggler_at_least_mean(self, city):
        result = make_backend(city, nodes=4).execute(
            "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
            "WHERE ST_WITHIN(pnt.geom, poly.geom)"
        )
        assert result.straggler_seconds >= result.mean_instance_seconds


class TestAggregator:
    def test_count_sum_min_max_avg(self):
        agg = Aggregator(
            key_getters=[lambda r: r[0]],
            specs=[
                ("COUNT", None, False),
                ("SUM", lambda r: r[1], False),
                ("MIN", lambda r: r[1], False),
                ("MAX", lambda r: r[1], False),
                ("AVG", lambda r: r[1], False),
            ],
        )
        for row in [("a", 1), ("a", 3), ("b", 10)]:
            agg.accumulate(row)
        rows = {r[0]: r[1:] for r in agg.finalize()}
        assert rows["a"] == (2, 4, 1, 3, 2.0)
        assert rows["b"] == (1, 10, 10, 10, 10.0)

    def test_nulls_ignored_by_value_aggregates(self):
        agg = Aggregator(
            key_getters=[],
            specs=[("SUM", lambda r: r[0], False), ("COUNT", lambda r: r[0], False)],
        )
        for row in [(1,), (None,), (2,)]:
            agg.accumulate(row)
        assert list(agg.finalize()) == [(3, 2)]

    def test_count_distinct(self):
        agg = Aggregator(
            key_getters=[], specs=[("COUNT", lambda r: r[0], True)]
        )
        for row in [(1,), (1,), (2,), (None,)]:
            agg.accumulate(row)
        assert list(agg.finalize()) == [(2,)]

    def test_merge_partials(self):
        def new():
            return Aggregator(
                key_getters=[lambda r: r[0]],
                specs=[("SUM", lambda r: r[1], False), ("AVG", lambda r: r[1], False)],
            )

        a = new()
        b = new()
        a.accumulate(("k", 1))
        b.accumulate(("k", 3))
        b.accumulate(("j", 8))
        final = new()
        for partial in (a, b):
            for key, states in partial.partials():
                final.merge(key, states)
        rows = {r[0]: r[1:] for r in final.finalize()}
        assert rows["k"] == (4, 2.0)
        assert rows["j"] == (8, 8.0)


class TestScanNode:
    def test_charges_hdfs_bytes(self, city):
        metastore = Metastore(city)
        table = metastore.create_table(
            "pnt2", [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING)],
            "/pnt.txt",
        )
        ctx = InstanceContext(node_id=0, cores=4, cost_model=CostModel())
        size = city.status("/pnt.txt").size
        scan = ScanNode(ctx, city, table, [(0, size)])
        rows = list(scan.rows())
        assert len(rows) == 400
        assert ctx.metrics.get(Resource.HDFS_BYTES) == size
