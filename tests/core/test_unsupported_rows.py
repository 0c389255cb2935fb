"""The doors: a row no join can evaluate is turned away where it enters.

A ``GEOMETRYCOLLECTION`` has no predicate and no prepared form.  Where
rows enter from files (the Spark loaders, the ISP build / probe /
standalone paths) it is charged and dropped exactly like a malformed WKT
row beside it, under the counter that row is counted in; where they enter
from the caller (``spatial_join`` and friends, the column constructors) it
raises a ``GeometryError`` naming the row before any index is built.  It
used to pass silently when it met no candidate and kill the whole query
(``SparkError`` after four attempts, a bare ``GeometryError`` /
``KeyError``) when it met one.
"""

from __future__ import annotations

import random

import pytest

from repro import JoinConfig, spatial_join, spatial_join_pairs
from repro.cluster.model import ClusterSpec
from repro.columnar import GeometryColumn
from repro.core.broadcast_join import (
    broadcast_spatial_join,
    read_geometry_pairs,
    read_geometry_pairs_wkb,
)
from repro.core.operators import SpatialOperator
from repro.core.partitioned_join import partitioned_spatial_join
from repro.core.probe import BroadcastIndex
from repro.core.standalone import standalone_spatial_join
from repro.errors import GeometryError
from repro.geometry import Point, Polygon, wkb_dumps, wkt_dumps, wkt_loads
from repro.geometry.envelope import Envelope
from repro.geometry.multi import GeometryCollection
from repro.hdfs import SimulatedHDFS, write_records, write_text
from repro.impala import ColumnType, ImpalaBackend
from repro.index.partitioner import SortTilePartitioner
from repro.obs.explain import explain
from repro.obs.registry import collecting
from repro.spark.context import SparkContext
from tests.columnar.test_byte_identity import digest

CLUSTER = ClusterSpec(num_nodes=2, cores_per_node=4, mem_per_node_gb=15.0)
SCHEMA = [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING)]
PATHS = ("ss", "ss_part", "isp", "standalone")


def clean_table() -> tuple[list[str], list[str]]:
    """200 points x a 5 x 5 grid of cells, as WKT (a row's id is its index)."""
    rng = random.Random(22)
    points = [
        wkt_dumps(Point(rng.uniform(0, 100), rng.uniform(0, 100)), precision=6)
        for _ in range(200)
    ]
    cells = [
        wkt_dumps(Polygon([(x, y), (x + 20, y), (x + 20, y + 20), (x, y + 20)]))
        for x in range(0, 100, 20)
        for y in range(0, 100, 20)
    ]
    return points, cells


def run_path(path: str, left: list[str], right: list[str], operator="within"):
    """One query over the WKT tables; returns ``(pairs in emission order,
    simulated seconds, registry counters, rows dropped, task failures)``."""
    op = SpatialOperator(operator)
    hdfs = SimulatedHDFS(datanodes=("node0", "node1"), replication=2)
    for name, rows in (("/left.txt", left), ("/right.txt", right)):
        lines = [f"{i}\t{text}" for i, text in enumerate(rows)]
        size = sum(len(line) + 1 for line in lines)
        write_text(hdfs, name, lines, block_size=max(1024, size // 4))
    failures = 0
    with collecting() as registry:
        if path in ("ss", "ss_part"):
            sc = SparkContext(CLUSTER, hdfs=hdfs)
            lhs = read_geometry_pairs(sc, "/left.txt", 1)
            rhs = read_geometry_pairs(sc, "/right.txt", 1)
            if path == "ss":
                joined = broadcast_spatial_join(sc, lhs, rhs, op)
            else:
                tiles = SortTilePartitioner(6).partition(
                    Envelope(0, 0, 100, 100),
                    [(13.0 * k % 100, 29.0 * k % 100) for k in range(60)],
                )
                joined = partitioned_spatial_join(sc, lhs, rhs, op, partitioning=tiles)
            pairs = joined.collect()
            seconds = sc.simulated_seconds()
            failures = sc._scheduler.task_failures
            dropped = registry.counter("spark.rows_skipped")
        elif path == "isp":
            backend = ImpalaBackend(CLUSTER, hdfs=hdfs)
            backend.metastore.create_table("lhs", SCHEMA, "/left.txt")
            backend.metastore.create_table("rhs", SCHEMA, "/right.txt")
            result = backend.execute(
                "SELECT l.id, r.id FROM lhs l SPATIAL JOIN rhs r "
                f"WHERE ST_{operator.upper()}(l.geom, r.geom)"
            )
            pairs = [tuple(row) for row in result.rows]
            seconds = result.simulated_seconds
            # Every line has both fields: the scanners skip nothing, so
            # these are the two doors' WKT drops.
            dropped = registry.counter("impala.rows_skipped")
        else:
            result = standalone_spatial_join(hdfs, "/left.txt", "/right.txt", op)
            pairs, seconds, dropped = result.pairs, result.simulated_seconds, result.rows_dropped
        counters = dict(registry.snapshot()["counters"])
    return pairs, seconds, counters, dropped, failures


def replaced(rows: list[str], position: int, text: str) -> list[str]:
    return [*rows[:position], text, *rows[position + 1 :]]


# (side, row, the collection's WKT): inside cell 12, clear of every cell,
# and in place of cell 12.
CASES = {
    "left-with-a-candidate": ("left", 7, "GEOMETRYCOLLECTION (POINT (50 50))"),
    "left-with-none": ("left", 7, "GEOMETRYCOLLECTION (POINT (500 500))"),
    "right": ("right", 12, "GEOMETRYCOLLECTION (" + clean_table()[1][12] + ")"),
}


class TestFileDoorsCountTheDrop:
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_collection_row_is_charged_and_dropped_like_a_malformed_one(self, path, case):
        side, row, collection = CASES[case]
        left, right = clean_table()
        clean_pairs = run_path(path, left, right)[0]
        tables = {"left": left, "right": right}
        observed = {}
        for kind, text in (("collection", collection), ("malformed", "?" * len(collection))):
            dirty = dict(tables)
            dirty[side] = replaced(tables[side], row, text)
            observed[kind] = run_path(path, dirty["left"], dirty["right"])
        pairs, _, _, dropped, failures = observed["collection"]
        # The clean table's pairs minus that row's, in the same order.
        column = 0 if side == "left" else 1
        assert pairs == [pair for pair in clean_pairs if pair[column] != row]
        assert len(pairs) < len(clean_pairs)
        assert (dropped, failures) == (1, 0)
        # Pairs, clock, registry counters and the drop count: all equal.
        assert observed["collection"] == observed["malformed"]

    def test_the_binary_loader_drops_and_counts_too(self):
        hdfs = SimulatedHDFS(datanodes=("node0",), replication=1)
        collection = GeometryCollection([Point(1, 1)])
        write_records(
            hdfs, "/left.bin",
            [wkb_dumps(Point(1, 1)), wkb_dumps(collection), b"\x01garbage", wkb_dumps(Point(9, 9))],
        )
        write_records(hdfs, "/right.bin", [wkb_dumps(wkt_loads(clean_table()[1][0]))])
        sc = SparkContext(CLUSTER, hdfs=hdfs)
        with collecting() as registry:
            pairs = broadcast_spatial_join(
                sc,
                read_geometry_pairs_wkb(sc, "/left.bin"),
                read_geometry_pairs_wkb(sc, "/right.bin"),
                SpatialOperator.WITHIN,
            ).collect()
            assert registry.counter("spark.rows_skipped") == 2
        assert pairs == [(0, 0), (3, 0)]
        assert sc._scheduler.task_failures == 0


class TestCallerDoorsRaise:
    METHODS = ("auto", "broadcast", "partitioned", "dual-tree", "naive")

    @pytest.fixture
    def no_index(self, monkeypatch):
        """Fails the test if any index is constructed."""

        def refuse(*args, **kwargs):
            raise AssertionError("an index was built before the bad row was refused")

        monkeypatch.setattr(BroadcastIndex, "__init__", refuse)

    @staticmethod
    def tables(as_wkt: bool):
        points, cells = clean_table()
        left = list(enumerate(points[:20]))
        right = list(enumerate(cells))
        collection = "GEOMETRYCOLLECTION (POINT (50 50))"
        if not as_wkt:
            left = [(i, wkt_loads(text)) for i, text in left]
            right = [(i, wkt_loads(text)) for i, text in right]
            collection = wkt_loads(collection)
        return left, right, collection

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("as_wkt", [False, True], ids=["object", "wkt"])
    def test_every_method_names_the_row_before_building(self, no_index, method, side, as_wkt):
        left, right, collection = self.tables(as_wkt)
        rows = left if side == "left" else right
        rows[5] = (rows[5][0], collection)
        match = "row 5: .* GeometryCollection"
        with pytest.raises(GeometryError, match=match):
            spatial_join(left, right, method=method)
        with pytest.raises(GeometryError, match=match):
            spatial_join(left, right, config=JoinConfig(method=method, explain="plan"))
        with pytest.raises(GeometryError, match=match):
            spatial_join_pairs([g for _, g in left], [g for _, g in right], method=method)
        with pytest.raises(GeometryError, match=match):
            explain(left, right, method=method)

    def test_a_wkt_collection_among_objects_is_named_by_its_own_row(self):
        left, right, _ = self.tables(as_wkt=False)
        left[3] = (3, "POINT (1 1)")
        left[9] = (9, "GEOMETRYCOLLECTION (POINT (50 50))")
        with pytest.raises(GeometryError, match="row 9: .* GeometryCollection"):
            spatial_join(left, right)

    def test_the_column_constructors_raise(self):
        with pytest.raises(GeometryError, match="row 0: .* NoneType"):
            GeometryColumn.from_entries([(1, None)])
        with pytest.raises(GeometryError, match="row 1: .* int"):
            GeometryColumn.from_entries([(1, Point(0, 0)), (2, 7)])
        with pytest.raises(GeometryError, match="row 0: .* GeometryCollection"):
            BroadcastIndex([(1, GeometryCollection([Point(0, 0)]))], SpatialOperator.WITHIN)


# One file of points, polylines, polygons and a malformed row interleaved,
# so every partition / row batch packs bulk-parsed and reader-parsed rows
# into one column.  Pinned = (pair count, digest of the pairs in emission
# order, simulated seconds, registry counters, rows dropped) recorded by
# running this module's `run_path` at the parent commit (7df77cb); isp's
# `impala.rows_skipped` re-pinned from 0 to 1 once the SQL path's WKT drops
# were counted there.
def mixed_table() -> tuple[list[str], list[str]]:
    rng = random.Random(7)
    left = []
    for i in range(120):
        x, y = rng.uniform(0, 95), rng.uniform(0, 95)
        if i % 3 == 0:
            geometry = Point(x, y)
        elif i % 3 == 1:
            geometry = wkt_loads(f"LINESTRING ({x} {y}, {x + 4} {y + 3}, {x + 5} {y - 2})")
        else:
            geometry = Polygon([(x, y), (x + 3, y), (x + 3, y + 3), (x, y + 3)])
        left.append(wkt_dumps(geometry, precision=6))
    left[40] = "LINESTRING (1 1, 2"
    return left, clean_table()[1]


MIXED_PINNED = {
    "ss": (
        142, "a8ee8d7ef8990443", 15.9556354912,
        {
            "hdfs.reads": 240.0, "hdfs.bytes_read": 324366.0,
            "probe.scalar_rows": 40.0, "spark.rows_skipped": 1.0,
        },
        1,
    ),
    "ss_part": (
        142, "b9be306466a320ca", 16.1821064,
        {
            "hdfs.reads": 240.0, "hdfs.bytes_read": 324366.0,
            "shuffle.blocks_written": 109.0, "shuffle.bytes_written": 19256.0,
            "spark.rows_skipped": 1.0, "shuffle.reduce_fetches": 12.0,
            "shuffle.blocks_read": 109.0, "partitioned.tiles_joined": 6.0,
            "probe.scalar_rows": 40.0,
        },
        1,
    ),
    "isp": (
        142, "659015a40c79d04c", 13.3382324,
        {
            "impala.scan_ranges": 6.0, "hdfs.reads": 18.0, "hdfs.bytes_read": 37367.0,
            "impala.rows_scanned": 145.0, "impala.rows_skipped": 1.0,
            "probe.scalar_rows": 40.0,
        },
        1,
    ),
    "standalone": (
        142, "a8ee8d7ef8990443", 4.822578,
        {"hdfs.reads": 2.0, "hdfs.bytes_read": 10153.0, "probe.scalar_rows": 40.0},
        1,
    ),
}


@pytest.mark.parametrize("path", PATHS)
def test_mixed_partition_keeps_the_parents_answer(path):
    pairs, seconds, counters, dropped, failures = run_path(path, *mixed_table(), "intersects")
    assert failures == 0
    assert (
        len(pairs), digest([list(pair) for pair in pairs]), seconds, counters, dropped
    ) == MIXED_PINNED[path]
