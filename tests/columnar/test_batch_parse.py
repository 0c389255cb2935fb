"""Batch parse identity: a stage's partitions parsed in one call.

``read_geometry_pairs`` parses every partition of an inline stage with
one ``parse_wkt_column`` call into one column, and each task takes its
partition's rows of it.  Each partition's outcome must be exactly what
parsing that partition alone gives — its own column (point-only layout,
``to_bytes()``, ``nbytes``, bounds, payloads, geometries), its
``WKT_BYTES`` / ``RDD_RECORDS`` unit columns and its
``spark.rows_skipped`` — whatever its neighbours in the batch hold.  A
points-only partition batched beside a line partition must not come
back as a view of the mixed batch.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterSpec
from repro.columnar import GeometryColumn, parse_wkt_column
from repro.columnar.block import ColumnRecords
from repro.core.broadcast_join import read_geometry_pairs
from repro.geometry import LineString, MultiLineString, MultiPoint, MultiPolygon, Point, Polygon
from repro.geometry.wkt import dumps
from repro.hdfs import SimulatedHDFS, write_text
from repro.obs.registry import MetricsRegistry, collecting
from repro.spark import SparkContext
from repro.spark.rdd import IndexedRecords, SplitLines, StageBatch

_COORD = st.integers(-50, 50).map(lambda v: v / 4)


@st.composite
def _points(draw):
    return Point(draw(_COORD), draw(_COORD))


@st.composite
def _lines(draw):
    return LineString([(draw(_COORD), draw(_COORD)) for _ in range(draw(st.integers(2, 5)))])


@st.composite
def _polygons(draw):
    x, y, side = draw(_COORD), draw(_COORD), draw(st.integers(1, 8))
    shell = [(x, y), (x + side, y), (x + side, y + side), (x, y + side)]
    if draw(st.booleans()):
        return Polygon(shell)
    hole = [(x + 0.25, y + 0.25), (x + 0.5, y + 0.25), (x + 0.5, y + 0.5)]
    return Polygon(shell, [hole])


_GEOMETRY_ROWS = st.one_of(
    _points().map(dumps),
    _points().map(lambda p: f"point({p.x} {p.y})"),  # a bulk spelling the writer never emits
    _lines().map(dumps),
    _polygons().map(dumps),
    st.lists(_points(), max_size=3).map(lambda ps: dumps(MultiPoint(ps))),
    st.lists(_lines(), min_size=1, max_size=2).map(lambda ls: dumps(MultiLineString(ls))),
    st.lists(_polygons(), min_size=1, max_size=2).map(lambda ps: dumps(MultiPolygon(ps))),
    st.sampled_from(["POINT EMPTY", "LINESTRING EMPTY", "POLYGON EMPTY", "POINT (-0.0 1)",
                     "LINESTRING (-0.0 1, 0 2)", "LINESTRING (1e999 0, 1 1)"]),
)
_BAD_ROWS = st.sampled_from(
    ["POLYGON ((0 0, 1 0, 1", "garbage", "", "POINT (1 2 3 4)", "LINESTRING (0 0)",
     "GEOMETRYCOLLECTION (POINT (1 1))", "GEOMETRYCOLLECTION EMPTY", None, 7, 2.5,
     b"POINT (1 2)"]
)
_PARTITION = st.one_of(
    st.lists(st.one_of(_GEOMETRY_ROWS, _GEOMETRY_ROWS, _GEOMETRY_ROWS, _BAD_ROWS), max_size=8),
    st.lists(_points().map(dumps), max_size=6),  # points only
    st.lists(_BAD_ROWS, max_size=4),  # every row drops (or none)
)
_PARTITIONS = st.lists(_PARTITION, min_size=1, max_size=6)


def _bits(array) -> bytes:
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


def assert_same_column(got: GeometryColumn, want: GeometryColumn) -> None:
    """``got`` is ``want`` in every observable: layout, encoding, sizes,
    bounds, payloads and geometries."""
    assert got._sel is None and want._sel is None
    assert got._data.is_point_only == want._data.is_point_only
    assert got.to_bytes() == want.to_bytes()
    assert got.nbytes == want.nbytes
    assert len(got) == len(want)
    assert got.payloads() == want.payloads()
    assert got.types_array().tolist() == want.types_array().tolist()
    assert got.num_points_array().tolist() == want.num_points_array().tolist()
    assert [_bits(side) for side in got.bounds()] == [_bits(side) for side in want.bounds()]
    for (_, a), (_, b) in zip(got.entries(), want.entries()):
        assert type(a) is type(b) and a.is_empty == b.is_empty
        assert a.is_empty or a.wkb() == b.wkb()


SPEC = ClusterSpec(num_nodes=1, cores_per_node=2, mem_per_node_gb=4.0)


def _fused_parse():
    """The fused parse step of ``read_geometry_pairs`` (its ``run``), as
    a function from prepared blocks to each one's ``(records, units)``."""
    hdfs = SimulatedHDFS(datanodes=("node0",), replication=1)
    write_text(hdfs, "/rows.txt", ["0\tPOINT (0 0)"])
    run = read_geometry_pairs(SparkContext(SPEC, hdfs=hdfs), "/rows.txt", 1)._run

    def outcomes(blocks):
        batch = run(StageBatch(blocks, range(len(blocks) + 1)))
        [charge] = batch.charges  # the parse is the batch's one step
        return [(batch.records(b), charge(b)) for b in range(len(batch))]

    return outcomes


def _outcome(run, block):
    """One block's outcome alone, with the ``spark.rows_skipped`` it counts."""
    with collecting() as registry:
        [(records, units)] = run([block])
        return records, units, registry.counter("spark.rows_skipped")


def _fresh_block(rows, base, short=0):
    """A fresh block (no kept parse), as the step prepares a split: its
    numbered lines, one geometry field each and then ``short`` lines
    without one, read from a file version of their own."""
    lines = [f"{base + k}\t{row}" for k, row in enumerate(rows)]
    lines += [str(base + len(lines) + k) for k in range(short)]
    return IndexedRecords(SplitLines(lines, object(), (base, len(lines))), base), None


class TestFusedParseRun:
    @settings(max_examples=100, deadline=None)
    @given(_PARTITIONS, st.data())
    def test_each_partition_is_its_lone_parse(self, partitions, data):
        run = _fused_parse()
        blocks = []
        base = 0
        for rows in partitions:
            # A field split from a text line is a string; a few lines per
            # split have no geometry field at all.
            rows = [row for row in rows if isinstance(row, str)]
            short = data.draw(st.integers(0, 2))
            blocks.append(_fresh_block(rows, base, short))
            base += len(rows) + short
        alone = [_outcome(run, block) for block in blocks]
        skips = []
        inc = MetricsRegistry.inc

        def spy(registry, name, amount=1.0):
            if name == "spark.rows_skipped":
                skips.append(amount)
            inc(registry, name, amount)

        with collecting() as registry, mock.patch.object(MetricsRegistry, "inc", spy):
            batched = run(blocks)
            total = registry.counter("spark.rows_skipped")
        assert len(batched) == len(blocks)
        assert skips == [skipped for _, _, skipped in alone if skipped]
        assert total == sum(skipped for _, _, skipped in alone)
        for (records, units), (want_records, want_units, _) in zip(batched, alone):
            assert isinstance(records, ColumnRecords)
            assert_same_column(records.column, want_records.column)
            assert list(units) == list(want_units)
            for resource, column in units.items():
                assert column.tobytes() == want_units[resource].tobytes()

    def test_points_beside_lines_stay_point_only(self):
        run = _fused_parse()
        points = ["POINT (1 2)", "POINT (3 4)"]
        (records, _), (lines, _) = run(
            [_fresh_block(points, 0), _fresh_block(["LINESTRING (0 0, 1 1)"], 2)]
        )
        column = records.column
        assert column._data.is_point_only and not lines.column._data.is_point_only
        assert column.nbytes == 44 == len(column.to_bytes()) - 4 - 16
        assert_same_column(column, parse_wkt_column(points, [0, 1])[0])
