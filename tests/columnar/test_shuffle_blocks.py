"""Column-sliced shuffle blocks against the records they stand for.

A routed partition (``RoutedRows``) and the blocks cut from it must be
indistinguishable — records, order, byte charge — from routing the
partition one record at a time and bucketing the records, which is what
the partitioned join did before it moved blocks.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.cluster.model import ClusterSpec
from repro.columnar import ColumnBlock, EntryChunks, GeometryColumn, RoutedRows
from repro.geometry import LineString, MultiPolygon, Point, Polygon
from repro.geometry.envelope import Envelope
from repro.index.partitioner import FixedGridPartitioner
from repro.spark.context import SparkContext
from repro.spark.shuffle import HashPartitioner, estimate_bytes, records_bytes

TILES = FixedGridPartitioner(3, 3).partition(Envelope(0, 0, 90, 90))


def square(x, y, side):
    return Polygon([(x, y), (x + side, y), (x + side, y + side), (x, y + side)])


def geometries(kind):
    if kind == "point":
        return [Point(7.0 * i % 90, 11.0 * i % 90) for i in range(40)] + [Point.empty()]
    if kind == "polyline":
        return [
            LineString([(5.0 * i % 80, 3.0 * i % 70), (5.0 * i % 80 + 25, 3.0 * i % 70 + 9)])
            for i in range(30)
        ] + [LineString.empty(), Point(30.0, 30.0)]  # a corner point: four tiles
    return [
        MultiPolygon([square(9.0 * i % 70, 4.0 * i % 60, 6), square(9.0 * i % 70 + 12, 40, 15)])
        for i in range(20)
    ] + [MultiPolygon([]), square(10, 10, 70)]


def ids(kind, n):
    if kind == "int":
        return list(range(100, 100 + n))
    if kind == "str":
        return [f"row-{i}-é" for i in range(n)]
    return [(i, f"part-{i % 3}") for i in range(n)]


def route_one_at_a_time(entries, expand):
    """The routing ``flat_map`` the join used to run, a record at a time."""
    records = []
    for rid, geometry in entries:
        if geometry.is_empty:
            continue
        for tile in TILES.route(geometry.envelope.expand_by(expand)):
            records.append((tile, (rid, geometry)))
    return records


@pytest.mark.parametrize("id_kind", ["int", "str", "tuple"])
@pytest.mark.parametrize("geometry_kind", ["point", "polyline", "multipolygon"])
@pytest.mark.parametrize("expand", [0.0, 4.0])
class TestRoutedRowsStandForTheirRecords:
    def routed(self, id_kind, geometry_kind, expand):
        geoms = geometries(geometry_kind)
        entries = list(zip(ids(id_kind, len(geoms)), geoms))
        column = GeometryColumn.from_entries(entries)
        rows, keys = TILES.route_rows(*column.bounds(), expand=expand)
        return entries, RoutedRows(column, rows, keys)

    def test_iterates_as_the_flat_map_records(self, id_kind, geometry_kind, expand):
        entries, routed = self.routed(id_kind, geometry_kind, expand)
        want = route_one_at_a_time(entries, expand)
        got = list(routed)
        assert got == want
        assert len(want) > len(entries)  # some rows really are replicated
        assert {rid for _, (rid, _) in got} == {
            rid for rid, g in entries if not g.is_empty
        }  # empties dropped, nothing else
        assert all(type(key) is int for key, _ in got)  # never a numpy scalar
        assert all(a is b for (_, (_, a)), (_, (_, b)) in zip(got, want))  # the same objects

    def test_blocks_are_the_bucketed_records(self, id_kind, geometry_kind, expand):
        entries, routed = self.routed(id_kind, geometry_kind, expand)
        partitioner = HashPartitioner(4)
        want: dict[int, list] = {}
        for record in route_one_at_a_time(entries, expand):
            want.setdefault(partitioner.partition(record[0]), []).append(record)
        blocks = routed.shuffle_blocks(partitioner.partition)
        assert list(blocks) == list(want)  # buckets in first-arrival order
        for bucket, block in blocks.items():
            assert isinstance(block, ColumnBlock)
            assert list(block) == want[bucket]
            assert all(type(key) is int for key in block.keys)
            assert (
                block.charge_bytes
                == records_bytes(list(block))
                == sum(estimate_bytes(record) for record in want[bucket])
            )
            assert records_bytes(block) == block.charge_bytes

    def test_pickle_ships_the_selected_rows_only(self, id_kind, geometry_kind, expand):
        _, routed = self.routed(id_kind, geometry_kind, expand)
        blocks = routed.shuffle_blocks(HashPartitioner(4).partition)
        whole = len(pickle.dumps(routed.column))
        for block in blocks.values():
            blob = pickle.dumps(block)
            revived = pickle.loads(blob)
            assert list(revived) == list(block)
            assert revived.charge_bytes == block.charge_bytes
            assert len(revived.column.num_points_array()) == len(block)
        smallest = min(blocks.values(), key=len)
        assert len(pickle.dumps(smallest)) < whole


class TestBlockGrouping:
    def test_chunks_by_key_keeps_arrival_order(self):
        records = [
            (key, (i, Point(float(i), float(key))))
            for i, key in enumerate([2, 0, 2, 2, 1, 0])
        ]
        block = ColumnBlock.from_records(records)
        chunks = block.chunks_by_key()
        assert [key for key, _ in chunks] == [2, 0, 1]
        assert [list(chunk.entries()) for _, chunk in chunks] == [
            [records[0][1], records[2][1], records[3][1]],
            [records[1][1], records[5][1]],
            [records[4][1]],
        ]
        single = ColumnBlock.from_records(records[:1] + records[2:4])
        [(key, chunk)] = single.chunks_by_key()
        assert key == 2 and chunk is single.column

    def test_concat_point_columns_without_touching_objects(self):
        a = GeometryColumn.from_entries([(i, Point(i, i + 0.5)) for i in range(5)])
        b = pickle.loads(pickle.dumps(a.take([3, 1])))  # decoded: no objects yet
        joined = GeometryColumn.concat([a.take([4, 0]), b, a])
        assert joined.payloads() == [4, 0, 3, 1, 0, 1, 2, 3, 4]
        _, xs, ys = joined.point_rows()
        assert xs.tolist() == [4, 0, 3, 1, 0, 1, 2, 3, 4]
        assert ys.tolist() == [x + 0.5 for x in xs.tolist()]
        assert GeometryColumn.concat([a]) is a

    def test_concat_mixed_columns_keeps_the_objects(self):
        lines = [(f"l{i}", LineString([(i, 0), (i + 1, 1)])) for i in range(3)]
        points = [(f"p{i}", Point(i, i)) for i in range(2)]
        joined = GeometryColumn.concat(
            [GeometryColumn.from_entries(lines), GeometryColumn.from_entries(points)]
        )
        assert list(joined.entries()) == lines + points
        assert all(g is e[1] for g, e in zip(joined.geometries(), lines + points))

    def test_entry_chunks_is_a_sequence_of_entries(self):
        entries = [(i, Point(i, -i)) for i in range(6)]
        chunks = EntryChunks()
        assert not chunks and len(chunks) == 0
        column = GeometryColumn.from_entries(entries)
        chunks.chunks += [column.take([0, 1]), column.take([2, 3, 4, 5])]
        assert len(chunks) == 6 and list(chunks) == entries == list(chunks)
        assert chunks[2] == entries[2] and chunks[-1] == entries[-1]
        assert chunks.column().payloads() == [0, 1, 2, 3, 4, 5]
        assert list(pickle.loads(pickle.dumps(chunks))) == entries

    def test_entry_chunks_index_like_their_list(self, monkeypatch):
        entries = [(i, Point(i, -i)) for i in range(7)]
        column = GeometryColumn.from_entries(entries)
        chunks = EntryChunks()
        chunks.chunks += [column.take([0, 1, 2]), column.take([]), column.take([3]),
                          column.take([4, 5, 6])]
        listed = list(chunks)
        for i in range(-7, 7):
            assert chunks[i] == listed[i]
        assert chunks[np.int64(4)] == listed[4]
        for bounds in [(None, None, None), (1, 5, None), (-3, None, None), (None, None, -1),
                       (6, 0, -2), (2, 100, 3), (5, 2, None)]:
            assert chunks[slice(*bounds)] == listed[slice(*bounds)]
        for outside in (7, -8, 100):
            with pytest.raises(IndexError):
                chunks[outside]
        # One index builds one entry, not every entry of the key.
        built = []
        entry = GeometryColumn.entry
        monkeypatch.setattr(
            GeometryColumn, "entry", lambda self, i: (built.append(i), entry(self, i))[1]
        )
        assert chunks[5] == entries[5] and len(built) == 1


class TestCogroupTakesBlocksWhole:
    def cogroup(self, left_partitions, right):
        """Cogroup with each left partition produced by its own function,
        so one map task can emit records and another a routed column."""
        sc = SparkContext(ClusterSpec(1, 2))
        left = sc.parallelize(list(range(len(left_partitions))), len(left_partitions))
        left = left.map_partitions_with_index(
            lambda split, _: left_partitions[split]()
        )
        grouped = left.cogroup(sc.parallelize(right, 1), num_partitions=2)
        return sc, {key: sides for key, sides in grouped.collect()}

    def test_column_blocks_arrive_as_chunks(self):
        entries = [(i, Point(float(i), 1.0)) for i in range(8)]
        column = GeometryColumn.from_entries(entries)
        rows = np.arange(8)
        keys = np.array([0, 1, 2, 3, 0, 1, 2, 3])
        sc, groups = self.cogroup(
            [lambda: RoutedRows(column, rows, keys), lambda: RoutedRows(column, rows, keys)],
            [(1, ("poly", square(0, 0, 9)))],
        )
        assert sorted(groups) == [0, 1, 2, 3]
        left, right = groups[1]
        assert isinstance(left, EntryChunks) and isinstance(right, EntryChunks)
        assert list(left) == [entries[1], entries[5]] * 2  # map 0 then map 1
        assert list(right) == [("poly", square(0, 0, 9))]
        assert groups[2][1] == [] and not groups[2][1]
        # Block charges equal the per-record walk on both sides of the shuffle.
        record = (1, entries[1])
        want = 16 * estimate_bytes(record) + estimate_bytes((1, ("poly", square(0, 0, 9))))
        assert sc.totals()["shuffle_bytes"] == 2 * want

    def test_mixed_record_and_column_blocks_cogroup_in_order(self):
        entries = [(i, Point(float(i), 1.0)) for i in range(4)]
        column = GeometryColumn.from_entries(entries)
        # Map 0 emits plain records of another shape for key 0 (they stay a
        # list block), map 1 a routed column, map 2 geometry records again.
        plain = [(0, "not-a-geometry-record"), (0, ("x", 1))]
        sc, groups = self.cogroup(
            [
                lambda: iter(plain),
                lambda: RoutedRows(column, np.arange(4), np.zeros(4, dtype=np.int64)),
                lambda: iter([(0, (9, Point(9.0, 9.0)))]),
            ],
            [(0, ("poly", square(0, 0, 9)))],
        )
        left, right = groups[0]
        assert left == ["not-a-geometry-record", ("x", 1), *entries, (9, Point(9.0, 9.0))]
        assert isinstance(right, EntryChunks)  # the other side is unaffected
        assert list(right) == [("poly", square(0, 0, 9))]
