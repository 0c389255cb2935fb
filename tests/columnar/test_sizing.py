"""Shuffle sizing fast path and cache accounting for column-backed values.

``records_bytes`` is a hot-loop optimisation, not a new size model: for
every input it must return exactly ``sum(estimate_bytes(r) for r in
records)``, and a ``ColumnBlock``'s ``charge_bytes`` must pin the same
total so ``SHUFFLE_BYTES`` charges cannot drift between representations.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.columnar import ColumnBlock, GeometryColumn
from repro.geometry.linestring import LineString
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.spark.shuffle import ShuffleStore, estimate_bytes, records_bytes, values_bytes


def routed_records(n=200, seed=3):
    rng = random.Random(seed)
    records = []
    for i in range(n):
        geometry = Point(rng.uniform(0, 100), rng.uniform(0, 100))
        records.append((i % 8, (i, geometry)))
    return records


class TestRecordsBytes:
    @pytest.mark.parametrize(
        "records",
        [
            [],
            routed_records(50),
            [(1, (2, LineString([(0, 0), (1, 1), (2, 2)])))],
            [(0.5, (True, Point(1, 1)))],  # float/bool keys hit the fast path
            [(1, (2, 3))],  # scalar instead of geometry: generic walk
            [("a", (1, Point(0, 0)))],  # str key: generic walk
            [(1, (2, Point(0, 0)), 3)],  # wrong arity
            [(1, [2, Point(0, 0)])],  # list, not tuple
            [{"k": 1}, None, "text", (1, 2)],
            [(1, (2, Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])))],
            # numpy keys / ids, as a router that forgot ``tolist()`` would leak
            [(np.int64(3), (np.int64(7), Point(1, 1)))],
            [(np.float64(0.5), (np.bool_(True), LineString([(0, 0), (1, 1)])))],
            [(3, (np.int32(7), Point(1, 1))), (np.int64(3), (8, Point(2, 2)))],
            [((np.int64(1), np.float32(2.0)), (np.uint8(3), None, "x", np.bool_(False)))],
        ],
    )
    def test_equals_per_record_walk(self, records):
        assert records_bytes(records) == sum(
            estimate_bytes(record) for record in records
        )

    def test_numpy_scalars_weigh_what_they_stand_for(self):
        for scalar in (np.int64(3), np.int32(3), np.uint8(3), np.bool_(True),
                       np.float64(3.0), np.float32(3.0)):
            assert estimate_bytes(scalar) == estimate_bytes(scalar.item()) == 8
        python = [(3, (7, Point(1, 1)))]
        numpy = [(np.int64(3), (np.int64(7), Point(1, 1)))]
        assert records_bytes(numpy) == records_bytes(python) == 56 + 16
        assert estimate_bytes((np.int64(1), np.float64(2.0))) == estimate_bytes((1, 2.0))

    def test_result_exchange_rows_size_arithmetically(self, monkeypatch):
        # The Impala coordinator's result columns (ORDER BY keys, then the
        # SELECT items) weigh what their (key tuple, row tuple) records
        # weigh; number and ASCII-string columns without the per-value walk.
        import repro.spark.shuffle as shuffle
        from repro.impala.coordinator import exchange_bytes
        from repro.impala.rowbatch import object_columns

        rows = [(17, 4.25, True, "cell-3"), (1, 0.5, False, ""), (2, 1e300, True, "x")]
        keys = [(name, flag) for _, _, flag, name in rows]
        want = sum(estimate_bytes(record) for record in zip(keys, rows))
        mixed = [None, "h\u00e9llo \u4e16\u754c", 3, (1, (2, 3))]  # UTF-8 length, not len()
        mixed_want = sum(estimate_bytes(value) for value in mixed)
        walked = []
        real = shuffle.estimate_bytes
        monkeypatch.setattr(
            shuffle, "estimate_bytes", lambda record: walked.append(record) or real(record)
        )
        assert exchange_bytes(object_columns(keys, 2) + object_columns(rows, 4)) == want
        assert walked == []  # none of them took the per-value walk
        assert values_bytes(mixed) == mixed_want
        assert walked == mixed

    def test_column_block_charges_object_path_total(self):
        records = routed_records(120)
        block = ColumnBlock.from_records(records)
        expected = sum(estimate_bytes(record) for record in records)
        assert block.charge_bytes == expected
        assert records_bytes(block) == expected

    def test_estimate_bytes_sizes_columns_honestly(self):
        column = GeometryColumn.from_geometries([Point(0, 0)] * 10)
        assert estimate_bytes(column) == 16 + column.nbytes


class TestColumnBlock:
    def test_iteration_is_value_identical(self):
        records = routed_records(60)
        block = ColumnBlock.from_records(records)
        assert list(block) == records
        # In-process iteration hands back the original geometry objects.
        assert list(block)[0][1][1] is records[0][1][1]

    def test_non_record_shapes_return_none(self):
        assert ColumnBlock.from_records([]) is None
        assert ColumnBlock.from_records([(1, 2)]) is None
        assert ColumnBlock.from_records([(1, (2, 3))]) is None

    def test_pickle_round_trip(self):
        import pickle

        records = routed_records(80)
        block = ColumnBlock.from_records(records)
        revived = pickle.loads(pickle.dumps(block))
        assert list(revived) == records
        assert revived.charge_bytes == block.charge_bytes


class TestShuffleStoreWrite:
    def test_blocks_and_lists_charge_identically(self):
        records = routed_records(150)
        buckets_obj = {0: records[:75], 1: records[75:]}
        buckets_col = {
            k: ColumnBlock.from_records(v) for k, v in buckets_obj.items()
        }

        store_obj, store_col = ShuffleStore(), ShuffleStore()
        sid_obj = store_obj.new_shuffle_id()
        sid_col = store_col.new_shuffle_id()
        written_obj = store_obj.write(sid_obj, 0, buckets_obj)
        written_col = store_col.write(sid_col, 0, buckets_col)
        assert written_obj == written_col
        assert store_obj.bytes_for(sid_obj) == store_col.bytes_for(sid_col)
        assert ShuffleStore.bucket_bytes(buckets_obj) == written_obj
        assert ShuffleStore.bucket_bytes(buckets_col) == written_col
        # The reduce side sees identical records either way.
        assert list(store_obj.read(sid_obj, 1, 0)) == list(
            store_col.read(sid_col, 1, 0)
        )

    def test_packed_block_ships_fewer_bytes_than_it_charges(self):
        block = ColumnBlock.from_records(routed_records(100))
        assert block.nbytes < block.charge_bytes


class TestIndexByteEstimate:
    def test_column_backed_index_is_sized_from_buffers(self):
        from repro.cache.manager import estimate_index_bytes
        from repro.core.operators import SpatialOperator
        from repro.core.probe import BroadcastIndex

        entries = [(i, Point(float(i), float(i))) for i in range(64)]
        column = GeometryColumn.from_entries(entries)
        op = SpatialOperator.WITHIN
        from_col = BroadcastIndex(column, op)
        from_obj = BroadcastIndex(entries, op)
        col_size = estimate_index_bytes(from_col)
        obj_size = estimate_index_bytes(from_obj)
        assert col_size > 0
        # The packed estimate may differ from the object walk but must
        # stay the same order of magnitude — no budget-dodging tiny sizes.
        assert col_size > obj_size / 4
