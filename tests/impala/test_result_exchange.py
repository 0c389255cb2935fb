"""The SQL result exchange: columns from the join to ``QueryResult.rows``.

Fragment instances ship their ORDER BY keys and SELECT items to the
coordinator as columns and the rows become tuples once, at the end.
Nothing observable may move: every query shape below is pinned to what
the coordinator returned when instances shipped one ``(order key tuple,
row tuple)`` record per row — the rows (values, each value's type, their
order), the simulated seconds and their breakdown by the bits, and each
instance's counters in first-touch order, ``shuffle_bytes`` included —
serially and on a two-worker pool.  The build side's broadcast bytes are
sized by column the same way.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.model import ClusterSpec
from repro.hdfs import SimulatedHDFS, write_text
from repro.impala import ColumnType, ImpalaBackend
from repro.runtime.config import RuntimeConfig
from repro.spark.shuffle import estimate_bytes, records_bytes
from tests.columnar.test_byte_identity import digest

CLUSTER = ClusterSpec(num_nodes=3, cores_per_node=4, mem_per_node_gb=15.0)
NULL = "\\N"  # the scanners read it as NULL, so a column can hold NULLs
NAMES = ["ash", "birch", "cedar", "déjà vu", "横浜", ""]


def tables() -> dict[str, tuple[list[tuple[str, ColumnType]], list[str]]]:
    """Points with names and nullable scores; a 4 x 4 grid of labelled cells."""
    rng = random.Random(27)
    points = []
    for i in range(150):
        geometry = f"POINT ({rng.uniform(0, 100)!r} {rng.uniform(0, 100)!r})"
        if i == 40:
            geometry = "POINT (1 2"  # dropped by the join node
        score = NULL if i % 7 == 3 else repr(round(rng.uniform(-5, 5), 2))
        points.append(f"{i}\t{geometry}\t{NAMES[i % len(NAMES)]}\t{score}")
    cells = []
    for k in range(16):
        x, y = 25 * (k % 4), 25 * (k // 4)
        ring = f"{x} {y}, {x + 25} {y}, {x + 25} {y + 25}, {x} {y + 25}, {x} {y}"
        label = ["north", "süd", "東", "west"][k % 4]
        cells.append(f"{k}\tPOLYGON (({ring}))\t{label}\t{'true' if k % 3 else 'false'}")
    return {
        "pts": (
            [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING),
             ("name", ColumnType.STRING), ("score", ColumnType.DOUBLE)],
            points,
        ),
        "cells": (
            [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING),
             ("label", ColumnType.STRING), ("flag", ColumnType.BOOLEAN)],
            cells,
        ),
    }


@pytest.fixture(scope="module")
def hdfs() -> SimulatedHDFS:
    fs = SimulatedHDFS(datanodes=("node0", "node1", "node2"), replication=2)
    for name, (_, lines) in tables().items():
        write_text(fs, f"/{name}.txt", lines, block_size=1024)
    return fs


def run(hdfs, sql: str, executors="serial"):
    backend = ImpalaBackend(CLUSTER, hdfs=hdfs, runtime=RuntimeConfig(executors=executors))
    for name, (schema, _) in tables().items():
        backend.metastore.create_table(name, schema, f"/{name}.txt")
    return backend.execute(sql)


def observe(result) -> tuple:
    """``(row count, digest of the rows and each value's type in order,
    simulated seconds, digest of the breakdown and of every instance's
    counters in first-touch order, each instance's shuffle bytes)``;
    floats by their bits."""
    typed = [[[repr(value), type(value).__name__] for value in row] for row in result.rows]
    counts = [instance.metrics.counts for instance in result.instances]
    return (
        len(result.rows),
        digest(typed),
        result.simulated_seconds.hex(),
        digest(
            [[(phase, seconds.hex()) for phase, seconds in result.breakdown.items()]]
            + [[(key, float(value).hex()) for key, value in c.items()] for c in counts]
        ),
        [c.get("shuffle_bytes") for c in counts],
    )


JOIN = "FROM pts l SPATIAL JOIN cells r WHERE ST_NEARESTD(l.geom, r.geom, 10.0)"
SHAPES = {
    "ids": f"SELECT l.id, r.id {JOIN}",
    "within": (
        "SELECT l.id, r.id, r.label FROM pts l SPATIAL JOIN cells r "
        "WHERE ST_WITHIN(l.geom, r.geom)"
    ),
    "geometry-strings": f"SELECT l.geom, r.geom, l.name, r.label {JOIN}",
    "computed": f"SELECT l.id + 1, r.id, l.score * 2, r.flag {JOIN}",
    "order-asc-nulls": f"SELECT l.id, r.id, l.score {JOIN} ORDER BY l.score, r.id",
    "order-desc-nulls": f"SELECT l.name, l.score, r.id {JOIN} ORDER BY l.score DESC, l.id DESC",
    "order-by-expression": f"SELECT l.id, r.id {JOIN} ORDER BY l.id + r.id DESC, r.flag",
    "limit": f"SELECT l.id, r.id {JOIN} LIMIT 25",
    "order-limit": f"SELECT r.label, l.id {JOIN} ORDER BY r.label DESC, l.id LIMIT 30",
    "udf-items": (
        f"SELECT l.id, ST_DISTANCE(l.geom, r.geom) {JOIN} "
        "ORDER BY ST_DISTANCE(l.geom, r.geom), l.id LIMIT 40"
    ),
    "residual": f"SELECT l.id, r.id {JOIN} AND l.id > r.id * 6",
    "pushed-down": f"SELECT l.id, r.id {JOIN} AND l.id < 70",
    "count-group-by": f"SELECT r.id, COUNT(*) {JOIN} GROUP BY r.id ORDER BY r.id",
    "empty": f"SELECT l.id, r.id {JOIN} AND l.id < 0",
    "zero-row-instance": f"SELECT l.id, r.geom {JOIN} AND l.id < 12",
    "cross-join": (
        "SELECT l.id, r.label FROM pts l INNER JOIN cells r "
        "ON ST_WITHIN(l.geom, r.geom) WHERE l.id < 30 ORDER BY r.label, l.id"
    ),
    "scan-only": "SELECT id, name, score FROM pts WHERE id < 30 ORDER BY name, score DESC",
}

# Recorded at the parent commit, where instances shipped keyed row tuples.
PINNED = {'computed': (380,
              '0842cae0883c35b2',
              '0x1.606b7ed41b759p+3',
              '2fc05f1fb9a4f6e7',
              [7644.0, 7966.0, 5334.0]),
 'count-group-by': (16,
                    '4ef31aa8c725e43e',
                    '0x1.56c6a9c80ff99p+3',
                    '4748042914afcd29',
                    [640.0, 640.0, 640.0]),
 'cross-join': (30,
                '578a312fed6d8ca9',
                '0x1.3426b8af112dcp+2',
                '740887d862493587',
                [862.0, 578.0, 0.0]),
 'empty': (0, '4f53cda18c2baa0c', '0x1.93407692ae6dep+2', '6be9214c28f05a73', [0.0, 0.0, 0.0]),
 'geometry-strings': (380,
                      '0193096d197896ba',
                      '0x1.6bf97ce3d653bp+3',
                      '4e9028a44b87fe5e',
                      [16721.0, 17370.0, 11651.0]),
 'ids': (380,
         '038c032d20e0b952',
         '0x1.5dc45dbd756bep+3',
         'fa9a384b8b0777e9',
         [5560.0, 5760.0, 3880.0]),
 'limit': (25,
           '9a1104bd398b760d',
           '0x1.5dc45dbd756bep+3',
           'fa9a384b8b0777e9',
           [5560.0, 5760.0, 3880.0]),
 'order-asc-nulls': (380,
                     '64e67994c5c83ff1',
                     '0x1.61a83fa4b0a3fp+3',
                     '1170970970857143',
                     [8616.0, 9020.0, 6012.0]),
 'order-by-expression': (380,
                         'd7aff671998b1675',
                         '0x1.60991e499722cp+3',
                         'd5b3708062d6a0e1',
                         [7784.0, 8064.0, 5432.0]),
 'order-desc-nulls': (380,
                      '246e441fc7b9d512',
                      '0x1.610f1607ff27ep+3',
                      '4784fabee7887ba9',
                      [8146.0, 8550.0, 5669.0]),
 'order-limit': (30,
                 '998a371942123c3d',
                 '0x1.5f24f745c7347p+3',
                 'd4d38aa44c9cf1b7',
                 [6642.0, 6894.0, 4642.0]),
 'pushed-down': (173,
                 'd260cb60884f3ab8',
                 '0x1.276c6de76427cp+3',
                 'd139d3e95aa0dd60',
                 [3480.0, 1840.0, 1600.0]),
 'residual': (270,
              '03255639a54d9b56',
              '0x1.5ab68df119de1p+3',
              '2dd74b88a1605468',
              [3360.0, 4040.0, 3400.0]),
 'scan-only': (30,
               '98e9d69586f885d4',
               '0x1.c9340da3ac97fp+0',
               'f10701c0b9b3e2ee',
               [990.0, 674.0, 0.0]),
 'udf-items': (40,
               'cb84989b1726809e',
               '0x1.60991e499722cp+3',
               '2fc4431b0bce6ddd',
               [7784.0, 8064.0, 5432.0]),
 'within': (149,
            '73a4a61b8be74c4d',
            '0x1.2fc1ced769080p+3',
            '974a72ddbd7357b1',
            [2370.0, 2330.0, 1849.0]),
 'zero-row-instance': (26,
                       'ddad8f3b3d2498e4',
                       '0x1.d162f5024b08ep+2',
                       'da1d1ae4403c9e92',
                       [1975.0, 0.0, 0.0])}


@pytest.mark.parametrize("executors", ["serial", 2])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_result_rows_clock_and_counters_pinned(hdfs, shape, executors):
    assert observe(run(hdfs, SHAPES[shape], executors)) == PINNED[shape]


def test_the_shapes_cover_what_they_claim(hdfs):
    rows = {shape: run(hdfs, sql).rows for shape, sql in SHAPES.items()}
    assert rows["empty"] == []
    assert any(row[2] is None for row in rows["order-asc-nulls"])
    # Impala's default: NULLs last ascending, first descending.
    assert rows["order-asc-nulls"][-1][2] is None and rows["order-asc-nulls"][0][2] is not None
    assert rows["order-desc-nulls"][0][1] is None and rows["order-desc-nulls"][-1][1] is not None
    assert any(not name.isascii() for name, *_ in rows["order-desc-nulls"])
    assert len(rows["limit"]) == 25 and len(rows["order-limit"]) == 30
    assert len(rows["ids"]) > 150  # several cells per point
    result = run(hdfs, SHAPES["zero-row-instance"])
    assert result.rows
    assert [i.metrics.counts["shuffle_bytes"] for i in result.instances][1:] == [0.0, 0.0]


SCALARS = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.text(alphabet=st.characters(max_codepoint=127), max_size=8),
    st.text(max_size=8),
    st.integers(min_value=-(2**31), max_value=2**31).map(np.int64),
    st.floats(width=32, allow_nan=False).map(np.float32),
    st.booleans().map(np.bool_),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=3).flatmap(
        lambda keys: st.integers(min_value=1, max_value=4).flatmap(
            lambda items: st.lists(
                st.tuples(
                    st.tuples(*[SCALARS] * keys), st.tuples(*[SCALARS] * items)
                ),
                max_size=12,
            ).map(lambda records: (keys, items, records))
        )
    )
)
def test_column_bytes_are_the_keyed_records_bytes(shape):
    from repro.impala.coordinator import exchange_bytes
    from repro.impala.rowbatch import object_column

    keys, items, records = shape
    columns = [object_column([key[i] for key, _ in records]) for i in range(keys)] + [
        object_column([row[i] for _, row in records]) for i in range(items)
    ]
    assert exchange_bytes(columns) == records_bytes(records)
    assert records_bytes(records) == sum(estimate_bytes(record) for record in records)


# One build-side column of ``n`` rows, as a scan types it: an int64,
# float64 or bool array, a list of strings, or an object array of mixed
# values with NULLs.
def build_columns(n: int) -> st.SearchStrategy:
    def exactly(values):
        return st.lists(values, min_size=n, max_size=n)

    return st.one_of(
        exactly(st.integers(-(2**63), 2**63 - 1)).map(lambda v: np.array(v, dtype=np.int64)),
        exactly(st.floats()).map(lambda v: np.array(v, dtype=np.float64)),
        exactly(st.booleans()).map(lambda v: np.array(v, dtype=bool)),
        exactly(st.text(max_size=8)),
        exactly(st.one_of(st.none(), st.text(max_size=8), st.integers(), st.floats())).map(
            lambda v: np.array(v, dtype=object)
        ),
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=8).flatmap(
        lambda n: st.lists(build_columns(n), min_size=1, max_size=5)
    )
)
def test_build_bytes_by_column_are_the_rows_bytes(columns):
    # The broadcast build side is charged by column what its row tuples
    # weigh.
    from repro.impala.coordinator import rows_bytes
    from repro.impala.rowbatch import ColumnBatch

    batch = ColumnBatch(columns)
    assert rows_bytes(batch) == sum(estimate_bytes(row) for row in batch.rows)
