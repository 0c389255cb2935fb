"""The column scan types text exactly as ``Table.parse_row`` does, line by line.

``Table.parse_lines`` cuts a scan range's lines into typed columns in one
vectorised pass and hands a range it cannot take, line by line, to
``parse_row``.
Hypothesis draws schemas, hostile lines (wrong arity, embedded tabs,
empty lines, padded / signed / underscored / non-ASCII digits, int64
overflow, ``\\N``, non-ASCII strings) and scan ranges cutting the file
anywhere, mid-line included; every range's column batch must hold the
per-line oracle's rows — values, value types, float bits — and skip as
many lines, and a ``ScanNode`` over the ranges must yield those rows in
``batch_size`` batches and bump ``impala.rows_scanned`` /
``impala.rows_skipped`` by the oracle's counts.
"""

from __future__ import annotations

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CostModel
from repro.cluster.model import Resource
from repro.hdfs import SimulatedHDFS, read_split_lines, write_text
from repro.impala.catalog import NULL_TEXT, ColumnType, Metastore
from repro.impala.exec_nodes import InstanceContext, ScanNode
from repro.impala.rowbatch import ColumnBatch
from repro.obs.registry import collecting

HOSTILE = [
    "", " ", NULL_TEXT, " 7 ", "+7", "-0", "1_000", "1__0", "٣", "١٢", "𝟕", "7\xa0",
    "99999999999999999999", "9223372036854775807", "-9223372036854775808",
    "9223372036854775808", "1.5", "1e3", "nan", "-nan", "inf", "-Infinity", "1e400",
    "0x10", "true", " TRUE ", "False", "1", "0", "déjà vu", "横浜", "x",
]

FIELD = {
    ColumnType.BIGINT: st.one_of(
        st.integers(min_value=-(2**70), max_value=2**70).map(str), st.sampled_from(HOSTILE)
    ),
    ColumnType.DOUBLE: st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr), st.sampled_from(HOSTILE)
    ),
    ColumnType.BOOLEAN: st.sampled_from(HOSTILE),
    ColumnType.STRING: st.one_of(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n"),
            max_size=6,
        ),
        st.sampled_from(HOSTILE),
    ),
}


@st.composite
def tables(draw):
    """``(types, lines, cuts, batch_size)``: a schema, its file's lines and
    the ascending byte offsets the scan ranges start at."""
    types = draw(st.lists(st.sampled_from(list(ColumnType)), min_size=1, max_size=4))
    lines = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        fields = [draw(FIELD[column_type]) for column_type in types]
        shape = draw(st.sampled_from(["row"] * 6 + ["short", "long", "tab", "empty"]))
        if shape == "short":
            fields = fields[:-1]
        elif shape == "long":
            fields.append(draw(FIELD[ColumnType.STRING]))
        elif shape == "tab":
            fields[draw(st.integers(0, len(fields) - 1))] += "\t" + draw(FIELD[ColumnType.STRING])
        elif shape == "empty":
            fields = [""]
        lines.append("\t".join(fields))
    size = len("\n".join(lines).encode()) + 1 if lines else 0
    offsets = st.integers(min_value=1, max_value=max(size - 1, 1))
    cuts = sorted(set(draw(st.lists(offsets, max_size=5))))
    return types, lines, [0] + [cut for cut in cuts if cut < size], draw(st.integers(1, 9))


def _bits(value) -> tuple:
    """A value by its type and exact contents (a float by its bits)."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, repr(value))


def _typed_rows(rows) -> list:
    return [[_bits(value) for value in row] for row in rows]


def _setup(types, lines, cuts):
    fs = SimulatedHDFS()
    write_text(fs, "/t.txt", lines)
    table = Metastore(fs).create_table(
        "t", [(f"c{i}", column_type) for i, column_type in enumerate(types)], "/t.txt"
    )
    size = fs.status("/t.txt").size
    ranges = [(start, stop - start) for start, stop in zip(cuts, cuts[1:] + [size]) if stop > start]
    return fs, table, ranges


@settings(max_examples=300, deadline=None)
@given(tables())
def test_each_range_types_like_the_row_oracle(case):
    types, lines, cuts, _ = case
    fs, table, ranges = _setup(types, lines, cuts)
    for offset, length in ranges:
        range_lines = read_split_lines(fs, "/t.txt", offset, length)
        oracle = [table.parse_row(line) for line in range_lines]
        columns, skipped = table.parse_lines(range_lines)
        batch = ColumnBatch(columns)
        assert _typed_rows(batch.rows) == _typed_rows([row for row in oracle if row is not None])
        assert skipped == sum(row is None for row in oracle)
        assert len(batch) + skipped == len(range_lines)


@settings(max_examples=150, deadline=None)
@given(tables())
def test_scan_node_yields_the_oracle_rows_and_counts(case):
    types, lines, cuts, batch_size = case
    fs, table, ranges = _setup(types, lines, cuts)
    oracle = [
        table.parse_row(line)
        for offset, length in ranges
        for line in read_split_lines(fs, "/t.txt", offset, length)
    ]
    want = [row for row in oracle if row is not None]
    ctx = InstanceContext(node_id=0, cores=2, cost_model=CostModel())
    with collecting() as registry:
        scan = ScanNode(ctx, fs, table, ranges, batch_size=batch_size)
        batches = list(scan.batches())
        counters = registry.snapshot()["counters"]
    assert _typed_rows([row for batch in batches for row in batch]) == _typed_rows(want)
    assert [len(batch) for batch in batches] == [
        min(batch_size, len(want) - start) for start in range(0, len(want), batch_size)
    ]
    assert scan.rows_skipped == len(oracle) - len(want)
    assert counters.get("impala.rows_scanned", 0.0) == len(want)
    assert counters.get("impala.rows_skipped", 0.0) == len(oracle) - len(want)
    assert ctx.metrics.counts.get(Resource.HDFS_BYTES, 0.0) == sum(length for _, length in ranges)


def test_the_corpus_reaches_both_passes():
    """The vectorised pass takes a clean range; ``parse_row`` takes every
    line of any other."""
    fs = SimulatedHDFS()
    table = Metastore(fs)
    write_text(fs, "/t.txt", ["x"])
    table = table.create_table(
        "t", [("id", ColumnType.BIGINT), ("name", ColumnType.STRING)], "/t.txt"
    )
    columns, skipped = table.parse_lines(["1\ta", "2\tb"])
    assert columns[0].dtype.name == "int64" and columns[1] == ["a", "b"] and skipped == 0
    columns, skipped = table.parse_lines(["1\ta", " 7 \t\\N", "x\tb", "1\t2\t3", ""])
    assert list(columns[0]) == [1, 7] and list(columns[1]) == ["a", None] and skipped == 3
    columns, skipped = table.parse_lines(["1\ta", "99999999999999999999\tb"])
    assert list(columns[0]) == [1] and skipped == 1
