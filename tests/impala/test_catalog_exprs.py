"""Metastore, row parsing, tuple descriptors, expression compilation."""

import pytest

from repro.errors import PlanError
from repro.hdfs import SimulatedHDFS, write_text
from repro.impala.ast_nodes import (
    BinaryOp,
    ColumnRef,
    FunctionCall,
    Literal,
    Star,
    UnaryOp,
)
from repro.impala.catalog import Column, ColumnType, Metastore, Table
from repro.impala.exprs import Slot, TupleDescriptor, compile_expr
from repro.impala.rowbatch import RowBatch, batches_of


@pytest.fixture
def fs():
    fs = SimulatedHDFS()
    write_text(fs, "/t.txt", ["1\tfoo", "2\tbar"])
    return fs


@pytest.fixture
def metastore(fs):
    return Metastore(fs)


class TestMetastore:
    def test_create_and_get(self, metastore):
        table = metastore.create_table(
            "t", [("id", ColumnType.BIGINT), ("name", ColumnType.STRING)], "/t.txt"
        )
        assert metastore.get("t") is table
        assert metastore.tables() == ["t"]

    def test_duplicate_rejected(self, metastore):
        metastore.create_table("t", [("id", ColumnType.BIGINT)], "/t.txt")
        with pytest.raises(PlanError):
            metastore.create_table("t", [("id", ColumnType.BIGINT)], "/t.txt")

    def test_missing_file_rejected(self, metastore):
        with pytest.raises(PlanError):
            metastore.create_table("t", [("id", ColumnType.BIGINT)], "/missing.txt")

    def test_unknown_table(self, metastore):
        with pytest.raises(PlanError):
            metastore.get("ghost")

    def test_drop(self, metastore):
        metastore.create_table("t", [("id", ColumnType.BIGINT)], "/t.txt")
        metastore.drop_table("t")
        assert metastore.tables() == []
        with pytest.raises(PlanError):
            metastore.drop_table("t")


class TestRowParsing:
    @pytest.fixture
    def table(self):
        return Table(
            "t",
            (
                Column("id", ColumnType.BIGINT),
                Column("score", ColumnType.DOUBLE),
                Column("name", ColumnType.STRING),
                Column("flag", ColumnType.BOOLEAN),
            ),
            "/t.txt",
        )

    def test_parse_typed_row(self, table):
        assert table.parse_row("7\t2.5\thello\ttrue") == (7, 2.5, "hello", True)

    def test_bad_arity_skipped(self, table):
        assert table.parse_row("7\t2.5") is None

    def test_bad_int_skipped(self, table):
        assert table.parse_row("x\t2.5\thello\ttrue") is None

    def test_bad_double_skipped(self, table):
        assert table.parse_row("7\tzzz\thello\ttrue") is None

    @pytest.mark.parametrize(
        "text", ["99999999999999999999", "9223372036854775808", "-9223372036854775809"]
    )
    def test_bigint_outside_int64_skipped(self, table, text):
        assert table.parse_row(f"{text}\t2.5\thello\ttrue") is None

    def test_bigint_int64_bounds_kept(self, table):
        assert table.parse_row("9223372036854775807\t2.5\th\ttrue")[0] == 2**63 - 1
        assert table.parse_row("-9223372036854775808\t2.5\th\ttrue")[0] == -(2**63)

    def test_bigint_overflow_counted_as_a_skipped_row(self):
        from repro.cluster import CostModel
        from repro.impala.exec_nodes import InstanceContext, ScanNode
        from repro.obs.registry import collecting

        fs = SimulatedHDFS()
        write_text(fs, "/ids.txt", ["1\ta", "99999999999999999999\tb", "3\tc"])
        table = Metastore(fs).create_table(
            "ids", [("id", ColumnType.BIGINT), ("name", ColumnType.STRING)], "/ids.txt"
        )
        ctx = InstanceContext(node_id=0, cores=2, cost_model=CostModel())
        with collecting() as registry:
            scan = ScanNode(ctx, fs, table, [(0, fs.status("/ids.txt").size)])
            assert list(scan.rows()) == [(1, "a"), (3, "c")]
            assert registry.counter("impala.rows_skipped") == 1.0

    def test_null_text_reads_as_null_in_every_type(self, table):
        assert table.parse_row("\\N\t\\N\t\\N\t\\N") == (None, None, None, None)
        assert table.parse_row("7\t\\N\thello\tfalse") == (7, None, "hello", False)

    def test_boolean_variants(self, table):
        assert table.parse_row("1\t1.0\tn\t1")[3] is True
        assert table.parse_row("1\t1.0\tn\tFalse")[3] is False

    def test_column_index(self, table):
        assert table.column_index("score") == 1
        with pytest.raises(PlanError):
            table.column_index("ghost")


class TestRowBatch:
    def test_fill_and_iterate(self):
        batch = RowBatch()
        for i in range(3):
            batch.add((i,))
        assert len(batch) == 3
        assert [r[0] for r in batch] == [0, 1, 2]

    def test_batches_of_chunks(self):
        rows = [(i,) for i in range(10)]
        batches = list(batches_of(rows, batch_size=4))
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_batches_of_empty(self):
        assert list(batches_of([], batch_size=4)) == []


class TestTupleDescriptor:
    @pytest.fixture
    def descriptor(self):
        return TupleDescriptor(
            [Slot("l", "id"), Slot("l", "geom"), Slot("r", "id")]
        )

    def test_resolve_qualified(self, descriptor):
        assert descriptor.resolve(ColumnRef("l", "geom")) == 1
        assert descriptor.resolve(ColumnRef("r", "id")) == 2

    def test_resolve_bare_unique(self, descriptor):
        assert descriptor.resolve(ColumnRef(None, "geom")) == 1

    def test_resolve_bare_ambiguous(self, descriptor):
        with pytest.raises(PlanError):
            descriptor.resolve(ColumnRef(None, "id"))

    def test_resolve_unknown(self, descriptor):
        with pytest.raises(PlanError):
            descriptor.resolve(ColumnRef("l", "ghost"))
        with pytest.raises(PlanError):
            descriptor.resolve(ColumnRef(None, "ghost"))

    def test_concat(self, descriptor):
        combined = descriptor.concat(TupleDescriptor([Slot("x", "a")]))
        assert len(combined) == 4
        assert combined.resolve(ColumnRef("x", "a")) == 3


class TestCompileExpr:
    @pytest.fixture
    def descriptor(self):
        return TupleDescriptor([Slot("t", "a"), Slot("t", "b"), Slot("t", "geom")])

    def test_literal_and_column(self, descriptor):
        assert compile_expr(Literal(42), descriptor)(("x", "y", "z")) == 42
        assert compile_expr(ColumnRef("t", "b"), descriptor)((1, 2, 3)) == 2

    def test_comparisons(self, descriptor):
        expr = BinaryOp("<", ColumnRef("t", "a"), ColumnRef("t", "b"))
        func = compile_expr(expr, descriptor)
        assert func((1, 2, None)) is True
        assert func((3, 2, None)) is False

    def test_null_propagation(self, descriptor):
        expr = BinaryOp("=", ColumnRef("t", "a"), Literal(1))
        func = compile_expr(expr, descriptor)
        assert func((None, 0, 0)) is None

    def test_three_valued_and_or(self, descriptor):
        a = ColumnRef("t", "a")
        and_func = compile_expr(BinaryOp("AND", a, Literal(True)), descriptor)
        or_func = compile_expr(BinaryOp("OR", a, Literal(True)), descriptor)
        assert and_func((None, 0, 0)) is None
        assert or_func((None, 0, 0)) is True  # NULL OR TRUE = TRUE

    def test_false_short_circuits_null(self, descriptor):
        a = ColumnRef("t", "a")
        func = compile_expr(BinaryOp("AND", a, Literal(False)), descriptor)
        assert func((None, 0, 0)) is False  # NULL AND FALSE = FALSE

    def test_arithmetic(self, descriptor):
        expr = BinaryOp("*", BinaryOp("+", ColumnRef("t", "a"), Literal(1)), Literal(3))
        assert compile_expr(expr, descriptor)((2, 0, 0)) == 9

    def test_not_and_negate(self, descriptor):
        not_func = compile_expr(UnaryOp("NOT", ColumnRef("t", "a")), descriptor)
        assert not_func((True, 0, 0)) is False
        assert not_func((None, 0, 0)) is None
        neg = compile_expr(UnaryOp("-", ColumnRef("t", "a")), descriptor)
        assert neg((5, 0, 0)) == -5

    def test_is_null(self, descriptor):
        func = compile_expr(
            BinaryOp("IS NULL", ColumnRef("t", "a"), Literal(None)), descriptor
        )
        assert func((None, 0, 0)) is True
        assert func((1, 0, 0)) is False

    def test_spatial_function(self, descriptor):
        call = FunctionCall(
            "ST_WITHIN",
            (ColumnRef("t", "geom"), Literal("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")),
        )
        func = compile_expr(call, descriptor)
        assert func((0, 0, "POINT (1 1)")) is True
        assert func((0, 0, "POINT (9 9)")) is False

    def test_spatial_function_null_arg(self, descriptor):
        call = FunctionCall(
            "ST_WITHIN", (ColumnRef("t", "geom"), ColumnRef("t", "a"))
        )
        func = compile_expr(call, descriptor)
        assert func((None, 0, "POINT (1 1)")) is None

    def test_aggregate_rejected_as_scalar(self, descriptor):
        with pytest.raises(PlanError):
            compile_expr(FunctionCall("COUNT", (Star(),)), descriptor)

    def test_unknown_function(self, descriptor):
        with pytest.raises(PlanError):
            compile_expr(FunctionCall("FROBNICATE", ()), descriptor)

    def test_star_rejected(self, descriptor):
        with pytest.raises(PlanError):
            compile_expr(Star(), descriptor)
