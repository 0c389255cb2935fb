"""Vectorized Impala execution: reference rows, pinned bills.

The spatial join and filter nodes consume whole row batches; these tests
pin down that rows are ``naive_spatial_join``'s, that their order and
simulated seconds are those of the last commit that still carried the
row-at-a-time nodes, that ``batch_size`` plumbs through the exec nodes,
and that conjunct vectorization falls back to the scalar interpreter
whenever it cannot reproduce its semantics exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import ClusterSpec, CostModel
from repro.core.operators import SpatialOperator
from repro.core.probe import naive_spatial_join
from repro.errors import ImpalaError
from repro.geometry import wkt_loads
from repro.hdfs import SimulatedHDFS, read_lines, write_text
from repro.impala import ColumnType, ImpalaBackend
from repro.impala.ast_nodes import BinaryOp, ColumnRef, Literal
from repro.impala.exec_nodes import FilterNode, InstanceContext
from repro.impala.exprs import Slot, TupleDescriptor, vectorize_conjuncts
from repro.impala.rowbatch import BATCH_SIZE, RowBatch, batches_of
from tests.cluster.test_unit_columns import same_units, unit_columns
from tests.columnar.test_byte_identity import digest
from tests.core.test_probe import probe_with_cost


@pytest.fixture
def city():
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


QUERIES = [
    "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
    "WHERE ST_WITHIN(pnt.geom, poly.geom)",
    "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
    "WHERE ST_NEARESTD(pnt.geom, poly.geom, 5.0)",
    "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
    "WHERE ST_WITHIN(pnt.geom, poly.geom) AND poly.zone = 1",
    "SELECT id FROM pnt WHERE id < 25",
]


# Per query: the join it states as (operator, radius, poly.zone filter), and
# the digest of its rows in emission order (one for both engines) with its
# (fast, slow) engine simulated seconds before the scalar nodes' deletion.
PINNED = [
    ((SpatialOperator.WITHIN, 0.0, None),
     ("c3c9277d41372472", (17.1355106, 19.154743399999997))),
    ((SpatialOperator.NEAREST_D, 5.0, None),
     ("4cb074aac3ea1571", (17.775158599999997, 21.327512599999995))),
    ((SpatialOperator.WITHIN, 0.0, 1),
     ("81c91a7ae66c9de6", (12.218383640000004, 13.078427240000003))),
    (None, ("c0d582a331a1ce45", (2.3483183999999997, 2.3483183999999997))),
]


def naive_rows(city, operator, radius, zone):
    pnt = [line.split("\t") for line in read_lines(city, "/pnt.txt")]
    poly = [line.split("\t") for line in read_lines(city, "/poly.txt")]
    return naive_spatial_join(
        [(int(i), wkt_loads(g)) for i, g in pnt],
        [(int(i), wkt_loads(g)) for i, g, z in poly if zone in (None, int(z))],
        operator,
        radius,
    )


class TestRowsAndRuntimePinned:
    @pytest.mark.parametrize("query", range(len(QUERIES)))
    @pytest.mark.parametrize("engine", ["fast", "slow"])
    def test_rows_match_naive_and_runtime_pinned(self, city, query, engine):
        join, (rows, seconds) = PINNED[query]
        result = make_backend(city, engine=engine).execute(QUERIES[query])
        expected = naive_rows(city, *join) if join else [(i,) for i in range(25)]
        assert sorted(result.rows) == sorted(expected)
        assert digest(result.rows) == rows  # values AND order
        assert result.simulated_seconds == seconds[engine == "slow"]

    def test_custom_cost_model_runtime_pinned(self, city):
        model = CostModel(work_scale=72_000.0)
        result = make_backend(city, cost_model=model).execute(QUERIES[0])
        assert digest(result.rows) == PINNED[0][1][0]  # the cost model moves no row
        assert result.simulated_seconds == 36.8072768


class TestBulkParsedRowBatches:
    """A row batch's WKT column is parsed once; a mixed batch keeps and
    drops exactly the rows `WKTReader.try_read` would, row by row."""

    ODDITIES = [
        "POLYGON ((10 10, 30 10, 30 30, 10 30, 10 10))", "LINESTRING (0 0, 1",
        "LINESTRING (0 0)", "POINT (nan 2)", "POINT (1_0 2)", "POINT EMPTY",
        "point(5 5)", "POINT (1e1 +2.5E1)", "POINT (1 2 3)",
    ]

    def mixed_lines(self):
        rng = random.Random(5)
        lines = []
        for i in range(200):
            if i % 16 == 7 and i // 16 < len(self.ODDITIES):
                lines.append(f"{i}\t{self.ODDITIES[i // 16]}")
            elif i % 50 == 49:
                lines.append(f"line {i} has no tab")  # the scanner's to skip
            else:
                lines.append(f"{i}\tPOINT ({rng.uniform(0, 100)!r} {rng.uniform(0, 100)!r})")
        return lines

    def test_probe_wkt_rows_against_the_scalar_reader(self, city):
        from repro.cluster.model import Resource
        from repro.core.isp import build_spatial_index
        from repro.geometry.wkt import WKTReader
        from tests.core.test_pair_probes import wkt_matches

        index, _, _ = build_spatial_index(
            [tuple(line.split("\t")) for line in read_lines(city, "/poly.txt")],
            1, SpatialOperator.WITHIN, 0.0,
        )
        texts = [line.split("\t")[1] for line in self.mixed_lines() if "\t" in line]
        texts[3:3] = [None, 7]  # NULL / mistyped column values
        matches, units = wkt_matches(index, texts)
        reference, _, _ = build_spatial_index(
            [tuple(line.split("\t")) for line in read_lines(city, "/poly.txt")],
            1, SpatialOperator.WITHIN, 0.0,
        )
        want_units = []
        for text, row_matches in zip(texts, matches):
            geometry = WKTReader().try_read(text)
            if geometry is None:
                assert row_matches is None
                want_units.append(
                    {Resource.WKT_BYTES: float(len(text))} if isinstance(text, str) else {}
                )
                continue
            want_matches, want_row = (
                ([], {Resource.INDEX_VISIT: 0.0, Resource.ROWS_OUT: 0.0})
                if geometry.is_empty
                else probe_with_cost(reference, geometry)
            )
            assert row_matches == want_matches
            want_units.append({Resource.WKT_BYTES: float(len(text)), **want_row})
        assert same_units(units, unit_columns(want_units))
        assert next(iter(units)) == Resource.WKT_BYTES  # the charge order
        assert index.engine.counters == reference.engine.counters

    def test_build_side_drops_are_counted(self):
        from repro.core.isp import build_spatial_index

        rows = [(0, "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"), (1, None), (2, "POINT (nan 2)"),
                (3, "POLYGON ((0 0, 1 1, 0 0))"), (4, "LINESTRING (0 0)"), (5, "nope")]
        index, wkt_bytes, dropped = build_spatial_index(rows, 1, SpatialOperator.WITHIN, 0.0)
        assert (len(index), dropped) == (1, 5)
        assert wkt_bytes == sum(len(text) for _, text in rows if text is not None)

    def test_mixed_table_joins_like_the_scalar_reader(self, city):
        from repro.geometry.wkt import WKTReader
        from repro.obs.registry import collecting

        lines = self.mixed_lines()
        write_text(city, "/mixed.txt", lines)
        backend = make_backend(city)
        backend.metastore.create_table(
            "mixed", [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING)], "/mixed.txt"
        )
        kept = []
        unparsed = 0
        for line in lines:
            if "\t" in line:
                record_id, text = line.split("\t")
                geometry = WKTReader().try_read(text)
                if geometry is not None:
                    kept.append((int(record_id), geometry))
                else:
                    unparsed += 1
        right = [
            (int(line.split("\t")[0]), wkt_loads(line.split("\t")[1]))
            for line in read_lines(city, "/poly.txt")
        ]
        with collecting() as registry:
            result = backend.execute(
                "SELECT mixed.id, poly.id FROM mixed SPATIAL JOIN poly "
                "WHERE ST_WITHIN(mixed.geom, poly.geom)"
            )
            # The scanner's skips and the join node's WKT drops, alike.
            assert registry.counter("impala.rows_skipped") == float(
                sum("\t" not in line for line in lines) + unparsed
            )
        assert unparsed == 5
        assert sorted(result.rows) == sorted(
            naive_spatial_join(kept, right, SpatialOperator.WITHIN)
        )


class TestBatchSizePlumbing:
    def test_small_batch_same_rows(self, city):
        sql = QUERIES[0]
        default = make_backend(city).execute(sql)
        small = make_backend(city, batch_size=7).execute(sql)
        assert small.rows == default.rows

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "1024"])
    def test_backend_rejects_bad_batch_size(self, city, bad):
        with pytest.raises(ImpalaError):
            ImpalaBackend(ClusterSpec(1, 2), hdfs=city, batch_size=bad)

    def test_rowbatch_capacity_validation(self):
        with pytest.raises(ImpalaError):
            RowBatch(capacity=0)

    def test_batches_of_validation(self):
        with pytest.raises(ImpalaError):
            list(batches_of([(1,)], batch_size=0))
        batches = list(batches_of([(i,) for i in range(10)], batch_size=4))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert all(b.capacity == 4 for b in batches)

    def test_rowbatch_columns(self):
        batch = RowBatch([(1, "a"), (2, "b")])
        assert batch.column(0) == [1, 2]
        assert batch.columns() == [[1, 2], ["a", "b"]]
        assert RowBatch().columns() == []


class _StubChild:
    def __init__(self, batches):
        self._batches = batches

    def batches(self):
        yield from self._batches


def _ctx() -> InstanceContext:
    return InstanceContext(node_id=0, cores=4, cost_model=CostModel())


class TestFilterNodeVectorized:
    ROWS = [(i, float(i) * 0.5) for i in range(10)]

    def test_mask_matches_scalar_predicate(self):
        predicate = lambda row: row[0] < 5  # noqa: E731
        child = _StubChild([RowBatch(list(self.ROWS), capacity=BATCH_SIZE)])
        scalar_node = FilterNode(_ctx(), child, predicate)
        scalar = [r for b in scalar_node.batches() for r in b]

        child = _StubChild([RowBatch(list(self.ROWS), capacity=BATCH_SIZE)])
        vector_node = FilterNode(
            _ctx(),
            child,
            predicate,
            vector_predicate=lambda cols: [v < 5 for v in cols[0]],
        )
        assert [r for b in vector_node.batches() for r in b] == scalar

    def test_none_mask_falls_back_to_scalar(self):
        calls = []

        def predicate(row):
            calls.append(row)
            return row[0] < 5

        child = _StubChild([RowBatch(list(self.ROWS), capacity=BATCH_SIZE)])
        node = FilterNode(_ctx(), child, predicate, vector_predicate=lambda cols: None)
        kept = [r for b in node.batches() for r in b]
        assert kept == self.ROWS[:5]
        assert len(calls) == len(self.ROWS)  # every row went through the scalar path

    def test_filter_charges_no_time(self):
        ctx = _ctx()
        child = _StubChild([RowBatch(list(self.ROWS), capacity=BATCH_SIZE)])
        node = FilterNode(
            ctx,
            child,
            lambda row: True,
            vector_predicate=lambda cols: [True] * len(cols[0]),
        )
        list(node.batches())
        assert ctx.serial_seconds == 0.0
        assert ctx.parallel_seconds == 0.0


class TestVectorizeConjuncts:
    DESCRIPTOR = TupleDescriptor([Slot("t", "id"), Slot("t", "name")])

    def conjunct(self, op, column="id", value=5):
        return BinaryOp(op, ColumnRef("t", column), Literal(value))

    def test_numeric_comparisons_vectorize(self):
        for op in ("=", "<>", "<", "<=", ">", ">="):
            vector = vectorize_conjuncts([self.conjunct(op)], self.DESCRIPTOR)
            assert vector is not None
            mask = vector([[1, 5, 9], ["a", "b", "c"]])
            expected = {
                "=": [False, True, False],
                "<>": [True, False, True],
                "<": [True, False, False],
                "<=": [True, True, False],
                ">": [False, False, True],
                ">=": [False, True, True],
            }[op]
            assert list(mask) == expected

    def test_flipped_operands(self):
        conjunct = BinaryOp("<", Literal(5), ColumnRef("t", "id"))
        vector = vectorize_conjuncts([conjunct], self.DESCRIPTOR)
        assert list(vector([[1, 5, 9], ["a", "b", "c"]])) == [False, False, True]

    def test_multiple_conjuncts_and_together(self):
        vector = vectorize_conjuncts(
            [self.conjunct(">", value=2), self.conjunct("<", value=8)],
            self.DESCRIPTOR,
        )
        assert list(vector([[1, 5, 9], ["a", "b", "c"]])) == [False, True, False]

    def test_string_column_falls_back_at_runtime(self):
        # Vectorization compiles (the literal is numeric) but must bail at
        # runtime on a non-numeric column: numpy would happily coerce
        # digit-strings where the scalar interpreter raises.
        vector = vectorize_conjuncts(
            [self.conjunct("=", column="name")], self.DESCRIPTOR
        )
        assert vector([[1, 2, 3], ["7", "8", "9"]]) is None

    def test_non_numeric_literal_not_vectorized(self):
        conjunct = self.conjunct("=", column="name", value="abc")
        assert vectorize_conjuncts([conjunct], self.DESCRIPTOR) is None

    def test_bool_literal_not_vectorized(self):
        assert vectorize_conjuncts([self.conjunct("=", value=True)],
                                   self.DESCRIPTOR) is None

    def test_unsupported_shape_not_vectorized(self):
        both_columns = BinaryOp("<", ColumnRef("t", "id"), ColumnRef("t", "id"))
        assert vectorize_conjuncts([both_columns], self.DESCRIPTOR) is None
        arithmetic = BinaryOp(
            "<",
            BinaryOp("+", ColumnRef("t", "id"), Literal(1)),
            Literal(5),
        )
        assert vectorize_conjuncts([arithmetic], self.DESCRIPTOR) is None

    def test_empty_conjuncts_not_vectorized(self):
        assert vectorize_conjuncts([], self.DESCRIPTOR) is None
