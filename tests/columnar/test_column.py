"""GeometryColumn round-trip and slicing properties.

The binary encoding must reproduce every geometry bit for bit (types,
coordinates, ring/part structure, emptiness) and every payload value,
including the edge cases: empty columns, single points, multi-ring
polygons, empty members inside multi geometries, None-mixed payloads,
and negative ints in the zigzag-varint pair lane.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import GeometryColumn, column_from_wkt, parse_wkt_column
from repro.errors import GeometryError, WKTParseError
from repro.geometry.linestring import LineString
from repro.geometry.multi import MultiLineString, MultiPoint, MultiPolygon
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.wkt import WKTReader, dumps, loads


def square(x, y, side=1.0):
    return Polygon([(x, y), (x + side, y), (x + side, y + side), (x, y + side)])


def donut(x, y):
    shell = [(x, y), (x + 10, y), (x + 10, y + 10), (x, y + 10)]
    hole1 = [(x + 1, y + 1), (x + 2, y + 1), (x + 2, y + 2), (x + 1, y + 2)]
    hole2 = [(x + 5, y + 5), (x + 7, y + 5), (x + 7, y + 7), (x + 5, y + 7)]
    return Polygon(shell, [hole1, hole2])


def assert_geometry_equal(a, b):
    assert type(a) is type(b)
    assert a.is_empty == b.is_empty
    if not a.is_empty:
        assert a.wkb() == b.wkb()


def roundtrip(column: GeometryColumn) -> GeometryColumn:
    blob = column.to_bytes()
    decoded = GeometryColumn.from_bytes(blob)
    assert len(decoded) == len(column)
    for i in range(len(column)):
        assert decoded.payload(i) == column.payload(i)
        assert_geometry_equal(decoded.geometry(i), column.geometry(i))
    return decoded


class TestRoundTrip:
    def test_empty_column(self):
        column = GeometryColumn.from_entries([])
        assert len(column) == 0
        decoded = roundtrip(column)
        assert list(decoded.entries()) == []

    def test_single_point(self):
        column = GeometryColumn.from_entries([(7, Point(1.5, -2.25))])
        decoded = roundtrip(column)
        assert decoded.payload(0) == 7
        assert decoded.geometry(0).x == 1.5

    def test_points_use_compact_layout(self):
        column = GeometryColumn.from_entries(
            [(i, Point(float(i), float(-i))) for i in range(5)]
        )
        blob = column.to_bytes()
        assert blob[:4] == b"GCOL"
        assert blob[5] & 0x01  # compact points flag
        roundtrip(column)

    def test_mixed_types_do_not_use_compact_layout(self):
        column = GeometryColumn.from_entries(
            [(0, Point(0.0, 0.0)), (1, square(3, 3))]
        )
        blob = column.to_bytes()
        assert not blob[5] & 0x01
        roundtrip(column)

    def test_multi_ring_polygons(self):
        column = GeometryColumn.from_entries(
            [(0, donut(0, 0)), (1, square(20, 20)), (2, donut(-50, 12.5))]
        )
        decoded = roundtrip(column)
        assert len(decoded.geometry(0).holes) == 2
        assert len(decoded.geometry(1).holes) == 0

    def test_every_geometry_type(self):
        geometries = [
            Point(3.0, 4.0),
            LineString([(0, 0), (1, 1), (2, 0)]),
            donut(5, 5),
            MultiPoint([Point(0, 0), Point(1, 2)]),
            MultiLineString(
                [LineString([(0, 0), (1, 0)]), LineString([(5, 5), (6, 6), (7, 5)])]
            ),
            MultiPolygon([square(0, 0), donut(100, 100)]),
        ]
        column = GeometryColumn.from_geometries(geometries)
        roundtrip(column)

    def test_empty_geometries_and_empty_members(self):
        geometries = [
            Point.empty(),
            Polygon.empty(),
            LineString.empty(),
            MultiPoint([Point(1, 1), Point.empty(), Point(2, 2)]),
            MultiPolygon([Polygon.empty(), square(0, 0)]),
            Point(9, 9),
        ]
        column = GeometryColumn.from_geometries(geometries)
        decoded = roundtrip(column)
        assert decoded.geometry(0).is_empty
        parts = decoded.geometry(3).parts
        assert [p.is_empty for p in parts] == [False, True, False]

    def test_coordinates_bit_identical(self):
        xs = [0.1, 1e-300, 1e300, -0.0, 3.141592653589793]
        column = GeometryColumn.from_geometries([Point(x, -x) for x in xs])
        decoded = GeometryColumn.from_bytes(column.to_bytes())
        for i, x in enumerate(xs):
            got = decoded.geometry(i)
            assert (got.x, got.y) == (x, -x)
        assert np.signbit(decoded.geometry(3).x)

    def test_unsupported_types_raise(self):
        from repro.geometry.multi import GeometryCollection

        collection = GeometryCollection([Point(0, 0)])
        assert not GeometryColumn.holds(collection)
        with pytest.raises(GeometryError, match="row 1: .* GeometryCollection"):
            GeometryColumn.from_geometries([Point(1, 1), collection])
        with pytest.raises(GeometryError, match="row 0: .* NoneType"):
            GeometryColumn.from_entries([(1, None)])
        with pytest.raises(GeometryError, match="row 0: .* str"):
            GeometryColumn.from_entries([(1, "POINT (1 2)")])


class TestPayloadLanes:
    @pytest.mark.parametrize(
        "payloads",
        [
            [None, None, None],
            [1, 2, 3],
            [-5, 0, 2**62],
            ["a", "", "héllo wörld"],
            [(0, 1), (2, 3), (4, 5)],
            [(-1, -2), (3, -4), (-(2**40), 2**40)],
            [None, 1, 2],  # mixed None/int: no compact lane, pickled
            [(1, 2), None, (3, 4)],
            [1, "a", 2.5],
            [{"k": 1}, [1, 2], (1, 2, 3)],
            [2**100, 1, 2],  # beyond int64: object lane
            [(2**80, 1), (0, 0)],
        ],
    )
    def test_payload_round_trip(self, payloads):
        geometries = [Point(float(i), 0.0) for i in range(len(payloads))]
        column = GeometryColumn.from_entries(zip(payloads, geometries))
        decoded = GeometryColumn.from_bytes(column.to_bytes())
        assert decoded.payloads() == payloads

    def test_bool_payloads_stay_bool(self):
        # bool is an int subclass; the int64 lane must not swallow it.
        column = GeometryColumn.from_entries(
            [(True, Point(0, 0)), (False, Point(1, 1))]
        )
        decoded = GeometryColumn.from_bytes(column.to_bytes())
        assert decoded.payloads() == [True, False]
        assert all(type(p) is bool for p in decoded.payloads())

    def test_int_pair_lane_is_compact(self):
        n = 500
        column = GeometryColumn.from_entries(
            ((i % 16, i), Point(float(i), float(i))) for i in range(n)
        )
        pickled = pickle.dumps(
            [((i % 16, i), (float(i), float(i))) for i in range(n)]
        )
        assert len(column.to_bytes()) < len(pickled) + 16 * n


class TestSlicing:
    def make(self, n=20):
        entries = [(i, Point(float(i), float(2 * i))) for i in range(n)]
        entries[3] = (3, donut(30, 30))
        entries[11] = (11, LineString([(0, 0), (5, 5)]))
        return GeometryColumn.from_entries(entries)

    def test_take_shares_buffers(self):
        column = self.make()
        view = column.take([3, 5, 11])
        assert view._data is column._data  # no coordinate copies
        assert len(view) == 3
        assert view.payload(0) == 3
        assert_geometry_equal(view.geometry(0), column.geometry(3))

    def test_take_of_take_composes(self):
        column = self.make()
        view = column.take([1, 3, 5, 7, 9]).take([1, 3])
        assert [view.payload(i) for i in range(len(view))] == [3, 7]

    def test_slice_matches_take(self):
        column = self.make()
        a = column.slice(4, 9)
        b = column.take(range(4, 9))
        assert [a.payload(i) for i in range(len(a))] == [
            b.payload(i) for i in range(len(b))
        ]

    def test_sliced_encoding_equals_compacted(self):
        column = self.make()
        view = column.take([0, 3, 11, 17])
        decoded = GeometryColumn.from_bytes(view.to_bytes())
        assert decoded.payloads() == view.payloads()
        for i in range(len(view)):
            assert_geometry_equal(decoded.geometry(i), view.geometry(i))

    def test_bounds_follow_selection(self):
        column = self.make()
        view = column.take([3])
        min_x, min_y, max_x, max_y = view.bounds()
        assert (min_x[0], min_y[0], max_x[0], max_y[0]) == (30.0, 30.0, 40.0, 40.0)

    def test_from_entries_preserves_identity(self):
        # geometry(i) must return the original object, keeping
        # identity-keyed prepared-geometry caches effective.
        entries = [(i, Point(float(i), 0.0)) for i in range(4)]
        column = GeometryColumn.from_entries(entries)
        for i, (_, g) in enumerate(entries):
            assert column.geometry(i) is g


class TestSizingAndPickle:
    def test_nbytes_matches_encoding(self):
        for column in (
            GeometryColumn.from_geometries([Point(1, 2), Point(3, 4)]),
            GeometryColumn.from_geometries([donut(0, 0), Point(1, 1)]),
            GeometryColumn.from_entries([]),
        ):
            # All-None payloads encode to zero payload bytes, so the full
            # encoding is the geometry buffers plus the 4-byte payload frame.
            assert len(column.to_bytes()) == column.nbytes + 4

    def test_nbytes_matches_encoding_of_a_view(self):
        mixed = parse_wkt_column(["POINT (1 2)", "POINT (3 4)", "LINESTRING (0 0, 1 1)"])[0]
        for view, compact in ((mixed.slice(0, 2), True), (mixed.take([]), True),
                              (mixed.slice(1, 3), False)):
            blob = view.to_bytes()
            assert bool(blob[5] & 0x01) is compact
            assert len(blob) == view.nbytes + 4
        assert mixed.slice(0, 2).nbytes == 12 + 2 * 16

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                [Point(1.5, -2.0), Point(0.0, 3.0), Point.empty(), LineString.empty(),
                 LineString([(0, 0), (1, 1), (2, 0)]), square(4, 4), donut(0, 0),
                 Polygon.empty(), MultiPoint([Point(1, 1), Point(2, 2)]), MultiPoint([]),
                 MultiLineString([LineString([(0, 0), (1, 1)]), LineString.empty()]),
                 MultiPolygon([square(0, 0), Polygon.empty()])]
            ),
            max_size=12,
        ),
        st.data(),
    )
    def test_nbytes_matches_encoding_of_any_selection(self, geometries, data):
        column = GeometryColumn.from_geometries(geometries)
        rows = data.draw(st.lists(st.integers(0, max(0, len(column) - 1)), max_size=8)
                         if len(column) else st.just([]))
        for view in (column, column.take(rows), column.take(rows).take(range(0, len(rows), 2))):
            assert len(view.to_bytes()) == view.nbytes + 4
            assert view.compact().nbytes == view.nbytes

    def test_pickle_ships_binary_encoding(self):
        column = GeometryColumn.from_entries(
            [(i, Point(float(i), float(i))) for i in range(100)]
        )
        revived = pickle.loads(pickle.dumps(column))
        assert revived.payloads() == column.payloads()
        for i in range(len(column)):
            assert_geometry_equal(revived.geometry(i), column.geometry(i))
        objects = pickle.dumps([column.entry(i) for i in range(len(column))])
        assert len(pickle.dumps(column)) < len(objects)

    def test_bad_magic_and_version_rejected(self):
        column = GeometryColumn.from_geometries([Point(0, 0)])
        blob = bytearray(column.to_bytes())
        with pytest.raises(ValueError):
            GeometryColumn.from_bytes(b"XXXX" + bytes(blob[4:]))
        blob[4] = 99  # unsupported version
        with pytest.raises(ValueError):
            GeometryColumn.from_bytes(bytes(blob))


class TestBulkWKT:
    def test_point_fast_path_bit_identical_to_scalar(self):
        texts = [
            "POINT (1.5 2.5)",
            "POINT(-73.98765432109876 40.12345678901234)",
            "point (1e-300 -0.0)",
        ]
        column = column_from_wkt(texts, payloads=[0, 1, 2])
        for i, text in enumerate(texts):
            scalar = loads(text)
            got = column.geometry(i)
            assert got.x == scalar.x and got.y == scalar.y
        assert column.payloads() == [0, 1, 2]

    def test_fallback_handles_mixed_wkt(self):
        texts = [dumps(donut(0, 0)), "POINT (1 2)", dumps(square(5, 5))]
        column = column_from_wkt(texts)
        assert len(column) == 3
        assert len(column.geometry(0).holes) == 2

    def test_geometry_collection_raises(self):
        texts = ["POINT (0 0)", "GEOMETRYCOLLECTION (POINT (1 2))", "garbage"]
        with pytest.raises(GeometryError, match="row 1: .* GeometryCollection") as info:
            column_from_wkt(texts)
        assert not isinstance(info.value, WKTParseError)
        # The lenient door reports it like the malformed row beside it.
        column, dropped = parse_wkt_column(texts, "abc")
        assert dropped == [1, 2] and column.payloads() == ["a"]

    def test_payload_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            column_from_wkt(["POINT (1 2)"], payloads=[1, 2])

    # Strings numpy's (= Python's) float() reads more liberally than the
    # WKT tokenizer, or refuses: a `\S+` capture took the first two for
    # (10, 2) and (1, 2), and let the last three abort the whole batch
    # with a bare ValueError.
    @pytest.mark.parametrize(
        "bad",
        ["POINT (1_0 2)", "POINT (\uff11 2)", "POINT (1,5 2)", "POINT (0x10 2)", "POINT (1e 2)"],
    )
    def test_number_capture_is_the_tokenizer_s(self, bad):
        with pytest.raises(WKTParseError):
            loads(bad)
        texts = ["POINT (0 0.5)", bad, "POINT (3 4)"]
        with pytest.raises(WKTParseError):
            column_from_wkt(texts)
        parsed, dropped = parse_wkt_column(texts, ["a", "b", "c"])
        assert dropped == [1]
        assert isinstance(parsed, GeometryColumn)  # its neighbours still parse
        assert list(parsed.entries()) == [("a", Point(0, 0.5)), ("c", Point(3, 4))]

    def test_non_point_batch_comes_back_as_entries(self):
        texts = ["POINT (1 2)", dumps(square(5, 5)), "LINESTRING (0 0", "POINT EMPTY"]
        parsed, dropped = parse_wkt_column(texts, [10, 11, 12, 13])
        assert dropped == [2]
        entries = list(parsed.entries())
        assert [payload for payload, _ in entries] == [10, 11, 13]
        assert [type(g) for _, g in entries] == [Point, Polygon, Point]
        assert entries[2][1].is_empty

    def test_empty_batch(self):
        parsed, dropped = parse_wkt_column([])
        assert len(parsed) == 0 and dropped == []


_GOOD_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(
        ["1", "+1", "-1", "1.", ".5", "-.5", "+.5e1", "1e5", "1E5", "1e+5", "1E-5",
         "-0.0", "-0", "0", "1e999", "-1e999", "1e-999", "00012.50"]
    ),
)
_ODD_NUMBERS = st.sampled_from(
    ["inf", "-inf", "Infinity", "infinity", "nan", "NaN", "1_0", "\uff11", "1,5", "0x10",
     "1e", "e5", "E", "+-1", "--1", "1.2.3", ".", "-", "+", "1e5.5", "1 2", "", "1d5", "\u0661"]
)
_NUMBERS = st.one_of(_GOOD_NUMBERS, _GOOD_NUMBERS, _ODD_NUMBERS)
_SPACE = st.sampled_from(["", " ", "  ", "\t", "\n", "\r\n", "\u00a0", "\x1c", "\u2003"])
# (what the grammar takes, what it might be handed instead) per slot of
# ``<ws>POINT<ws>(<ws>x<ws+>y<ws>)<ws>``.
_SLOTS = [
    (_SPACE, st.sampled_from(["x", "("])),
    (st.sampled_from(["POINT", "point", "Point", "pOiNt", "PO\u0131NT"]),
     st.sampled_from(["POINTZ", "POINT Z", "P\u0130NT", "POINT EMPTY", "POIN",
                      "MULTIPOINT", "LINESTRING", ""])),
    (_SPACE, st.sampled_from(["_", "EMPTY"])),
    (st.just("("), st.sampled_from(["((", "", "[", "()"])),
    (_SPACE, st.just("+ ")),
    (_GOOD_NUMBERS, _ODD_NUMBERS),
    (st.sampled_from([" ", "  ", "\t", "\n ", "\u00a0"]), st.sampled_from(["", ",", ", "])),
    (_GOOD_NUMBERS, _ODD_NUMBERS),
    (_SPACE, st.sampled_from([" 3", ", 3 4", " z"])),
    (st.just(")"), st.sampled_from(["))", "", "]"])),
    (_SPACE, st.sampled_from(["x", " POINT (1 2)", ")", " 7", ","])),
]


@st.composite
def _point_rows(draw):
    """A point row in any accepted spelling, with at most one slot odd."""
    odd = draw(st.integers(-len(_SLOTS), len(_SLOTS) - 1))  # negative: none
    return "".join(
        draw(oddity if slot == odd else accepted)
        for slot, (accepted, oddity) in enumerate(_SLOTS)
    )


_POINT_ROWS = _point_rows()
_OTHER_ROWS = st.sampled_from(
    [
        "POINT (1 2)", "POINT(-73.98765432109876 40.12345678901234)",
        "POINT EMPTY", "POINT (1 2 3)", "POINT Z (1 2 3)", "POINT (nan 2)", "POINT (inf 2)",
        "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))", "POLYGON ((0 0, 1 1, 0 0))",
        "LINESTRING (0 0, 1 1)", "LINESTRING (0 0, 1", "LINESTRING (0 0)",
        "MULTIPOINT (1 2, 3 4)", "GEOMETRYCOLLECTION (POINT (1 2))", "garbage", "",
        None, 7, 2.5, b"POINT (1 2)", ("POINT (1 2)",),
    ]
)


def _same_geometry(a, b) -> bool:
    if type(a) is not type(b) or a.is_empty != b.is_empty:
        return False
    if isinstance(a, Point) and not a.is_empty:
        return (a.x.hex(), a.y.hex()) == (b.x.hex(), b.y.hex())
    return a == b


class TestBulkParserAgainstScalarReader:
    """`parse_wkt_column` == `WKTReader.try_read` applied row by row."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_POINT_ROWS, _POINT_ROWS, _OTHER_ROWS), max_size=12))
    def test_accepts_rejects_and_coordinates(self, rows):
        reader = WKTReader()
        scalar = [reader.try_read(row) for row in rows]
        parsed, dropped = parse_wkt_column(rows, list(range(len(rows))))
        # Dropped: what the reader refuses, and what no join can evaluate.
        holds = GeometryColumn.holds
        assert dropped == [i for i, geometry in enumerate(scalar) if not holds(geometry)]
        kept = [(i, geometry) for i, geometry in enumerate(scalar) if holds(geometry)]
        got = list(parsed.entries())
        assert [payload for payload, _ in got] == [i for i, _ in kept]
        for (_, geometry), (_, want) in zip(got, kept):
            assert _same_geometry(geometry, want)
        # The strict wrapper raises iff a row was dropped: the scalar
        # reader's error, or a GeometryError naming an unsupported type.
        if dropped:
            with pytest.raises(GeometryError):
                column_from_wkt(rows)
        else:
            assert len(column_from_wkt(rows)) == len(rows)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_NUMBERS, _NUMBERS), min_size=1, max_size=20))
    def test_number_forms_bit_identical(self, pairs):
        rows = [f"POINT ({x} {y})" for x, y in pairs]
        reader = WKTReader()
        scalar = [reader.try_read(row) for row in rows]
        parsed, dropped = parse_wkt_column(rows)
        assert dropped == [i for i, geometry in enumerate(scalar) if geometry is None]
        for (_, geometry), want in zip(parsed.entries(), [g for g in scalar if g is not None]):
            assert _same_geometry(geometry, want)


def _bits(array) -> bytes:
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


def _assert_same_buffers(column: GeometryColumn, kept) -> None:
    """``column`` is byte for byte the column of the reader's objects."""
    reference = GeometryColumn.from_entries(kept)
    assert column.nbytes == reference.nbytes
    assert column.to_bytes() == reference.to_bytes()
    assert [_bits(b) for b in column.bounds()] == [_bits(b) for b in reference.bounds()]
    for (payload, geometry), (want_payload, want) in zip(column.entries(), kept):
        assert payload == want_payload and _same_geometry(geometry, want)
        if isinstance(want, LineString) and not want.is_empty:
            assert _bits(geometry.coords) == _bits(want.coords)


_LINE_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1", "+1", "-1", "1.", ".5", "1e5", "1E-5", "0", "-0.0", "-0", "00012.50",
                     "3883.226701", "1e-999"]),
)
_LINE_ODD_NUMBERS = st.sampled_from(
    ["1e999", "-1e999", "inf", "nan", "1_0", "\uff11", "0x10", "1e", "+-1", "1.2.3", ".", ""]
)
_PLAIN_SPACE = st.sampled_from(["", " ", "  "])
_LINE_TAGS = st.sampled_from(["LINESTRING"] * 14 + ["linestring", "LineString", "LINESTRING Z",
                                                   "LINESTRINGZ", "MULTILINESTRING", "LINE", ""])


@st.composite
def _line_rows(draw):
    """A LINESTRING row: usually one the bulk regex takes, sometimes odd in
    one way (spelling, whitespace, arity, a number, vertex count, tail)."""
    odd = draw(st.sampled_from([None] * 8 + ["number", "space", "arity", "tail", "single"]))
    count = 1 if odd == "single" else draw(st.integers(2, 6))
    number = st.one_of(_LINE_NUMBERS, _LINE_ODD_NUMBERS) if odd == "number" else _LINE_NUMBERS
    gap = st.sampled_from([" ", "  ", "\t", "\n", "\u00a0"]) if odd == "space" else st.sampled_from([" ", "  "])
    arity = st.sampled_from([1, 3]) if odd == "arity" else st.just(2)
    vertices = []
    for _ in range(count):
        vertices.append(draw(gap).join(draw(number) for _ in range(draw(arity))))
    comma = st.sampled_from([",", ", ", " , ", " ,"])
    body = vertices[0] + "".join(draw(comma) + vertex for vertex in vertices[1:])
    tail = draw(st.sampled_from(["x", ")", " 7", ", 1 2", " EMPTY"])) if odd == "tail" else ""
    pad = _SPACE if odd == "space" else _PLAIN_SPACE
    return (
        f"{draw(pad)}{draw(_LINE_TAGS)}{draw(pad)}({draw(pad)}{body}{draw(pad)}){draw(pad)}{tail}"
    )


_LINE_ROWS = _line_rows()


class TestBulkLineParserAgainstScalarReader:
    """The bulk LINESTRING path == ``WKTReader.try_read`` row by row: rows
    it takes are bit-identical in coords and bbox, everything else is the
    reader's to accept or drop."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_LINE_ROWS, _LINE_ROWS, _POINT_ROWS, _OTHER_ROWS), max_size=10))
    def test_accepts_rejects_and_buffers(self, rows):
        reader = WKTReader()
        scalar = [reader.try_read(row) for row in rows]
        parsed, dropped = parse_wkt_column(rows, list(range(len(rows))))
        holds = GeometryColumn.holds
        assert dropped == [i for i, geometry in enumerate(scalar) if not holds(geometry)]
        kept = [(i, geometry) for i, geometry in enumerate(scalar) if holds(geometry)]
        # Bulk rows and reader rows land in one column, byte for byte the
        # column of the reader's objects.
        _assert_same_buffers(parsed, kept)
        for (_, geometry), (_, want) in zip(parsed.entries(), kept):
            assert _same_geometry(geometry, want)

    @pytest.mark.parametrize(
        "row,kept",
        [
            ("LINESTRING (0 0)", False),  # one vertex
            ("LINESTRING EMPTY", True),
            ("LINESTRING (1e999 0, 1 1)", True),  # reads as inf
            ("LINESTRING (0 0, -1e999 1)", True),
            ("LINESTRING (-0.0 1, 0 2)", True),  # min(-0.0, 0.0) has no defined bits
            ("LINESTRING (1 2 3, 4 5 6)", False),
            ("linestring (0 0, 1 1)", True),
            ("LineString (0 0, 1 1)", True),
            ("LINESTRING\t(0 0, 1 1)", True),
            ("LINESTRING (0 0,\n1 1)", True),
            ("LINESTRING (0\t0, 1 1)", True),
            ("LINESTRING (0 0, 1 1) x", False),
            ("LINESTRING (0 0, 1 1))", False),
            ("LINESTRING (0 0, 1e 1)", False),
            ("LINESTRING (nan 0, 1 1)", False),
            (b"LINESTRING (0 0, 1 1)", False),
            (None, False),
            (7, False),
        ],
    )
    def test_everything_else_is_the_reader_s(self, monkeypatch, row, kept):
        from repro.columnar import io as io_module

        seen = []
        try_read = io_module._READER.try_read
        monkeypatch.setattr(
            io_module, "_READER",
            type("Spy", (), {"try_read": staticmethod(lambda t: seen.append(t) or try_read(t))}),
        )
        rows = ["LINESTRING (3 4, 5 6.5)", row, "POINT (1 2)"]
        parsed, dropped = parse_wkt_column(rows, ["a", "b", "c"])
        assert seen == [row]  # the reader saw that row and only that row
        assert dropped == ([] if kept else [1])
        if kept:
            assert parsed.payloads() == ["a", "b", "c"]
            assert _bits(parsed.geometry(0).coords) == _bits([[3, 4], [5, 6.5]])
            assert _same_geometry(parsed.geometry(1), WKTReader().read(row))
        else:
            _assert_same_buffers(
                parsed, [("a", loads(rows[0])), ("c", loads(rows[2]))]
            )

    def test_lines_only_batch_builds_no_geometry(self, monkeypatch):
        rows = [
            "LINESTRING (3883.226701 0, 3820.203834 833.333333, 3902.378215 1666.666667)",
            "LINESTRING(637.7322 5000,560.012104 6000)",
            " LINESTRING ( -1.5 +2 , 1e3 .5 ) ",
        ]
        kept = list(enumerate(loads(row) for row in rows))
        monkeypatch.setattr(LineString, "__init__", None)  # any construction raises
        parsed, dropped = parse_wkt_column(rows, [0, 1, 2])
        monkeypatch.undo()
        assert dropped == []
        assert not parsed._data.is_point_only
        _assert_same_buffers(parsed, kept)

    def test_mixed_point_line_polygon_batches(self):
        point, line, polygon = "POINT (1 2)", "LINESTRING (0 0, 1 1, 2 0)", dumps(square(5, 5))
        parsed, dropped = parse_wkt_column([line, point, line, "POINT (x y)"], [0, 1, 2, 3])
        assert dropped == [3] and isinstance(parsed, GeometryColumn)
        assert parsed.types_array().tolist() == [2, 1, 2]
        _assert_same_buffers(parsed, [(0, loads(line)), (1, loads(point)), (2, loads(line))])
        # A row for the object reader is packed beside the bulk rows.
        parsed, dropped = parse_wkt_column([point, line, polygon, line], "abcd")
        assert dropped == []
        assert [(p, type(g)) for p, g in parsed.entries()] == [
            ("a", Point), ("b", LineString), ("c", Polygon), ("d", LineString)
        ]
        _assert_same_buffers(parsed, list(zip("abcd", map(loads, [point, line, polygon, line]))))
        # Only points left once the odd line is sorted out: point-only again.
        parsed, dropped = parse_wkt_column([point, "LINESTRING (1e 0, 1 1)", point])
        assert dropped == [1] and parsed._data.is_point_only

    def test_bulk_rows_bypass_the_parse_memo(self):
        from repro.geometry.wkt import clear_wkt_cache, wkt_cache_stats

        long_line = "LINESTRING (" + ", ".join(f"{i}.25 {i}.5" for i in range(12)) + ")"
        assert len(long_line) >= 64  # memo-eligible for the reader
        clear_wkt_cache()
        polygon = dumps(donut(0, 0))
        loads(polygon)
        warm = wkt_cache_stats()
        parsed, _ = parse_wkt_column([long_line] * 5)
        assert isinstance(parsed, GeometryColumn) and len(parsed) == 5
        assert wkt_cache_stats() == warm  # neither read nor filled
        clear_wkt_cache()
