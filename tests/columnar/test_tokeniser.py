"""The run-wise WKT tokeniser against the per-row reader.

``parse_wkt_column`` takes runs of point and line rows with one regex
match each, one translate + split over the runs' text and one float
conversion; every other row is the reader's.  Whatever the route, the
column must be byte for byte ``GeometryColumn.from_entries`` over
``WKTReader.try_read`` of each row, and ``dropped`` the rows the reader
refuses or the column cannot hold.
"""

import re

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.columnar import io as io_module
from repro.columnar.column import GeometryColumn
from repro.columnar.io import parse_wkt_column
from repro.geometry.wkt import WKTReader

_GOOD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1", "+1", "-1", "1.", ".5", "-.5", "+.5e1", "1E-5", "00012.50", "-0"]),
)
# Numbers float() reads as inf or -0.0 (a line holding one is the
# reader's), and runs of number characters it refuses.
_EDGE = st.sampled_from(["1e999", "-1e999", "-0.0", "-0", "1e-999"])
_BAD = st.sampled_from(["1e", "+-1", "--1", "1.2.3", ".", "-", "e5", "1e5.5"])
_NUMBER = st.one_of(_GOOD, _GOOD, _GOOD, _EDGE, _BAD)
_POINT_TAG = st.sampled_from(["POINT"] * 6 + ["point", "Point", "pOiNt"])
_GAP = st.sampled_from([""] * 4 + [" ", "  ", "\t", "\r", " ", " ", "\n"])
_SPLIT = st.sampled_from([" "] * 6 + ["  ", "\t", " ", "\n"])


@st.composite
def _points(draw):
    """A point row: usually the writer's spelling, else any letter case
    with any whitespace — a newline among it now and then."""
    x, y = draw(_NUMBER), draw(_NUMBER)
    if draw(st.booleans()):
        return f"POINT ({x} {y})"
    gaps = [draw(_GAP) for _ in range(5)]
    return f"{gaps[0]}{draw(_POINT_TAG)}{gaps[1]}({gaps[2]}{x}{draw(_SPLIT)}{y}{gaps[3]}){gaps[4]}"


@st.composite
def _lines(draw):
    """A line row: usually the writer's spelling, else an odd one."""
    count = draw(st.integers(2, 5))
    coords = [f"{draw(_NUMBER)} {draw(_NUMBER)}" for _ in range(count)]
    comma = draw(st.sampled_from([", ", ",", " , "]))
    body = comma.join(coords)
    tag = draw(st.sampled_from(["LINESTRING"] * 6 + ["linestring", "LINESTRING\t", "LINESTRING\n"]))
    pad = draw(st.sampled_from(["", "", " ", "\n"]))
    return f"{pad}{tag} ({body}){pad}"


_OTHERS = st.sampled_from(
    [
        "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))", "POLYGON ((0 0, 1 1, 0 0))",
        "MULTIPOINT (1 2, 3 4)", "LINESTRING (0 0)", "LINESTRING EMPTY", "POINT EMPTY",
        "POINT (1 2 3)", "GEOMETRYCOLLECTION (POINT (1 2))", "POINT (1 2)\nPOINT (3 4)",
        "garbage", "", "\n", None, 7, 2.5, b"POINT (1 2)", ("POINT (1 2)",),
    ]
)
_ROW = {"point": _points(), "line": _lines(), "other": _OTHERS}


@st.composite
def _batches(draw):
    """Runs of one kind of row after another: what a scan range holds."""
    rows = []
    for kind in draw(st.lists(st.sampled_from(sorted(_ROW)), max_size=6)):
        rows += draw(st.lists(_ROW[kind], min_size=1, max_size=6))
    return rows


def _bits(array) -> bytes:
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


def _assert_reader_column(rows: list) -> None:
    reader = WKTReader()
    scalar = [reader.try_read(row) for row in rows]
    kept = [(i, geometry) for i, geometry in enumerate(scalar) if GeometryColumn.holds(geometry)]
    column, dropped = parse_wkt_column(rows, list(range(len(rows))))
    assert dropped == [i for i, geometry in enumerate(scalar) if not GeometryColumn.holds(geometry)]
    reference = GeometryColumn.from_entries(kept)
    assert column.payloads() == reference.payloads()
    assert column.to_bytes() == reference.to_bytes()
    assert column.nbytes == reference.nbytes
    assert [_bits(b) for b in column.bounds()] == [_bits(b) for b in reference.bounds()]


class TestTokeniserAgainstTheReader:
    @settings(max_examples=400, deadline=None)
    @given(_batches())
    def test_runs_of_every_kind(self, rows):
        _assert_reader_column(rows)

    def test_empty_batches(self):
        _assert_reader_column([])
        column, dropped = parse_wkt_column([])
        assert len(column) == 0 and dropped == []
        _assert_reader_column([""])
        _assert_reader_column([None, 7])

    def test_edge_values_in_points_and_lines(self, monkeypatch):
        # inf and -0.0 stay in a point; a line holding one, and any row
        # holding a number float() refuses, is the reader's alone.
        seen = []
        monkeypatch.setattr(io_module, "_READER", _PatternSpy(io_module._READER, seen))
        for value in ["1e999", "-1e999", "-0.0", "1e", "+-1"]:
            rows = [
                "POINT (1 2)", f"POINT ({value} 3)", "POINT (4 5)",
                "LINESTRING (0 0, 1 1)", f"LINESTRING (0 0, {value} 1)", "LINESTRING (2 2, 3 3)",
                f"LINESTRING ({value} 0, 1 1)", "POINT (6 7)",
            ]
            for batch, reader_rows in [(rows, [4, 6]), (rows[3:6], [1])]:
                if value in ("1e", "+-1") and batch is rows:
                    reader_rows = [1, 4, 6]
                seen.clear()
                parse_wkt_column(batch)
                assert seen == [("try_read", batch[i]) for i in reader_rows]
                _assert_reader_column(batch)

    def test_text_with_its_own_newline_is_one_row(self):
        rows = ["POINT (1 2)", "POINT (3 4)\nPOINT (5 6)", "POINT\n(7 8)", "POINT (9 10)"]
        column, dropped = parse_wkt_column(rows, "abcd")
        assert dropped == [1] and column.payloads() == ["a", "c", "d"]
        _assert_reader_column(rows)


class _PatternSpy:
    """Records each method call on a compiled pattern (or the reader):
    its name and first argument."""

    def __init__(self, pattern: re.Pattern, calls: list):
        self._pattern, self._calls = pattern, calls

    def __getattr__(self, name):
        method = getattr(self._pattern, name)
        return lambda *args: self._calls.append((name, args[0])) or method(*args)


class TestRunsNotRows:
    def _calls(self, monkeypatch, rows) -> list:
        calls: list[str] = []
        for name, value in list(vars(io_module).items()):
            if isinstance(value, re.Pattern):
                monkeypatch.setattr(io_module, name, _PatternSpy(value, calls))
        monkeypatch.setattr(io_module, "_READER", _PatternSpy(io_module._READER, calls))
        column, dropped = parse_wkt_column(rows)
        assert dropped == [] and len(column) == len(rows)
        return [name for name, _ in calls]

    def test_a_clean_point_batch_is_one_match(self, monkeypatch):
        rows = [f"POINT ({i}.25 {-i}.5)" for i in range(14_000)]
        calls = self._calls(monkeypatch, rows)
        assert len(calls) <= 2 and set(calls) == {"match"}

    def test_a_clean_line_batch_is_two_matches(self, monkeypatch):
        rows = [f"LINESTRING ({i} 0, {i}.5 1, 2 {i})" for i in range(2_000)]
        calls = self._calls(monkeypatch, rows)
        assert calls == ["match", "match"]  # the point run refuses, the line run takes all
