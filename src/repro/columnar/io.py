"""Bulk WKT → column conversion: the repo's one WKT-batch parser.

The paper stores every dataset as WKT on HDFS and parses it row by row;
here a partition / row batch is parsed at a time.  The hot cases — point
rows like the paper's taxi pickups, polyline rows like its LION streets —
are tokenised run by run: the batch is joined into one newline-ended
text, at each row start one anchored regex match takes every following
row of its kind (a clean batch is one match), and the runs' text makes
one ``str.translate`` + ``split`` and one ``np.asarray(..., float64)``.
A line's coordinate count is one more than its commas; ring offsets come
from their ``cumsum``, line bounding boxes from ``minimum/maximum.reduceat``.
Each run regex takes a strict subset of what
:class:`~repro.geometry.wkt.WKTReader` accepts, its numbers being runs of
the tokenizer's own number characters:

* ``POINT (x y)`` in any letter case, with any whitespace the tokenizer
  skips;
* ``LINESTRING (x y, x y, ...)`` as the repo's writer and the paper's
  datasets spell it — upper-case tag, plain spaces, two or more
  two-number coordinates — whose values are all finite and hold no
  negative zero (``1e999`` reads as inf, and a min / max reduction does
  not define ``min(-0.0, 0.0)``'s bits).

numpy's string→float64 conversion is Python's ``float``, so the column's
buffers, ``nbytes`` and ``to_bytes()`` are bit-identical to
``GeometryColumn.from_entries`` over the scalar reader's objects.  Every
other row — another type or spelling, a value that is no string or holds
a newline, a number ``float`` refuses — gets a per-row
``WKTReader.try_read`` and is packed beside the bulk rows or reported as
dropped.  Rows the bulk path takes neither read nor fill the reader's
parse memo, so a build side's polygons stay warm in it.
:func:`parse_wkt_column` is called by the Spark loader
(``read_geometry_pairs``), ISP-MC's build side
(``core.isp.build_spatial_index``) and probe
(``core.isp.probe_wkt_blocks``), both Impala and standalone, and the API
(``core.api``); :func:`column_from_wkt` is its strict wrapper.
"""

from __future__ import annotations

import re
from typing import Iterable, NoReturn, Sequence

import numpy as np

from repro.columnar.column import (
    GeometryColumn,
    _point_line_data,
    _point_only_data,
    _unsupported_row,
)
from repro.geometry.base import Geometry
from repro.geometry.linestring import LineString
from repro.geometry.point import Point
from repro.geometry.wkt import _NUMBER_CHARS, WKTReader

__all__ = ["column_from_wkt", "parse_wkt_column", "refuse_wkt_row"]

# Possessive throughout: no part gives back a character its neighbour
# could take.  A row ends in a newline; a gap is any other whitespace.
_NUMBER = "[" + "".join(re.escape(ch) for ch in sorted(_NUMBER_CHARS)) + "]++"
_GAP = r"[^\S\n]*+"
# Point rows: the writer's spelling (the quick try), else any case and gaps.
_POINT_RUN = re.compile(
    rf"(?:(?:POINT \({_NUMBER} {_NUMBER}\)|{_GAP}[Pp][Oo][Ii][Nn][Tt]{_GAP}\("
    rf"{_GAP}{_NUMBER}[^\S\n]++{_NUMBER}{_GAP}\){_GAP})\n)++"
)
# Line rows as the writer spells them; any other spelling is the reader's.
_LINE_RUN = re.compile(
    rf"(?: *+LINESTRING *+\( *+{_NUMBER} ++{_NUMBER}(?: *+, *+{_NUMBER} ++{_NUMBER})++"
    r" *+\) *+\n)++"
)
# A run's point tags and punctuation; line tags go first (E is a number).
_SPACED = str.maketrans("PpOoIiNnTt(),\n", " " * 14)
_READER = WKTReader()


def parse_wkt_column(
    texts: Iterable[object], payloads: Sequence[object] | None = None
) -> tuple[GeometryColumn, list[int]]:
    """Parse a batch of WKT values; returns ``(column, dropped)``.

    ``dropped`` lists, ascending, the positions no join can take: a value
    that is not a string or does not parse (``WKTReader.try_read``
    returns ``None`` for it), and one that parses to a type
    :meth:`GeometryColumn.holds` refuses (a ``GEOMETRYCOLLECTION``).
    Each caller applies the bad-row policy it already has — the engines'
    loaders count the drop, the API raises (:func:`refuse_wkt_row`).
    ``column`` holds the other rows in order with their payloads.  When
    the bulk path took every kept row no geometry object is built
    (point-only when they are all points); a batch that needed the reader
    is packed from its objects, which the column hands back as they are —
    a build side's polygons keep their identity and their warm parse memo.
    """
    texts = texts if isinstance(texts, list) else list(texts)
    n = len(texts)
    payloads = [None] * n if payloads is None else list(payloads)
    if len(payloads) != n:
        raise ValueError("payloads length does not match texts")
    pieces, lines, others = _runs(texts)
    body = "".join(pieces)
    del pieces
    sizes = None  # coordinates per bulk row, in row order; None: all points
    if lines:
        chars = np.frombuffer(body.encode(), dtype=np.uint8)
        commas = np.flatnonzero(chars == ord(","))
        sizes = np.diff(np.searchsorted(commas, np.flatnonzero(chars == ord("\n"))), prepend=0) + 1
        del chars
        body = body.replace("LINESTRING", "")
    values = _floats(body.translate(_SPACED).split())
    del body
    # A number ``float`` refuses (NaN) takes its row to the reader, and so
    # does a line's inf or negative zero: one reduceat finds the rows.
    bad = np.isnan(values)
    if sizes is not None:
        odd = np.isinf(values) | ((values == 0.0) & np.signbit(values))
        bad |= odd & np.repeat(sizes > 1, 2 * sizes)
    matched = np.ones(n, dtype=bool)
    matched[others] = False
    if bad.any():
        counts = np.ones(len(values) // 2, dtype=np.int64) if sizes is None else sizes
        row_bad = np.logical_or.reduceat(bad, 2 * (np.cumsum(counts) - counts))
        values = values[np.repeat(~row_bad, 2 * counts)]
        sizes = None if sizes is None else sizes[~row_bad]
        matched[np.flatnonzero(matched)[row_bad]] = False
        others = np.flatnonzero(~matched).tolist()
    coords = values.reshape(-1, 2)
    rows = range(n) if not others else np.flatnonzero(matched).tolist()
    geometries: dict[int, Geometry] = {}
    dropped: list[int] = []
    for i in others:
        geometry = _READER.try_read(texts[i])
        if GeometryColumn.holds(geometry):
            geometries[i] = geometry
        else:
            dropped.append(i)
    if not geometries:
        if dropped:
            payloads = [payloads[i] for i in rows]
        data = _point_only_data(coords) if sizes is None else _point_line_data(coords, sizes)
        return GeometryColumn(data, payloads), dropped
    xy = coords.tolist()
    stop = 0
    for i, size in zip(rows, [1] * len(xy) if sizes is None else sizes.tolist()):
        start, stop = stop, stop + size
        geometries[i] = Point(*xy[start]) if size == 1 else LineString(coords[start:stop])
    return (
        GeometryColumn.from_entries((payloads[i], geometries[i]) for i in sorted(geometries)),
        dropped,
    )


def _runs(texts: list) -> tuple[list[str], bool, list[int]]:
    """The text of each point or line run of the batch, in row order,
    whether one is a line run, and the rows no run takes.  A value that
    is no string, or holds a newline, stands in as an empty row."""
    try:
        runs = _scan("\n".join([*texts, ""]), len(texts))
    except TypeError:
        runs = None
    if runs is None:
        joined = "".join(t + "\n" if isinstance(t, str) and "\n" not in t else "\n" for t in texts)
        runs = _scan(joined, len(texts))
    return runs


def _scan(joined: str, n: int) -> tuple[list[str], bool, list[int]] | None:
    """:func:`_runs` over ``n`` newline-ended rows; None when ``joined``
    holds more newlines than rows."""
    pieces: list[str] = []
    others: list[int] = []
    lines = False
    row = pos = 0
    while row < n:
        match = _POINT_RUN.match(joined, pos)
        if match is None:
            match = _LINE_RUN.match(joined, pos)
            lines = lines or match is not None
        if match is None:
            others.append(row)
            row, pos = row + 1, joined.index("\n", pos) + 1
            continue
        end = match.end()
        row += joined.count("\n", pos, end)
        pieces.append(joined[pos:end])
        pos = end
    return (pieces, lines, others) if row == n and pos == len(joined) else None


def _floats(tokens: list[str]) -> np.ndarray:
    """The tokens as float64, NaN for one ``float`` refuses ("1e", "+-1";
    no run of number characters reads as NaN): a run that does not
    convert is halved until its refused tokens stand alone."""
    try:
        return np.asarray(tokens, dtype=np.float64)
    except ValueError:
        if len(tokens) == 1:
            return np.array([np.nan])
        half = len(tokens) // 2
        return np.concatenate((_floats(tokens[:half]), _floats(tokens[half:])))


def refuse_wkt_row(text: object, row: int) -> NoReturn:
    """Raise for row ``row``, which :func:`parse_wkt_column` dropped: the
    scalar reader's own error for malformed WKT, a ``GeometryError``
    naming the row for a type the column model cannot hold."""
    raise _unsupported_row(row, _READER.read(text))


def column_from_wkt(
    texts: Iterable[str], payloads: Sequence[object] | None = None
) -> GeometryColumn:
    """Parse WKT strings into a :class:`GeometryColumn` in bulk.

    The strict door: malformed WKT raises exactly like the scalar reader,
    and a geometry type outside the columnar model (e.g.
    ``GEOMETRYCOLLECTION``) raises a ``GeometryError`` naming its row.
    """
    texts = list(texts)
    column, dropped = parse_wkt_column(texts, payloads)
    if dropped:
        refuse_wkt_row(texts[dropped[0]], dropped[0])
    return column
