"""Bulk WKT → column conversion: the repo's one WKT-batch parser.

The paper stores every dataset as WKT on HDFS and parses it row by row;
here a partition / row batch is parsed at a time.  The hot cases — point
rows like the paper's taxi pickups, polyline rows like its LION streets —
take a few vectorised steps (one anchored regex per row, one
``np.asarray(..., dtype=float64)``, ring offsets from a ``cumsum`` of the
rows' coordinate counts, line bounding boxes from
``minimum/maximum.reduceat``) instead of a tokenizer pass and a Python
object per row.  Each regex accepts a strict subset of what
:class:`~repro.geometry.wkt.WKTReader` accepts, its numbers being runs of
the tokenizer's own number characters:

* ``POINT (x y)`` in any letter case, with any whitespace the tokenizer
  skips;
* ``LINESTRING (x y, x y, ...)`` as the repo's writer and the paper's
  datasets spell it — upper-case tag, plain spaces, two or more
  two-number coordinates — whose values are all finite and hold no
  negative zero (``1e999`` reads as inf, and a min / max reduction does
  not define ``min(-0.0, 0.0)``'s bits, so such a row's bounding box
  could differ from the reader's).

numpy's string→float64 conversion is Python's ``float``, so the
coordinates — and with them the buffers, ``nbytes`` and ``to_bytes()`` of
the column — are bit-identical to ``GeometryColumn.from_entries`` over the
scalar reader's objects.

Every other row — another type, another spelling, a value the conversion
refuses — gets a per-row ``WKTReader.try_read``, the only per-row parse on
a probe side, and is either packed beside the bulk rows or — when it does
not parse, or parses to a type the column model cannot hold — reported as
a dropped position.  Rows the bulk path takes neither read nor
fill the reader's process-wide parse memo, so a build side's
reader-parsed polygons stay warm in it however many probe batches go by.
:func:`parse_wkt_column` is called by the Spark loader
(``read_geometry_pairs``), the Impala probe (``core.isp.probe_wkt_blocks``)
and the API (``core.api``); :func:`column_from_wkt` is its strict wrapper.
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

_NUMBER = "[" + "".join(re.escape(ch) for ch in sorted(_NUMBER_CHARS)) + "]+"
_POINT_ROW = re.compile(
    rf"\s*[Pp][Oo][Ii][Nn][Tt]\s*\(\s*({_NUMBER})\s+({_NUMBER})\s*\)\s*"
)
# Upper-case tag, plain spaces: what the repo's writer and the paper's
# datasets emit.  Any other spelling is the reader's.
_LINE_ROW = re.compile(
    rf" *LINESTRING *\( *({_NUMBER} +{_NUMBER}(?: *, *{_NUMBER} +{_NUMBER})+) *\) *"
)
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
    tokens: list[str] = []
    others: list[int] = []
    fullmatch = _POINT_ROW.fullmatch
    for i, text in enumerate(texts):
        try:
            match = fullmatch(text)
        except TypeError:  # not a string: the reader's to refuse
            match = None
        if match is None:
            others.append(i)
        else:
            tokens += match.groups()
    lines: dict[int, list[str]] = {}
    if others:
        fullmatch = _LINE_ROW.fullmatch
        for i in others:
            match = fullmatch(texts[i]) if isinstance(texts[i], str) else None
            if match is not None:
                lines[i] = match.group(1).replace(",", " ").split()
        if lines:
            others = [i for i in others if i not in lines]
    matched: Sequence[int] = (
        sorted(set(range(n)).difference(others)) if others else range(n)
    )
    # Coordinates per bulk row, aligned with ``matched``; None: all points.
    sizes: list[int] | None = None
    if lines:
        if len(lines) < len(matched):
            points = iter(zip(tokens[::2], tokens[1::2]))
            row_tokens = [lines[i] if i in lines else next(points) for i in matched]
        else:
            row_tokens = list(lines.values())
        sizes = [len(row) // 2 for row in row_tokens]
        tokens = [token for row in row_tokens for token in row]
    try:
        values = np.asarray(tokens, dtype=np.float64)
        if sizes is not None and not _line_safe(values):
            raise ValueError
    except ValueError:
        # Some captured run is no number ("1e", "+-1"), or a line holds a
        # value min/max cannot order bit-for-bit: sort those rows out one
        # at a time, then convert the rest.
        matched, tokens, sizes = _convertible(matched, tokens, sizes, others)
        values = np.asarray(tokens, dtype=np.float64)
    coords = values.reshape(len(values) // 2, 2)
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
            payloads = [payloads[i] for i in matched]
        data = _point_only_data(coords) if sizes is None else _point_line_data(coords, sizes)
        return GeometryColumn(data, payloads), dropped
    if sizes is None:
        for i, (x, y) in zip(matched, coords.tolist()):
            geometries[i] = Point(x, y)
    else:
        stop = 0
        for i, size in zip(matched, sizes):
            start, stop = stop, stop + size
            if i in lines:
                geometries[i] = LineString(coords[start:stop])
            else:
                geometries[i] = Point(*coords[start].tolist())
    return (
        GeometryColumn.from_entries((payloads[i], geometries[i]) for i in sorted(geometries)),
        dropped,
    )


def _line_safe(values: np.ndarray) -> bool:
    """Whether a line row may keep these values: all finite (``1e999``
    reads as inf) and no negative zero, whose order against ``0.0`` a
    min / max reduction does not define — so the row's bounding box is
    the reader's bit for bit."""
    return bool(np.isfinite(values).all()) and not bool(
        np.signbit(values[values == 0.0]).any()
    )


def _convertible(
    matched: Sequence[int],
    tokens: list[str],
    sizes: list[int] | None,
    others: list[int],
) -> tuple[list[int], list[str], list[int] | None]:
    """Split regex-matched rows by whether ``float`` takes every capture
    (and, for a line, every value is :func:`_line_safe`); the rows that
    fail join ``others`` (kept ascending)."""
    good_rows: list[int] = []
    good_tokens: list[str] = []
    good_sizes: list[int] = []
    stop = 0
    for k, i in enumerate(matched):
        size = 1 if sizes is None else sizes[k]
        start, stop = stop, stop + 2 * size
        row = tokens[start:stop]
        try:
            values = [float(token) for token in row]
        except ValueError:
            others.append(i)
            continue
        if size > 1 and not _line_safe(np.asarray(values)):
            others.append(i)
            continue
        good_rows.append(i)
        good_tokens += row
        good_sizes.append(size)
    others.sort()
    return good_rows, good_tokens, None if sizes is None else good_sizes


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
