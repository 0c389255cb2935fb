"""Bulk WKT → column conversion: the repo's one WKT-batch parser.

The paper stores every dataset as WKT on HDFS and parses it row by row;
here a partition / row batch is parsed at a time.  The hot case — point
rows like the paper's taxi pickups — takes three vectorised steps (one
regex capture per row, one ``np.asarray(..., dtype=float64)``, one
reshape) instead of a tokenizer pass and a Python object per row.  The
regex accepts a strict subset of what :class:`~repro.geometry.wkt.WKTReader`
accepts — ASCII ``POINT (x y)`` whose numbers are runs of the tokenizer's
own number characters — and numpy's string→float64 conversion is Python's
``float``, so the coordinates are bit-identical to the scalar reader's.

Every row the regex or the conversion rejects gets a per-row
``WKTReader.try_read`` — the only per-row parse on a probe side — and
either joins the batch as a geometry object or is reported as a dropped
position.  :func:`parse_wkt_column` is called by the Spark loader
(``read_geometry_pairs``), the Impala probe (``core.isp.probe_wkt_rows``)
and the API (``core.api``); :func:`column_from_wkt` is its strict wrapper.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

import numpy as np

from repro.columnar.column import GeometryColumn, _point_only_data
from repro.geometry.base import Geometry
from repro.geometry.point import Point
from repro.geometry.wkt import _NUMBER_CHARS, WKTReader

__all__ = ["column_from_wkt", "parse_wkt_column"]

_NUMBER = "[" + "".join(re.escape(ch) for ch in sorted(_NUMBER_CHARS)) + "]+"
_POINT_ROW = re.compile(
    rf"\s*[Pp][Oo][Ii][Nn][Tt]\s*\(\s*({_NUMBER})\s+({_NUMBER})\s*\)\s*"
)
_READER = WKTReader()


def parse_wkt_column(
    texts: Iterable[object], payloads: Sequence[object] | None = None
) -> tuple[GeometryColumn | list[tuple[object, Geometry]], list[int]]:
    """Parse a batch of WKT values; returns ``(parsed, dropped)``.

    ``dropped`` lists, ascending, the positions whose value is not a
    string or does not parse (exactly those ``WKTReader.try_read``
    returns ``None`` for).  ``parsed`` holds the other rows in order,
    paired with their payloads: a point-only :class:`GeometryColumn`
    (no geometry object built) when every kept row is a plain point,
    otherwise the ``(payload, geometry)`` list of a batch that needed
    the object reader.
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
    matched: Sequence[int] = (
        sorted(set(range(n)).difference(others)) if others else range(n)
    )
    try:
        values = np.asarray(tokens, dtype=np.float64)
    except ValueError:
        # Some captured run is no number ("1e", "+-1"): sort those rows
        # out one at a time, then convert the rest.
        matched, tokens = _convertible(matched, tokens, others)
        values = np.asarray(tokens, dtype=np.float64)
    coords = values.reshape(len(matched), 2)
    geometries: dict[int, Geometry] = {}
    dropped: list[int] = []
    for i in others:
        geometry = _READER.try_read(texts[i])
        if geometry is None:
            dropped.append(i)
        else:
            geometries[i] = geometry
    if not geometries:
        if dropped:
            payloads = [payloads[i] for i in matched]
        return GeometryColumn(_point_only_data(coords), payloads), dropped
    for i, (x, y) in zip(matched, coords.tolist()):
        geometries[i] = Point(x, y)
    return [(payloads[i], geometries[i]) for i in sorted(geometries)], dropped


def _convertible(
    matched: Sequence[int], tokens: list[str], others: list[int]
) -> tuple[list[int], list[str]]:
    """Split regex-matched rows by whether ``float`` takes both captures;
    the rows it refuses join ``others`` (kept ascending)."""
    good_rows: list[int] = []
    good_tokens: list[str] = []
    for k, i in enumerate(matched):
        pair = tokens[2 * k : 2 * k + 2]
        try:
            float(pair[0]), float(pair[1])
        except ValueError:
            others.append(i)
        else:
            good_rows.append(i)
            good_tokens += pair
    others.sort()
    return good_rows, good_tokens


def column_from_wkt(
    texts: Iterable[str], payloads: Sequence[object] | None = None
) -> GeometryColumn | None:
    """Parse WKT strings into a :class:`GeometryColumn` in bulk.

    Returns ``None`` when a geometry type outside the columnar model
    (e.g. ``GEOMETRYCOLLECTION``) appears; malformed WKT raises, exactly
    like the scalar reader.
    """
    texts = list(texts)
    parsed, dropped = parse_wkt_column(texts, payloads)
    if dropped:
        _READER.read(texts[dropped[0]])  # raises the scalar reader's error
    if isinstance(parsed, GeometryColumn):
        return parsed
    return GeometryColumn.from_entries(parsed)
